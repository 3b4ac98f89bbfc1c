import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.distances import (
    SampleSet,
    kkw_from,
    kolmogorov_stat,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    wasserstein1,
)
from rmflab.harness import ExperimentConfig, _distance_block, run_simulate

SQRT_2_OVER_PI = math.sqrt(2 / math.pi)

# frozen from a 50-digit reference evaluation
CDF_REFERENCE = [
    (0.0, 0.5),
    (1.96, 0.97500210485177957),
    (-1.96, 0.02499789514822043),
    (8.0, 0.99999999999999994),
]
QUANTILE_REFERENCE = [
    (1e-9, -5.9978070150076869),
    (0.001, -3.0902323061678135),
    (0.025, -1.9599639845400542),
    (0.31, -0.49585034734745333),
    (0.5, 0.0),
    (0.975, 1.9599639845400542),
    (1 - 1e-9, 5.9978070150076869),
]

# frozen from an adaptive-quadrature oracle of integral |F_n - Phi| over
# quantile samples at (i - 1/2)/n
W1_QUANTILE_REFERENCE = {
    100: 0.016135757553,
    1000: 0.00191715461456,
    10000: 0.000218316746175,
}


def kkw(sample: SampleSet) -> tuple[bool, float]:
    return kkw_from(kolmogorov_stat(sample), wasserstein1(sample))


def quantile_sample(n: int) -> SampleSet:
    return SampleSet.from_values(
        normal_quantile((i - 0.5) / n) for i in range(1, n + 1)
    )


@pytest.mark.parametrize("t,expected", CDF_REFERENCE)
def test_normal_cdf(t, expected):
    assert normal_cdf(t) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("q,expected", QUANTILE_REFERENCE)
def test_normal_quantile(q, expected):
    assert normal_quantile(q) == pytest.approx(expected, abs=1e-8)


def test_quantile_inverts_cdf():
    for i in range(1, 2000):
        q = i / 2000
        assert abs(normal_cdf(normal_quantile(q)) - q) < 1e-8


def test_quantile_domain():
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            normal_quantile(q)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(())
    with pytest.raises(ValueError):
        SampleSet((2.0, 1.0))
    with pytest.raises(ValueError):
        SampleSet((0.0, math.inf))
    for values, counts in (((0.0, math.nan), None), ((1.0,), (0,)), ((1.0, 2.0), (1,))):
        with pytest.raises(ValueError):
            SampleSet(values, counts)
    for bad in ([], iter(()), np.array([]), [1.0, math.nan], np.array([0.0, -math.inf])):
        with pytest.raises(ValueError):
            SampleSet.from_values(bad)
    s = SampleSet.from_values([3, 1, 2])
    assert s.values == (1.0, 2.0, 3.0) and s.n == 3


def test_kolmogorov_examples():
    assert kolmogorov_stat(SampleSet((0.0,))) == pytest.approx(0.5)
    for n in (100, 1000):
        assert kolmogorov_stat(quantile_sample(n)) == pytest.approx(
            1 / (2 * n), abs=1e-9
        )
    assert kolmogorov_stat(SampleSet((10.0,))) == pytest.approx(1.0, abs=1e-9)


def test_kolmogorov_with_ties():
    # all mass at m: sup is max(Phi(m), 1 - Phi(m))
    s = SampleSet((1.5, 1.5, 1.5))
    assert kolmogorov_stat(s) == pytest.approx(normal_cdf(1.5))


def test_wasserstein_point_mass():
    assert wasserstein1(SampleSet((0.0,))) == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)
    for m in (1.5, -2.0, 0.3):
        closed = m * (2 * normal_cdf(m) - 1) + 2 * math.exp(-m * m / 2) / math.sqrt(
            2 * math.pi
        )
        assert wasserstein1(SampleSet((m,))) == pytest.approx(closed, abs=1e-9)


def test_wasserstein_quantile_samples():
    values = [wasserstein1(quantile_sample(n)) for n in (100, 1000, 10000)]
    for got, n in zip(values, (100, 1000, 10000)):
        assert got == pytest.approx(W1_QUANTILE_REFERENCE[n], abs=1e-8)
    assert values[0] > values[1] > values[2] > 0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-4, 4), min_size=1, max_size=40),
    st.floats(-0.5, 0.5),
)
def test_wasserstein_shift_lipschitz(values, h):
    base = SampleSet.from_values(values)
    shifted = SampleSet.from_values(v + h for v in values)
    assert abs(wasserstein1(shifted) - wasserstein1(base)) <= abs(h) + 1e-9


def test_kkw_point_mass():
    holds, ratio = kkw(SampleSet((0.0,)))
    assert holds
    assert ratio == pytest.approx(0.5 / (2 * math.sqrt(SQRT_2_OVER_PI)), abs=1e-9)
    assert ratio == pytest.approx(0.279878783730, abs=1e-9)


def test_kkw_quantile_sample_ratio_small():
    holds, ratio = kkw(quantile_sample(1000))
    assert holds and ratio < 0.05


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-6, 6), min_size=1, max_size=60))
def test_kkw_always_holds(values):
    holds, ratio = kkw(SampleSet.from_values(values))
    assert holds and ratio <= 1.0


def test_kkw_from_reuses_distances():
    sample = quantile_sample(200)
    k, w = kolmogorov_stat(sample), wasserstein1(sample)
    # the reports' one distance path computes each distance once
    block = _distance_block(sample)
    assert (block["ks"], block["w1"]) == (k, w)
    assert kkw_from(k, w) == (block["kkw_holds"], block["kkw_ratio"])
    assert kkw_from(0.5, 0.25) == (True, 0.5)
    assert kkw_from(1.5, 0.25) == (False, 1.5)


# The per-order-statistic loops that the distinct-value kernels replaced,
# kept as the oracle: the kernels must agree with them to the last bit.
def reference_kolmogorov(values) -> float:
    xs = sorted(float(v) for v in values)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs, start=1):
        c = normal_cdf(x)
        d = max(d, abs(i / n - c), abs((i - 1) / n - c))
    return d


def reference_wasserstein1(values) -> float:
    xs = sorted(float(v) for v in values)
    n = len(xs)
    x1, xn = xs[0], xs[-1]
    total = x1 * normal_cdf(x1) + normal_pdf(x1)
    total += normal_pdf(xn) - xn * (1.0 - normal_cdf(xn))

    def g(t, c):
        return t * normal_cdf(t) + normal_pdf(t) - c * t

    for j in range(1, n):
        a, b = xs[j - 1], xs[j]
        if a == b:
            continue
        c = j / n
        t_star = normal_quantile(c)
        if t_star <= a:
            total += g(b, c) - g(a, c)
        elif t_star >= b:
            total += g(a, c) - g(b, c)
        else:
            total += (g(a, c) - g(t_star, c)) + (g(b, c) - g(t_star, c))
    return total


def assert_matches_reference(sample: SampleSet, values) -> None:
    assert kolmogorov_stat(sample) == reference_kolmogorov(values)
    assert wasserstein1(sample) == reference_wasserstein1(values)


@pytest.fixture(scope="module")
def lattice_w():
    # W = raw / sqrt(S) with S = 606: 2000 trials on at most 607 values
    return run_simulate(ExperimentConfig(x=10**6, y=10**3, trials=2000, master_seed=4)).w_values


def test_distances_over_distinct_values_match_reference_on_lattice(lattice_w):
    sample = SampleSet.from_values(lattice_w)
    assert len(sample.values) < 200 and sample.n == 2000
    assert list(sample.values) == sorted(set(lattice_w.tolist()))
    assert_matches_reference(sample, lattice_w.tolist())


def test_sample_from_list_generator_and_array_agree(lattice_w):
    values = lattice_w.tolist()
    samples = [SampleSet.from_values(values), SampleSet.from_values(v for v in values),
               SampleSet.from_values(lattice_w), SampleSet.from_values(np.array(values))]
    assert all(s == samples[0] for s in samples)
    for s in samples:
        assert_matches_reference(s, values)
    ints = SampleSet.from_values([3, 1, 3, 2])
    assert ints == SampleSet.from_values(np.array([3, 1, 3, 2]))
    assert (ints.values, ints.counts) == ((1.0, 2.0, 3.0), (1, 1, 2))


def test_direct_sample_with_repeated_values_matches_reference():
    s = SampleSet((1.5, 1.5, 1.5))
    assert s.counts == (1, 1, 1) and s.n == 3
    assert s == SampleSet((1.5, 1.5, 1.5), (1, 1, 1))
    assert_matches_reference(s, [1.5] * 3)
    assert_matches_reference(SampleSet((-1.0, 0.5, 0.5, 2.0)), [-1.0, 0.5, 0.5, 2.0])
    assert_matches_reference(SampleSet((-1.0, 0.5, 2.0), (2, 5, 1)),
                             [-1.0] * 2 + [0.5] * 5 + [2.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=80), st.sampled_from((4, 7, 10)))
def test_distances_match_reference_on_tied_samples(ks, scale):
    values = [k / scale for k in ks]
    assert_matches_reference(SampleSet.from_values(values), values)
