import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.distances import (
    SampleSet,
    kkw_from,
    kolmogorov_stat,
    normal_cdf,
    normal_quantile,
    wasserstein1,
)
from rmflab.harness import _distance_block

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
    block = _distance_block(sample.values)
    assert (block["ks"], block["w1"]) == (k, w)
    assert kkw_from(k, w) == (block["kkw_holds"], block["kkw_ratio"])
    assert kkw_from(0.5, 0.25) == (True, 0.5)
    assert kkw_from(1.5, 0.25) == (False, 1.5)
