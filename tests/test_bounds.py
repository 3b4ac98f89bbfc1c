import math

import pytest

from rmflab.bounds import (
    BoundInputs,
    kolmogorov_bound,
    kolmogorov_bound_terms,
    delta3_sum_bound,
    exchange_variance_bound,
    nondiagonal_bound,
    wasserstein_bound,
    wasserstein_bound_terms,
)

# frozen from a 50-digit reference evaluation
W_BOUND_EXAMPLE = (10**8, 10**4, 6079, 0.808006313418131)
W_BOUND_EXAMPLE_TERMS = (0.695206693549, 0.0706025999766, 0.0421970198928)
NONDIAG_BOUND_EXAMPLE = (10**3, 0.01, 1348.98791866529)
DELTA3_BOUND_EXAMPLE = (10**6, 10**3, 19015.5709455242)
GOAL_EXAMPLE = (10**5, 1e-3, 3045.08460853233)


def inputs(x, y, s):
    return BoundInputs.from_interval(x, y, s)


def test_wasserstein_bound_frozen_example():
    x, y, s, expected = W_BOUND_EXAMPLE
    b = inputs(x, y, s)
    for got, ref in zip(wasserstein_bound_terms(b), W_BOUND_EXAMPLE_TERMS):
        assert got == pytest.approx(ref, rel=1e-10)
    assert wasserstein_bound(b) == pytest.approx(expected, rel=1e-12)


def test_bound_clamps():
    big = inputs(10**6, 10**4, 10)  # terms blow far past 1
    assert wasserstein_bound(big) == 1.0
    assert kolmogorov_bound(big) == 1.0
    degenerate = BoundInputs.from_interval(10**4, 100, 0)
    assert wasserstein_bound(degenerate) == 1.0
    assert kolmogorov_bound(degenerate) == 1.0


def test_s_equal_y_makes_unit_ratio():
    b = inputs(10**6, 10**3, 10**3)  # hypothetical: every integer square-free
    t1, t2, t3 = wasserstein_bound_terms(b)
    assert t2 == pytest.approx(math.sqrt(1e-3 * math.log(10**6)))


def test_kolmogorov_bound_terms_are_square_roots_of_wasserstein_bound_terms():
    for x, y, s in [(10**8, 10**4, 6079), (10**6, 10**3, 600), (10**4, 500, 300)]:
        b = inputs(x, y, s)
        for ct, tt in zip(kolmogorov_bound_terms(b), wasserstein_bound_terms(b)):
            assert ct == pytest.approx(math.sqrt(tt), rel=1e-12)


def test_kolmogorov_bound_frozen_example_clamps():
    x, y, s, _ = W_BOUND_EXAMPLE
    assert kolmogorov_bound(inputs(x, y, s)) == 1.0  # the three roots sum past 1


def test_bounds_decrease_in_s():
    values = [wasserstein_bound(inputs(10**8, 10**4, s)) for s in (3000, 5000, 6079, 9000)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    cvalues = [kolmogorov_bound(inputs(10**8, 10**4, s)) for s in (3000, 5000, 6079, 9000)]
    assert all(a >= b for a, b in zip(cvalues, cvalues[1:]))


def test_nondiagonal_bound():
    x, delta, expected = NONDIAG_BOUND_EXAMPLE
    assert nondiagonal_bound(x, delta) == pytest.approx(expected, rel=1e-12)
    assert nondiagonal_bound(10**3, 1e-9) < 1e-8  # delta^3 kills it
    deltas = [0.001, 0.01, 0.05, 0.09]
    vals = [nondiagonal_bound(10**4, d) for d in deltas]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_delta3_sum_bound():
    x, y, expected = DELTA3_BOUND_EXAMPLE
    z = 0.5 * math.log(x / y)
    assert delta3_sum_bound(x, y, z) == pytest.approx(expected, rel=1e-12)
    # quadrupling z halves the first term
    first = lambda z_: delta3_sum_bound(10**6, 10**3, z_) - 10**3 * math.log(10**6) / math.log(10**3)
    assert first(4.0) == pytest.approx(first(1.0) / 2)
    assert math.isfinite(delta3_sum_bound(10**4, 2, 1.0))
    with pytest.raises(ValueError):
        delta3_sum_bound(10**4, 1, 1.0)


def test_exchange_variance_bound():
    x, delta, expected = GOAL_EXAMPLE
    z = 0.5 * math.log(1 / delta)
    assert exchange_variance_bound(x, delta, z) == pytest.approx(expected, rel=1e-12)
    assert exchange_variance_bound(10**5, 1e-9, z) < 1e-3
    # in the 1/z-dominant regime doubling z roughly halves the bound
    tiny = exchange_variance_bound(10**7, 1e-6, 2.0) / exchange_variance_bound(10**7, 1e-6, 4.0)
    assert tiny == pytest.approx(2.0, rel=0.05)


def test_determinism():
    b = inputs(*W_BOUND_EXAMPLE[:3])
    assert wasserstein_bound(b) == wasserstein_bound(b)
    assert kolmogorov_bound(b) == kolmogorov_bound(b)


def test_bound_inputs_z_default():
    b = BoundInputs.from_interval(10**4, 100, 60)
    assert b.z == pytest.approx(0.5 * math.log(100))
    assert b.delta == pytest.approx(0.01)
