import math
from fractions import Fraction

import pytest

from rmflab.errors import ScaleError
from rmflab.numtheory import segmented_factorize, sieve_primes, z_of_delta
from rmflab.rmf_core import SignSource
from rmflab.stein import (
    conditional_t_decomposition_check,
    decomposition_sides,
    delta2_exact,
    delta3_exact_tiny,
    delta4_exact,
    conditional_moments_check,
    increment_support,
    subset_weight,
    subset_weight_identity,
    sign_vector_moments,
    stein_terms,
    exchange_statistic,
    exchange_variance_monte_carlo,
)


class FixedSigns:
    def __init__(self, neg=()):
        self.neg = set(neg)

    def sign(self, p):
        return -1 if p in self.neg else 1


def test_increment_support_examples():
    t = segmented_factorize(10, 10)
    assert increment_support(13, t).members == (1,)
    assert increment_support(7, t).members == (2,)
    assert increment_support(23, t).members == ()  # p > x + y
    assert increment_support(2, t).members == (7,)  # 14 only; 12, 16, 18, 20 not square-free


def test_increment_support_invariants():
    t = segmented_factorize(100, 50)
    for p in (2, 3, 7, 11, 13):
        np_set = increment_support(p, t)
        for k in np_set.members:
            assert 100 < k * p <= 150
            assert k % p != 0
            assert t.is_squarefree(k * p)


def test_delta2():
    t = segmented_factorize(10, 10)
    assert delta2_exact(7, t) == 2
    assert delta2_exact(23, t) == 0
    for p in (2, 3, 5, 7, 11):
        assert delta2_exact(p, t) <= 2 * (1 + 10 / p)


def test_delta4():
    t10 = segmented_factorize(10, 10)
    assert delta4_exact(7, t10) == 8  # |N(7)| = 1
    assert delta4_exact(23, t10) == 0
    t = segmented_factorize(25, 20)  # N(7) = {5, 6}, no non-diagonal
    assert increment_support(7, t).members == (5, 6)
    assert delta4_exact(7, t) == 8 * (3 * 4 - 2 * 2)


def test_delta3_frozen_values():
    t10 = segmented_factorize(10, 10)
    assert delta3_exact_tiny(7, t10) == 4.0  # single member
    assert delta3_exact_tiny(23, t10) == 0.0
    # two coprime members: 4 * E|X1 + X2|^3 = 4 * identical-law average 4 = 16
    t = segmented_factorize(25, 20)
    assert delta3_exact_tiny(7, t) == 16.0


def test_delta3_brute_force_cross_check():
    # independent enumeration over explicit sign vectors
    t = segmented_factorize(25, 20)
    members = increment_support(7, t).members
    primes = sorted({q for k in members for q, _ in t.factors(k * 7) if q != 7})
    total = 0
    for bits in range(1 << len(primes)):
        sgn = {q: -1 if bits >> j & 1 else 1 for j, q in enumerate(primes)}
        g = 0
        for k in members:
            g += math.prod(sgn[q] for q, _ in t.factors(k * 7) if q != 7)
        total += abs(g) ** 3
    assert delta3_exact_tiny(7, t) == 4 * total / (1 << len(primes))


def test_cauchy_schwarz_chain():
    t = segmented_factorize(100, 60)
    for p in (2, 3, 5, 7, 11, 13, 17, 31, 101):
        d3 = Fraction(delta3_exact_tiny(p, t))
        assert d3 * d3 <= delta2_exact(p, t) * delta4_exact(p, t)


def test_delta3_budget():
    t = segmented_factorize(10**4, 200)
    with pytest.raises(ScaleError):
        delta3_exact_tiny(2, t, prime_budget=5)


def test_subset_weight():
    assert subset_weight(2, 0) == Fraction(1, 2)
    assert subset_weight(2, 1) == Fraction(1, 2)
    assert subset_weight(5, 2) == Fraction(1, 30)
    for l, a in [(6, 2), (9, 5), (12, 0)]:
        assert subset_weight(l, a) == Fraction(1, l * math.comb(l - 1, a))
    with pytest.raises(ValueError):
        subset_weight(3, 3)
    with pytest.raises(ValueError):
        subset_weight(3, -1)


def test_weight_identity_small():
    assert subset_weight_identity(2, 1) == Fraction(1)
    assert subset_weight_identity(3, 2) == Fraction(1, 2)
    assert subset_weight_identity(30, 7) == Fraction(1, 7)
    for l in range(1, 13):
        for w in range(1, l + 1):
            assert subset_weight_identity(l, w) == Fraction(1, w)
    with pytest.raises(ValueError):
        subset_weight_identity(5, 6)
    with pytest.raises(ValueError):
        subset_weight_identity(5, 0)


def test_exchange_statistic_examples():
    t = segmented_factorize(25, 20)  # N(7) = {5, 6}
    assert exchange_statistic(7, t, FixedSigns(), 6.0) == Fraction(2)
    # single member or empty: off-diagonal sum is empty
    t10 = segmented_factorize(10, 10)
    assert exchange_statistic(7, t10, FixedSigns(), 5.0) == Fraction(0)
    assert exchange_statistic(23, t10, FixedSigns(), 5.0) == Fraction(0)
    with pytest.raises(ValueError):
        exchange_statistic(3, t10, FixedSigns(), 5.0)  # p <= z


def test_exchange_statistic_quadratic_form_parity():
    # negating every member value X(k) leaves the degree-2 form unchanged:
    # members of N(7) here are 5 and 6, flipped via primes 5 and 2
    t = segmented_factorize(25, 20)
    base = exchange_statistic(7, t, FixedSigns(), 6.0)
    flipped = exchange_statistic(7, t, FixedSigns(neg=[5, 2]), 6.0)
    assert base == flipped == Fraction(2)
    half = exchange_statistic(7, t, FixedSigns(neg=[5]), 6.0)
    assert half == Fraction(-2)


def test_exchange_statistic_zero_mean_over_seeds():
    # off-diagonal second-order chaos: E over sign draws of T_p is 0
    t = segmented_factorize(25, 20)  # N(7) = {5, 6}
    total = Fraction(0)
    n_seeds = 4000
    for seed in range(n_seeds):
        total += exchange_statistic(7, t, SignSource(seed), 6.0)
    mean = total / n_seeds
    # T_7 = 2 X(5) X(6): sd of the mean is 2/sqrt(n_seeds)
    assert abs(mean) <= 4 * 2 / math.sqrt(n_seeds)


def test_exchange_variance_trivial_and_deterministic():
    t10 = segmented_factorize(10, 10)
    # z above every prime <= y: every |N(p)| with p > z is <= 1, so T = 0
    assert exchange_variance_monte_carlo(t10, 9.0, 50, 1) == 0.0
    t = segmented_factorize(200, 80)
    a = exchange_variance_monte_carlo(t, 3.0, 200, 99)
    b = exchange_variance_monte_carlo(t, 3.0, 200, 99)
    assert a == b >= 0.0
    with pytest.raises(ValueError):
        exchange_variance_monte_carlo(t, 3.0, 1, 0)


def test_exchange_variance_golden_values():
    # values of the per-trial scalar loop over SignSource.for_trial, frozen
    t = segmented_factorize(10**4, 400)
    assert exchange_variance_monte_carlo(t, 0.5 * math.log(25), 2000, 5) == 4034.537993545384
    t = segmented_factorize(200, 80)
    assert exchange_variance_monte_carlo(t, 3.0, 200, 99) == 81.81304020100502


def test_conditional_moments_exact():
    x, y = 700, 9
    delta = y / x
    t = segmented_factorize(x, y)
    small = sieve_primes(math.floor(z_of_delta(delta)))
    assignments = [
        {p: 1 for p in small},
        {p: -1 for p in small},
        {p: (-1) ** i for i, p in enumerate(small)},
    ]
    rep = conditional_moments_check(t, z_of_delta(delta), assignments)
    assert rep.ok
    assert rep.means == (Fraction(0),) * 3
    assert rep.second_moments == (Fraction(t.squarefree_count),) * 3


def test_every_squarefree_entry_has_a_large_prime():
    # n_L > y: the large part of a square-free entry never vanishes
    for x, y in [(700, 9), (3000, 8), (12000, 7)]:
        t = segmented_factorize(x, y)
        z = z_of_delta(y / x)
        for n, primes in t.squarefree_items():
            assert any(p > z for p in primes)


def test_conditional_moments_s_zero_interval():
    t = segmented_factorize(47, 1)  # 48 = 2^4 * 3
    rep = conditional_moments_check(t, z_of_delta(1 / 47), [{}])
    assert rep.ok and rep.s_count == 0


def test_conditional_moments_budget_and_validation():
    t = segmented_factorize(10**4, 300)
    with pytest.raises(ScaleError):
        conditional_moments_check(t, z_of_delta(0.03), [{2: 1}], large_prime_budget=22)
    t2 = segmented_factorize(700, 9)
    with pytest.raises(ValueError):
        conditional_moments_check(t2, z_of_delta(9 / 700), [{}])  # missing small prime 2
    small = sieve_primes(math.floor(z_of_delta(9 / 700)))
    with pytest.raises(ValueError):
        conditional_moments_check(t2, z_of_delta(9 / 700), [{p: 2 for p in small}])


def test_sign_vector_moments_tiny():
    # two disjoint singleton masks: f = c1 (+/-1) + c2 (+/-1)
    mean, second = sign_vector_moments([1, 2], [1, 1], 2)
    assert mean == 0 and second == 2
    mean, second = sign_vector_moments([1, 1], [1, 1], 1)  # same mask: f = +/-2
    assert mean == 0 and second == 4


def test_decomposition_exact_equality():
    cases = [(48, 8, 5.0), (120, 10, 7.0), (300, 12, 13.0), (30, 14, 5.0)]
    for x, y, z in cases:
        t = segmented_factorize(x, y)
        for seed in (1, 2):
            assert conditional_t_decomposition_check(t, z, SignSource(seed))


def test_decomposition_value_is_s_plus_t_terms():
    # with nonzero T_7 = +/-2 the direct side must track it exactly
    t = segmented_factorize(30, 14)
    signs = SignSource(1)
    direct, closed = decomposition_sides(t, 5.0, signs)
    tp = exchange_statistic(7, t, signs, 5.0)
    assert direct == closed == t.squarefree_count + tp


def test_decomposition_budget():
    t = segmented_factorize(10**4, 100)
    with pytest.raises(ScaleError):
        decomposition_sides(t, 5.0, SignSource(0))


def test_stein_terms_aggregation():
    t = segmented_factorize(200, 80)
    terms = stein_terms(t, 3.0, var_trials=50, master_seed=2)
    assert terms.sum_delta3 >= 0 and terms.exchange_variance >= 0
    assert all(v >= 0 for v in terms.delta2_by_p.values())
    assert all(v >= 0 for v in terms.delta4_by_p.values())
    assert terms.exact_primes > 0
    # every per-prime pair obeys the moment inequality chain
    for p, d2 in terms.delta2_by_p.items():
        assert Fraction(delta3_exact_tiny(p, t)) ** 2 <= d2 * terms.delta4_by_p[p]
    # forcing the exact path off routes primes through the bound
    loose = stein_terms(t, 3.0, var_trials=50, master_seed=2, prime_budget=0)
    assert loose.bounded_primes > 0
    assert loose.sum_delta3 >= terms.sum_delta3


def test_large_prime_third_moment_structure():
    # primes p > y with nonempty N(p): each contributes exactly 4, and there
    # are at most y ln(x+y)/ln(y) of them
    x, y = 10**4, 100
    t = segmented_factorize(x, y)
    big = sorted({p for _, ps in t.squarefree_items() for p in ps if p > y})
    assert len(big) <= y * math.log(x + y) / math.log(y)
    for p in big[::25]:
        assert len(increment_support(p, t).members) == 1
        assert delta3_exact_tiny(p, t) == 4.0


def test_stein_terms_golden_values():
    terms = stein_terms(segmented_factorize(200, 80), 3.0, var_trials=50, master_seed=2)
    assert terms.sum_delta3 == 565.75
    assert terms.exchange_variance == 81.16285714285715
    assert (terms.exact_primes, terms.bounded_primes) == (42, 0)
    assert sum(terms.delta2_by_p.values()) == 134
    assert sum(terms.delta4_by_p.values()) == 3656


@pytest.mark.parametrize("x, y, seed, value", [(700, 9, 5, 6), (3000, 8, 11, 5)])
def test_decomposition_sides_golden(x, y, seed, value):
    # values taken from the per-sign-vector evaluation of f that the
    # transform replaced
    t = segmented_factorize(x, y)
    direct, closed = decomposition_sides(t, 0.5 * math.log(x / y), SignSource(seed))
    assert direct == closed == value
