import math
import operator
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmflab.errors import ScaleError
from rmflab.numtheory import (
    IntervalTable,
    _factor_segment,
    _sieve,
    segmented_factorize,
    z_of_delta,
)
from rmflab.quadruples import _oracle_count_array, _oracle_count_members
from rmflab.rmf_core import SignSource
from rmflab import quadruples, rmf_core, stein
from rmflab.harness import VAR_TRIALS
from rmflab.stein import (
    _all_sign_values,
    _delta3,
    _over_entries,
    _quadruple_counts,
    _shared_supports,
    _span_coordinates,
    _subset_sums,
    _support_masks,
    _t_p,
    _view,
    decomposition_sides,
    conditional_moments_check,
    subset_weight,
    subset_weight_identity,
    stein_terms,
    exchange_variance_monte_carlo,
    SteinTerms,
)


# a member k of N(p), with the distinct primes of k
Member = tuple[int, tuple[int, ...]]


class FixedSigns:
    def __init__(self, neg=()):
        self.neg = set(neg)

    def sign(self, p):
        return -1 if p in self.neg else 1


def _supports(table: IntervalTable) -> dict[int, list[Member]]:
    """N(p) for every prime p dividing a square-free entry, members in
    ascending order, from the table's rows alone."""
    ps, off, lo = table.primes.tolist(), table.offsets.tolist(), table.x_lo + 1
    out: dict[int, list[Member]] = {}
    for i in np.flatnonzero(table.flags).tolist():
        primes = ps[off[i] : off[i + 1]]
        for p in primes:
            out.setdefault(p, []).append(((lo + i) // p, tuple(q for q in primes if q != p)))
    return out


def _large_primes(supports: dict[int, list[Member]], z: float) -> list[int]:
    return sorted(p for p in supports if p > z)


def _split_entries(table: IntervalTable, large: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """(small primes, bitmask of the large primes over the ascending list
    L = large) of every square-free entry."""
    index = {q: j for j, q in enumerate(large)}
    ps, off = table.primes.tolist(), table.offsets.tolist()
    entries = [ps[off[i] : off[i + 1]] for i in np.flatnonzero(table.flags).tolist()]
    return [(tuple(q for q in e if q not in index), sum(1 << index[q] for q in e if q in index))
            for e in entries]


def large_primes(t, z):
    """L, ascending, from the prime-major view."""
    view, first = _view(t, z)
    return view.primes[first:].tolist()


def prime_index(t, p):
    """j with view.primes[j] == p, or None where p divides no square-free
    entry."""
    view = t.prime_major
    j = int(np.searchsorted(view.primes, p))
    return j if j < view.primes.size and view.primes[j] == p else None


def members(t, p):
    """N(p) from the prime-major view, as its members k."""
    j, view = prime_index(t, p), t.prime_major
    if j is None:
        return []
    return ((t.x_lo + 1 + view.entries[view.offsets[j] : view.offsets[j + 1]]) // p).tolist()


def delta3(t, p):
    j = prime_index(t, p)
    return _delta3(p, *(_support_masks(t, j) if j is not None else ([], 0)))


def _masks_of(ms: list[Member]) -> tuple[list[int], int]:
    """Each member's primes as a bitmask over the k distinct primes of ms,
    ascending, and k."""
    index = {q: i for i, q in enumerate(sorted({q for _, qs in ms for q in qs}))}
    return [sum(1 << index[q] for q in qs) for _, qs in ms], len(index)


def _reference_t_p(ms: list[Member], signs, z: float) -> Fraction:
    """T_p over the members ms of N(p), p > z, exactly: X(k) the product of
    the signs of k's primes and omega_L(k p) = 1 + #{q > z}."""
    xs = [math.prod(signs.sign(q) for q in qs) for _, qs in ms]
    g = sum(xs)
    return sum((Fraction((g - x) * x, 1 + sum(q > z for q in qs)) for x, (_, qs) in zip(xs, ms)),
               Fraction(0))


def t_p(t, p, signs, z):
    return _reference_t_p(_supports(t).get(p, []), signs, z)


def test_increment_support_examples():
    t = segmented_factorize(10, 10)
    assert members(t, 13) == [1]
    assert members(t, 7) == [2]
    assert members(t, 23) == []  # p > x + y
    assert members(t, 2) == [7]  # 14 only; 12, 16, 18, 20 not square-free


def test_increment_support_invariants():
    t = segmented_factorize(100, 50)
    for p in (2, 3, 7, 11, 13):
        for k in members(t, p):
            assert 100 < k * p <= 150
            assert k % p != 0
            assert t.is_squarefree(k * p)


def test_delta2():
    t = segmented_factorize(10, 10)
    # z = 1: every prime of the table is large
    d2 = stein_terms(t, 1.0, var_trials=2, master_seed=0).delta2_by_p
    assert d2[7] == 2
    assert d2.get(23, 0) == 0
    for p in (2, 3, 5, 7, 11):
        assert d2[p] <= 2 * (1 + 10 / p)


def test_delta4():
    t10 = segmented_factorize(10, 10)
    assert stein_terms(t10, 1.0, var_trials=2, master_seed=0).delta4_by_p[7] == 8  # |N(7)| = 1
    assert members(t10, 23) == [] and _oracle_count_array([]) == 0
    t = segmented_factorize(25, 20)  # N(7) = {5, 6}, no non-diagonal
    assert members(t, 7) == [5, 6]
    assert stein_terms(t, 1.0, var_trials=2, master_seed=0).delta4_by_p[7] == 8 * (3 * 4 - 2 * 2)


def test_delta3_frozen_values():
    t10 = segmented_factorize(10, 10)
    assert delta3(t10, 7) == 4.0  # single member
    assert delta3(t10, 23) == 0.0
    # two coprime members: 4 * E|X1 + X2|^3 = 4 * identical-law average 4 = 16
    t = segmented_factorize(25, 20)
    assert delta3(t, 7) == 16.0


def test_delta3_brute_force_cross_check():
    # independent enumeration over explicit sign vectors
    t = segmented_factorize(25, 20)
    ks = members(t, 7)
    primes = sorted({q for k in ks for q, _ in t.factors(k * 7) if q != 7})
    total = 0
    for bits in range(1 << len(primes)):
        sgn = {q: -1 if bits >> j & 1 else 1 for j, q in enumerate(primes)}
        g = 0
        for k in ks:
            g += math.prod(sgn[q] for q, _ in t.factors(k * 7) if q != 7)
        total += abs(g) ** 3
    assert delta3(t, 7) == 4 * total / (1 << len(primes))


def test_cauchy_schwarz_chain():
    t = segmented_factorize(100, 60)
    terms = stein_terms(t, 1.0, var_trials=2, master_seed=0)
    for p in (2, 3, 5, 7, 11, 13, 17, 31, 101):
        d3 = Fraction(delta3(t, p))
        assert d3 * d3 <= terms.delta2_by_p[p] * terms.delta4_by_p[p]


def test_delta3_budget(monkeypatch):
    t = segmented_factorize(10**4, 200)
    monkeypatch.setattr(stein, "PRIME_BUDGET", 5)
    with pytest.raises(ScaleError):
        delta3(t, 2)


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


def identity_sum(l, w):
    """The identity sum for (L, w), from subset_weight_identity(L)."""
    nums, common = subset_weight_identity(l)
    assert len(nums) == l
    return Fraction(nums[w - 1], common)


def test_weight_identity_small():
    assert identity_sum(2, 1) == Fraction(1)
    assert identity_sum(3, 2) == Fraction(1, 2)
    assert identity_sum(30, 7) == Fraction(1, 7)
    for l in range(1, 13):
        for w in range(1, l + 1):
            assert identity_sum(l, w) == Fraction(1, w)
    with pytest.raises(ValueError):
        subset_weight_identity(0)
    with pytest.raises(ValueError):
        subset_weight_identity(-1)


def test_exchange_statistic_examples():
    t = segmented_factorize(25, 20)  # N(7) = {5, 6}
    assert t_p(t, 7, FixedSigns(), 6.0) == Fraction(2)
    # single member or empty: off-diagonal sum is empty
    t10 = segmented_factorize(10, 10)
    assert t_p(t10, 7, FixedSigns(), 5.0) == Fraction(0)
    assert t_p(t10, 23, FixedSigns(), 5.0) == Fraction(0)


def test_exchange_statistic_quadratic_form_parity():
    # negating every member value X(k) leaves the degree-2 form unchanged:
    # members of N(7) here are 5 and 6, flipped via primes 5 and 2
    t = segmented_factorize(25, 20)
    base = t_p(t, 7, FixedSigns(), 6.0)
    flipped = t_p(t, 7, FixedSigns(neg=[5, 2]), 6.0)
    assert base == flipped == Fraction(2)
    half = t_p(t, 7, FixedSigns(neg=[5]), 6.0)
    assert half == Fraction(-2)


def test_exchange_statistic_zero_mean_over_seeds():
    # off-diagonal second-order chaos: E over sign draws of T_p is 0
    t = segmented_factorize(25, 20)  # N(7) = {5, 6}
    support = _supports(t)[7]
    total = Fraction(0)
    n_seeds = 4000
    for seed in range(n_seeds):
        total += _reference_t_p(support, SignSource(seed), 6.0)
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


@pytest.mark.parametrize("x, y, seed, hexed", [
    (10**5, 100, 0, "0x1.131ca6df4201ep+6"),
    (10**5, 100, 1, "0x1.1e6a891c2a43ap+6"),
    (100020, 100, 0, "0x1.1fb5f003845c8p+6"),
    (100020, 100, 1, "0x1.5313f8356d3d8p+6"),
    (700, 9, 0, "0x0.0p+0"),
    (10**8, 10**4, 1, "0x1.38c8651434566p+19"),
])
def test_exchange_variance_golden_hex(x, y, seed, hexed):
    # 2000 trials at the default z, bit for bit as when the sampler hashed
    # every prime of the table
    t = segmented_factorize(x, y)
    assert exchange_variance_monte_carlo(t, z_of_delta(y / x), 2000, seed).hex() == hexed


def test_exchange_variance_hashes_only_the_primes_it_reads(monkeypatch):
    # the primes of the entries of every N(p) with |N(p)| >= 2 and p > z:
    # 46 of the 86 primes at (100020, 100]
    t = segmented_factorize(100020, 100)
    z = z_of_delta(100 / 100020)
    read = {q for e, _ in _shared_supports(t, _view(t, z)[1])
            for i in e.tolist() for q, _ in t.factors(t.x_lo + 1 + i)}
    hashed = []

    def spy(primes):
        hashed.append(primes.tolist())
        return halves(primes)

    halves = rmf_core._prime_halves
    monkeypatch.setattr(rmf_core, "_prime_halves", spy)
    exchange_variance_monte_carlo(t, z, 100, 0)
    assert hashed == [sorted(read)] and len(read) == 46
    assert t.prime_major.primes.size == 86


def _mapped_signs(signs: dict[int, int]) -> SimpleNamespace:
    """A sign source whose .sign(p) reads a mapping of prime to +1/-1."""
    return SimpleNamespace(sign=signs.__getitem__)


def test_conditional_moments_exact():
    x, y = 700, 9
    delta = y / x
    t = segmented_factorize(x, y)
    small = _sieve(math.floor(z_of_delta(delta))).tolist()
    assignments = [
        {p: 1 for p in small},
        {p: -1 for p in small},
        {p: (-1) ** i for i, p in enumerate(small)},
    ]
    rep = conditional_moments_check(t, z_of_delta(delta), list(map(_mapped_signs, assignments)))
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
    rep = conditional_moments_check(t, z_of_delta(1 / 47), [_mapped_signs({})])
    assert rep.ok and rep.s_count == 0


def test_small_primes_are_the_primes_up_to_z_of_the_squarefree_entries():
    # the primes whose signs conditional_moments_check reads
    for x, y, z in [(700, 9, z_of_delta(9 / 700)), (10**4, 300, 50.0), (700, 9, 1e300)]:
        t = segmented_factorize(x, y)
        want = sorted({p for _, primes in t.squarefree_items() for p in primes if p <= z})
        view, first = _view(t, z)
        assert view.primes[:first].tolist() == want


def test_conditional_moments_budget_and_validation():
    # too many large primes is refused before any sign is read: the source
    # has no sign for the small primes
    t = segmented_factorize(10**4, 300)
    view, first = _view(t, 10.0)
    assert view.primes[:first].tolist() == [2, 3, 5, 7]
    with pytest.raises(ScaleError, match="distinct large primes exceeds budget 22"):
        conditional_moments_check(t, 10.0, [_mapped_signs({})])


def test_sign_vector_moments_tiny():
    # (1, 3] at z = 1: two disjoint singleton masks, f = X(2) + X(3)
    rep = conditional_moments_check(_factor_segment(1, 2), 1.0, [_mapped_signs({})])
    assert rep.large_primes == (2, 3)
    assert (rep.means, rep.second_moments) == ((0,), (2,))
    # 10 and 15 of (9, 15] at z = 3.5: one mask, f = (X(2) + X(3)) X(5), so
    # +/-2 where the small signs agree and 0 where they differ
    t = _factor_segment(9, 6)
    t = t.restrict(np.isin(np.arange(10, 16), (10, 15)))
    sources = [_mapped_signs({2: 1, 3: 1}), _mapped_signs({2: 1, 3: -1})]
    rep = conditional_moments_check(t, 3.5, sources)
    assert rep.large_primes == (5,)
    assert (rep.means, rep.second_moments) == ((0, 0), (4, 0))


def test_decomposition_exact_equality():
    cases = [(48, 8, 5.0), (120, 10, 7.0), (300, 12, 13.0), (30, 14, 5.0)]
    for x, y, z in cases:
        t = segmented_factorize(x, y)
        for seed in (1, 2):
            direct, closed = decomposition_sides(t, z, SignSource(seed))
            assert direct == closed


def test_decomposition_value_is_s_plus_t_terms():
    # with nonzero T_7 = +/-2 the direct side must track it exactly
    t = segmented_factorize(30, 14)
    signs = SignSource(1)
    direct, closed = decomposition_sides(t, 5.0, signs)
    tp = t_p(t, 7, signs, 5.0)
    assert direct == closed == t.squarefree_count + tp


def test_decomposition_budget():
    t = segmented_factorize(10**4, 100)
    with pytest.raises(ScaleError):
        decomposition_sides(t, 5.0, SignSource(0))


def test_stein_terms_aggregation(monkeypatch):
    t = segmented_factorize(200, 80)
    terms = stein_terms(t, 3.0, var_trials=50, master_seed=2)
    assert terms.sum_delta3 >= 0 and terms.exchange_variance >= 0
    assert all(v >= 0 for v in terms.delta2_by_p.values())
    assert all(v >= 0 for v in terms.delta4_by_p.values())
    assert terms.exact_primes > 0
    # every per-prime pair obeys the moment inequality chain
    for p, d2 in terms.delta2_by_p.items():
        assert Fraction(delta3(t, p)) ** 2 <= d2 * terms.delta4_by_p[p]
    # forcing the exact path off routes primes through the bound
    monkeypatch.setattr(stein, "PRIME_BUDGET", 0)
    loose = stein_terms(t, 3.0, var_trials=50, master_seed=2)
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
        assert len(members(t, p)) == 1
        assert delta3(t, p) == 4.0


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


def reference_decomposition_sides(table, z, signs, l_budget=12):
    """decomposition_sides by literal enumeration: every subset A of L minus
    p and every resampled sign pattern on A and p for the direct side, every
    subset A and every member of N(p) for the closed side."""
    supports = _supports(table)
    large = _large_primes(supports, z)
    l_size = len(large)
    if l_size > l_budget:
        raise ScaleError(f"|L| = {l_size} exceeds budget {l_budget}")
    if l_size == 0:
        return Fraction(0), Fraction(0)
    index = {q: j for j, q in enumerate(large)}
    entries = _split_entries(table, large)
    coeffs = [math.prod(signs.sign(q) for q in sm) for sm, _ in entries]
    masks = [m for _, m in entries]
    x_bits = sum(1 << j for j, q in enumerate(large) if signs.sign(q) < 0)
    f_of = _all_sign_values(masks, coeffs, l_size).tolist()

    full = (1 << l_size) - 1
    f_x = f_of[x_bits]

    nus = [subset_weight(l_size, a) for a in range(l_size)]

    direct = Fraction(0)
    for j in range(l_size):
        bit_p = 1 << j
        rest = full & ~bit_p
        a = rest
        while True:  # all subsets A of L \ {p}, descending submask order
            scope = a | bit_p
            acc = 0
            v = scope
            while True:  # all resampled sign patterns on A union {p}
                d1 = f_x - f_of[(x_bits & ~bit_p) | (v & bit_p)]
                d2 = f_of[(x_bits & ~a) | (v & a)] - f_of[(x_bits & ~scope) | (v & scope)]
                acc += d1 * d2
                if v == 0:
                    break
                v = (v - 1) & scope
            a_size = a.bit_count()
            direct += nus[a_size] * Fraction(acc, 1 << (a_size + 1)) / 2
            if a == 0:
                break
            a = (a - 1) & rest

    closed = Fraction(0)
    for j, p in enumerate(large):
        members = supports[p]
        mem_masks = [sum(1 << index[q] for q in qs if q > z) for _, qs in members]
        rest = full & ~(1 << j)
        a = rest
        while True:
            n_a = sum(1 for m in mem_masks if m & a == 0)
            closed += nus[a.bit_count()] * n_a
            if a == 0:
                break
            a = (a - 1) & rest
        closed += _reference_t_p(members, signs, z)

    return direct, closed


def assert_view_matches_references(t, z, seed=0):
    """The prime-major view against the per-incidence loops it replaced:
    its primes and incidence indices, L, every N(p) as its members' prime
    masks, the entries and omega_L of every N(p) of L with |N(p)| >= 2, and
    the entries' large-prime masks and small-sign products.  The large-prime
    masks are compared at z, or, where L has more than 40 primes, over the
    40 largest primes, so that each fits an int64."""
    view = t.prime_major
    supports = _supports(t)
    assert view.primes.tolist() == sorted(supports)
    at = {p: j for j, p in enumerate(sorted(supports))}
    assert view.index.tolist() == [at[p] for _, qs in t.squarefree_items() for p in qs]
    for j, p in enumerate(view.primes.tolist()):
        assert _support_masks(t, j) == _masks_of(supports[p])
    assert large_primes(t, z) == _large_primes(supports, z)
    shared = [([k * p - t.x_lo - 1 for k, _ in ms], [[1 + sum(q > z for q in qs)] for _, qs in ms])
              for p, ms in sorted(supports.items()) if p > z and len(ms) >= 2]
    assert [(e.tolist(), w.tolist()) for e, w in _shared_supports(t, _view(t, z)[1])] == shared
    if len(supports) > 40 and len(_large_primes(supports, z)) > 40:
        z = sorted(supports)[-41]
    large = _large_primes(supports, z)
    first = _view(t, z)[1]
    entries = _split_entries(t, large)
    signs = SignSource(seed)
    masks = _over_entries(t, np.add, 1 << np.arange(len(large)), first)
    small = np.array([signs.sign(q) for q in view.primes[:first].tolist()], dtype=np.int64)
    coeffs = _over_entries(t, np.multiply, small)
    assert masks[t.flags].tolist() == [m for _, m in entries]
    assert coeffs[t.flags].tolist() == [math.prod(signs.sign(q) for q in sm) for sm, _ in entries]


@pytest.mark.parametrize("x, y", [(x, 9) for x in range(694, 707)]
                         + [(x, 100) for x in range(10**5 + 15, 10**5 + 30)]
                         + [(10**8, 10**4)])
def test_prime_major_view_matches_references(x, y):
    assert_view_matches_references(segmented_factorize(x, y), z_of_delta(y / x))


@settings(max_examples=60, deadline=None)
@example(lo=0, length=1, z=1.0)   # n = 1 alone: omega 0, no incidence
@example(lo=0, length=40, z=3.0)
@given(st.integers(0, 5000), st.integers(1, 300), st.floats(0.5, 60.0))
def test_prime_major_view_matches_references_on_small_intervals(lo, length, z):
    assert_view_matches_references(_factor_segment(lo, length), z, seed=lo)


@pytest.mark.parametrize("x", range(694, 707))
def test_decomposition_sides_match_literal_enumeration(x):
    # |L| runs from 8 to 11 across this window
    t = segmented_factorize(x, 9)
    z = 0.5 * math.log(x / 9)
    for seed in (0, 5, 11):
        signs = SignSource(seed)
        assert decomposition_sides(t, z, signs) == reference_decomposition_sides(t, z, signs)


@pytest.mark.parametrize("x, y, z, l_size", [
    (3000, 8, 0.5 * math.log(3000 / 8), None),
    (10, 10, 1e9, 0),   # no large prime
    (10, 10, 17.0, 1),  # L = {19}
    (10, 10, 13.0, 2),  # L = {17, 19}
])
def test_decomposition_sides_match_literal_enumeration_edges(x, y, z, l_size):
    t = segmented_factorize(x, y)
    if l_size is not None:
        assert len(large_primes(t, z)) == l_size
    for seed in (0, 11):
        signs = SignSource(seed)
        assert decomposition_sides(t, z, signs) == reference_decomposition_sides(t, z, signs)


def test_subset_sums_brute_force():
    rng = random.Random(3)
    for k in range(7):
        n = 1 << k
        v = np.array([[rng.randrange(-50, 50) for _ in range(n)] for _ in range(3)],
                     dtype=np.int64)
        expect = [[sum(int(row[d]) for d in range(n) if d & a == d) for a in range(n)]
                  for row in v]
        out = _subset_sums(v)
        assert out is v  # in place
        assert v.tolist() == expect


def test_weight_identity_matches_per_term_sum():
    for l in range(1, 41):
        for w in range(1, l + 1):
            per_term = sum(
                (Fraction(1, l * math.comb(l - 1, k)) * math.comb(l - w, k)
                 for k in range(l - w + 1)),
                Fraction(0),
            )
            assert identity_sum(l, w) == per_term == Fraction(1, w)


def test_exchange_variance_memory_is_bounded_per_tile(monkeypatch):
    # only the per-trial totals (8 bytes a trial) grow with the trial count;
    # holding every trial's signs and member values at once peaks at about
    # 73 MB here
    t = segmented_factorize(200, 80)
    trials = 500_000
    tracemalloc.start()
    try:
        value = exchange_variance_monte_carlo(t, 3.0, trials, 99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * trials < 3 * stein._VAR_TILE_BYTES
    monkeypatch.setattr(stein, "_VAR_TILE_BYTES", 1 << 40)  # one tile
    assert value == exchange_variance_monte_carlo(t, 3.0, trials, 99)


def test_exchange_variance_golden_values_in_small_tiles(monkeypatch):
    monkeypatch.setattr(stein, "_VAR_TILE_BYTES", 1)  # 64-trial tiles
    t = segmented_factorize(10**4, 400)
    assert exchange_variance_monte_carlo(t, 0.5 * math.log(25), 2000, 5) == 4034.537993545384
    t = segmented_factorize(200, 80)
    assert exchange_variance_monte_carlo(t, 3.0, 200, 99) == 81.81304020100502


def test_t_p_adds_members_in_order_for_any_number_of_trials():
    # a lone trial column must not be summed pairwise: the exchange
    # variance's last tile may hold a single trial
    rng = np.random.default_rng(7)
    xs = rng.choice([-1, 1], size=(40, 5)).astype(np.int64)
    omegas = rng.integers(1, 6, size=(40, 1))
    whole = _t_p(xs, omegas)
    for c in range(5):
        g, want = int(xs[:, c].sum()), 0.0
        for x, w in zip(xs[:, c].tolist(), omegas[:, 0].tolist()):
            want += (g - x) * x / w
        assert _t_p(xs[:, c : c + 1], omegas)[0] == whole[c] == want


def test_stein_terms_refuses_before_building_any_member(monkeypatch):
    # the refusal names the least p with |N(p)| > member_budget, checked
    # from the view's offsets; a budget of exactly max |N(p)| is accepted
    t = segmented_factorize(200, 80)
    sizes = {p: len(ms) for p, ms in _supports(t).items() if p > 3.0}
    top = max(sizes.values())
    first = min(p for p, n in sizes.items() if n > top - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stein, "MEMBER_BUDGET", top)
        assert stein_terms(t, 3.0, var_trials=2, master_seed=0).exact_primes == len(sizes)

    def no_members(*args):
        raise AssertionError("member masks built")

    monkeypatch.setattr(stein, "_support_masks", no_members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stein, "MEMBER_BUDGET", top - 1)
        with pytest.raises(ScaleError, match=re.escape(f"|N({first})| = {top} exceeds {top - 1}")):
            stein_terms(t, 3.0, var_trials=2, master_seed=0)
    with pytest.raises(ScaleError, match=re.escape("|N(5)| = 1019 exceeds 400")):
        stein_terms(segmented_factorize(10**8, 10**4), z_of_delta(10**4 / 10**8), VAR_TRIALS, 0)


@pytest.mark.parametrize("x, y, z", [
    (200, 80, 3.0),                  # the most distinct primes, 10, in N(7), |N(7)| = 8
    (700, 9, z_of_delta(9 / 700)),   # 2, in the lone members of N(3), N(5) and N(47)
])
def test_prime_budget_boundary(monkeypatch, x, y, z):
    # at PRIME_BUDGET = k, the most distinct primes in any N(p) of L, every
    # prime is exact; at k - 1 the primes with k fall back to the
    # Cauchy-Schwarz bound, and _delta3 refuses each with its message
    t = segmented_factorize(x, y)
    view, first = _view(t, z)
    masks = {p: _support_masks(t, j) for j, p in enumerate(view.primes[first:].tolist(), first)}
    k = max(n for _, n in masks.values())
    top = [p for p, (_, n) in masks.items() if n == k]
    monkeypatch.setattr(stein, "PRIME_BUDGET", k)
    exact_d3 = {p: _delta3(p, *m) for p, m in masks.items()}
    exact = stein_terms(t, z, var_trials=2, master_seed=0)
    assert (exact.exact_primes, exact.bounded_primes) == (len(masks), 0)
    assert exact.sum_delta3 == np.add.accumulate(list(exact_d3.values()))[-1]
    monkeypatch.setattr(stein, "PRIME_BUDGET", k - 1)
    for p in top:
        with pytest.raises(ScaleError) as refusal:
            _delta3(p, *masks[p])
        assert str(refusal.value) == f"{k} distinct primes in N({p}) exceeds budget {k - 1}"
    loose = stein_terms(t, z, var_trials=2, master_seed=0)
    assert (loose.exact_primes, loose.bounded_primes) == (len(masks) - len(top), len(top))
    d3 = [math.sqrt(loose.delta2_by_p[p] * loose.delta4_by_p[p]) if p in top else v
          for p, v in exact_d3.items()]
    assert loose.sum_delta3 == np.add.accumulate(d3)[-1]


@pytest.mark.parametrize("budget, check, refusal", [
    ("LARGE_PRIME_BUDGET", lambda t, z: conditional_moments_check(t, z, [SignSource(1)]).ok,
     "10 distinct large primes exceeds budget 9"),
    ("L_BUDGET", lambda t, z: operator.eq(*decomposition_sides(t, z, SignSource(1))),
     "|L| = 10 exceeds budget 9"),
], ids=["LARGE_PRIME_BUDGET", "L_BUDGET"])
def test_large_prime_budgets_boundary(monkeypatch, budget, check, refusal):
    # |L| = 10 at (700, 9]: checked at a budget of 10, refused at 9
    t = segmented_factorize(700, 9)
    z = z_of_delta(9 / 700)
    assert len(large_primes(t, z)) == 10
    monkeypatch.setattr(stein, budget, 10)
    assert check(t, z)
    monkeypatch.setattr(stein, budget, 9)
    with pytest.raises(ScaleError) as e:
        check(t, z)
    assert str(e.value) == refusal


def _reference_delta3(p, members, prime_budget):
    """_delta3 as a Walsh-Hadamard transform over all 2^k sign vectors of
    the k distinct primes of N(p)."""
    primes = sorted({q for _, qs in members for q in qs})
    if len(primes) > prime_budget:
        raise ScaleError(
            f"{len(primes)} distinct primes in N({p}) exceeds budget {prime_budget}"
        )
    index = {q: j for j, q in enumerate(primes)}
    k = len(primes)
    masks = [sum(1 << index[q] for q in qs) for _, qs in members]
    v = _all_sign_values(masks, [1] * len(masks), k)
    a = np.abs(v)
    third = int((a * a * a).sum())
    return 4 * third / float(1 << k)


def assert_delta3_matches_reference(p, ms, masks, k, prime_budget=stein.PRIME_BUDGET):
    """_delta3 on the masks of the members ms, with stein.PRIME_BUDGET set
    to prime_budget, against the reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stein, "PRIME_BUDGET", prime_budget)
        try:
            want = _reference_delta3(p, ms, prime_budget)
        except ScaleError as e:
            with pytest.raises(ScaleError, match=re.escape(str(e))):
                _delta3(p, masks, k)
            return False
        assert _delta3(p, masks, k).hex() == want.hex(), p
    return True


def delta3_within_budget(x, y):
    """Checks every large prime at the z a stein run uses, on the view's
    masks; whether each was within the budget."""
    t = segmented_factorize(x, y)
    supports = _supports(t)
    view, first = _view(t, z_of_delta(y / x))
    return [assert_delta3_matches_reference(p, supports[p], *_support_masks(t, j))
            for j, p in enumerate(view.primes[first:].tolist(), first)]


@pytest.mark.parametrize("x", range(10**5 + 15, 10**5 + 30))
def test_delta3_matches_full_transform_on_benchmark_window(x):
    assert all(delta3_within_budget(x, 100))


@pytest.mark.parametrize("x, y, refusals", [(10**5, 100, False), (10**6, 300, True),
                                            (700, 9, False), (3000, 8, False),
                                            (100020, 100, False)])
def test_delta3_matches_full_transform(x, y, refusals):
    within = delta3_within_budget(x, y)
    assert any(within)
    assert (not all(within)) == refusals


_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from(_POOL)), max_size=14, unique=True),
       st.sampled_from((0, 3, 6, 20)))
def test_delta3_matches_full_transform_on_random_supports(prime_sets, budget):
    ms = [(math.prod(qs), tuple(sorted(qs))) for qs in prime_sets]
    assert_delta3_matches_reference(31, ms, *_masks_of(ms), budget)


def test_delta3_degenerate_supports():
    assert _delta3(7, [], 0) == _reference_delta3(7, [], 20) == 0.0
    one = [(1, ())]  # k = 1: mask 0, rank 0
    assert _span_coordinates([0]) == ([0], 0)
    assert _masks_of(one) == ([0], 0)
    assert _delta3(7, [0], 0).hex() == _reference_delta3(7, one, 20).hex() == (4.0).hex()
    for ms in ([(1, ()), (2, (2,))],
               [(6, (2, 3)), (15, (3, 5)), (10, (2, 5))],  # 6 * 15 * 10 is a square
               [(1, ()), (6, (2, 3)), (35, (5, 7)), (210, (2, 3, 5, 7)), (3, (3,))]):
        masks = [sum(1 << j for j, q in enumerate(_POOL) if q in qs) for _, qs in ms]
        assert _span_coordinates(masks)[1] < len(ms)
        assert _delta3(7, *_masks_of(ms)).hex() == _reference_delta3(7, ms, 20).hex()


def test_span_coordinates_reconstruct_the_masks():
    rng = random.Random(4)
    for _ in range(200):
        masks = [rng.randrange(1 << 8) for _ in range(rng.randrange(12))]
        coords, rank = _span_coordinates(masks)
        basis = []
        for m, c in zip(masks, coords):
            if c == 1 << len(basis):
                basis.append(m)
        assert len(basis) == rank
        for m, c in zip(masks, coords):
            acc = 0
            for j, b in enumerate(basis):
                if c >> j & 1:
                    acc ^= b
            assert acc == m


# ---------------------------------------------------------------------------
# The per-prime Delta loop and the per-(L, w) identity sums that stein_terms
# and subset_weight_identity replaced, kept as references
# ---------------------------------------------------------------------------

def _reference_exchange_variance(table, z, trials, master_seed):
    """Var(sum_{p in L} T_p), ddof=1, from the scalar sign source: in trial
    t, X(k) of a member k of N(p) is the product of the signs of its primes
    in SignSource(master_seed).for_trial(t), T_p adds (g - X(k)) X(k) /
    omega_L(k p) in member order (0 for a lone member), and the T_p are
    added in ascending p; numpy only carries every trial at once."""
    supports = [ms for p, ms in sorted(_supports(table).items()) if p > z and len(ms) >= 2]
    sources = [SignSource(master_seed).for_trial(t) for t in range(trials)]
    sign = {q: np.array([s.sign(q) for s in sources])
            for q in {q for ms in supports for _, qs in ms for q in qs}}
    total = np.zeros(trials)
    for ms in supports:
        xs = [math.prod((sign[q] for q in qs), start=np.ones(trials, dtype=np.int64))
              for _, qs in ms]
        g = sum(xs)
        t_p = np.zeros(trials)
        for x, (_, qs) in zip(xs, ms):
            t_p += (g - x) * x / (1 + sum(q > z for q in qs))
        total += t_p
    return float(total.var(ddof=1))


def _reference_stein_terms(table, z, var_trials, master_seed, prime_budget, member_budget):
    """stein_terms with one member list from the table's rows, one scalar
    pair-kernel count, and one _delta3 call for every prime of L with at
    most prime_budget distinct primes in N(p) (prime_budget is at most
    stein.PRIME_BUDGET)."""
    supports = _supports(table)
    large = _large_primes(supports, z)
    over = [p for p in large if len(supports[p]) > member_budget]
    if over:
        raise ScaleError(f"|N({over[0]})| = {len(supports[over[0]])} exceeds {member_budget}")
    total = 0.0
    d2: dict[int, int] = {}
    d4: dict[int, int] = {}
    exact_primes = bounded_primes = 0
    for p in large:
        members = supports[p]
        d2[p] = 2 * len(members)  # E|Delta_p f|^2 = 2 |N(p)|
        d4[p] = 8 * _oracle_count_members([k for k, _ in members])
        masks, k = _masks_of(members)
        if k <= prime_budget:
            total += _delta3(p, masks, k)
            exact_primes += 1
        else:
            total += math.sqrt(d2[p] * d4[p])
            bounded_primes += 1
    var_t = _reference_exchange_variance(table, z, var_trials, master_seed)
    return SteinTerms(total, var_t, d2, d4, exact_primes, bounded_primes)


def _reference_weight_identity(l_size, omega):
    """The identity sum for one (L, w) in exact rationals, over the common
    denominator of its own terms."""
    if not 1 <= omega <= l_size:
        raise ValueError(f"need 1 <= omega <= L, got omega={omega}, L={l_size}")
    dens = [l_size * math.comb(l_size - 1, k) for k in range(l_size - omega + 1)]
    common = math.lcm(*dens)
    return Fraction(sum(math.comb(l_size - omega, k) * (common // d) for k, d in enumerate(dens)),
                    common)


def assert_stein_terms_match_reference(t, z, var_trials, master_seed=0,
                                       prime_budget=stein.PRIME_BUDGET,
                                       member_budget=stein.MEMBER_BUDGET):
    """stein_terms, with stein.PRIME_BUDGET and stein.MEMBER_BUDGET set to
    the given budgets, against the per-prime reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stein, "PRIME_BUDGET", prime_budget)
        mp.setattr(stein, "MEMBER_BUDGET", member_budget)
        got = stein_terms(t, z, var_trials, master_seed)
    want = _reference_stein_terms(t, z, var_trials, master_seed, prime_budget, member_budget)
    assert got == want
    assert got.sum_delta3.hex() == want.sum_delta3.hex()
    assert got.exchange_variance.hex() == want.exchange_variance.hex()
    assert list(got.delta2_by_p) == list(want.delta2_by_p)  # ascending p
    assert list(got.delta4_by_p) == list(want.delta4_by_p)
    return got


@pytest.mark.parametrize("x, y", [(x, 9) for x in range(694, 707)]
                         + [(x, 100) for x in range(10**5 + 15, 10**5 + 30)]
                         + [(10**6, 300)])
def test_stein_terms_match_the_per_prime_loop(x, y):
    t = segmented_factorize(x, y)
    terms = assert_stein_terms_match_reference(t, z_of_delta(y / x), var_trials=200,
                                               master_seed=x)
    assert terms.exact_primes + terms.bounded_primes == len(large_primes(t, z_of_delta(y / x)))


@settings(max_examples=40, deadline=None)
@example(lo=1, length=1, z=1.0, budget=20, seed=0)     # (1, 2]: N(2) = {1}
@example(lo=12, length=12, z=1.0, budget=0, seed=1)    # every N(p) with a prime bounded
@example(lo=699, length=10, z=1e9, budget=20, seed=2)  # z above every prime
@given(st.integers(1, 5000), st.integers(1, 300), st.floats(0.5, 60.0),
       st.sampled_from((0, 1, 2, 20)), st.integers(0, 50))
def test_stein_terms_match_the_per_prime_loop_on_small_intervals(lo, length, z, budget, seed):
    length = min(length, lo)  # stein_terms needs y <= x
    assert_stein_terms_match_reference(_factor_segment(lo, length), z, var_trials=70,
                                       master_seed=seed, prime_budget=budget)


@pytest.mark.slow
def test_stein_terms_match_the_per_prime_loop_at_scale():
    # (10^8, 10^4]: 5,836 large primes, 5,217 of them with |N(p)| = 1, the
    # largest |N(p)| = 1019
    t = segmented_factorize(10**8, 10**4)
    terms = assert_stein_terms_match_reference(t, z_of_delta(10**-4), var_trials=300,
                                               member_budget=10**7)
    assert (terms.exact_primes, terms.bounded_primes) == (5724, 112)


def oracle_counts(t, first):
    """The pair-kernel oracle's count of each N(p), p = view.primes[j], j >= first."""
    view = t.prime_major
    return [_oracle_count_array((t.x_lo + 1 + view.entries[view.offsets[j] : view.offsets[j + 1]])
                                // p) for j, p in enumerate(view.primes[first:].tolist(), first)]


def spy_on(monkeypatch, name):
    """Replace stein.<name> by a wrapper; the list it returns gets each result."""
    results, real = [], getattr(stein, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(stein, name, spy)
    return results


@pytest.mark.parametrize("x, y, z, enumerated, nondiagonal", [
    # every prime with |N(p)| >= 4 is enumerated
    (5000, 500, 1.0, 23, 0),
    (20000, 600, 1.0, 24, 0),
    (1000, 999, 1.0, 40, 16440),  # 21 of the 40 with y' = x' + 1
    pytest.param(10**6, 10**4, z_of_delta(10**-2), 274, 3288, marks=pytest.mark.slow),
])
def test_quadruple_counts_match_the_oracle_prime_by_prime(monkeypatch, x, y, z, enumerated,
                                                          nondiagonal):
    t = _factor_segment(x, y)
    found = spy_on(monkeypatch, "_count_solutions")
    view, first = _view(t, z)
    n = np.diff(view.offsets)[first:]
    got = _quadruple_counts(t, first)
    assert got.tolist() == oracle_counts(t, first)
    assert (len(found), sum(found)) == (enumerated, nondiagonal)
    assert int((got - (3 * n * n - 2 * n)).sum()) == nondiagonal


def test_stein_terms_pairs_no_members_when_y_is_at_most_x(monkeypatch):
    # the pair kernels are the oracle's; stein_terms counts by enumeration
    def no_pairs(*args):
        raise AssertionError("pair kernels built")

    monkeypatch.setattr(quadruples, "_pair_kernels", no_pairs)
    monkeypatch.setattr(stein, "MEMBER_BUDGET", 10**7)
    for x, y in ((5000, 500), (20000, 600), (1000, 999), (10**6, 10**4)):
        stein_terms(segmented_factorize(x, y), 1.0, var_trials=2, master_seed=0)


def test_stein_terms_refuses_y_above_x_before_any_work(monkeypatch):
    def no_view(*args):
        raise AssertionError("view read")

    monkeypatch.setattr(stein, "_view", no_view)
    with pytest.raises(ValueError, match=re.escape("stein_terms needs y <= x, got x=9, y=12")):
        stein_terms(_factor_segment(9, 12), 1.0, var_trials=2, master_seed=0)


def test_stein_terms_accepts_y_equal_to_x():
    # (1000, 2000]: 21 of the 40 enumerated primes have y' = x' + 1, the
    # most the enumeration takes
    t = _factor_segment(1000, 1000)
    terms = assert_stein_terms_match_reference(t, 1.0, var_trials=20,
                                               member_budget=10**7)
    assert terms.exact_primes + terms.bounded_primes == len(large_primes(t, 1.0))


@pytest.mark.slow
def test_quadruple_counts_pinned_at_scale():
    # (10^8, 10^5], z = ln(1000)/2, as counted by the grouped pair-kernel pass
    # before the sub-interval enumeration replaced it: 42,548 primes of L,
    # 4,684 with |N(p)| >= 2, and a non-diagonal count of 10,200 from 3 primes
    t = segmented_factorize(10**8, 10**5)
    view, first = _view(t, z_of_delta(10**-3))
    n = np.diff(view.offsets)[first:]
    got = _quadruple_counts(t, first)
    nondiagonal = got - (3 * n * n - 2 * n)
    assert (n.size, int(np.count_nonzero(n >= 2))) == (42548, 4684)
    assert int(8 * got.sum()) == 6282373304
    assert dict(zip(view.primes[first:][nondiagonal != 0].tolist(),
                    nondiagonal[nondiagonal != 0].tolist())) == {5: 7248, 7: 2688, 11: 264}


def test_exchange_variance_matches_the_all_primes_pass(monkeypatch):
    # the scalar per-trial pass over every prime of L, also across tiles of
    # 64 trials, the last one a single trial
    for x, y, z in ((10**4, 400, 0.5 * math.log(25)), (200, 80, 3.0), (700, 9, 2.0)):
        t = segmented_factorize(x, y)
        for trials in (2, 129):
            want = _reference_exchange_variance(t, z, trials, 3)
            assert exchange_variance_monte_carlo(t, z, trials, 3).hex() == want.hex()
    monkeypatch.setattr(stein, "_VAR_TILE_BYTES", 1)
    t = segmented_factorize(10**4, 400)
    assert (exchange_variance_monte_carlo(t, 1.6, 129, 3)
            == _reference_exchange_variance(t, 1.6, 129, 3))


def test_weight_identity_matches_the_per_w_sums():
    for l in range(1, 101):
        nums, common = subset_weight_identity(l)
        assert len(nums) == l
        for w, num in enumerate(nums, 1):
            assert Fraction(num, common) == _reference_weight_identity(l, w) == Fraction(1, w)
            assert num * w == common
