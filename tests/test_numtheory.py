import hashlib
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import numtheory
from rmflab.errors import ScaleError
from rmflab.numtheory import (
    MAX_X_PLUS_Y,
    MAX_Y,
    MIN_BLOCK,
    P_BITS,
    P_MASK,
    IntervalTable,
    _factor_segment,
    _prime_major,
    _kernel_unchecked,
    _sieve,
    segmented_factorize,
    squarefree_flags,
    trial_factorize,
    two_core,
    z_of_delta,
)
from rmflab.quadruples import oracle_count_square_quadruples
from rmflab.stein import _all_sign_values, _shared_supports, _view


def naive_squarefree(n: int) -> bool:
    # independent oracle: largest-square-divisor check
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_sieve_primes_small():
    assert _sieve(1).tolist() == []
    assert _sieve(2).tolist() == [2]
    assert _sieve(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_tables_match_the_reference_before_any_exponent_is_read():
    # pytest runs this file in order, and the tests below read exponents by
    # dividing n by each stored prime, which never ends on a stored 1: a
    # table with an unwritten slot fails here first, on its arrays.  The
    # last interval has dense primes.
    for lo, length in [(10, 10), (9996, 4), (10**12, 10**4)]:
        assert_same_arrays(table_arrays(_factor_segment(lo, length)),
                           reference_arrays(lo, length))


def test_factorize_examples():
    t = segmented_factorize(10, 10)
    assert dict(t.factors(12)) == {2: 2, 3: 1}
    assert not t.is_squarefree(12)
    assert dict(t.factors(11)) == {11: 1}
    assert t.is_squarefree(11)
    assert dict(t.factors(20)) == {2: 2, 5: 1}
    assert not t.is_squarefree(20)


def test_factorize_recovers_large_cofactor():
    # 2 * 4999 has a prime factor above sqrt(xmax)
    t = segmented_factorize(9996, 4)
    assert dict(t.factors(9998)) == {2: 1, 4999: 1}


def test_table_shape_and_range_errors():
    t = segmented_factorize(10, 10)
    assert t.y_len == len(t.entries) == len(t.flags) == 10
    assert t.offsets.size == 11 and t.offsets[-1] == t.primes.size
    for a in (t.offsets, t.primes, t.flags):
        with pytest.raises(ValueError):  # read-only
            a[0] = 0
    with pytest.raises(ValueError):
        t.factors(10)
    with pytest.raises(ValueError):
        t.factors(21)


def test_factorize_preconditions():
    with pytest.raises(ValueError):
        segmented_factorize(0, 10)
    with pytest.raises(ValueError):
        segmented_factorize(10, 0)
    with pytest.raises(ValueError):
        segmented_factorize(2**64 - 5, 10)
    with pytest.raises(ScaleError):
        segmented_factorize(MAX_X_PLUS_Y, 1)
    with pytest.raises(ScaleError):
        segmented_factorize(10**12, MAX_Y + 1)



@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=1, max_value=100))
def test_factorization_round_trip(x, y):
    t = segmented_factorize(x, y)
    for i, fac in enumerate(t.entries):
        n = x + 1 + i
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n
        assert t.flags[i] == all(e == 1 for _, e in fac)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=200))
def test_table_at_paper_scale(x, y):
    t = segmented_factorize(x, y)
    for i, fac in enumerate(t.entries):
        primes = [p for p, _ in fac]
        assert math.prod(p**e for p, e in fac) == x + 1 + i
        assert primes == sorted(set(primes))
    assert [bool(f) for f in t.flags] == [bool(f) for f in squarefree_flags(x, y)]


def test_table_golden_digest():
    # taken from the nested-tuple table that the CSR arrays replaced
    t = segmented_factorize(10**12, 10**4)
    digest = hashlib.sha256(
        repr((tuple(t.entries), tuple(map(bool, t.flags)))).encode()).hexdigest()
    assert digest == "bee41f73e8fe5c0578e5d4ff6918f23a481e3c5e280ce72d29ab0cfd2f82207b"
    assert t.squarefree_count == 6079


def _reference_factor_segment(lo: int, length: int) -> tuple[IntervalTable, np.ndarray]:
    """The argsort construction that the packed-key sort replaced, kept as
    the oracle for _factor_segment: its table and, in the same order as the
    table's primes, the exponent that its division rounds found for each."""
    hi = lo + length
    sieve = _sieve(math.isqrt(hi))
    first = (lo // sieve + 1) * sieve - (lo + 1)  # index of the first multiple
    hits = (length - 1 - first) // sieve + 1
    inc_p = np.repeat(sieve, hits)
    inc_i = np.arange(inc_p.size) - np.repeat(np.cumsum(hits) - hits, hits)
    inc_i *= inc_p
    inc_i += np.repeat(first, hits)
    rem = np.arange(lo + 1, hi + 1, dtype=np.int64)
    inc_e = np.ones(inc_p.size, dtype=np.int8)
    # ufunc.at applies every division: an n hit by several primes in one
    # round would keep only one of them under rem[inc_i] //= inc_p
    np.floor_divide.at(rem, inc_i, inc_p)
    live = np.flatnonzero(rem[inc_i] % inc_p == 0)
    while live.size:
        inc_e[live] += 1
        np.floor_divide.at(rem, inc_i[live], inc_p[live])
        live = live[rem[inc_i[live]] % inc_p[live] == 0]
    flags = np.ones(length, dtype=bool)
    flags[inc_i[inc_e > 1]] = False
    cof = np.flatnonzero(rem > 1)
    idx = np.concatenate([inc_i, cof])
    order = np.argsort(idx, kind="stable")
    offsets = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=length), out=offsets[1:])
    table = IntervalTable(lo, length, offsets, np.concatenate([inc_p, rem[cof]])[order], flags)
    return table, np.concatenate([inc_e, np.ones(cof.size, dtype=np.int8)])[order]


def reference_arrays(lo: int, length: int):
    return table_arrays(_reference_factor_segment(lo, length)[0])


def assert_same_arrays(got, want):
    # (offsets, primes, flags), equal in value and in dtype
    for name, a, b in zip(("offsets", "primes", "flags"), got, want):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def table_arrays(t: IntervalTable):
    return t.offsets, t.primes, t.flags


def entry_slice(t: IntervalTable, a: int, b: int):
    """The arrays of entries a..b-1 of t, as a table of just them would hold."""
    lo, hi = t.offsets[a], t.offsets[b]
    return t.offsets[a : b + 1] - lo, t.primes[lo:hi], t.flags[a:b]


def _reference_sieve(limit: int) -> np.ndarray:
    """The sieve over every number up to limit that the odd-only sieve
    replaced, kept as its oracle."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    is_prime[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_prime[p]:
            is_prime[p * p :: 2 * p] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


def test_sieve_primes_against_trial_division():
    want = [n for n in range(2, 20_000) if trial_factorize(n) == [(n, 1)]]
    assert _sieve(19_999).tolist() == want
    assert _sieve(20_011).tolist()[-2:] == [19_997, 20_011]
    for limit in range(11):
        assert _sieve(limit).tolist() == [p for p in want if p <= limit]


@pytest.mark.parametrize("limit", [10**6, math.isqrt(MAX_X_PLUS_Y)])
def test_sieve_matches_the_reference_sieve(limit):
    # the sieves of the sweep benchmark's (10^12, 10^5] and of the scale limit
    got, want = _sieve(limit), _reference_sieve(limit)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


DESK_INTERVALS = [
    (0, 1), (0, 30), (3, 1), (700, 9),
    (2**40 - 5000, 10_000),  # holds 2^40
    (2**49 - 3000, 6000),    # exponent 49, the largest below 10^15
    (10**12, 10**4),         # 5,216 of the 78,498 sieve primes hit the interval
    (2**40 - 50, 100),       # 136 of the 82,025 sieve primes hit the interval
]


@pytest.mark.parametrize("lo, length", [
    *DESK_INTERVALS,
    (10**10, 10**6),
    (10**12 + 777, 10**5),  # one block over 27,597 kept sieve primes
])
def test_factor_segment_matches_reference(lo, length):
    assert_same_arrays(table_arrays(_factor_segment(lo, length)), reference_arrays(lo, length))


@pytest.mark.parametrize("lo, length", DESK_INTERVALS)
def test_entry_exponents_match_the_reference_division_rounds(lo, length):
    # the table stores no exponent: entries divides n by each of its primes
    want = _reference_factor_segment(lo, length)[1]
    got = [e for fac in _factor_segment(lo, length).entries for _, e in fac]
    assert got == want.tolist()


@pytest.mark.slow
def test_factor_segment_matches_reference_at_the_scale_limit(monkeypatch):
    """The largest table segmented_factorize accepts: cofactors reach 10^15,
    and the 1,354,546 of the 1,951,957 sieve primes that have a multiple in
    the interval set the block length, so the 10^7 entries are built in
    eight blocks.  The reference runs on 5*10^4-entry slices (start, middle,
    end), so it never holds 10^7 entries."""
    lo, length, width = 10**15 - 10**7, 10**7, 50_000
    blocks = blocks_of(monkeypatch)
    t = _factor_segment(lo, length)
    assert blocks == [1_354_546] * 7 + [length - 7 * 1_354_546]
    assert t.primes.max() > 10**15 - 10**7
    for a in (0, length // 2, length - width):
        assert_same_arrays(entry_slice(t, a, a + width), reference_arrays(lo + a, width))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**14), st.integers(min_value=1, max_value=2000))
def test_factor_segment_matches_reference_sweep(lo, length):
    assert_same_arrays(table_arrays(_factor_segment(lo, length)), reference_arrays(lo, length))


def blocks_of(mp):
    """The lengths of the blocks _factor_segment factors, in order, while
    mp is active."""
    lengths = []
    factor_block = numtheory._factor_block

    def spy(lo, length, *rest):
        lengths.append(length)
        return factor_block(lo, length, *rest)

    mp.setattr(numtheory, "_factor_block", spy)
    return lengths


def assert_matches_reference_in_small_blocks(lo, length, dense_hits=None):
    """_factor_segment in blocks of 64 entries against the reference, with
    DENSE_HITS set to dense_hits if given; returns the table and, for each
    block, how many of its kept sieve primes are dense and how many not."""
    blocks, splits = [], []
    factor_block = numtheory._factor_block

    def spy(lo, length, sieve, *rest):
        dense = int(np.count_nonzero(sieve <= length // numtheory.DENSE_HITS))
        blocks.append(length)
        splits.append((dense, sieve.size - dense))
        return factor_block(lo, length, sieve, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "MIN_BLOCK", 64)
        if dense_hits is not None:
            mp.setattr(numtheory, "DENSE_HITS", dense_hits)
        mp.setattr(numtheory, "_factor_block", spy)
        t = _factor_segment(lo, length)
    assert len(blocks) > 1 and sum(blocks) == length
    assert_same_arrays(table_arrays(t), reference_arrays(lo, length))
    return t, splits


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=65, max_value=3000))
def test_factor_segment_small_blocks_match_reference_sweep(lo, length):
    # hi <= 13,000 has at most 30 sieve primes, so blocks hold 64 entries,
    # and 64 // DENSE_HITS = 0 makes every sieve prime sparse
    splits = assert_matches_reference_in_small_blocks(lo, length)[1]
    assert all(dense == 0 for dense, _ in splits)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=2, max_value=32))
def test_factor_segment_small_blocks_all_dense_sweep(lo, blocks):
    # hi <= 4048 keeps every sieve prime below 64, and whole blocks of 64
    # entries with DENSE_HITS = 1 make each of them dense
    splits = assert_matches_reference_in_small_blocks(lo, 64 * blocks, dense_hits=1)[1]
    assert all(sparse == 0 and dense > 0 for dense, sparse in splits)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=300, max_value=10**4), st.integers(min_value=128, max_value=3000))
def test_factor_segment_small_blocks_split_mid_list_sweep(lo, length):
    # blocks of 64 with DENSE_HITS = 4 make 2, 3, 5, 7, 11 and 13 dense,
    # and hi > 300 keeps 17 and more sparse
    splits = assert_matches_reference_in_small_blocks(lo, length, dense_hits=4)[1]
    assert all(dense == 6 and sparse > 0 for dense, sparse in splits[:-1])


def test_factor_segment_small_blocks_from_zero():
    t = assert_matches_reference_in_small_blocks(0, 200)[0]
    assert t.factors(1) == () and t.flags[0]


@pytest.mark.parametrize("lo, n, slot", [
    (665, 729, 63),   # 3^6 in the last slot of the first block
    (959, 1024, 64),  # 2^10 in the first slot of the second block
])
def test_factor_segment_small_blocks_prime_power_at_an_edge(lo, n, slot):
    # 9, 27, 81 and 11^2 = 121 have multiples on both sides of the edge too
    t = assert_matches_reference_in_small_blocks(lo, 300)[0]
    assert n - lo - 1 == slot
    assert len(t.factors(n)) == 1 and t.factors(n)[0][1] >= 6


@pytest.mark.parametrize("lo, n", [
    (9943, 10_007),  # a prime above sqrt(hi) in the last slot of the first block
    (9878, 10_006),  # 2 * 5003 in the last slot of the second block
])
def test_factor_segment_small_blocks_cofactor_at_an_edge(lo, n):
    t = assert_matches_reference_in_small_blocks(lo, 200)[0]
    assert (n - lo) % 64 == 0
    cofactor = t.factors(n)[-1][0]
    assert cofactor**2 > lo + 200


def test_factor_segment_default_blocks_match_reference(monkeypatch):
    lo, length = 10**10 + 777, 10**6
    blocks = blocks_of(monkeypatch)
    t = _factor_segment(lo, length)
    assert blocks == [MIN_BLOCK] * 7 + [length - 7 * MIN_BLOCK]
    assert_same_arrays(table_arrays(t), reference_arrays(lo, length))


def test_key_widths_cover_the_scale_limits():
    # _factor_block packs (index, prime) into one int64 key; a scale limit
    # raised past these widths would corrupt tables silently.  Sieve primes
    # stay below P_MASK, so they fit the bits that P_MASK reads back.
    assert math.isqrt(MAX_X_PLUS_Y) < P_MASK < 2**P_BITS
    assert MAX_Y <= 2 ** (63 - P_BITS)


def test_factor_segment_memory():
    # the larger of the sweep benchmark's two intervals; the argsort
    # construction peaked at 170 MiB here, one whole-interval packed-key
    # sort at 82 MiB, and the block-wise build at 42.9 MiB, of which the
    # table itself holds 36.9 MiB
    tracemalloc.start()
    try:
        segmented_factorize(10**10, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_squarefree_count_examples():
    assert segmented_factorize(10, 10).squarefree_count == 6
    assert segmented_factorize(10, 10).squarefree_values() == [11, 13, 14, 15, 17, 19]
    assert segmented_factorize(1, 1).squarefree_count == 1  # n = 2
    assert segmented_factorize(47, 1).squarefree_count == 0  # 48 = 2^4 * 3
    from_zero = _factor_segment(0, 6)  # n = 1 has the empty factorization
    assert from_zero.factors(1) == ()
    assert from_zero.squarefree_values() == [1, 2, 3, 5, 6]


def test_squarefree_count_against_oracle():
    rnd = random.Random(93)
    for _ in range(25):
        x = rnd.randint(2, 10**4)
        y = rnd.randint(1, 100)
        t = segmented_factorize(x, y)
        expected = sum(naive_squarefree(n) for n in range(x + 1, x + y + 1))
        assert t.squarefree_count == expected
        assert bytes(squarefree_flags(x, y)) == bytes(
            naive_squarefree(n) for n in range(x + 1, x + y + 1)
        )


def test_squarefree_density():
    t = segmented_factorize(10**6, 10**4)
    ratio = t.squarefree_count / 10**4
    assert abs(ratio - 6 / math.pi**2) < 0.02 * 6 / math.pi**2


def test_kernel_xor_examples():
    assert _kernel_unchecked(6, 10) == 15
    assert _kernel_unchecked(7, 7) == 1
    assert _kernel_unchecked(15, 14) == 210


def test_kernel_xor_group_laws_exhaustive():
    sf = [n for n in range(1, 1001) if naive_squarefree(n)]
    for a in sf[::7]:
        assert _kernel_unchecked(a, a) == 1
        assert _kernel_unchecked(a, 1) == a
    rnd = random.Random(5)
    for _ in range(2000):
        a, b = rnd.choice(sf), rnd.choice(sf)
        assert _kernel_unchecked(a, b) == _kernel_unchecked(b, a)
    for _ in range(500):
        a, b, c = rnd.choice(sf), rnd.choice(sf), rnd.choice(sf)
        assert (_kernel_unchecked(_kernel_unchecked(a, b), c)
                == _kernel_unchecked(a, _kernel_unchecked(b, c)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_kernel_xor_is_symmetric_difference(a, b):
    if not (naive_squarefree(a) and naive_squarefree(b)):
        return
    pa = {p for p, _ in trial_factorize(a)}
    pb = {p for p, _ in trial_factorize(b)}
    assert _kernel_unchecked(a, b) == math.prod(pa ^ pb)  # empty product is 1


def test_prime_split_z_values():
    assert z_of_delta(math.exp(-10)) == pytest.approx(5.0)
    assert z_of_delta(0.01) == pytest.approx(math.log(10))
    with pytest.raises(ValueError):
        z_of_delta(0.5)
    with pytest.raises(ValueError):
        z_of_delta(0.0)


def test_prime_split_partition():
    t = segmented_factorize(100, 20)
    z = z_of_delta(1e-5)  # 5.756: small primes 2, 3, 5
    assert _sieve(math.floor(z)).tolist() == [2, 3, 5]
    view, first = _view(t, z)
    large = view.primes[first:].tolist()
    assert large == sorted(large) and all(p > z for p in large)
    # L is the large primes of the square-free entries: 13 divides only
    # 104 = 2^3 * 13 and 117 = 3^2 * 13 here, so it is not in L
    expected = {p for n in range(101, 121) if naive_squarefree(n)
                for p, _ in trial_factorize(n) if p > z}
    assert set(large) == expected and 13 not in expected


def test_omega_l_examples():
    z = math.log(10)
    # omega_L(n) of the entries n of every N(p), p > z, |N(p)| >= 2, against
    # trial division
    t = segmented_factorize(1000, 60)
    supports = _shared_supports(t, _view(t, z)[1])
    omega = {t.x_lo + 1 + i: w for e, ws in supports for i, w in zip(e.tolist(), ws[:, 0].tolist())}
    assert omega[1002] == 2  # 1002 = 2 * 3 * 167: 3 and 167
    assert omega[1001] == 3  # 1001 = 7 * 11 * 13
    assert len(supports) == 8
    for n, w in omega.items():
        assert w == sum(q > z for q, _ in trial_factorize(n))


def naive_two_core(table):
    """The 2-core by scalar peeling, one entry at a time: the square-free n
    whose primes each divide another n still present."""
    live = dict(table.squarefree_items())
    while True:
        count = Counter(p for ps in live.values() for p in ps)
        lone = next((n for n, ps in live.items() if any(count[p] == 1 for p in ps)), None)
        if lone is None:
            return sorted(live)
        del live[lone]


def core_values(table):
    return (np.flatnonzero(two_core(table)) + table.x_lo + 1).tolist()


@pytest.mark.parametrize("x, y", [(24, 18), (2000, 150), (100020, 1000), (10**6, 1000),
                                  (10**8, 10**4)])
def test_two_core_is_a_subset_of_flags_that_a_second_peel_keeps(x, y):
    t = segmented_factorize(x, y)
    core = two_core(t)
    assert core.dtype == np.bool_ and core.shape == t.flags.shape
    assert not core.flags.writeable
    assert not (core & ~t.flags).any()
    # every prime of a core entry divides at least two core entries
    restricted = t.restrict(core)
    assert (np.diff(restricted.prime_major.offsets) >= 2).all()
    assert np.array_equal(two_core(restricted), core)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_restricted_view_equals_a_fresh_build(lo, length, seed):
    # the view of a restriction, cut from the built view, equals the one
    # _prime_major builds for the narrowed flags, in values and dtypes
    t = _factor_segment(lo, length)
    mask = t.flags & np.random.default_rng(seed).integers(0, 2, length).astype(bool)
    t.prime_major
    cut = t.restrict(mask)
    assert np.array_equal(cut.flags, mask) and not cut.flags.flags.writeable
    fresh = _prime_major(cut)
    for got, want in zip(cut.prime_major, fresh):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    # a restriction of a table without a view builds its own on first use
    built = _factor_segment(lo, length).restrict(mask).prime_major
    assert all(np.array_equal(a, b) for a, b in zip(built, fresh))


def test_restrict_refuses_a_mask_outside_flags():
    t = segmented_factorize(100, 20)
    with pytest.raises(ValueError, match="subset of flags"):
        t.restrict(np.ones(20, dtype=bool))  # 104 is not square-free
    with pytest.raises(ValueError, match="subset of flags"):
        t.restrict(t.flags[:10])


def test_two_core_keeps_one():
    # 1 has no prime, so nothing peels it; 5 and 7 are lone, and 2, 3 and
    # 6 = 2 * 3 hold each other's primes
    t = _factor_segment(0, 7)
    assert core_values(t) == [1, 2, 3, 6] == naive_two_core(t)
    # 3 * 6^2 - 2 * 6 diagonal and the 4! orderings of 1 * 6 * 2 * 3 = 36
    assert oracle_count_square_quadruples(t) == 120


def test_two_core_of_the_wide_interval_is_empty():
    t = segmented_factorize(10**10 + 501, 10**4)
    assert t.squarefree_count > 6000 and not two_core(t).any()


@pytest.mark.parametrize("x, y, c", [(24, 18, 5), (10**8, 10**4, 804), (10**12, 10**5, 3297)])
def test_two_core_sizes(x, y, c):
    assert np.count_nonzero(two_core(segmented_factorize(x, y))) == c


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=300))
def test_two_core_matches_scalar_peeling(lo, length):
    t = _factor_segment(lo, length)
    assert core_values(t) == naive_two_core(t)


def sum_law(table):
    """The law of the sum of X(n) over the table's square-free entries, over
    all 2^P sign vectors of their P primes, as exact probabilities."""
    view = table.prime_major
    bit = {p: 1 << i for i, p in enumerate(view.primes.tolist())}
    masks = [sum(bit[p] for p in ps) for _, ps in table.squarefree_items()]
    counts = Counter(_all_sign_values(masks, [1] * len(masks), view.primes.size).tolist())
    return {v: Fraction(c, 1 << view.primes.size) for v, c in counts.items()}


@pytest.mark.parametrize("x, y", [(24, 18), (38, 31), (94, 25)])
def test_peeled_signs_are_an_independent_binomial(x, y):
    # W * sqrt(S) = R_K + (the core's sum), with R_K = 2 Bin(K, 1/2) - K
    # independent of the core sum, K = S - C
    t = segmented_factorize(x, y)
    core = two_core(t)
    k = t.squarefree_count - int(np.count_nonzero(core))
    assert k > 0 and core.any() and t.prime_major.primes.size <= 18
    want: dict[int, Fraction] = {}
    for v, prob in sum_law(t.restrict(core)).items():
        for i in range(k + 1):
            w = v + k - 2 * i
            want[w] = want.get(w, 0) + prob * Fraction(math.comb(k, i), 1 << k)
    assert sum_law(t) == want
