import contextlib
import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from rmflab import rmf_core
from rmflab.harness import ExperimentConfig, run_simulate
from rmflab.numtheory import _factor_segment, segmented_factorize, two_core
from rmflab.rmf_core import (
    IntervalSampler,
    SignSource,
    interval_sum,
    rmf_value,
)
from rmflab.stein import conditional_moments_check


class FixedSigns:
    """Test double: explicit signs per prime, +1 for anything unlisted."""

    def __init__(self, neg=(), mapping=None):
        self.mapping = dict(mapping or {})
        for p in neg:
            self.mapping[p] = -1

    def sign(self, p):
        return self.mapping.get(p, 1)


def test_sign_source_is_pure_and_deterministic():
    s = SignSource(987654321)
    values = [s.sign(p) for p in (2, 3, 5, 7, 10**9 + 7)]
    assert values == [SignSource(987654321).sign(p) for p in (2, 3, 5, 7, 10**9 + 7)]
    assert set(values) <= {-1, 1}


def test_sign_unbiased_over_seeds():
    for p in (2, 101, 99991):
        mean = sum(SignSource(seed).sign(p) for seed in range(10**4)) / 10**4
        assert abs(mean) <= 4 / math.sqrt(10**4)


def test_trial_derivation_is_stable():
    root = SignSource(7)
    a = root.for_trial(123)
    assert a == root.for_trial(123)
    assert a != root.for_trial(124)


def test_rmf_value_examples():
    t = segmented_factorize(10, 10)
    signs = FixedSigns(mapping={3: 1, 5: -1})
    assert rmf_value(12, t, signs) == 0  # divisible by 4
    assert rmf_value(15, t, signs) == -1  # sign(3) * sign(5)
    assert rmf_value(11, t, signs) == signs.sign(11) == 1
    assert rmf_value(13, t, FixedSigns(neg=[13])) == -1
    with pytest.raises(ValueError):
        rmf_value(10, t, signs)


def test_interval_sum_examples():
    t = segmented_factorize(10, 10)
    assert interval_sum(t, FixedSigns()) == t.squarefree_count == 6
    zero = segmented_factorize(47, 1)  # 48 not square-free
    assert interval_sum(zero, FixedSigns()) == 0
    # X(11)=X(13)=+1 and X(14)=X(15)=X(17)=X(19)=-1: flip 7, 5, 17, 19
    signs = FixedSigns(neg=[7, 5, 17, 19])
    assert interval_sum(t, signs) == -2


def test_normalized_w():
    # the one W path, the harness's raw / sqrt(S), against the scalar sums
    t = segmented_factorize(2000, 150)
    s = t.squarefree_count
    report = run_simulate(ExperimentConfig(x=2000, y=150, trials=40, master_seed=3))
    raw = [interval_sum(t, SignSource(3).for_trial(i)) for i in range(40)]
    assert all(abs(r) <= s for r in raw)
    assert report.w_values.tolist() == [r / math.sqrt(s) for r in raw]
    # S = 0 gives W = 0 for every trial rather than an error
    empty = run_simulate(ExperimentConfig(x=7, y=2, trials=5, master_seed=1))
    assert empty.s_count == 0 and empty.w_values.tolist() == [0.0] * 5


def test_multiplicativity_on_coprime_squarefree_pairs():
    t = _factor_segment(0, 10**4)
    signs = SignSource(11)
    sf = [n for n in range(1, 101) if t.is_squarefree(n)]
    for m in sf:
        for n in sf:
            if m * n <= 10**4 and math.gcd(m, n) == 1:
                assert rmf_value(m * n, t, signs) == rmf_value(m, t, signs) * rmf_value(
                    n, t, signs
                )


def test_exhaustive_moments_are_zero_and_s():
    # unconditional analogue of the conditional-moment lemma: over ALL sign
    # vectors of the involved primes, mean is 0 and second moment is S; at
    # z = 1 every prime is large, so no sign is conditioned on
    t = segmented_factorize(100, 12)
    rep = conditional_moments_check(t, 1.0, [SignSource(0)])
    assert len(rep.large_primes) <= 20
    assert rep.means == (Fraction(0),)
    assert rep.second_moments == (Fraction(t.squarefree_count),)


def test_sampler_matches_scalar_path():
    t = segmented_factorize(300, 60)
    seed = 2024
    samp = IntervalSampler(t, seed)
    root = SignSource(seed)
    vec = samp.raw_sums(0, 40)
    sca = [interval_sum(t, root.for_trial(i)) for i in range(40)]
    assert vec.tolist() == sca
    # starting offset must slice the same stream
    assert samp.raw_sums(10, 7).tolist() == vec[10:17].tolist()


@contextlib.contextmanager
def tiles_of(batch):
    """The sampler's tiles set to `batch` trials through its tile constants
    (a _MIN_TILE of batch over a zero sign budget), or left at their
    default width where batch is None."""
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(rmf_core, "_MIN_TILE", batch)
            mp.setattr(rmf_core, "_SIGN_BYTES", 0)
        yield


def raw_sums(samp, start, count, batch):
    """samp.raw_sums(start, count) in tiles of `batch` trials."""
    with tiles_of(batch):
        return samp.raw_sums(start, count)


def test_sampler_batch_boundaries():
    t = segmented_factorize(500, 40)
    samp = IntervalSampler(t, 5)
    a = raw_sums(samp, 0, 30, 7)
    b = raw_sums(samp, 0, 30, 512)
    assert np.array_equal(a, b)


def test_sampler_w_values():
    # the harness's W is the sampler's raw sums over sqrt(S)
    t = segmented_factorize(2000, 150)
    raw = IntervalSampler(t, 3).raw_sums(0, 300)
    report = run_simulate(ExperimentConfig(x=2000, y=150, trials=300, master_seed=3))
    assert np.array_equal(report.w_values, raw / math.sqrt(t.squarefree_count))


def test_sampler_matches_scalar_path_high_omega():
    # (10^10, 10^10 + 10^4] has entries with 7 and 8 distinct prime factors
    t = segmented_factorize(10**10, 10**4)
    assert max(len(ps) for _, ps in t.squarefree_items()) >= 7
    seed = 77
    root = SignSource(seed)
    samp = IntervalSampler(t, seed)
    # 72 trials are one default tile, of which an offset call slices the
    # last 8
    assert default_tile(samp) == 2413
    vec = samp.raw_sums(0, 72)
    assert vec[:8].tolist() == [interval_sum(t, root.for_trial(i)) for i in range(8)]
    assert np.array_equal(samp.raw_sums(64, 8), vec[64:])


def test_sampler_unaligned_tiles_match_one_long_call():
    t = segmented_factorize(10**6, 10**3)
    samp = IntervalSampler(t, 9)
    long = samp.raw_sums(0, 1000)
    assert np.array_equal(samp.raw_sums(137, 501), long[137:638])
    assert np.array_equal(raw_sums(samp, 137, 501, 50), long[137:638])
    assert np.array_equal(samp.raw_sums(999, 1), long[999:])


def test_sampler_empty_interval_gives_zeros():
    samp = IntervalSampler(segmented_factorize(47, 1), 1)  # 48 = 2^4 * 3
    assert samp.s_count == 0
    out = samp.raw_sums(0, 5)
    assert out.dtype == np.int64 and out.tolist() == [0] * 5


# tile widths around the former 64-trial minimum, 2^17 // 633 and
# 2^16 // 633 (the widths at which one hash block holds 633 prime rows with
# the former 2^17-word and the current 2^16-word scratch), 4096 (the former
# harness chunk), and the default from the sign-matrix byte budget
TILE_BATCHES = (1, 63, 64, 65, 207, 4096, None, 2**16 // 633)


def default_tile(samp):
    """The sampler's default tile width: the sign-byte budget over its
    shared primes plus two minimum parity blocks, at least _MIN_TILE."""
    rows = len(samp._shared_half) + 2 * rmf_core._MIN_BLOCK
    return max(rmf_core._MIN_TILE, rmf_core._SIGN_BYTES // rows)


def test_sampler_golden_digest():
    # raw sums of the bitmask sampler this kernel replaced, frozen byte for
    # byte, at every tile width; the default tile at P = 636 (91 shared) is
    # 6043 trials, so 4096 trials are one tile
    samp = IntervalSampler(segmented_factorize(10**6, 10**3), 1)
    assert default_tile(samp) == 6043
    for batch in TILE_BATCHES:
        raw = raw_sums(samp, 0, 4096, batch)
        digest = hashlib.sha256(raw.astype("<i8").tobytes()).hexdigest()
        assert digest == "9f5d89ab2b1d5dfd69025bc950df35dddbafe839c5a7d0d53b138efc4b051436", batch


@pytest.mark.parametrize("x,y,seed", [
    (10**6, 10**3, 1),     # clt size, P = 636: the default tile is 6043 trials
    (10**10, 10**4, 2),    # wide size, P = 7054: the default tile is 2413 trials
    (510000, 1000, 3),     # holds 510510 = 2*3*5*7*11*13*17; 6114 trials
])
def test_sampler_tile_widths_match_scalar_path(x, y, seed):
    t = segmented_factorize(x, y)
    assert np.diff(t.offsets)[t.flags].max() >= 6
    start, count = 61, 333
    samp = IntervalSampler(t, seed)
    assert default_tile(samp) == {10**6: 6043, 10**10: 2413, 510000: 6114}[x]
    if x == 10**10:
        # parities are counted in uint8 over at most 255 rows at a time; a
        # bucket of more than 510 entries, in one parity block of more than
        # 510 entries at the tile widths up to 65, takes at least three counts
        assert max(len(entries) for entries, _ in samp._buckets) > 510
        assert rmf_core._BLOCK_SIGNS // 65 > 510
    runs = [raw_sums(samp, start, count, b) for b in TILE_BATCHES]
    for raw in runs[1:]:
        assert np.array_equal(raw, runs[0])
    root = SignSource(seed)
    for i in (0, 62, 63, 64, 65, 206, 207, 296, 297, count - 1):
        assert runs[0][i] == interval_sum(t, root.for_trial(start + i))


def test_sampler_crosses_default_tile_boundary():
    # at the clt size the default tile, 6043 trials, comes from the sign
    # budget and not from _MIN_TILE; 6048 trials take it and a short tile
    t = segmented_factorize(10**6, 10**3)
    samp = IntervalSampler(t, 1)
    assert default_tile(samp) == 6043 > rmf_core._MIN_TILE
    raw = samp.raw_sums(0, 6048)
    assert np.array_equal(raw, raw_sums(samp, 0, 6048, 4096))
    root = SignSource(1)
    for i in (6042, 6043):
        assert raw[i] == interval_sum(t, root.for_trial(i))


def test_sampler_parity_counts_do_not_wrap(monkeypatch):
    # with every sign -1, X(n) is the Moebius function and every entry of odd
    # omega counts; at the wide size the omega = 3 bucket has 1930 entries,
    # so a uint8 count over more than 255 rows would wrap.  Private primes
    # are hashed into (level 0) or XORed into (later levels) parity rows, and
    # a private prime's -1 must reach its entry on both paths
    calls = {False: 0, True: 0}

    def all_minus(prime_half, trial_half, out, h, u, xor=False):
        calls[xor] += 1
        if xor:
            out ^= 1
        else:
            out.fill(1)

    monkeypatch.setattr(rmf_core, "_hash_sign_bits", all_minus)
    t = segmented_factorize(10**10, 10**4)
    mobius_sum = interval_sum(t, FixedSigns(neg=set(t.primes.tolist())))
    samp = IntervalSampler(t, 2)
    for batch in (5, 64, None):
        assert raw_sums(samp, 0, 5, batch).tolist() == [mobius_sum] * 5
    assert calls[False] > 1 and calls[True] > 0


def test_sampler_minimum_tile_matches_scalar_path():
    # at (10^10, 10^10 + 10^5] the 2 MiB rule over 4752 shared primes gives
    # 418 trials, fewer than _MIN_TILE, so 600 trials take a full tile and a
    # short one
    t = segmented_factorize(10**10, 10**5)
    samp = IntervalSampler(t, 4)
    n_rows = len(samp._shared_half) + 2 * rmf_core._MIN_BLOCK
    assert rmf_core._SIGN_BYTES // n_rows == 418
    assert default_tile(samp) == rmf_core._MIN_TILE < 600
    raw = samp.raw_sums(0, 600)
    assert np.array_equal(raw, raw_sums(samp, 0, 600, 600))
    root = SignSource(4)
    for i in (rmf_core._MIN_TILE - 1, rmf_core._MIN_TILE):
        assert raw[i] == interval_sum(t, root.for_trial(i))


@pytest.fixture(scope="module")
def wide_scalar_sums():
    t = segmented_factorize(10**10, 10**4)
    root = SignSource(5)
    return t, [interval_sum(t, root.for_trial(3 + i)) for i in range(10)]


@pytest.mark.parametrize("batch", [1, 7, 64, 300, None])
def test_sampler_private_primes_match_scalar_path(wide_scalar_sums, batch):
    # a private prime divides one square-free entry and is hashed straight
    # into that entry's parity row; a shared one is gathered from the sign
    # matrix
    t, scalar = wide_scalar_sums
    view = t.prime_major
    private = set(view.primes[np.diff(view.offsets) == 1].tolist())
    shared = set(view.primes.tolist()) - private
    lists = [ps for _, ps in t.squarefree_items()]
    n_private = [sum(p in private for p in ps) for ps in lists]
    assert {0, 1, 2} <= set(n_private)
    # n = p * q with p, q > y: both primes private
    assert any(len(ps) == 2 and min(ps) > 10**4 for ps in lists)
    # the omega = 1 bucket (primes of the interval) has no shared prime
    assert all(ps[0] in private for ps in lists if len(ps) == 1)
    # entries with a private prime below a shared one, which the sampler
    # reorders to list private primes first
    assert any(p in private and q in shared for ps in lists for p in ps for q in ps if p < q)
    samp = IntervalSampler(t, 5)
    assert raw_sums(samp, 3, 10, batch).tolist() == scalar


@pytest.mark.parametrize("fail", [False, True])
def test_scoped_ufunc_buffer_is_restored(monkeypatch, fail):
    # the hash runs with numpy's ufunc buffer below 3 rows of trials; the
    # caller's size comes back after raw_sums and entry_values, also when
    # the hash raises inside that scope
    t = segmented_factorize(10**6, 10**3)
    samp = IntervalSampler(t, 1)
    seen = []
    if fail:
        def failing(prime_half, trial_half, out, h, u, xor=False):
            seen.append(np.getbufsize())
            raise RuntimeError("hash failed")

        monkeypatch.setattr(rmf_core, "_hash_sign_bits", failing)
    before = np.getbufsize()
    for call in (samp.raw_sums, samp.entry_values):
        if fail:
            with pytest.raises(RuntimeError):
                call(0, 300)
        else:
            call(0, 300)
        assert np.getbufsize() == before
    # 896: the largest multiple of 16 below 3 * 300
    assert seen == ([896, 896] if fail else [])
    if not fail:
        # a caller's smaller buffer is kept
        with np.errstate():
            np.setbufsize(128)
            samp.raw_sums(0, 300)
            samp.entry_values(0, 300)
            assert np.getbufsize() == 128


# a final hash word of every float64 class, by name
HASH_WORDS = {
    "+0.0": 0x0000000000000000,
    "-0.0": 0x8000000000000000,
    "+inf": 0x7FF0000000000000,
    "-inf": 0xFFF0000000000000,
    "+quiet NaN": 0x7FF8000000000000,
    "-quiet NaN": 0xFFF8000000000000,
    "+signalling NaN": 0x7FF0000000000001,
    "-signalling NaN": 0xFFF0000000000001,
    "+smallest subnormal": 0x0000000000000001,
    "-smallest subnormal": 0x8000000000000001,
    "+largest subnormal": 0x000FFFFFFFFFFFFF,
    "-largest subnormal": 0x800FFFFFFFFFFFFF,
    "int64 max": 0x7FFFFFFFFFFFFFFF,
    "all ones": 0xFFFFFFFFFFFFFFFF,
}


def _hash_word(prime_half):
    """The word _hash_sign_bits ends on for prime_half XOR a zero trial
    half: multiply by C1, xorshift-27, multiply by C2."""
    z = prime_half * int(rmf_core._C1) & rmf_core._M64
    z ^= z >> 27
    return z * int(rmf_core._C2) & rmf_core._M64


def _prime_half_for(word):
    """The inverse of _hash_word: multiply by C2^-1 mod 2^64, undo the
    xorshift-27 (two shifts cover 64 bits), multiply by C1^-1."""
    z = word * pow(int(rmf_core._C2), -1, 1 << 64) & rmf_core._M64
    z ^= (z >> 27) ^ (z >> 54)
    return z * pow(int(rmf_core._C1), -1, 1 << 64) & rmf_core._M64


@pytest.mark.parametrize("xor", [False, True], ids=["direct", "xor"])
def test_hash_sign_bits_reads_bit_63_of_every_word_class(xor):
    # the sign is bit 63 of the final word, for NaN, +-0, +-inf and
    # subnormal bit patterns too, and reading it raises no FP flag
    words = list(HASH_WORDS.values())
    halves = [_prime_half_for(w) for w in words]
    assert [_hash_word(h) for h in halves] == words
    t = 3
    want = np.repeat(np.array([w >> 63 for w in words], dtype=np.uint8)[:, None], t, axis=1)
    # two rows of scratch: the words are hashed in blocks of two primes
    h = np.empty(2 * t, np.uint64)
    u = np.empty_like(h)
    if xor:
        before = (np.arange(want.size) % 2).astype(np.uint8).reshape(want.shape)
        want ^= before
    else:
        before = np.full(want.shape, 7, dtype=np.uint8)
    out = before.copy()
    with np.errstate(all="raise"):
        rmf_core._hash_sign_bits(np.array(halves, dtype=np.uint64), np.zeros(t, np.uint64),
                                 out, h, u, xor=xor)
    assert np.array_equal(out, want)


@functools.cache
def scalar_entry_values(x, y, seed, start, columns):
    """X(n) of every entry n of (x, x+y] in the trials start + c, c in
    columns, from the scalar sign source."""
    t = _factor_segment(x, y)
    sources = [SignSource(seed).for_trial(start + c) for c in columns]
    return np.array([[rmf_value(n, t, s) for s in sources] for n in range(x + 1, x + y + 1)])


# the first and last trials of the tiles of 1, 7, 64 and 300 trials
TILE_EDGES = (0, 1, 6, 7, 63, 64, 299, 300, 332)


@pytest.mark.parametrize("x, y, seed, columns", [
    (2000, 150, 3, tuple(range(333))),  # every trial
    (10**10, 10**4, 2, TILE_EDGES),     # wide size
    (510000, 1000, 3, TILE_EDGES),      # holds 510510 = 2*3*5*7*11*13*17
], ids=["2000-150", "wide", "510510"])
@pytest.mark.parametrize("batch", [1, 7, 64, 300, None])
def test_entry_values_match_scalar_path(x, y, seed, columns, batch):
    t = segmented_factorize(x, y)
    samp = IntervalSampler(t, seed)
    with tiles_of(batch):
        values = samp.entry_values(61, 333)
    assert values.dtype == np.int8 and values.shape == (y, 333)
    assert np.array_equal(values[:, columns], scalar_entry_values(x, y, seed, 61, columns))
    assert np.array_equal(values.sum(axis=0), raw_sums(samp, 61, 333, batch))


def test_entry_values_match_scalar_source():
    # every seed form the sign source accepts; n = 1 (no prime) is +1 and
    # the zero entries are the ones that are not square-free
    for x, y in ((0, 40), (10**9 + 6, 1)):
        t = _factor_segment(x, y)
        for seed in (0, 5, -1, 2**64 + 3):
            values = IntervalSampler(t, seed).entry_values(11, 40)
            assert values.shape == (y, 40)
            assert values.tolist() == scalar_entry_values(x, y, seed, 11, tuple(range(40))).tolist()
    t = _factor_segment(0, 40)
    assert IntervalSampler(t, 0).entry_values(0, 3)[0].tolist() == [1, 1, 1]
    assert IntervalSampler(t, 0).entry_values(0, 0).shape == (40, 0)


def test_entry_values_match_scalar_source_across_hash_blocks():
    # 91 shared primes by 1000 trials are hashed in two blocks of 65 prime
    # rows (2^16 words of scratch), the last one short, and each parity
    # block of 128 entries hashes up to 128 private primes the same way
    t = segmented_factorize(10**6, 10**3)
    samp = IntervalSampler(t, 5)
    assert len(samp._shared_half) == 91
    assert rmf_core._TILE_WORDS // 1000 == 65
    values = samp.entry_values(17, 1000)
    columns = (0, 1, 500, 999)
    assert np.array_equal(values[:, columns], scalar_entry_values(10**6, 10**3, 5, 17, columns))


def test_sampler_of_a_restricted_table_sees_only_its_entries():
    # narrowing flags to a subset of the square-free entries restricts the
    # sampler: the same X(n) at the kept entries, 0 elsewhere
    t = segmented_factorize(100020, 1000)
    full = IntervalSampler(t, 3).entry_values(5, 700)
    for mask in (two_core(t), t.flags & (np.arange(t.y_len) % 3 == 0)):
        assert mask.any()
        samp = IntervalSampler(t.restrict(mask), 3)
        values = samp.entry_values(5, 700)
        assert np.array_equal(values, np.where(mask[:, None], full, 0))
        assert np.array_equal(samp.raw_sums(5, 700), values.sum(axis=0, dtype=np.int64))


# The chi-square_39 quantile at 0.9999 (the statistic has 40 - 1 degrees of
# freedom): a working kernel exceeds it once in 10^4 seeds.
CHI2_39_Q9999 = 80.6


def binomial_chi_square(raw: np.ndarray, s: int, bins: int = 40) -> float:
    """Pearson's statistic of the raw sums' j = (S - raw) / 2 against
    Bin(S, 1/2), over `bins` bins of about equal probability: each bin ends
    at the first j where the binomial CDF reaches a multiple of 1/bins.  The
    bin probabilities are exact: C(S, j) in integers, by C(S, j + 1) =
    C(S, j) (S - j) / (j + 1): at S = 6073 that takes 0.015 s, and one
    math.comb per j 3.1 s."""
    weights = [1]
    for j in range(s):
        weights.append(weights[-1] * (s - j) // (j + 1))
    assert weights[s // 2] == math.comb(s, s // 2)
    total, acc, edges = 1 << s, 0, []
    for j, w in enumerate(weights):
        acc += w
        while len(edges) < bins - 1 and acc * bins >= (len(edges) + 1) * total:
            edges.append(j + 1)
    bounds = [0, *edges, s + 1]
    expected = raw.size * np.array([Fraction(sum(weights[a:b]), total)
                                    for a, b in zip(bounds, bounds[1:])], dtype=float)
    observed = np.bincount(np.searchsorted(edges, (s - raw) // 2, side="right"),
                           minlength=bins)
    return float(((observed - expected) ** 2 / expected).sum())


def test_raw_sums_follow_the_binomial_law_where_the_core_is_empty():
    # with an empty 2-core the S signs X(n) are iid, so raw = S - 2 Bin(S, 1/2)
    # exactly; seeds 1-3 read 33.9-37.7 at 10^4 trials
    t = segmented_factorize(10**10 + 501, 10**4)
    assert not two_core(t).any()
    samp = IntervalSampler(t, 1)
    s = t.squarefree_count
    assert binomial_chi_square(samp.raw_sums(0, 10**4), s) < CHI2_39_Q9999
    # a kernel that drops a bucket (here the primes of the interval) fails
    samp._buckets = samp._buckets[1:]
    assert binomial_chi_square(samp.raw_sums(0, 10**4), s) > CHI2_39_Q9999
