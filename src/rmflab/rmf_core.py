"""Random multiplicative functions from seeded prime signs: X(n), the
scalar interval sum and the batched trial sampler of interval sums.

Signs are a pure function of (seed, prime) built from the splitmix64
finalizer, so a sign source needs O(1) memory and replays bit-identically
across runs, platforms and worker counts.  Per-trial sources are derived
from (master_seed, trial_index) through the same keyed construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import IntervalTable

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SIGN_TAG = 0x243F6A8885A308D3
_TRIAL_TAG = 0x452821E638D01377


def _mix64(z: int) -> int:
    """splitmix64 finalizer: bijective on 64-bit words, strong avalanche."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _prf(key: int, data: int) -> int:
    return _mix64(_mix64(key) ^ _mix64((data + _GOLDEN) & _M64))


@dataclass(frozen=True)
class SignSource:
    """Deterministic assignment of +/-1 signs to primes from a 64-bit seed."""

    master_seed: int

    def sign(self, p: int) -> int:
        h = _prf((self.master_seed ^ _SIGN_TAG) & _M64, p)
        return 1 if (h >> 63) == 0 else -1

    def for_trial(self, trial_index: int) -> "SignSource":
        """Independent source for one Monte Carlo trial; adding trials never
        perturbs earlier ones."""
        return SignSource(_prf((self.master_seed ^ _TRIAL_TAG) & _M64, trial_index))


def rmf_value(n: int, table: IntervalTable, signs: SignSource) -> int:
    """X(n): 0 if n is not square-free, else the product of sign(p) over the
    distinct prime factors of n.  X(1) = +1 (empty product)."""
    if not table.is_squarefree(n):
        return 0
    v = 1
    for p, _ in table.factors(n):
        v *= signs.sign(p)
    return v


def interval_sum(table: IntervalTable, signs: SignSource) -> int:
    """Exact integer sum of X(n) over (x, x+y]."""
    total = 0
    for _, primes in table.squarefree_items():
        v = 1
        for p in primes:
            v *= signs.sign(p)
        total += v
    return total


# ---------------------------------------------------------------------------
# Vectorized trial engine
# ---------------------------------------------------------------------------

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S27 = np.uint64(27)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _C1
    z ^= z >> _S27
    z *= _C2
    z ^= z >> np.uint64(31)
    return z


def _xorshift30(z: np.ndarray) -> np.ndarray:
    return z ^ (z >> np.uint64(30))


# words of uint64 hash scratch per block (512 KiB).  Against 2^15 and 2^17,
# raw_sums best of 5 was 0.165 s against 0.174 and 0.184 s at
# (10^6 + 123, 10^6 + 1123] with 10^5 trials, 18 ms against 20 and 23 ms at
# (10^10 + 501, 10^10 + 10^4 + 501] with 1000 trials, and level within
# noise at (10^12, 10^12 + 10^6] (2 shared vCPUs)
_TILE_WORDS = 1 << 16
# bytes of the uint8 sign rows of one default tile: the shared primes' sign
# matrix plus two parity blocks of _MIN_BLOCK entries.  A tile is at least
# _MIN_TILE trials wide, as narrow rows cost more per trial to gather, hash
# and XOR: at (10^12, 10^12 + 10^6], 38,278 shared primes, 1024 trials took
# 2.1 s in tiles of 64, 1.5 s in tiles of 256 and 1.3 s in tiles of 512 (2
# shared vCPUs)
_SIGN_BYTES = 1 << 21
_MIN_TILE = 512
# a parity block is about _BLOCK_SIGNS (entry, trial) bytes, and at least
# _MIN_BLOCK entries
_BLOCK_SIGNS = 1 << 16
_MIN_BLOCK = 128


# The sign of (prime p, trial t) is the top bit of
# mix64(mix64(trial_seed(t) ^ SIGN_TAG) ^ mix64(p + GOLDEN)).  The two inner
# mix64 values are hoisted out as halves, each carrying the first xorshift of
# the outer mix64: that step is linear over XOR, so it is applied to each half
# once instead of to every (trial, prime) word.  The outer mix64's last step
# z ^= z >> 31 never changes bit 63, the sign bit, so it is skipped.  Bit 63
# is read as the IEEE sign bit of the word's float64 view by np.signbit: a
# bit test, exact for every pattern (NaN, +-0, +-inf and subnormals too)
# and raising no floating-point flag.

def _prime_halves(primes: list[int]) -> np.ndarray:
    return _xorshift30(_mix64_np(np.array(primes, dtype=np.uint64) + np.uint64(_GOLDEN)))


def _trial_halves(master_seed: int, start: int, count: int) -> np.ndarray:
    """Halves of the trials start, ..., start+count-1 of
    SignSource(master_seed).for_trial."""
    key = np.uint64(_mix64((master_seed ^ _TRIAL_TAG) & _M64))
    idx = np.arange(start, start + count, dtype=np.uint64)
    seeds = _mix64_np(key ^ _mix64_np(idx + np.uint64(_GOLDEN)))
    return _xorshift30(_mix64_np(seeds ^ np.uint64(_SIGN_TAG)))


def _hash_sign_bits(prime_half: np.ndarray, trial_half: np.ndarray,
                    out: np.ndarray, h: np.ndarray, u: np.ndarray,
                    xor: bool = False) -> None:
    """out[j, t] = 1 if prime j has sign -1 in trial t, else 0 (uint8,
    primes x trials), hashed in blocks of primes in the scratch h and u;
    with xor, the sign bits are XORed into out instead.  Each block is six
    whole-array passes (one more with xor): XOR of the halves, multiply,
    xorshift (shift, XOR), multiply, and np.signbit on the float64 view,
    which reads bit 63 of every word, whatever float it spells, and sets no
    FP flag."""
    n_primes, t = out.shape
    rows = h.size // t
    for j in range(0, n_primes, rows):
        m = min(rows, n_primes - j)
        hb = h[: m * t].reshape(m, t)
        ub = u[: m * t].reshape(m, t)
        np.bitwise_xor(prime_half[j : j + m, None], trial_half[None, :], out=hb)
        hb *= _C1
        np.right_shift(hb, _S27, out=ub)
        hb ^= ub
        hb *= _C2
        dst = out[j : j + m].view(np.bool_)
        if xor:
            bits = u.view(np.bool_)[: m * t].reshape(m, t)
            np.signbit(hb.view(np.float64), out=bits)
            dst ^= bits
        else:
            np.signbit(hb.view(np.float64), out=dst)


def _unbuffered_size(t: int) -> int:
    """A ufunc buffer size for hashing t-trial rows, to be set inside
    `with np.errstate()`, which restores the caller's size on exit.  numpy
    buffers a broadcast loop whose rows are at most a third of its buffer;
    below 3t elements (a multiple of 16) the hash's broadcast XOR runs
    unbuffered, at about a third of the buffered cost per element when t is
    a few hundred.  Never larger than the caller's size, so a no-op for
    t >= 2731 at numpy's default of 8192."""
    return min(np.getbufsize(), max(16, (3 * t - 1) & ~15))


class IntervalSampler:
    """Batched sampler of interval sums over derived per-trial sign sources.

    Produces exactly the values the scalar path (SignSource.for_trial +
    interval_sum) would.  Its primes and prime indices are the table's
    prime_major view, which the constructor builds.  A prime is private if
    it divides exactly one square-free entry and shared otherwise: more than
    nine in ten primes are private at (10^10, 10^10 + 10^4] and at
    (10^12, 10^12 + 10^6].  The square-free entries are grouped by omega(n):
    bucket k has k levels, level i holding the i-th prime of each entry.
    Each entry lists its private primes first and a bucket lists its entries
    by falling private count, so each level's private primes are a prefix.

    For a tile of T trials the sampler hashes the (shared primes x T) uint8
    matrix of their sign bits.  Then, for each block of a bucket's entries,
    it builds the (entries x T) parity of X(n) = -1 level by level: a
    private prime is hashed straight into its entry's parity row, and a
    shared prime's row is gathered from the sign matrix.  raw_sums counts
    the parities in uint8 over at most 255 rows at a time, a raw sum being
    S - 2 * #{n : X(n) = -1}; entry_values writes each block's X(n) = 1 - 2
    * parity into its entries' rows.  A block is at least 128 entries and
    about 2^16 (entry, trial) bytes.  A default tile is the 2 MiB sign
    budget over (shared primes + two 128-entry blocks) rows, at least 512
    trials: 1,000 trials are one tile at P = 7054 (613 shared), a tile is
    about 6,000 trials at P = 636 (91 shared) and 512 at P = 526,390 (38,278
    shared).  Each tile runs with numpy's ufunc buffer below 3T elements, so
    that the hash's broadcast XOR is unbuffered.  Cost per trial: one hash
    per prime, one row gather per shared incidence, and one parity row per
    entry and level.  A hash is an XOR of the two halves, a multiply, an
    xorshift, a multiply and a sign-bit test, each a whole-array pass:
    about 1.8-2.3 ns per hash at (10^6 + 123, 10^6 + 1123] with 10^5
    trials (2 shared vCPUs, numpy 2.4).
    """

    def __init__(self, table: IntervalTable, master_seed: int):
        view = table.prime_major
        omega = np.diff(table.offsets)[table.flags]
        squarefree = np.flatnonzero(table.flags)
        self.s_count = omega.size
        self.master_seed = master_seed & _M64
        self._y_len = table.y_len
        # n = 1 (omega 0) has X(1) = +1 for every trial
        self._units = squarefree[omega == 0]
        private = np.diff(view.offsets) == 1
        half = _prime_halves(view.primes)
        self._shared_half = half[~private]
        # a private prime's hash half, or a shared prime's sign-matrix row
        code = np.where(private, half, np.cumsum(~private, dtype=np.uint64) - np.uint64(1))
        starts = np.cumsum(omega) - omega
        # the entries of each omega in table order (a radix sort, omega < 256)
        by_omega = np.argsort(omega.astype(np.uint8), kind="stable")
        sizes = np.bincount(omega)
        firsts = np.cumsum(sizes) - sizes
        # bucket k: (its entries' table indices, [(private prefix m, its hash
        # halves, the shared rows of the other entries) per level])
        self._buckets = []
        for k in (np.flatnonzero(sizes[1:]) + 1).tolist():
            n = int(sizes[k])
            members = by_omega[firsts[k] : firsts[k] + n]
            # primes descending: a prime above y divides one entry of the
            # interval, so nearly every entry lists its private primes first
            idx = view.index[starts[members] + np.arange(k - 1, -1, -1)[:, None]]
            priv = private[idx]
            late = np.flatnonzero((priv[1:] > priv[:-1]).any(axis=0))
            if late.size:
                order = np.argsort(~priv[:, late], axis=0, kind="stable")
                idx[:, late] = np.take_along_axis(idx[:, late], order, 0)
            n_priv = np.count_nonzero(priv, axis=0)
            # entries by falling private count: each level's private primes
            # are then a prefix
            cols = np.argsort((k - n_priv).astype(np.uint8), kind="stable")
            vals = code[idx[:, cols]]
            prefix = n - np.cumsum(np.bincount(n_priv, minlength=k))
            self._buckets.append((squarefree[members[cols]], [
                (m, row[:m], row[m:].view(np.int64)) for m, row in zip(prefix.tolist(), vals)
            ]))

    def raw_sums(self, start: int, count: int, batch: int | None = None) -> np.ndarray:
        """Interval sums for trials start, ..., start+count-1 (int64),
        `batch` trials per tile (default: _SIGN_BYTES over the shared primes
        plus two _MIN_BLOCK blocks, at least _MIN_TILE)."""
        n_neg = np.zeros(count, dtype=np.int64)

        def count_block(trials: slice, entries: np.ndarray, parity: np.ndarray) -> None:
            for b in range(0, len(parity), 255):
                n_neg[trials] += np.add.reduce(parity[b : b + 255], axis=0, dtype=np.uint8)

        self._parity_blocks(start, count, batch, count_block)
        return self.s_count - 2 * n_neg

    def entry_values(self, start: int, count: int, batch: int | None = None) -> np.ndarray:
        """(y x count) int8 matrix whose [i, t] entry is X(x + 1 + i) in
        trial start + t, 0 where x + 1 + i is not square-free; `batch` as
        for raw_sums."""
        out = np.zeros((self._y_len, count), dtype=np.int8)
        out[self._units] = 1

        def write_block(trials: slice, entries: np.ndarray, parity: np.ndarray) -> None:
            out[entries, trials] = 1 - 2 * parity.view(np.int8)

        self._parity_blocks(start, count, batch, write_block)
        return out

    def _parity_blocks(self, start: int, count: int, batch: int | None, visit) -> None:
        """visit(trials, entries, parity) for each block of each bucket in
        each tile of trials start, ..., start+count-1: the tile's slice of
        0..count-1, the block's table entry indices and their (entries x
        trials) uint8 parity of X(n) = -1, valid until visit returns.  Each
        tile runs in its own ufunc buffer scope."""
        n_shared = len(self._shared_half)
        if batch is None:
            batch = max(_MIN_TILE, _SIGN_BYTES // (n_shared + 2 * _MIN_BLOCK))
        tile = max(1, min(batch, count))
        width = max(_MIN_BLOCK, _BLOCK_SIGNS // tile)
        blocks = [(entries[c0 : c0 + width], c0, levels)
                  for entries, levels in self._buckets for c0 in range(0, entries.size, width)]
        # hash scratch of whole tile-wide rows, about _TILE_WORDS words
        h = np.empty(max(1, min(max(n_shared, width), _TILE_WORDS // tile)) * tile, np.uint64)
        u = np.empty_like(h)
        signs_buf = np.empty(n_shared * tile, dtype=np.uint8)
        parity_buf = np.empty(width * tile, dtype=np.uint8)
        trial_half = _trial_halves(self.master_seed, start, count)
        for off in range(0, count, tile):
            half = trial_half[off : off + tile]
            t = half.size
            signs = signs_buf[: n_shared * t].reshape(n_shared, t)
            with np.errstate():
                np.setbufsize(_unbuffered_size(t))
                _hash_sign_bits(self._shared_half, half, signs, h, u)
                for entries, c0, levels in blocks:
                    parity = parity_buf[: entries.size * t].reshape(entries.size, t)
                    for i, (m, priv, rows) in enumerate(levels):
                        # the block's first a rows are private at this level
                        a = min(max(m - c0, 0), entries.size)
                        if a:
                            _hash_sign_bits(priv[c0 : c0 + a], half, parity[:a], h, u, xor=i > 0)
                        if a < entries.size:
                            shared = rows[c0 + a - m : c0 + entries.size - m]
                            if i:
                                parity[a:] ^= signs[shared]
                            else:
                                np.take(signs, shared, axis=0, out=parity[a:])
                    visit(slice(off, off + t), entries, parity)
