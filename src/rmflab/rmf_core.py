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


# words of uint64 hash scratch per block (512 KiB)
_TILE_WORDS = 1 << 16
# bytes of the (primes x trials) uint8 sign matrix of one default tile; a
# tile is at least _MIN_TILE trials wide so that every gathered sign row is
# worth copying
_SIGN_BYTES = 1 << 21
_MIN_TILE = 64


# The sign of (prime p, trial t) is the top bit of
# mix64(mix64(trial_seed(t) ^ SIGN_TAG) ^ mix64(p + GOLDEN)).  The two inner
# mix64 values are hoisted out as halves, each carrying the first xorshift of
# the outer mix64: that step is linear over XOR, so it is applied to each half
# once instead of to every (trial, prime) word.  The outer mix64's last step
# z ^= z >> 31 never changes bit 63, the sign bit, so it is skipped.

def _prime_halves(primes: list[int]) -> np.ndarray:
    return _xorshift30(_mix64_np(np.array(primes, dtype=np.uint64) + np.uint64(_GOLDEN)))


def _trial_halves(master_seed: int, start: int, count: int) -> np.ndarray:
    """Halves of the trials start, ..., start+count-1 of
    SignSource(master_seed).for_trial."""
    key = np.uint64(_mix64((master_seed ^ _TRIAL_TAG) & _M64))
    idx = np.arange(start, start + count, dtype=np.uint64)
    seeds = _mix64_np(key ^ _mix64_np(idx + np.uint64(_GOLDEN)))
    return _xorshift30(_mix64_np(seeds ^ np.uint64(_SIGN_TAG)))


def _hash_scratch(n_primes: int, tile: int) -> tuple[np.ndarray, np.ndarray]:
    """Two uint64 buffers of whole tile-wide rows, about _TILE_WORDS words."""
    h = np.empty(max(1, min(n_primes, _TILE_WORDS // tile)) * tile, dtype=np.uint64)
    return h, np.empty_like(h)


def _hash_sign_bits(prime_half: np.ndarray, trial_half: np.ndarray,
                    out: np.ndarray, h: np.ndarray, u: np.ndarray) -> None:
    """out[j, t] = 1 if prime j has sign -1 in trial t, else 0 (uint8,
    primes x trials), hashed in blocks of primes in the scratch h and u."""
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
        # bit 63 set is a negative int64
        np.less(hb.view(np.int64), 0, out=out[j : j + m].view(np.bool_))


def trial_signs(primes: list[int], master_seed: int, start: int, count: int) -> np.ndarray:
    """(len(primes) x count) int8 matrix whose [j, t] entry is
    SignSource(master_seed).for_trial(start + t).sign(primes[j])."""
    bits = np.empty((len(primes), count), dtype=np.uint8)
    if bits.size:
        _hash_sign_bits(_prime_halves(primes), _trial_halves(master_seed, start, count),
                        bits, *_hash_scratch(len(primes), count))
    return 1 - 2 * bits.view(np.int8)


class IntervalSampler:
    """Batched sampler of interval sums over derived per-trial sign sources.

    Produces exactly the values the scalar path (SignSource.for_trial +
    interval_sum) would.  Its primes and prime indices are the table's
    prime_major view, which the constructor builds.  The square-free entries
    are grouped by omega(n): bucket k is a (k, n_k) array of prime indices,
    one column per entry with k distinct prime factors.  For a tile of
    trials the sampler hashes a prime-major (P x T) matrix of sign bits, XORs
    the k gathered rows of each bucket into the parity of X(n) = -1, counts
    it in uint8 over blocks of at most 255 rows and returns
    S - 2 * #{n : X(n) = -1}.  Cost per trial is
    linear in P plus the number of (entry, prime) incidences.  The sign matrix
    is that of trial_signs, hashed tile by tile.  A default tile is as many
    trials as fit a 2 MiB (P x T) uint8 sign matrix, and at least 64: about
    3300 trials at P = 636, about 300 at P = 7054.
    """

    def __init__(self, table: IntervalTable, master_seed: int):
        view = table.prime_major
        omega = np.diff(table.offsets)[table.flags]
        self.s_count = omega.size
        self.master_seed = master_seed & _M64
        starts = np.cumsum(omega) - omega
        # n = 1 (omega 0) has X(1) = +1 for every trial
        self._buckets = [
            view.index[starts[omega == k] + np.arange(k)[:, None]]
            for k in np.unique(omega[omega > 0]).tolist()
        ]
        self._prime_half = _prime_halves(view.primes)

    def raw_sums(self, start: int, count: int, batch: int | None = None) -> np.ndarray:
        """Interval sums for trials start, ..., start+count-1 (int64),
        `batch` trials per tile (default: as many as fit a _SIGN_BYTES sign
        matrix, at least _MIN_TILE)."""
        n_primes = len(self._prime_half)
        if batch is None:
            batch = max(_MIN_TILE, _SIGN_BYTES // max(n_primes, 1))
        tile = max(1, min(batch, count))
        h, u = _hash_scratch(n_primes, tile)
        signs_buf = np.empty(n_primes * tile, dtype=np.uint8)
        trial_half = _trial_halves(self.master_seed, start, count)
        out = np.empty(count, dtype=np.int64)
        for off in range(0, count, tile):
            t = min(tile, count - off)
            signs = signs_buf[: n_primes * t].reshape(n_primes, t)
            _hash_sign_bits(self._prime_half, trial_half[off : off + t], signs, h, u)
            n_neg = np.zeros(t, dtype=np.int64)
            for bucket in self._buckets:
                parity = signs[bucket[0]]
                for row in bucket[1:]:
                    parity ^= signs[row]
                for b in range(0, len(parity), 255):
                    n_neg += np.add.reduce(parity[b : b + 255], axis=0, dtype=np.uint8)
            out[off : off + t] = self.s_count - 2 * n_neg
        return out
