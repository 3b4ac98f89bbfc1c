"""Sieving, interval factorization, square-free detection and prime-set
utilities shared by every other module.

The interval convention is half-open everywhere: (x, x+y] means the
integers x+1, ..., x+y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ScaleError

_U64_LIMIT = 1 << 64
# Largest interval segmented_factorize accepts: the sieve holds the primes
# up to sqrt(x+y) in memory and the table holds about 4y int64 incidences.
MAX_X_PLUS_Y = 10**15
MAX_Y = 10**7


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)).tolist()


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division. Desk scale only."""
    if n < 1:
        raise ValueError(f"cannot factorize n={n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1)."""
    if n < 1:
        raise ValueError(f"square-free test needs n >= 1, got {n}")
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 2
    return True


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Complete factorizations and square-free flags for (x, x+y], as
    read-only CSR arrays.

    Entry i is n = x_lo + 1 + i: its primes, ascending, are
    primes[offsets[i]:offsets[i+1]] (int64) with their exponents (int8), and
    flags[i] (bool) is True iff n is square-free.  segmented_factorize
    refuses intervals with x+y > MAX_X_PLUS_Y or y > MAX_Y.
    """

    x_lo: int
    y_len: int
    offsets: np.ndarray
    primes: np.ndarray
    exponents: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        for a in (self.offsets, self.primes, self.exponents, self.flags):
            a.flags.writeable = False

    @property
    def x_hi(self) -> int:
        return self.x_lo + self.y_len

    @property
    def squarefree_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The (prime, exponent) pairs of every entry."""
        pairs = list(zip(self.primes.tolist(), self.exponents.tolist()))
        off = self.offsets.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(off, off[1:]))

    def _index(self, n: int) -> int:
        if not self.x_lo < n <= self.x_hi:
            raise ValueError(f"n={n} outside table interval ({self.x_lo}, {self.x_hi}]")
        return n - self.x_lo - 1

    def factors(self, n: int) -> tuple[tuple[int, int], ...]:
        i = self._index(n)
        a, b = self.offsets[i], self.offsets[i + 1]
        return tuple(zip(self.primes[a:b].tolist(), self.exponents[a:b].tolist()))

    def is_squarefree(self, n: int) -> bool:
        return bool(self.flags[self._index(n)])

    def squarefree_values(self) -> list[int]:
        return (np.flatnonzero(self.flags) + (self.x_lo + 1)).tolist()

    def squarefree_items(self) -> list[tuple[int, tuple[int, ...]]]:
        """(n, distinct primes of n) for every square-free n in the table."""
        ps, off, lo = self.primes.tolist(), self.offsets.tolist(), self.x_lo + 1
        return [(lo + i, tuple(ps[off[i] : off[i + 1]]))
                for i in np.flatnonzero(self.flags).tolist()]


def _factor_segment(lo: int, length: int) -> IntervalTable:
    """Factor every n in (lo, lo+length]; lo >= 0 allowed (n = 1 gets the
    empty factorization and counts as square-free).  Every (index, sieve
    prime) incidence is built at once and the primes are divided out of rem
    one exponent round at a time; what is left above 1 is a prime > sqrt(hi)."""
    hi = lo + length
    sieve = np.array(sieve_primes(math.isqrt(hi)), dtype=np.int64)
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
    return IntervalTable(
        lo, length, offsets, np.concatenate([inc_p, rem[cof]])[order],
        np.concatenate([inc_e, np.ones(cof.size, dtype=np.int8)])[order], flags,
    )


def segmented_factorize(x: int, y: int) -> IntervalTable:
    """Factor table for the interval (x, x+y].

    Sieves primes up to sqrt(x+y) once, divides them out of the segment and
    recovers any remaining prime cofactor exceeding sqrt(x+y).  Refuses
    x+y > MAX_X_PLUS_Y or y > MAX_Y with ScaleError before allocating.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if y < 1:
        raise ValueError(f"y must be >= 1, got {y}")
    if x + y >= _U64_LIMIT:
        raise ValueError(f"x+y={x + y} exceeds 64-bit unsigned range")
    if x + y > MAX_X_PLUS_Y or y > MAX_Y:
        raise ScaleError(f"interval ({x}, {x + y}] beyond x+y <= {MAX_X_PLUS_Y}, y <= {MAX_Y}")
    return _factor_segment(x, y)


def squarefree_count(table: IntervalTable) -> int:
    """S(x, y): number of square-free integers in (x, x+y]."""
    return table.squarefree_count


def squarefree_flags(x: int, y: int) -> bytearray:
    """Square-free flags for (x, x+y] without full factorizations;
    index i corresponds to n = x + 1 + i."""
    hi = x + y
    first = x + 1
    flags = bytearray([1]) * y
    for p in sieve_primes(math.isqrt(hi)):
        sq = p * p
        start = ((x // sq) + 1) * sq
        for m in range(start, hi + 1, sq):
            flags[m - first] = 0
    return flags


def kernel_xor(a: int, b: int) -> int:
    """Symmetric difference of prime sets of square-free a and b, as the
    square-free integer a*b / gcd(a,b)^2.

    A product of square-free numbers is a perfect square iff folding them
    through kernel_xor yields 1.
    """
    if not is_squarefree(a):
        raise ContractViolation(f"kernel_xor needs square-free inputs, got a={a}")
    if not is_squarefree(b):
        raise ContractViolation(f"kernel_xor needs square-free inputs, got b={b}")
    g = math.gcd(a, b)
    return (a // g) * (b // g)


def _kernel_unchecked(a: int, b: int) -> int:
    g = math.gcd(a, b)
    return (a // g) * (b // g)


@dataclass(frozen=True)
class PrimeSplit:
    """Primes relevant to an interval, split at the threshold z into
    small (<= z) and large (> z)."""

    z: float
    small_primes: tuple[int, ...]
    large_primes: tuple[int, ...]


def z_of_delta(delta: float) -> float:
    """Threshold z = (1/2) ln(1/delta)."""
    if not 0 < delta < 0.1:
        raise ValueError(f"delta must lie in (0, 1/10), got {delta}")
    return 0.5 * math.log(1.0 / delta)


def prime_split(delta: float, table: IntervalTable) -> PrimeSplit:
    """Split primes at z = (1/2) ln(1/delta): small primes are all p <= z,
    large primes are the p > z dividing some entry of the table."""
    z = z_of_delta(delta)
    small = tuple(sieve_primes(math.floor(z)))
    large = np.unique(table.primes[table.primes > z])
    return PrimeSplit(z, small, tuple(large.tolist()))


def omega_L(n: int, z: float) -> int:
    """Number of distinct prime factors of n strictly greater than z."""
    return sum(1 for p, _ in trial_factorize(n) if p > z) if n > 1 else 0
