"""Sieving, interval factorization, square-free detection and the
small/large prime threshold, shared by every other module.

The interval convention is half-open everywhere: (x, x+y] means the
integers x+1, ..., x+y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ScaleError

_U64_LIMIT = 1 << 64
# Largest interval segmented_factorize accepts.  At the limit, (10^15 - 10^7,
# 10^7], the table is built in eight blocks in 1.9-2.4 s (1.7-2.2 s under
# tracemalloc) and peaks at about 506 MiB (tracemalloc) and 498 MiB max RSS
# on 2 shared vCPUs.
MAX_X_PLUS_Y = 10**15
MAX_Y = 10**7
# _factor_block sorts each incidence of a sparse sieve prime as one int64 key
# index << P_BITS | prime: a sieve prime is at most isqrt(MAX_X_PLUS_Y) <
# P_MASK, so it fits the low P_BITS bits that P_MASK reads back, and an index
# within its block is below MAX_Y <= 2^(63 - P_BITS).
P_BITS = 31
P_MASK = (1 << P_BITS) - 1
# Fewest entries per block of _factor_segment.  A block is also at least as
# long as the list of sieve primes that hit the interval, since each block
# touches every one of them: at the limit, 2^17-entry blocks took 4.4 s of CPU
# against 2.4 s for blocks of 1,354,546 entries, one per such prime (2 shared
# vCPUs).
MIN_BLOCK = 1 << 17
# _factor_block handles a sieve prime p <= length // DENSE_HITS of its block,
# with at least DENSE_HITS multiples there, by strided slices, and sorts the
# incidences of the rest.
DENSE_HITS = 512


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array.  Odd numbers only:
    index i of the sieve stands for 2i + 1, an odd prime p strikes its odd
    multiples from p^2 on, which lie p indices apart, and 2 is prepended."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    is_prime = np.ones((limit + 1) // 2, dtype=bool)
    is_prime[0] = False  # 1
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_prime[p // 2]:
            is_prime[p * p // 2 :: p] = False
    odd = np.flatnonzero(is_prime)
    odd <<= 1
    odd += 1
    return np.concatenate(([2], odd)).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Complete factorizations and square-free flags for (x, x+y], as
    read-only CSR arrays.

    Entry i is n = x_lo + 1 + i: its distinct primes, ascending, are
    primes[offsets[i]:offsets[i+1]] (int64), and flags[i] (bool) is True
    iff n is square-free.  No exponent is stored: entries, which only the
    benchmark's incidence counters read, finds each by dividing n, and it is
    1 in a square-free entry.
    segmented_factorize refuses intervals with x+y > MAX_X_PLUS_Y or y >
    MAX_Y.  Every grouping of the square-free incidences by prime reads
    prime_major.

    The one way to restrict a table to some of its square-free entries is
    to narrow flags to a subset of them (restrict): the IntervalSampler and
    prime_major of the result see only those entries.
    """

    x_lo: int
    y_len: int
    offsets: np.ndarray
    primes: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        for a in (self.offsets, self.primes, self.flags):
            a.flags.writeable = False

    @cached_property
    def prime_major(self) -> "PrimeMajor":
        """Built on first use and kept; segmented_factorize never builds it."""
        return _prime_major(self)

    def restrict(self, mask: np.ndarray) -> "IntervalTable":
        """This table with flags narrowed to mask, a bool array over the
        entries that is a subset of flags (a two_core mask, say).  If this
        table's prime_major is built, the result's is cut from it rather
        than built again."""
        mask = np.array(mask, dtype=bool)
        if mask.shape != self.flags.shape or (mask & ~self.flags).any():
            raise ValueError("a restriction mask must be a subset of flags")
        table = replace(self, flags=mask)
        if "prime_major" in self.__dict__:
            table.__dict__["prime_major"] = _restricted_view(self, mask)
        return table

    @property
    def x_hi(self) -> int:
        return self.x_lo + self.y_len

    @property
    def squarefree_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The (prime, exponent) pairs of every entry."""
        n = np.repeat(np.arange(self.x_lo + 1, self.x_hi + 1), np.diff(self.offsets))
        pairs = list(zip(self.primes.tolist(), _valuations(n, self.primes).tolist()))
        off = self.offsets.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(off, off[1:]))

    def _index(self, n: int) -> int:
        if not self.x_lo < n <= self.x_hi:
            raise ValueError(f"n={n} outside table interval ({self.x_lo}, {self.x_hi}]")
        return n - self.x_lo - 1

    def is_squarefree(self, n: int) -> bool:
        return bool(self.flags[self._index(n)])

    def squarefree_items(self) -> list[tuple[int, tuple[int, ...]]]:
        """(n, distinct primes of n) for every square-free n in the table."""
        ps, off, lo = self.primes.tolist(), self.offsets.tolist(), self.x_lo + 1
        return [(lo + i, tuple(ps[off[i] : off[i + 1]]))
                for i in np.flatnonzero(self.flags).tolist()]


def _valuations(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The exponent of each prime p[k] in n[k], for p[k] | n[k]."""
    n = n // p
    e = np.ones(p.size, dtype=np.int64)
    at = np.flatnonzero(n % p == 0)
    while at.size:
        e[at] += 1
        n[at] //= p[at]
        at = at[n[at] % p[at] == 0]
    return e


class PrimeMajor(NamedTuple):
    """The incidences p | n of the square-free entries of an IntervalTable,
    grouped by prime, as read-only arrays: the distinct primes ascending;
    index[r], the position in primes of the r-th square-free incidence in
    table order; and the ascending table indices of the entries that
    primes[j] divides, entries[offsets[j]:offsets[j+1]]."""

    primes: np.ndarray
    index: np.ndarray
    offsets: np.ndarray
    entries: np.ndarray


def _prime_major(table: IntervalTable) -> PrimeMajor:
    """One np.unique of the square-free incidences' primes gives primes and
    index, and one sort of the keys index * y + entry lays out entries."""
    sizes = np.diff(table.offsets)
    primes, index = np.unique(table.primes[np.repeat(table.flags, sizes)],
                              return_inverse=True)
    keys = index * table.y_len + _incidence_entries(table)
    keys.sort()
    offsets = np.concatenate(([0], np.cumsum(np.bincount(index, minlength=primes.size))))
    view = PrimeMajor(primes, index, offsets, keys % table.y_len)
    for a in view:
        a.flags.writeable = False
    return view


def _incidence_entries(table: IntervalTable) -> np.ndarray:
    """The table index of each square-free incidence, in table order."""
    return np.repeat(np.flatnonzero(table.flags), np.diff(table.offsets)[table.flags])


def _restricted_view(table: IntervalTable, mask: np.ndarray) -> PrimeMajor:
    """_prime_major of table.restrict(mask), cut from table.prime_major: the
    incidences of the entries in mask keep their order, and the primes left
    without one are dropped and the rest renumbered."""
    view = table.prime_major
    keep = mask[view.entries]
    prime_of = np.repeat(np.arange(view.primes.size), np.diff(view.offsets))
    counts = np.bincount(prime_of[keep], minlength=view.primes.size)
    live = counts > 0
    number = np.cumsum(live) - 1
    index = number[view.index[mask[_incidence_entries(table)]]]
    out = PrimeMajor(view.primes[live], index, np.concatenate(([0], np.cumsum(counts[live]))),
                     view.entries[keep])
    for a in out:
        a.flags.writeable = False
    return out


def two_core(table: IntervalTable) -> np.ndarray:
    """The table's 2-core, as a read-only bool mask over its entries: what
    is left of the square-free entries (flags) after repeatedly removing
    every entry with a prime that divides no other remaining entry.  Every
    prime of a core entry divides at least two core entries; n = 1, with no
    prime, is never removed.

    The signs X(n) of the removed entries are iid uniform and independent of
    the core's, and every non-diagonal square quadruple lies in the core.
    Each round is one np.bincount of the live incidences by prime over the
    prime-major view, and the incidences of the entries it removes are
    dropped before the next."""
    view = table.prime_major
    core = table.flags.copy()
    entry, index = _incidence_entries(table), view.index
    while entry.size:
        lone = np.bincount(index, minlength=view.primes.size) == 1
        peeled = entry[lone[index]]
        if not peeled.size:
            break
        core[peeled] = False
        live = core[entry]
        entry, index = entry[live], index[live]
    core.flags.writeable = False
    return core


def _runs(first: np.ndarray, step: np.ndarray, count: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """The arithmetic runs first[r] + j * step[r], 0 <= j < count[r], one
    after another, written over out, which must hold np.repeat(step, count):
    a running sum of the steps whose first term in each run jumps from the
    previous run's last value."""
    runs = np.flatnonzero(count)
    ends = first[runs] + (count[runs] - 1) * step[runs]
    out[(np.cumsum(count) - count)[runs]] = first[runs] - np.concatenate(([0], ends[:-1]))
    return np.cumsum(out, out=out)


def _factor_segment(lo: int, length: int) -> IntervalTable:
    """Factor every n in (lo, lo+length]; lo >= 0 allowed (n = 1 gets the
    empty factorization and counts as square-free).

    The primes up to sqrt(hi) are sieved once, and those with no multiple in
    the interval are dropped: in a short interval that is most of them.  The
    hit counts of the rest size the output: primes gets room for every
    incidence plus one cofactor per entry.  _factor_block then factors
    blocks of max(MIN_BLOCK, number of kept primes) entries, each into its
    slice of the output, so the temporaries grow with the block and not with
    the interval; an interval of one block runs the loop once.  Each block
    finds the first multiple and the count of every kept prime and prime
    power from its own bounds, strides over the multiples of the primes
    with at least DENSE_HITS of them there and sorts the incidences of the
    rest.  The prime powers p^k <= hi, k >= 2, are listed once, for the
    primes whose square has a multiple in the interval.  The returned
    primes is a view of the output buffer, whose unused cofactor room is
    never written."""
    hi = lo + length
    sieve = _sieve(math.isqrt(hi))
    hits = hi // sieve - lo // sieve  # multiples in the interval
    # most primes up to sqrt(hi) have no multiple in a short interval
    sieve = sieve[hits > 0]
    # each power p^k <= hi, k >= 2, of a prime whose square has a multiple in
    # the interval, with the index of p
    j = np.flatnonzero(hi // sieve**2 > lo // sieve**2)
    pk = sieve[j] ** 2
    power_j, power = [j], [pk]
    while j.size:
        more = pk <= hi // sieve[j]
        j = j[more]
        pk = pk[more] * sieve[j]
        power_j.append(j)
        power.append(pk)
    power_j, power = np.concatenate(power_j), np.concatenate(power)
    primes = np.empty(int(hits.sum()) + length, dtype=np.int64)
    offsets = np.zeros(length + 1, dtype=np.int64)
    flags = np.ones(length, dtype=bool)
    block = max(MIN_BLOCK, sieve.size)
    pos = 0
    for a in range(0, length, block):
        b = min(a + block, length)
        ends = offsets[a + 1 : b + 1]
        _factor_block(lo + a, b - a, sieve, power_j, power, primes[pos:], ends, flags[a:b])
        ends += pos
        pos = int(ends[-1])
    return IntervalTable(lo, length, offsets, primes[:pos], flags)


def _factor_block(lo: int, length: int, sieve: np.ndarray, power_j: np.ndarray,
                  power: np.ndarray, keys: np.ndarray, ends: np.ndarray,
                  flags: np.ndarray) -> None:
    """Factor every n in (lo, lo+length] into the front of keys (its
    distinct primes).  ends gets each entry's end offset there, and flags
    (True on entry) is cleared where n is not square-free.  sieve holds the
    primes up to sqrt(hi) that may divide some n, and power every prime
    power p^k, k >= 2, that may, with power_j the index of p; the first
    multiple and the count of each in the block come from its own bounds.

    No prime is divided out of the block.  Every multiple of a sieve prime
    multiplies its entry's product by p and adds one to its count (kept in
    ends), and each multiple of a power p^k multiplies the product by p and
    clears its flag.  n over the product of its sieve-prime powers is its
    cofactor, a prime > sqrt(hi) where it exceeds 1, and goes straight to
    its entry's last slot.  A dense prime, p <= length // DENSE_HITS, has
    its multiples updated by strided slices and is written, in ascending p,
    at the next free slot of each (kept in the product's buffer once the
    cofactors are taken).  The incidences of the sparse primes and of the
    powers are laid out prime-major and applied by entry index, all at
    once.  The sparse ones become int64 keys (index, prime), packed in
    place over the index buffer at the front of keys; one in-place sort
    puts them in entry order, and each goes to its entry's next free slot
    after the dense primes plus its rank among the entry's sparse primes."""
    hi = lo + length
    dense = int(np.searchsorted(sieve, length // DENSE_HITS, side="right"))
    first = (lo // sieve + 1) * sieve - (lo + 1)  # index of the first multiple
    strided = list(zip(sieve[:dense].tolist(), first[:dense].tolist()))
    prod = np.ones(length, dtype=np.int64)
    ends[:] = 0
    for p, f in strided:
        prod[f::p] *= p
        ends[f::p] += 1
    sparse, first = sieve[dense:], first[dense:]
    hits = (length - 1 - first) // sparse + 1
    nnz = int(hits.sum())
    inc_p = np.repeat(sparse, hits)
    inc_i = keys[:nnz]
    inc_i[:] = inc_p
    _runs(first, sparse, hits, inc_i)
    np.multiply.at(prod, inc_i, inc_p)
    inc_i <<= P_BITS
    inc_i |= inc_p
    del inc_p
    inc_i.sort()
    first_k = (lo // power + 1) * power - (lo + 1)
    hits_k = (length - 1 - first_k) // power + 1
    # at repeats an entry once per power dividing it
    at = _runs(first_k, power, hits_k, np.repeat(power, hits_k))
    np.multiply.at(prod, at, np.repeat(sieve[power_j], hits_k))
    flags[at] = False
    del at
    rem = np.arange(lo + 1, hi + 1, dtype=np.int64)
    rem //= prod
    has_cof = rem > 1
    entry = inc_i >> P_BITS
    inc_p = inc_i & P_MASK
    sparse_end = np.bincount(entry, minlength=length)
    ends += sparse_end
    ends += has_cof
    np.cumsum(ends, out=ends)
    # the number of sparse keys of each entry and of those before it
    np.cumsum(sparse_end, out=sparse_end)
    fill = prod  # each entry's next free slot
    fill[0] = 0
    fill[1:] = ends[:-1]
    for p, f in strided:
        slot = fill[f::p]
        keys[slot] = p
        slot += 1
    # a sorted key's rank among its entry's is its position less the
    # number of sparse keys of the entries before
    fill[1:] -= sparse_end[:-1]
    del sparse_end
    dest = fill[entry]
    del entry
    dest += np.arange(nnz)
    keys[dest] = inc_p
    cof = np.flatnonzero(has_cof)
    keys[ends[cof] - 1] = rem[cof]


def segmented_factorize(x: int, y: int) -> IntervalTable:
    """Factor table for the interval (x, x+y].

    Sieves the primes up to sqrt(x+y) once, then, block by block, marks
    their multiples and prime-power multiples and takes what the sieve
    primes leave of each n as its prime cofactor exceeding sqrt(x+y); each
    block writes its slice of the table's arrays, the small primes by
    strided slices and the rest through one sort of their incidences, and
    temporaries are sized by the block (at least 2^17 entries and one per
    sieve prime with a multiple in the interval), not by y.
    Refuses x+y > MAX_X_PLUS_Y or y > MAX_Y with ScaleError before
    allocating.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if y < 1:
        raise ValueError(f"y must be >= 1, got {y}")
    check_scale(x, y)
    return _factor_segment(x, y)


def check_scale(x: int, y: int) -> None:
    """Refuse an interval (x, x+y] that no exact computation here can hold:
    ValueError past 64 bits, ScaleError for x+y > MAX_X_PLUS_Y or y > MAX_Y."""
    if x + y >= _U64_LIMIT:
        raise ValueError(f"x+y={x + y} exceeds 64-bit unsigned range")
    if x + y > MAX_X_PLUS_Y or y > MAX_Y:
        raise ScaleError(f"interval ({x}, {x + y}] beyond x+y <= {MAX_X_PLUS_Y}, y <= {MAX_Y}")


def squarefree_flags(x: int, y: int) -> bytearray:
    """Square-free flags for (x, x+y] from a sieve of prime squares, without
    factorizations; index i corresponds to n = x + 1 + i.  A square of at
    most y clears its multiples by a strided slice; a larger one has at most
    one multiple in the interval, and those are cleared by one index.
    Refuses what check_scale refuses."""
    check_scale(x, y)
    flags = np.ones(y, dtype=np.uint8)
    squares = _sieve(math.isqrt(x + y)) ** 2
    few = int(np.searchsorted(squares, y, side="right"))
    for sq in squares[:few].tolist():
        flags[-(x + 1) % sq :: sq] = 0
    at = (x // squares[few:] + 1) * squares[few:] - (x + 1)
    flags[at[at < y]] = 0
    return bytearray(flags)


def z_of_delta(delta: float) -> float:
    """Threshold z = (1/2) ln(1/delta)."""
    if not 0 < delta < 0.1:
        raise ValueError(f"delta must lie in (0, 1/10), got {delta}")
    return 0.5 * math.log(1.0 / delta)
