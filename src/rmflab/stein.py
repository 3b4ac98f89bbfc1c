"""Ingredients of the normal-approximation diagnostics for the interval sum.

Notation used throughout this module, for an interval (x, x+y] and a
small/large prime threshold z:

  f        the interval sum of the random multiplicative function, viewed
           as a function of the signs of the large primes (> z);
  N(p)     support of prime p: square-free k coprime to p with k*p in the
           interval (equivalently, k*p a square-free interval entry);
  L        the large primes (> z) dividing some square-free entry;
  Delta_p f  change in f when the sign of p is resampled;
  T_p      per-prime exchange statistic: the omega-weighted off-diagonal
           quadratic form over N(p) evaluated by _t_p;
  W(A)     subset weight 1 / (C(|L|,|A|) (|L|-|A|)) over subsets A of L.

Every grouping of the square-free incidences by prime reads the table's
one transpose, IntervalTable.prime_major: L is its primes above z, N(p) its
entries of p (k = n // p), and the entries' large-prime masks, small-sign
products and omega_L, the number of primes of L dividing n, are reductions
over it.  A prime with a lone member is closed form; for the others,
_delta3 reads each member's prime bitmask (_support_masks), and T_p reads
X(n) at N(p)'s entries with their omega_L (_shared_supports).  For
E|Delta_p f|^4, N(p) is a short interval of its own whose square quadruples
quadruples._solution_blocks enumerates (_quadruple_counts).  T_p is
evaluated in one place (_t_p): exactly for a given sign source, and for the
exchange variance over a whole matrix of trial signs at once.

Identity checks run in exact rational arithmetic (fractions.Fraction);
exhaustive sign-vector averages run as integer Walsh-Hadamard transforms.
The conditional moments enumerate no sign vector: they are integer sums over
the entries grouped by large part (conditional_moments_check).  The
decomposition builds the entries' masks over L once per call, and from them
f at ALL 2^|L| sign vectors of L in O(|L| 2^|L|).  E|Delta_p f|^3 depends on
the signs only through the parities of the members of N(p), so its average
runs over the 2^r points of their image, r the GF(2) rank of the members'
prime masks.  Both sides of the conditional decomposition are integer
subset-sum (zeta) transforms over the bits of L, summed by subset size, so
only O(|L|) Fractions are formed; the subset-weight identity gives, for each
|L|, the integer numerators of every w over one common denominator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ScaleError
from .numtheory import IntervalTable, PrimeMajor
from .quadruples import _count_solutions, _solution_blocks
from .rmf_core import IntervalSampler, SignSource

# exchange_variance_monte_carlo's trial tile: its int8 X(n) matrix, the
# sampler's shared-prime sign matrix and one prime's int64 member values with
# their temporaries take about this many bytes
_VAR_TILE_BYTES = 1 << 23
_MIN_VAR_TILE = 64
# Budgets of the exact checks, each compared with a size before the work it
# bounds: the distinct primes of one N(p) for _delta3's transform over
# their 2^k sign vectors, |N(p)| for stein_terms, and |L| for the 2^|L|
# sign vectors of decomposition_sides
PRIME_BUDGET = 20
MEMBER_BUDGET = 400
L_BUDGET = 12


def _view(table: IntervalTable, z: float) -> tuple[PrimeMajor, int]:
    """The table's prime-major view, and where L, its primes above z, starts."""
    view = table.prime_major
    return view, int(np.searchsorted(view.primes, z, side="right"))


def _support_masks(table: IntervalTable, j: int) -> tuple[list[int], int]:
    """N(p) of p = view.primes[j], ascending, as each member's bitmask over
    the k distinct primes of N(p) other than p (bit i for the i-th smallest),
    read from the table rows of the entries n = k p; and k."""
    view, off = table.prime_major, table.offsets
    p, e = int(view.primes[j]), view.entries[view.offsets[j] : view.offsets[j + 1]]
    rows = [[q for q in table.primes[a:b].tolist() if q != p]
            for a, b in zip(off[e].tolist(), off[e + 1].tolist())]
    index = {q: i for i, q in enumerate(sorted({q for qs in rows for q in qs}))}
    return [sum(1 << index[q] for q in qs) for qs in rows], len(index)


def _shared_supports(table: IntervalTable, first: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each p = view.primes[j], j >= first, with |N(p)| >= 2, ascending:
    the table indices of the entries n of N(p), and omega_L(n) for each as
    an int64 column, from one count of the entries of L.  A prime with a
    lone member has T_p = 0 and is left out."""
    view = table.prime_major
    omega_l = np.bincount(view.entries[view.offsets[first] :], minlength=table.y_len)
    bounds = zip(view.offsets[first:-1].tolist(), view.offsets[first + 1 :].tolist())
    return [(e, omega_l[e][:, None]) for e in (view.entries[a:b] for a, b in bounds if b - a >= 2)]


def _over_entries(table: IntervalTable, ufunc: np.ufunc, rows: np.ndarray,
                  first: int = 0) -> np.ndarray:
    """For each table entry, ufunc over rows[j - first] for its primes
    view.primes[j], first <= j < first + len(rows); the ufunc's identity if
    there are none, as for every entry that is not square-free."""
    view = table.prime_major
    out = np.full((table.y_len, *rows.shape[1:]), ufunc.identity, dtype=rows.dtype)
    for j, row in enumerate(rows, first):  # a prime's entries are distinct
        e = view.entries[view.offsets[j] : view.offsets[j + 1]]
        out[e] = ufunc(out[e], row)
    return out


# ---------------------------------------------------------------------------
# Exhaustive sign-vector enumeration (integer Walsh-Hadamard transform)
# ---------------------------------------------------------------------------

def _walsh_inplace(v: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform of an int64 vector of length 2^k."""
    n = v.shape[0]
    h = 1
    while h < n:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(n)
        h *= 2
    return v


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """In-place subset-sum (zeta) transform along the last axis of a
    C-contiguous int64 array, of length 2^k: v[..., a] becomes the sum of
    v[..., d] over the submasks d of a."""
    n = v.shape[-1]
    h = 1
    while h < n:
        pairs = v.reshape(-1, n // (2 * h), 2, h)
        pairs[:, :, 1] += pairs[:, :, 0]
        h *= 2
    return v


def _all_sign_values(masks: list[int], coeffs: list[int], k: int) -> np.ndarray:
    """f(eps) = sum_i coeffs[i] * (-1)^popcount(masks[i] & eps) for every
    eps in {0,1}^k, as an int64 vector indexed by eps."""
    g = np.zeros(1 << k, dtype=np.int64)
    np.add.at(g, masks, coeffs)
    return _walsh_inplace(g)


def _small_signs(table: IntervalTable, first: int, signs: SignSource) -> np.ndarray:
    """Each table entry's product of the signs of its primes below L,
    view.primes[:first], as an int64 column."""
    small = [signs.sign(q) for q in table.prime_major.primes[:first].tolist()]
    return _over_entries(table, np.multiply, np.array(small, dtype=np.int64))


# ---------------------------------------------------------------------------
# Exact Delta_p moments
# ---------------------------------------------------------------------------

def _span_coordinates(masks: list[int]) -> tuple[list[int], int]:
    """Coordinates of each mask over a GF(2) basis of their span (the first
    masks that are independent of those before them), and the rank r."""
    pivot: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, coordinates)
    coords = []
    for m in masks:
        v, c = m, 0
        while v:
            top = v.bit_length() - 1
            if top not in pivot:
                break
            pv, pc = pivot[top]
            v ^= pv
            c ^= pc
        if v:  # m is basis element len(pivot); v = m ^ (basis elements in c)
            bit = 1 << len(pivot)
            pivot[top] = (v, c ^ bit)
            c = bit
        coords.append(c)
    return coords, len(pivot)


def _delta3(p: int, masks: list[int], k: int) -> float:
    """Exact E|Delta_p f|^3 = 4 * E|sum_{k in N(p)} X(k)|^3 by exhaustive
    sign-vector enumeration.  The factor 4 is E|X(p) - X'(p)|^3: the
    difference takes values -2, 0, 2 with probabilities 1/4, 1/2, 1/4.

    The sum sees the signs of the k distinct primes of N(p) only through
    the members' parities, r = rank of their prime masks (bits over those k
    primes, from _support_masks) independent linear forms over GF(2).  Each
    point of their image is hit by 2^(k-r) sign vectors, so the average
    runs over the 2^r values of the sum in the members' coordinates on a
    basis of their span.  PRIME_BUDGET still counts the k distinct primes.

    The result is a dyadic rational represented exactly in a float."""
    if k > PRIME_BUDGET:
        raise ScaleError(f"{k} distinct primes in N({p}) exceeds budget {PRIME_BUDGET}")
    coords, r = _span_coordinates(masks)
    a = np.abs(_all_sign_values(coords, [1] * len(coords), r))
    third = int((a * a * a).sum())
    return 4 * (third << (k - r)) / float(1 << k)


# ---------------------------------------------------------------------------
# Subset weights and the combinatorial identity
# ---------------------------------------------------------------------------

def subset_weight(l_size: int, a_size: int) -> Fraction:
    """W(A) = 1 / (C(|L|, |A|) (|L| - |A|)) = 1 / (|L| C(|L|-1, |A|))."""
    if not 0 <= a_size < l_size:
        raise ValueError(f"need 0 <= |A| < |L|, got |A|={a_size}, |L|={l_size}")
    return Fraction(1, comb(l_size, a_size) * (l_size - a_size))


def subset_weight_identity(l_size: int) -> tuple[list[int], int]:
    """For w = 1, ..., L, the identity sum sum_{k=0}^{L-w} subset_weight(L, k)
    * C(L-w, k) as an integer numerator over one common denominator, the
    lcm of the L C(L-1, k): (nums, common) with nums[w - 1] the numerator for
    w.  The identity says each sum is 1/w, i.e. nums[w - 1] * w == common.

    With q_k = common / (L C(L-1, k)), the numerator for w is
    sum_k C(m, k) q_k at m = L - w, the binomial transform of q, built for
    every m at once by adding neighbours: row m + 1 is row m plus row m
    shifted by one, and each row's first term is the sum for its m."""
    if l_size < 1:
        raise ValueError(f"need L >= 1, got L={l_size}")
    dens = [l_size * comb(l_size - 1, k) for k in range(l_size)]
    common = math.lcm(*dens)
    row = [common // d for d in dens]
    sums = []
    for _ in range(l_size):
        sums.append(row[0])
        row = list(map(operator.add, row, row[1:]))
    return sums[::-1], common


# ---------------------------------------------------------------------------
# Exchange statistics
# ---------------------------------------------------------------------------

def _t_p(xs: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """sum_k (g - x_k) x_k / omega_k with g = sum_k x_k, the sum over ordered
    pairs k != l of x_k x_l / omega_l, for each column of the int64 (members
    x trials) xs: per trial for a column of int64 omegas, exact for one of
    Fractions.  The terms are added in member order: numpy adds rows one by
    one, but sums a lone float column pairwise, so that one is accumulated."""
    terms = (xs.sum(axis=0) - xs) * xs / omegas
    if terms.shape[1] > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def exchange_variance_monte_carlo(table: IntervalTable, z: float, trials: int,
                                  master_seed: int) -> float:
    """Sample variance (ddof=1) of sum_{p in L} T_p over seeded trials.

    The signs of trial t are those of SignSource(master_seed).for_trial(t),
    and X(n) for a tile of trials comes from IntervalSampler.entry_values.
    T_p vanishes unless |N(p)| >= 2, so only those p are summed, and the
    sampler is built on the table restricted to their entries, so it hashes
    only the primes of those entries.  A member k of N(p) has X(k) = X(n)
    X(p) with n = k p, and each term (g - x_k) x_k of T_p is unchanged when
    every x_k is multiplied by the same sign, so T_p reads X(n) for the
    entries of N(p) directly.  A tile's X(n) matrix, the shared primes' sign
    matrix and one prime's member values fit about _VAR_TILE_BYTES, and
    every trial's terms are added in ascending p as in a per-trial
    evaluation."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    view, first = _view(table, z)
    per_p = _shared_supports(table, first)
    if not per_p:
        return 0.0
    shared = int(np.count_nonzero(np.diff(view.offsets) >= 2))
    per_trial = table.y_len + shared + 40 * max(e.size for e, _ in per_p)
    tile = max(_MIN_VAR_TILE, _VAR_TILE_BYTES // per_trial)
    members = np.zeros(table.y_len, dtype=bool)
    members[np.concatenate([e for e, _ in per_p])] = True
    sampler = IntervalSampler(table.restrict(members), master_seed)
    values = np.empty(trials)
    for start in range(0, trials, tile):
        count = min(tile, trials - start)
        x_n = sampler.entry_values(start, count)
        acc = np.zeros(count)
        for e, omegas in per_p:
            acc += _t_p(x_n[e].astype(np.int64), omegas)
        values[start : start + count] = acc
    return float(values.var(ddof=1))


def _quadruple_counts(table: IntervalTable, first: int) -> np.ndarray:
    """The ordered square quadruples within N(p), for p = view.primes[j],
    j >= first: with n = |N(p)|, the diagonal 3n^2 - 2n plus the non-diagonal
    count that quadruples._solution_blocks enumerates over N(p)'s flags on
    (x // p, (x+y) // p], charged against quadruples.DEFAULT_BUDGET.  If two
    members of a square quadruple of square-free numbers are equal, so are
    the other two, so a non-diagonal quadruple has four distinct members
    and only the primes with n >= 4 are enumerated.  The enumeration needs
    (x+y) // p - x // p <= x // p + 1, true for every p where y <= x."""
    view = table.prime_major
    n = np.diff(view.offsets)[first:]
    out = 3 * n * n - 2 * n
    for j in np.flatnonzero(n >= 4).tolist():
        p = int(view.primes[first + j])
        e = view.entries[view.offsets[first + j] : view.offsets[first + j + 1]]
        lo = table.x_lo // p
        flags = np.zeros(table.x_hi // p - lo, dtype=np.bool_)
        flags[(table.x_lo + 1 + e) // p - lo - 1] = True
        out[j] += _count_solutions(_solution_blocks(lo, flags.size, flags))
    return out


@dataclass(frozen=True)
class SteinTerms:
    """Aggregated ingredients of the normal-approximation bound for one
    interval: per-prime second/fourth moments of Delta_p f, the summed third
    moments, and the Monte Carlo variance estimate for the exchange term."""

    sum_delta3: float
    exchange_variance: float
    delta2_by_p: dict[int, int]
    delta4_by_p: dict[int, int]
    exact_primes: int
    bounded_primes: int


def stein_terms(table: IntervalTable, z: float, var_trials: int,
                master_seed: int) -> SteinTerms:
    """Sum E|Delta_p f|^3 over large primes with nonempty N(p): exactly where
    the support involves at most PRIME_BUDGET distinct primes, otherwise by
    the Cauchy-Schwarz bound sqrt(E|Delta_p f|^2 E|Delta_p f|^4); plus the
    Var(sum_p T_p) sampled over var_trials trials.  A table with y > x is
    a ValueError before any work.  Refused, before any member is built,
    when some |N(p)| exceeds MEMBER_BUDGET; the refusal names the least
    such p.

    E|Delta_p f|^2 = 2 |N(p)| and E|Delta_p f|^4 = 8 * _quadruple_counts, a
    ScaleError if one of its enumerations exceeds quadruples.DEFAULT_BUDGET.
    A prime with |N(p)| = 1, most of L, has E|Delta_p f|^3 = 4 in closed form,
    which is also its bound; those of the others come from _delta3 over
    member masks built for them alone.  They are summed in ascending p."""
    if table.y_len > table.x_lo:
        raise ValueError(f"stein_terms needs y <= x, got x={table.x_lo}, y={table.y_len}")
    view, first = _view(table, z)
    counts = np.diff(view.offsets)[first:]
    over = np.flatnonzero(counts > MEMBER_BUDGET)
    if over.size:
        raise ScaleError(f"|N({view.primes[first + over[0]]})| = {counts[over[0]]} "
                         f"exceeds {MEMBER_BUDGET}")
    large = view.primes[first:]
    shared = counts >= 2
    d2 = 2 * counts
    d4 = 8 * _quadruple_counts(table, first)
    d3 = np.full(counts.size, 4.0)
    # a lone member k = n // p has omega(n) - 1 distinct primes
    alone = view.entries[view.offsets[first] :][np.repeat(~shared, counts)]
    bounded_primes = int(np.count_nonzero(np.diff(table.offsets)[alone] - 1 > PRIME_BUDGET))
    for m in np.flatnonzero(shared).tolist():
        try:
            d3[m] = _delta3(int(large[m]), *_support_masks(table, first + m))
        except ScaleError:
            d3[m] = math.sqrt(int(d2[m]) * int(d4[m]))
            bounded_primes += 1
    total = float(np.add.accumulate(d3)[-1]) if d3.size else 0.0
    var_t = exchange_variance_monte_carlo(table, z, var_trials, master_seed)
    ps = large.tolist()
    return SteinTerms(total, var_t, dict(zip(ps, d2.tolist())), dict(zip(ps, d4.tolist())),
                      counts.size - bounded_primes, bounded_primes)


# ---------------------------------------------------------------------------
# Conditional-moment checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalMomentsReport:
    """Exact conditional moments of the interval sum given the small signs,
    over the signs of L: one (mean, second moment) pair per sign source."""

    s_count: int
    large_primes: tuple[int, ...]
    means: tuple[Fraction, ...]
    second_moments: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return all(m == 0 for m in self.means) and all(
            q == self.s_count for q in self.second_moments
        )


def conditional_moments_check(table: IntervalTable, z: float,
                              sources: list[SignSource]) -> ConditionalMomentsReport:
    """For each source's signs of the small primes (<= z), the exact mean
    and second moment of the interval sum over the signs of L: 0 and S where
    the lemma holds.  A source is anything with .sign(p) = +1 or -1; only the
    primes <= z that divide a square-free entry are read.  f sums each
    entry's small-sign product times the character of its large part n //
    (product of its primes <= z); these characters are orthonormal, so the
    mean is the sum over large part 1 and the second moment the sum of each
    large part's squared sum.  The groups are found once for all sources."""
    view, first = _view(table, z)
    flags = table.flags
    small_part = _over_entries(table, np.multiply, view.primes[:first])[flags]
    parts, group = np.unique((np.flatnonzero(flags) + (table.x_lo + 1)) // small_part,
                             return_inverse=True)
    means, seconds = [], []
    for signs in sources:
        sums = np.zeros(parts.size, dtype=np.int64)
        np.add.at(sums, group, _small_signs(table, first, signs)[flags])
        # the large parts ascend, so a large part of 1 is the first group
        means.append(Fraction(int(sums[0]) if parts.size and parts[0] == 1 else 0))
        seconds.append(Fraction(int((sums * sums).sum())))
    return ConditionalMomentsReport(table.squarefree_count, tuple(view.primes[first:].tolist()),
                                    tuple(means), tuple(seconds))


def _by_size(v: np.ndarray) -> np.ndarray:
    """For v of shape (|L|, 2^|L|), indexed by (j, subset A of L): the
    (|L| x |L|) int64 matrix whose [j, k] entry is the sum of v[j, A] over the
    subsets A of L minus its j-th prime with |A| = k."""
    l_size, n = v.shape
    a = np.arange(n)
    own = (a & (1 << np.arange(l_size))[:, None]) != 0
    return np.where(own, 0, v) @ (np.bitwise_count(a)[:, None] == np.arange(l_size))


def decomposition_sides(table: IntervalTable, z: float,
                        signs: SignSource) -> tuple[Fraction, Fraction]:
    """Both sides of the conditional decomposition of the exchange statistic,
    exactly; refused when |L| exceeds L_BUDGET.

    Left: the subset-weighted sum (1/2) sum_{p} sum_{A not containing p}
    W(A) E(Delta_p f Delta_p f^A | X), where f^A has the signs on A
    resampled, computed from f alone.  The resampled sign of p must differ
    from X(p) for Delta_p f to be nonzero, so with D_p(e) = f(e) - f(e with
    the sign of p flipped) each (p, A) term is D_p(X) / 2^(|A|+2) times the
    sum of D_p(X with the signs on d flipped) over the subsets d of A: one
    subset-sum transform over the bits of L per p, read at every A and
    summed by |A|.

    Right: the closed form sum_p sum_A W(A) |N^A(p)| + sum_p T_p, where
    N^A(p) drops from N(p) the members divisible by any prime of A;
    |N^A(p)| is the subset-sum transform of the histogram of the members'
    large-prime bitmasks, read at the complement of A.

    The prime set L here is the effective one: large primes (> z) dividing
    some square-free entry; primes outside it have Delta_p f identically 0
    and identical nu-weighted contributions on both sides.  The entries'
    masks over L are built once and give f, the histogram and X(n).
    """
    view, first = _view(table, z)
    large = view.primes[first:].tolist()
    l_size = len(large)
    if l_size > L_BUDGET:
        raise ScaleError(f"|L| = {l_size} exceeds budget {L_BUDGET}")
    bits = 1 << np.arange(l_size)
    masks = _over_entries(table, np.add, bits, first)
    coeffs = _small_signs(table, first, signs)
    f_of = _all_sign_values(masks[table.flags], coeffs[table.flags], l_size)
    x_bits = sum(1 << j for j, q in enumerate(large) if signs.sign(q) < 0)
    a = np.arange(1 << l_size)
    # f_at[d] = f(X with the signs on d flipped); diff[j, d] = D_{p_j} there
    f_at = f_of[a ^ x_bits]
    diff = f_at - f_at[a ^ bits[:, None]]
    d_x = diff[:, 0].tolist()
    direct_by_size = _by_size(_subset_sums(diff)).T.tolist()

    # hist[j, m]: members of N(p_j) whose large primes have bitmask m
    j = np.repeat(np.arange(l_size), np.diff(view.offsets[first:]))
    hist = np.zeros((l_size, 1 << l_size), dtype=np.int64)
    np.add.at(hist, (j, masks[view.entries[view.offsets[first] :]] ^ bits[j]), 1)
    # |N^A(p_j)| = members with mask inside the complement of A
    closed_by_size = _by_size(_subset_sums(hist)[:, ::-1]).sum(axis=0).tolist()

    direct = closed = Fraction(0)
    for k, (row, n_a) in enumerate(zip(direct_by_size, closed_by_size)):
        nu = subset_weight(l_size, k)
        direct += nu * Fraction(sum(map(operator.mul, d_x, row)), 1 << (k + 2))
        closed += nu * n_a
    # T_p is unchanged when every X(k), k in N(p), is multiplied by X(p); it reads X(n),
    # n = k p: the small-sign product times -1 per large prime of n with sign -1
    x_n = coeffs * np.where(np.bitwise_count(masks & x_bits) & 1, -1, 1)
    for e, omegas in _shared_supports(table, first):
        closed += _t_p(x_n[e][:, None], np.frompyfunc(Fraction, 1, 1)(omegas))[0]
    return direct, closed
