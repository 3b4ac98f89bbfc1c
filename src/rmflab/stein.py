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
           quadratic form over N(p) defined in exchange_statistic;
  W(A)     subset weight 1 / (C(|L|,|A|) (|L|-|A|)) over subsets A of L.

Every N(p) comes from one support map (_supports), built in a single pass
over the square-free entries; each member k of N(p) carries the distinct
primes of k, so omega_L(k p) and X(k) need no table lookup.  T_p is
evaluated in one place (_t_p): exactly for a given sign source, and for the
exchange variance over a whole matrix of trial signs at once.

Identity checks run in exact rational arithmetic (fractions.Fraction);
exhaustive sign-vector averages run as integer Walsh-Hadamard transforms,
which evaluate f at ALL 2^k sign vectors in O(k 2^k) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ScaleError
from .numtheory import IntervalTable
from .quadruples import _oracle_count_members
from .rmf_core import SignSource, trial_signs

# a member k of N(p), with the distinct primes of k
_Member = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class IncrementSupport:
    """Support of Delta_p f: square-free k coprime to p with k*p in the
    interval (equivalently k*p a square-free interval entry)."""

    p: int
    members: tuple[int, ...]


def _supports(table: IntervalTable) -> dict[int, list[_Member]]:
    """N(p) for every prime p dividing a square-free entry, members in
    ascending order."""
    out: dict[int, list[_Member]] = {}
    for n, primes in table.squarefree_items():
        for p in primes:
            out.setdefault(p, []).append((n // p, tuple(q for q in primes if q != p)))
    return out


def _large_primes(supports: dict[int, list[_Member]], z: float) -> list[int]:
    return sorted(p for p in supports if p > z)


def _large_prime_set(table: IntervalTable, z: float) -> list[int]:
    """L, ascending."""
    return _large_primes(_supports(table), z)


def increment_support(p: int, table: IntervalTable) -> IncrementSupport:
    return IncrementSupport(p, tuple(k for k, _ in _supports(table).get(p, ())))


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


def _all_sign_values(masks: list[int], coeffs: list[int], k: int) -> np.ndarray:
    """f(eps) = sum_i coeffs[i] * (-1)^popcount(masks[i] & eps) for every
    eps in {0,1}^k, as an int64 vector indexed by eps."""
    g = np.zeros(1 << k, dtype=np.int64)
    for m, c in zip(masks, coeffs):
        g[m] += c
    return _walsh_inplace(g)


def sign_vector_moments(masks: list[int], coeffs: list[int], k: int
                        ) -> tuple[Fraction, Fraction]:
    """Exact (mean, second moment) of f over all 2^k sign vectors."""
    v = _all_sign_values(masks, coeffs, k)
    n = 1 << k
    total = int(v.sum())
    total_sq = int((v * v).sum())
    return Fraction(total, n), Fraction(total_sq, n)


# ---------------------------------------------------------------------------
# Exact Delta_p moments
# ---------------------------------------------------------------------------

def delta2_exact(p: int, table: IntervalTable) -> int:
    """E|Delta_p f|^2 = 2 |N(p)|."""
    return 2 * len(increment_support(p, table).members)


def _delta4(members: list[_Member]) -> int:
    return 8 * _oracle_count_members([k for k, _ in members])


def delta4_exact(p: int, table: IntervalTable, max_members: int = 400) -> int:
    """E|Delta_p f|^4 = 8 * (ordered square quadruples within N(p))."""
    members = _supports(table).get(p, [])
    if len(members) > max_members:
        raise ScaleError(f"|N(p)| = {len(members)} exceeds {max_members}")
    return _delta4(members)


def _delta3(p: int, members: list[_Member], prime_budget: int) -> float:
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


def delta3_exact_tiny(p: int, table: IntervalTable, prime_budget: int = 20) -> float:
    """Exact E|Delta_p f|^3 = 4 * E|sum_{k in N(p)} X(k)|^3 by exhaustive
    sign-vector enumeration.  The factor 4 is E|X(p) - X'(p)|^3: the
    difference takes values -2, 0, 2 with probabilities 1/4, 1/2, 1/4.

    The result is a dyadic rational represented exactly in a float."""
    return _delta3(p, _supports(table).get(p, []), prime_budget)


# ---------------------------------------------------------------------------
# Subset weights and the combinatorial identity
# ---------------------------------------------------------------------------

def subset_weight(l_size: int, a_size: int) -> Fraction:
    """W(A) = 1 / (C(|L|, |A|) (|L| - |A|)) = 1 / (|L| C(|L|-1, |A|))."""
    if not 0 <= a_size < l_size:
        raise ValueError(f"need 0 <= |A| < |L|, got |A|={a_size}, |L|={l_size}")
    return Fraction(1, comb(l_size, a_size) * (l_size - a_size))


def subset_weight_identity(l_size: int, omega: int) -> Fraction:
    """sum_{k=0}^{L-w} subset_weight(L, k) * C(L-w, k) in exact rationals;
    the identity says this equals 1/w."""
    if not 1 <= omega <= l_size:
        raise ValueError(f"need 1 <= omega <= L, got omega={omega}, L={l_size}")
    return sum(
        (Fraction(1, l_size * comb(l_size - 1, k)) * comb(l_size - omega, k)
         for k in range(l_size - omega + 1)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Exchange statistics
# ---------------------------------------------------------------------------

def _omega_l(qs: tuple[int, ...], z: float) -> int:
    """omega_L(k p) for p > z and a member k of N(p) with distinct primes qs."""
    return 1 + sum(q > z for q in qs)


def _t_p(xs, omegas):
    """sum_k (g - x_k) x_k / omega_k with g = sum_k x_k: the sum over ordered
    pairs k != l of x_k x_l / omega_l.  Exact for int xs and Fraction omegas;
    per trial for xs that are int arrays over trials."""
    g = sum(xs)
    return sum((g - x) * x / w for x, w in zip(xs, omegas))


def _exact_t_p(members: list[_Member], signs: SignSource, z: float) -> Fraction:
    xs = [math.prod(signs.sign(q) for q in qs) for _, qs in members]
    return Fraction(_t_p(xs, [Fraction(_omega_l(qs, z)) for _, qs in members]))


def exchange_statistic(p: int, table: IntervalTable, signs: SignSource,
                       z: float) -> Fraction:
    """T_p = sum over ordered pairs k != l in N(p) of X(k) X(l) / omega_L(l p),
    exactly."""
    if p <= z:
        raise ValueError(f"T_p is defined for large primes only: p={p} <= z={z}")
    return _exact_t_p(_supports(table).get(p, []), signs, z)


def exchange_variance_monte_carlo(table: IntervalTable, z: float, trials: int,
                                  master_seed: int) -> float:
    """Sample variance (ddof=1) of sum_{p in L} T_p over seeded trials.

    T_p vanishes unless |N(p)| >= 2.  The signs of trial t are those of
    SignSource(master_seed).for_trial(t); each T_p is evaluated for all
    trials at once, and every trial's terms are added in ascending p as in
    a per-trial evaluation."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    supports = _supports(table)
    per_p = [supports[p] for p in _large_primes(supports, z) if len(supports[p]) >= 2]
    if not per_p:
        return 0.0
    pool = sorted({q for members in per_p for _, qs in members for q in qs})
    row = {q: j for j, q in enumerate(pool)}
    signs = trial_signs(pool, master_seed, 0, trials)
    values = np.zeros(trials)
    for members in per_p:
        xs = [np.prod(signs[[row[q] for q in qs]], axis=0, dtype=np.int64)
              for _, qs in members]
        values += _t_p(xs, [_omega_l(qs, z) for _, qs in members])
    return float(values.var(ddof=1))


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


def stein_terms(table: IntervalTable, z: float, var_trials: int = 2000,
                master_seed: int = 0, prime_budget: int = 20,
                member_budget: int = 400) -> SteinTerms:
    """Sum E|Delta_p f|^3 over large primes with nonempty N(p): exactly where
    the support involves at most prime_budget distinct primes, otherwise by
    the Cauchy-Schwarz bound sqrt(E|Delta_p f|^2 E|Delta_p f|^4); plus the
    sampled Var(sum_p T_p)."""
    supports = _supports(table)
    total = 0.0
    d2: dict[int, int] = {}
    d4: dict[int, int] = {}
    exact_primes = bounded_primes = 0
    for p in _large_primes(supports, z):
        members = supports[p]
        if len(members) > member_budget:
            raise ScaleError(f"|N({p})| = {len(members)} exceeds {member_budget}")
        d2[p] = 2 * len(members)
        d4[p] = _delta4(members)
        try:
            total += _delta3(p, members, prime_budget)
            exact_primes += 1
        except ScaleError:
            total += math.sqrt(d2[p] * d4[p])
            bounded_primes += 1
    var_t = exchange_variance_monte_carlo(table, z, var_trials, master_seed)
    return SteinTerms(total, var_t, d2, d4, exact_primes, bounded_primes)


# ---------------------------------------------------------------------------
# Conditional-moment checks
# ---------------------------------------------------------------------------

def _split_entries(table: IntervalTable, large: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """(small primes, bitmask of the large primes over the ascending list
    L = large) of every square-free entry."""
    index = {q: j for j, q in enumerate(large)}
    return [(tuple(q for q in ps if q not in index), sum(1 << index[q] for q in ps if q in index))
            for _, ps in table.squarefree_items()]


@dataclass(frozen=True)
class ConditionalMomentsReport:
    """Exhaustive conditional moments of the interval sum given the small
    signs: one (mean, second moment) pair per small-sign assignment."""

    s_count: int
    z: float
    large_primes: tuple[int, ...]
    means: tuple[Fraction, ...]
    second_moments: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return all(m == 0 for m in self.means) and all(
            q == self.s_count for q in self.second_moments
        )


def conditional_moments_check(table: IntervalTable, z: float,
                  small_sign_assignments: list[dict[int, int]],
                  large_prime_budget: int = 22) -> ConditionalMomentsReport:
    """For each fixed assignment of signs to the small primes (<= z), average
    the interval sum and its square over ALL 2^k sign vectors of L; the
    conditional mean must be exactly 0 and the second moment exactly S."""
    large = _large_prime_set(table, z)
    if len(large) > large_prime_budget:
        raise ScaleError(
            f"{len(large)} distinct large primes exceeds budget {large_prime_budget}"
        )
    entries = _split_entries(table, large)
    masks = [m for _, m in entries]
    small_present = sorted({q for sm, _ in entries for q in sm})
    means = []
    seconds = []
    for assignment in small_sign_assignments:
        missing = [q for q in small_present if q not in assignment]
        if missing:
            raise ValueError(f"assignment missing small primes {missing}")
        if any(v not in (-1, 1) for v in assignment.values()):
            raise ValueError("assignment values must be +1 or -1")
        coeffs = [math.prod(assignment[q] for q in sm) for sm, _ in entries]
        mean, second = sign_vector_moments(masks, coeffs, len(large))
        means.append(mean)
        seconds.append(second)
    return ConditionalMomentsReport(
        table.squarefree_count, z, tuple(large), tuple(means), tuple(seconds)
    )


def decomposition_sides(table: IntervalTable, z: float, signs: SignSource,
                        l_budget: int = 12) -> tuple[Fraction, Fraction]:
    """Both sides of the conditional decomposition of the exchange statistic,
    exactly.

    Left: the subset-weighted sum (1/2) sum_{p} sum_{A not containing p}
    W(A) E(Delta_p f Delta_p f^A | X), where f^A has the signs on A
    resampled and each conditional expectation is computed by literal
    enumeration of the resampled signs on A union {p}.

    Right: the closed form sum_p sum_A W(A) |N^A(p)| + sum_p T_p, where
    N^A(p) drops from N(p) the members divisible by any prime of A.

    The prime set L here is the effective one: large primes (> z) dividing
    some square-free entry; primes outside it have Delta_p f identically 0
    and identical nu-weighted contributions on both sides.
    """
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
    # f at every sign vector of L, indexed by its bits (1 = sign -1)
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
        # diagonal part: sum over A of W(A) |N^A(p)|
        rest = full & ~(1 << j)
        a = rest
        while True:
            n_a = sum(1 for m in mem_masks if m & a == 0)
            closed += nus[a.bit_count()] * n_a
            if a == 0:
                break
            a = (a - 1) & rest
        # off-diagonal part: T_p
        closed += _exact_t_p(members, signs, z)

    return direct, closed


def conditional_t_decomposition_check(table: IntervalTable, z: float,
                                      signs: SignSource,
                                      l_budget: int = 12) -> bool:
    """Exact rational equality of the two sides in decomposition_sides."""
    direct, closed = decomposition_sides(table, z, signs, l_budget)
    return direct == closed
