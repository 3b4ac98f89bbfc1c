"""References that the tests compare rmflab against and no command runs.

- trial_factorize checks the factor table and the square-free members of
  a quadruple by trial division; factors and squarefree_values read an
  entry's (prime, exponent) pairs and a table's square-free members.
- _oracle_count_members, the all-pairs count of square quadruples over
  Python-int kernels (_kernel_unchecked), checks the numpy oracle.
- QuadrupleParam (with its invariant check), its inverse param_of_quadruple
  and nondiagonal_quadruples check the parametrization lemma: every
  enumerated solution maps back to its parameters and meets the invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rmflab.numtheory import IntervalTable, _valuations
from rmflab.quadruples import _solution_blocks


class ContractViolation(ValueError):
    """An input breaks a documented precondition of a reference."""


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division. Desk scale only."""
    if n < 1:
        raise ValueError(f"cannot factorize n={n}")
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def factors(table: IntervalTable, n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n; ValueError outside the table."""
    i = table._index(n)
    ps = table.primes[table.offsets[i] : table.offsets[i + 1]]
    return tuple(zip(ps.tolist(), _valuations(np.full(ps.size, n), ps).tolist()))


def squarefree_values(table: IntervalTable) -> list[int]:
    return (np.flatnonzero(table.flags) + (table.x_lo + 1)).tolist()


def _kernel_unchecked(a: int, b: int) -> int:
    """Symmetric difference of the prime sets of square-free a and b, as the
    square-free integer a*b / gcd(a,b)^2."""
    return a * b // math.gcd(a, b) ** 2


def _oracle_count_members(members: list[int]) -> int:
    """The pair-kernel count over any list of square-free members, one
    Python-int kernel per ordered pair."""
    counts: dict[int, int] = {}
    for a in members:
        for b in members:
            k = _kernel_unchecked(a, b)
            counts[k] = counts.get(k, 0) + 1
    return sum(c * c for c in counts.values())


@dataclass(frozen=True)
class QuadrupleParam:
    """The six-variable parametrization of one ordered square quadruple."""

    A: int
    B: int
    r: int
    s: int
    u: int
    v: int

    def reconstruct(self) -> tuple[int, int, int, int]:
        A, B, r, s, u, v = self.A, self.B, self.r, self.s, self.u, self.v
        return (A * r * u, A * s * v, B * r * v, B * s * u)

    def check(self, x: int, y: int) -> None:
        """Assert every invariant the construction promises, for a quadruple
        drawn from (x, x+y]."""
        A, B, r, s, u, v = self.A, self.B, self.r, self.s, self.u, self.v
        if math.gcd(r, s) != 1 or math.gcd(u, v) != 1:
            raise ContractViolation(f"(r,s) or (u,v) not coprime in {self}")
        for n in self.reconstruct():
            if not (x < n <= x + y):
                raise ContractViolation(f"{n} outside ({x}, {x + y}] in {self}")
            if any(e > 1 for _, e in trial_factorize(n)):
                raise ContractViolation(f"{n} not square-free in {self}")
        delta = y / x
        for hi, lo_ in ((A, B), (r, s), (u, v)):
            if not (1 / (1 + delta) <= hi / lo_ <= 1 + delta):
                raise ContractViolation(f"ratio bound fails for {self}")
            if hi != lo_ and (hi < 1 / delta or lo_ < 1 / delta):
                raise ContractViolation(f"unequal pair below 1/delta in {self}")


def param_of_quadruple(n1: int, n2: int, n3: int, n4: int) -> QuadrupleParam:
    """Recover the unique parameter tuple of a square quadruple:
    A = gcd(n1,n2), B = gcd(n3,n4), r = gcd(n1/A, n3/B), s = gcd(n2/A, n4/B),
    u = n1/(A r), v = n2/(A s)."""
    quad = (n1, n2, n3, n4)
    for n in quad:
        if any(e > 1 for _, e in trial_factorize(n)):
            raise ContractViolation(f"{n} is not square-free")
    if _kernel_unchecked(_kernel_unchecked(n1, n2), _kernel_unchecked(n3, n4)) != 1:
        raise ContractViolation(f"product of {quad} is not a perfect square")
    A, B = math.gcd(n1, n2), math.gcd(n3, n4)
    r, s = math.gcd(n1 // A, n3 // B), math.gcd(n2 // A, n4 // B)
    param = QuadrupleParam(A, B, r, s, n1 // (A * r), n2 // (A * s))
    if param.reconstruct() != quad:
        raise ContractViolation(f"reconstruction failed for {quad}: {param}")
    return param


def nondiagonal_quadruples(x: int, y: int):
    """Yield (QuadrupleParam, (n1, n2, n3, n4)) for every ordered
    non-diagonal square quadruple in (x, x+y], each exactly once, from the
    rows of quadruples._solution_blocks: a "bc" row (A, B, c1, c2) is one
    solution of shape (b), (r, s) = (c1, c2), and one of shape (c), (u, v)
    = (c1, c2)."""
    for shape, *cols in _solution_blocks(x, y):
        for row in zip(*(c.tolist() for c in cols)):
            if shape == "bc":
                A, B, c1, c2 = row
                rows = ((A, B, c1, c2, 1, 1), (A, B, 1, 1, c1, c2))
            else:
                rows = (row,)
            for params in rows:
                q = QuadrupleParam(*params)
                yield q, q.reconstruct()
