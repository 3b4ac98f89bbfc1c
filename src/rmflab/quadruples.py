"""Exact counting of ordered square quadruples n1*n2*n3*n4 = perfect square
over square-free members of a short interval: a kernel-folding oracle, the
diagonal closed form 3S^2 - 2S, and enumeration through the six-variable
parametrization (A, B, r, s, u, v) with

    n1 = A*r*u,  n2 = A*s*v,  n3 = B*r*v,  n4 = B*s*u,
    gcd(r, s) = gcd(u, v) = 1.

All counts are of ORDERED quadruples, matching the expansion of the fourth
moment of the interval sum.  Square tests always fold kernels, never form
the raw four-fold product.

The non-diagonal enumeration is a chain of numpy range expansions, one
level per variable.  Each level turns every parent row into the integer
range its variable may take, filters the new rows with np.gcd and the
interval's square-free flags, and hands the survivors to the next level.
Shapes (b)/(c) run A, then c1 with A*c1 square-free, then c2, then B.
Shape (d) runs A, r, u (n1 = A*r*u in the interval), then B within the
ratio bound A*lo/hi <= B <= A*hi/lo, then s (n4 in the interval) and v (n3
in the interval), testing n2 = A*s*v last.
Expansions are built in blocks of at most BLOCK rows, so memory does not
grow with the interval.  A filter gathers only the parent columns it reads
(the levels carry the products A*r, B*u, B*r, A*s that later filters read),
runs np.gcd only on the rows that pass its cheaper tests, and the parent
columns are gathered for the surviving rows alone.

The budget, DEFAULT_BUDGET, counts candidate rows: each level's rows
before filtering, i.e. the sum of its range widths.  Each shape's levels
are streamed once.  The outer levels (A, c1, c2 of (b)/(c); A, r, u of (d)) are charged in full
before that stream starts, each by a cheap stream of the outer levels
before it; the deep levels (B of (b)/(c); B, s, v of (d)) are charged
block by block inside the stream, before the block's rows are built.
Every charge is >= 0, so an interval is refused iff its total charge
exceeds the budget, and no row is built before it is charged.  A refusal
at an outer level comes after only the earlier outer levels have run; one
at a deep level, after at most DEFAULT_BUDGET candidate rows.

The same enumeration counts the quadruples within each N(p) of `stein`
over N(p)'s flags on (x // p, (x+y) // p].  The pair-kernel oracle is the
test reference.  oracle_count_square_quadruples pairs only the
members of the interval's 2-core (numtheory.two_core), which holds every
non-diagonal quadruple, and adds the closed-form diagonal of the rest;
_oracle_count_array and _oracle_count_members pair all of their members and
stay as the all-pairs references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ScaleError
from .numtheory import (
    IntervalTable,
    _kernel_unchecked,
    check_scale,
    squarefree_flags,
    trial_factorize,
    two_core,
)

# The oracle refuses S > ORACLE_MAX_S.  The gate stays on S, not on the core
# size C, so `moments` reports carry an `oracle` key at the same intervals as
# before; the cost is now the C(C-1)/2 pairs of the core members, and (10^6,
# 10^6 + 10^4] (C = 2,423 of S = 6,079) takes about a second past the gate.
ORACLE_MAX_S = 400
# The numpy oracle splits each pair kernel's factors a/g, b/g < 2^(2*LIMB)
# (members are at most MAX_X_PLUS_Y < 2^50) into LIMB-bit limbs, so that
# every partial product fits an int64.
LIMB = 25
# Most candidate rows one enumeration may charge; read at each call
DEFAULT_BUDGET = 10**9
# Rows per block of a level's expansion: bounds the enumeration's memory.
BLOCK = 1 << 14


def diagonal_count(s: int) -> int:
    """Ordered quadruples equal in pairs: 3*S^2 - 2*S (three pairings, the
    all-equal case counted three times)."""
    if s < 0:
        raise ValueError(f"S must be >= 0, got {s}")
    return 3 * s * s - 2 * s


def oracle_count_square_quadruples(table: IntervalTable) -> int:
    """Count ordered square quadruples among the square-free members of the
    interval by matching kernels of pairs: n1*n2*n3*n4 is a square iff
    kernel(n1, n2) == kernel(n3, n4).

    Every non-diagonal quadruple lies in the interval's 2-core (two_core),
    so only the C core members are paired: the count is 3S^2 - 2S - (3C^2 -
    2C) plus the core's own pair-kernel count.  The C(C-1)/2 pair kernels
    (a/g)(b/g), g = gcd(a, b), exceed an int64 once members pass 2^31.5, so
    each is built exactly as two int64 words and the equal ones are counted
    by sorting on both.

    Refuses S > ORACLE_MAX_S; exact counting at larger scale belongs to the
    parametrized enumeration.
    """
    s = table.squarefree_count
    if s > ORACLE_MAX_S:
        raise ScaleError(f"oracle limited to S <= {ORACLE_MAX_S}, got S = {s}")
    core = np.flatnonzero(two_core(table)) + (table.x_lo + 1)
    return diagonal_count(s) - diagonal_count(core.size) + _oracle_count_array(core)


def _pair_kernels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernels (a/g)(b/g), g = gcd(a, b), of int64 members below
    2^(2*LIMB), as (high, low) with kernel = high * 2^(2*LIMB) + low and
    0 <= low < 2^(2*LIMB), from the LIMB-bit limbs of u = a/g and v = b/g."""
    g = np.gcd(a, b)
    u, v = a // g, b // g
    mask = (1 << LIMB) - 1
    u1, u0, v1, v0 = u >> LIMB, u & mask, v >> LIMB, v & mask
    mid = u1 * v0 + u0 * v1
    low = u0 * v0 + ((mid & mask) << LIMB)
    high = u1 * v1 + (mid >> LIMB) + (low >> 2 * LIMB)
    low &= (1 << 2 * LIMB) - 1
    return high, low


def _oracle_count_array(members) -> int:
    """_oracle_count_members of distinct members below 2^(2*LIMB), in numpy.

    Only the pairs a < b are built: (a, b) and (b, a) share a kernel, and
    kernel 1 belongs to the c pairs (a, a) alone, so c members count c^2
    plus 4 d^2 for each kernel of d of the pairs a < b.  Equal kernels are
    counted after sorting on the low kernel word, then stably on the high
    word."""
    n = np.asarray(members, dtype=np.int64)
    i, j = np.triu_indices(n.size, 1)
    high, low = _pair_kernels(n[i], n[j])
    order = np.argsort(low)
    order = order[np.argsort(high[order], kind="stable")]
    high, low = high[order], low[order]
    new = np.ones(i.size, dtype=bool)
    new[1:] = (high[1:] != high[:-1]) | (low[1:] != low[:-1])
    d = np.diff(np.flatnonzero(new), append=i.size)
    return n.size * n.size + 4 * int(d @ d)


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
        quad = self.reconstruct()
        for n in quad:
            if not (x < n <= x + y):
                raise ContractViolation(f"{n} outside ({x}, {x + y}] in {self}")
            if any(e > 1 for _, e in trial_factorize(n)):
                raise ContractViolation(f"{n} not square-free in {self}")
        delta = y / x
        for hi, lo_ in ((A, B), (r, s), (u, v)):
            ratio = hi / lo_
            if not (1 / (1 + delta) <= ratio <= 1 + delta):
                raise ContractViolation(f"ratio bound fails for {self}")
            if hi != lo_ and (hi < 1 / delta or lo_ < 1 / delta):
                raise ContractViolation(f"unequal pair below 1/delta in {self}")


def param_of_quadruple(n1: int, n2: int, n3: int, n4: int) -> QuadrupleParam:
    """Recover the unique parameter tuple of a square quadruple:
    A = gcd(n1,n2), B = gcd(n3,n4), r = gcd(n1/A, n3/B), s = gcd(n2/A, n4/B),
    u = n1/(A r), v = n2/(A s)."""
    for n in (n1, n2, n3, n4):
        if any(e > 1 for _, e in trial_factorize(n)):
            raise ContractViolation(f"{n} is not square-free")
    k = _kernel_unchecked(_kernel_unchecked(n1, n2), _kernel_unchecked(n3, n4))
    if k != 1:
        raise ContractViolation(
            f"product of ({n1}, {n2}, {n3}, {n4}) is not a perfect square"
        )
    A = math.gcd(n1, n2)
    B = math.gcd(n3, n4)
    r = math.gcd(n1 // A, n3 // B)
    s = math.gcd(n2 // A, n4 // B)
    u = n1 // (A * r)
    v = n2 // (A * s)
    param = QuadrupleParam(A, B, r, s, u, v)
    if param.reconstruct() != (n1, n2, n3, n4):
        raise ContractViolation(
            f"reconstruction failed for ({n1}, {n2}, {n3}, {n4}): {param}"
        )
    return param


class _Budget:
    __slots__ = ("budget", "charged")

    def __init__(self, budget: int):
        self.budget = budget
        self.charged = 0

    def spend(self, amount: int) -> None:
        self.charged += amount
        if self.charged > self.budget:
            raise ScaleError(f"enumeration budget of {self.budget} candidate rows exceeded: "
                             f"{self.charged} charged")


def _expand(width: np.ndarray):
    """Yield (idx, off) blocks of the parent rows' ranges laid end to end:
    child i is offset off[i] in the range of parent row idx[i].  Blocks hold
    at most BLOCK children and may split a parent's range."""
    ends = np.cumsum(width)
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, BLOCK):
        stop = min(start + BLOCK, total)
        i0 = int(np.searchsorted(ends, start, side="right"))
        i1 = int(np.searchsorted(ends, stop - 1, side="right")) + 1
        begin = ends[i0:i1] - width[i0:i1]  # flat index of each row's first child
        counts = np.minimum(ends[i0:i1], stop) - np.maximum(begin, start)
        idx = np.repeat(np.arange(i0, i1), counts)
        yield idx, np.arange(start, stop) - begin[idx - i0]


def _widths(level, block) -> tuple[np.ndarray, np.ndarray]:
    """First value and width of each parent row's range at `level`."""
    first, last = level[1](block)
    return first, np.maximum(last - first + 1, 0)


class _Rows(dict):
    """A block of one level's candidate rows: the level's new column, with
    each parent column gathered on first read."""

    __slots__ = ("parent", "idx")

    def __init__(self, parent: dict, idx: np.ndarray):
        super().__init__()
        self.parent, self.idx = parent, idx

    def __missing__(self, key):
        col = self[key] = self.parent[key][self.idx]
        return col


def _stream(levels, block, bud: _Budget | None = None):
    """Yield, in blocks, the rows below `block` that pass every level.  With
    `bud`, each block's candidate rows at a level are charged to it before
    they are built.  A filter reads only the parent columns it needs; the
    rows that pass carry every parent column, gathered for them alone."""
    if not levels:
        yield block
        return
    name, _, keep = levels[0]
    first, width = _widths(levels[0], block)
    if bud is not None:
        bud.spend(int(width.sum()))
    for idx, off in _expand(width):
        rows = _Rows(block, idx)
        rows[name] = first[idx] + off
        at = slice(None) if keep is None else keep(rows)
        kept = idx[at]
        child = {k: col[kept] for k, col in block.items()}
        child[name] = rows[name][at]
        yield from _stream(levels[1:], child, bud)


def _enumerate(outer, deep, bud: _Budget):
    """Yield, in blocks, the rows that pass every level of `outer + deep`,
    streaming each level once.  A level is (column, block -> (first, last)
    of each row's range, rows -> indices of the rows that pass, or None);
    the root is one row without columns, and a range function may add to
    its block the products that later levels read.  Each outer level's
    candidate rows, the sum of its range widths, are charged to `bud` in
    full before the stream starts, by streaming the outer levels before it;
    each deep level is charged block by block inside the stream, before
    that block's rows are built.  Every charge is >= 0, so an interval is
    refused iff its total charge exceeds the budget, and no row is built
    before it is charged."""
    root: dict[str, np.ndarray] = {}
    for k, level in enumerate(outer):
        for block in _stream(outer[:k], root):
            bud.spend(int(_widths(level, block)[1].sum()))
    for block in _stream(outer, root):
        yield from _stream(deep, block, bud)


def _solution_blocks(x: int, y: int, flags: np.ndarray | None = None):
    """Yield ("bc", A, B, c1, c2) and ("d", A, B, r, s, u, v) blocks of
    int64 columns, one row per solution; a "bc" row stands for one solution
    of shape (b) and one of shape (c).  With `flags`, the members are the
    square-free n with flags[n - x - 1] set, and y may be x + 1.  The
    candidate rows are charged against DEFAULT_BUDGET."""
    if x < 2 or y < 1:
        raise ValueError(f"need x >= 2, y >= 1, got x={x}, y={y}")
    if y > x + (flags is not None):
        # the ratio bounds that drive the case split need hi/lo < 2
        raise ValueError(f"enumeration needs y <= x, got x={x}, y={y}")
    check_scale(x, y)
    lo, hi = x + 1, x + y
    # both members of an unequal ratio pair are > x/y, hence >= x // y + 1,
    # and neither is 1, as hi/lo < 2 also at y = x + 1
    m = max(2, x // y + 1)
    if m * m > hi:
        return  # (b)/(c) need A*c <= hi and (d) A*m*m <= hi with A, c >= m
    sf = np.frombuffer(squarefree_flags(x, y), dtype=np.bool_) if flags is None else flags
    bud = _Budget(DEFAULT_BUDGET)
    one = np.ones(1, dtype=np.int64)

    def isf(n):  # square-free, for n already known to lie in (x, x+y]
        return sf[n - lo]

    def ceil_lo(d):
        return -(-lo // d)

    def cofactors(d):  # the t >= m with d*t in the interval
        return np.maximum(m, ceil_lo(d)), hi // d

    # Shapes (b) and (c): one inner pair is (1, 1).  Both run over the same
    # (A, c1, c2, B) rows and differ only in which of n3/n4 carries which c.
    # A filter returns the indices of the rows that pass; each runs np.gcd,
    # its costliest test, only on the rows that pass its other tests.
    def B_range_bc(b):
        c1, c2 = b["c1"], b["c2"]
        return (np.maximum(m, np.maximum(ceil_lo(c1), ceil_lo(c2))),
                np.minimum(hi // c1, hi // c2))

    def c2_keep(b):
        c2 = b["c2"]
        at = np.flatnonzero(isf(b["A"] * c2))
        return at[np.gcd(b["c1"][at], c2[at]) == 1]  # gcd(c, c) = c >= 2

    def B_keep_bc(b):
        B = b["B"]
        return np.flatnonzero((B != b["A"]) & isf(B * b["c1"]) & isf(B * b["c2"]))

    bc_outer = (
        ("A", lambda b: (m * one, hi // m * one), None),
        ("c1", lambda b: cofactors(b["A"]), lambda b: np.flatnonzero(isf(b["A"] * b["c1"]))),
        ("c2", lambda b: cofactors(b["A"]), c2_keep),
    )
    bc_deep = (("B", B_range_bc, B_keep_bc),)
    for b in _enumerate(bc_outer, bc_deep, bud):
        yield "bc", b["A"], b["B"], b["c1"], b["c2"]

    # Shape (d): r, s, u, v >= m.  (A, r, u) puts n1 = A*r*u in the
    # interval, and (A/B)^2 = n1*n2/(n3*n4) puts B within [A*lo/hi, A*hi/lo].
    # Then s puts n4 = B*s*u and v puts n3 = B*r*v in the interval, and
    # n2 = A*s*v is tested last, as ceil(lo/(A*s)) <= v <= hi // (A*s):
    # A*s <= hi^2/m^3 < 4*y^2 cannot overflow, and A*s*v is only formed
    # where it lies in the interval.  The range functions add the products
    # the later levels read (A*r, B*u, B*r, A*s) to their blocks.
    def u_range(b):
        ar = b["Ar"] = b["A"] * b["r"]
        return cofactors(ar)

    def s_range(b):
        b["Br"] = b["B"] * b["r"]
        bu = b["Bu"] = b["B"] * b["u"]
        return cofactors(bu)

    def s_keep(b):
        s = b["s"]
        at = np.flatnonzero(isf(b["Bu"] * s))
        return at[np.gcd(b["r"][at], s[at]) == 1]

    def v_range(b):
        a_s = b["As"] = b["A"] * b["s"]
        b["v_lo"], b["v_hi"] = ceil_lo(a_s), hi // a_s  # n2 = A*s*v in the interval
        return cofactors(b["Br"])

    def v_keep(b):
        v = b["v"]
        at = np.flatnonzero((v >= b["v_lo"]) & (v <= b["v_hi"]))
        v_at = v[at]
        at = at[isf(b["Br"][at] * v_at) & isf(b["As"][at] * v_at)]
        return at[np.gcd(b["u"][at], v[at]) == 1]

    d_outer = (
        ("A", lambda b: (one, hi // (m * m) * one), None),
        ("r", lambda b: (np.full_like(b["A"], m), hi // (b["A"] * m)), None),
        ("u", u_range, lambda b: np.flatnonzero(isf(b["Ar"] * b["u"]))),
    )
    d_deep = (
        ("B", lambda b: (-(-b["A"] * lo // hi), b["A"] * hi // lo), None),
        ("s", s_range, s_keep),
        ("v", v_range, v_keep),
    )
    for b in _enumerate(d_outer, d_deep, bud):
        yield "d", b["A"], b["B"], b["r"], b["s"], b["u"], b["v"]


def nondiagonal_quadruples(x: int, y: int):
    """Yield (QuadrupleParam, (n1, n2, n3, n4)) for every ordered
    non-diagonal square quadruple in (x, x+y], each exactly once.

    A solution is diagonal iff its entries are equal in pairs, which in
    parameters means r=s=u=v=1, or A=B with u=v=1, or A=B with r=s=1.
    Unequal coprime pairs force both elements past x/y (the ratio bounds),
    so three non-diagonal shapes remain:

      (b) u=v=1, r,s > x/y distinct, A,B > x/y distinct;
      (c) r=s=1, u,v > x/y distinct, A,B > x/y distinct;
      (d) r,s > x/y distinct and u,v > x/y distinct, A,B arbitrary.
    """
    for shape, *cols in _solution_blocks(x, y):
        for row in zip(*(c.tolist() for c in cols)):
            if shape == "bc":
                A, B, c1, c2 = row
                yield (QuadrupleParam(A, B, c1, c2, 1, 1),
                       (A * c1, A * c2, B * c1, B * c2))
                yield (QuadrupleParam(A, B, 1, 1, c1, c2),
                       (A * c1, A * c2, B * c2, B * c1))
            else:
                A, B, r, s, u, v = row
                yield (QuadrupleParam(A, B, r, s, u, v),
                       (A * r * u, A * s * v, B * r * v, B * s * u))


def param_enumerate_nondiagonal(x: int, y: int) -> int:
    """Exact number of ordered non-diagonal square quadruples in (x, x+y].
    Refused with ScaleError when the candidate rows exceed DEFAULT_BUDGET."""
    return _count_solutions(_solution_blocks(x, y))


def _count_solutions(blocks) -> int:
    """The solutions in _solution_blocks' blocks."""
    return sum((2 if shape == "bc" else 1) * int(cols[0].size) for shape, *cols in blocks)
