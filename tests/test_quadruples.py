import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import quadruples
from rmflab.errors import ContractViolation, ScaleError
from rmflab.bounds import nondiagonal_bound
from rmflab.numtheory import (
    MAX_X_PLUS_Y,
    _kernel_unchecked,
    segmented_factorize,
    squarefree_flags,
    two_core,
)
from rmflab.quadruples import (
    LIMB,
    ORACLE_MAX_S,
    QuadrupleParam,
    _Budget,
    _expand,
    _oracle_count_array,
    _oracle_count_members,
    _widths,
    diagonal_count,
    nondiagonal_quadruples,
    oracle_count_square_quadruples,
    param_enumerate_nondiagonal,
    param_of_quadruple,
)


def literal_square_quadruples(members):
    """Independent O(S^4) oracle: fold kernels across all ordered quadruples."""
    count = 0
    for a in members:
        for b in members:
            kab = _kernel_unchecked(a, b)
            for c in members:
                kabc = _kernel_unchecked(kab, c)
                for d in members:
                    if kabc == d:
                        count += 1
    return count


def test_diagonal_count_closed_form():
    assert diagonal_count(0) == 0
    assert diagonal_count(1) == 1
    assert diagonal_count(6) == 96
    with pytest.raises(ValueError):
        diagonal_count(-1)


def test_oracle_examples():
    t = segmented_factorize(10, 10)
    assert oracle_count_square_quadruples(t) == 96  # diagonal only
    single = segmented_factorize(12, 1)  # {13}
    assert single.squarefree_count == 1
    assert oracle_count_square_quadruples(single) == 1
    empty = segmented_factorize(47, 1)
    assert oracle_count_square_quadruples(empty) == 0


def test_oracle_refuses_large_s():
    t = segmented_factorize(10**5, 10**3)  # S around 600
    with pytest.raises(ScaleError):
        oracle_count_square_quadruples(t)


def test_oracle_matches_literal_enumeration():
    rnd = random.Random(17)
    for _ in range(12):
        x = rnd.randint(20, 600)
        y = rnd.randint(4, 30)
        t = segmented_factorize(x, y)
        if t.squarefree_count > 14:
            continue
        assert oracle_count_square_quadruples(t) == literal_square_quadruples(
            t.squarefree_values()
        )


def test_param_of_quadruple_examples():
    p = param_of_quadruple(6, 10, 15, 1)
    assert (p.A, p.B, p.r, p.s, p.u, p.v) == (2, 1, 3, 1, 1, 5)
    assert p.reconstruct() == (6, 10, 15, 1)

    q = param_of_quadruple(21, 21, 21, 21)
    assert (q.A, q.B, q.r, q.s, q.u, q.v) == (21, 21, 1, 1, 1, 1)

    nm = param_of_quadruple(15, 21, 15, 21)  # gcd = 3
    assert nm.reconstruct() == (15, 21, 15, 21)
    assert nm.A == nm.B == 3


def test_param_of_quadruple_contract():
    with pytest.raises(ContractViolation):
        param_of_quadruple(2, 3, 5, 7)  # product not a square
    with pytest.raises(ContractViolation):
        param_of_quadruple(4, 4, 4, 4)  # not square-free


def test_enumeration_examples():
    assert param_enumerate_nondiagonal(10, 10) == 0
    # frozen via the pair-kernel oracle: S=25, 1825 diagonal + 24 non-diagonal
    t = segmented_factorize(100, 40)
    assert t.squarefree_count == 25
    assert oracle_count_square_quadruples(t) == 1849
    assert param_enumerate_nondiagonal(100, 40) == 24
    assert 1849 == diagonal_count(25) + 24
    # frozen from the scalar six-deep loops, which took 14 s here
    assert param_enumerate_nondiagonal(10**5, 2000) == 6336


# (count, sha256 of repr(sorted(quadruples))), frozen from the scalar
# six-deep loops; (10^4, 990) took 4.8 s there
GOLDEN_QUADRUPLES = {
    (100029, 1000): (96, "1799060f9f94fb63e1da57a57decfdfd89d90f68c5cd6beefae6266f187dc381"),
    (5000, 500): (1704, "ce87d9100b0288868bc6c2a2d7b782d64bc43658819dd7707c6d7bd51cd1e65c"),
    (10**4, 990): (12360, "60bdc7d3bb6ef1fd7645a8a7358442a1f282e7787a479667b68fbb15e7db308d"),
}


@pytest.mark.parametrize("x, y", sorted(GOLDEN_QUADRUPLES))
def test_enumeration_golden_sets(x, y):
    pairs = list(nondiagonal_quadruples(x, y))
    quads = [quad for _, quad in pairs]
    count, digest = GOLDEN_QUADRUPLES[(x, y)]
    assert len(quads) == count == param_enumerate_nondiagonal(x, y)
    assert hashlib.sha256(repr(sorted(quads)).encode()).hexdigest() == digest
    # no quadruple twice, and each maps back to the parameters it came with
    assert len(set(quads)) == len(quads)
    for param, quad in pairs:
        assert param_of_quadruple(*quad) == param


def test_enumeration_matches_oracle_at_benchmark_interval():
    t = segmented_factorize(100029, 1000)
    assert t.squarefree_count == 613
    nd = param_enumerate_nondiagonal(100029, 1000)
    assert diagonal_count(613) + nd == _oracle_count_members(t.squarefree_values()) == 1126177


def test_expand_splits_ranges_into_blocks(monkeypatch):
    monkeypatch.setattr(quadruples, "BLOCK", 4)
    width = np.array([0, 3, 0, 0, 6, 1, 0, 4, 0], dtype=np.int64)
    blocks = list(_expand(width))
    assert [idx.size for idx, _ in blocks] == [4, 4, 4, 2]
    got = [(int(i), int(o)) for idx, off in blocks for i, o in zip(idx, off)]
    assert got == [(i, o) for i, w in enumerate(width) for o in range(w)]
    assert list(_expand(np.zeros(3, dtype=np.int64))) == []


def test_enumeration_independent_of_block_size(monkeypatch):
    whole = sorted(nondiagonal_quadruples(5000, 500), key=lambda pq: pq[1])
    monkeypatch.setattr(quadruples, "BLOCK", 97)
    assert sorted(nondiagonal_quadruples(5000, 500), key=lambda pq: pq[1]) == whole


def test_enumeration_skips_the_sieve_when_nothing_fits(monkeypatch):
    # m = x//y + 1 with m^2 > x+y leaves every shape empty
    def no_sieve(x, y):
        raise AssertionError("square-free sieve built for an empty enumeration")

    monkeypatch.setattr(quadruples, "squarefree_flags", no_sieve)
    assert param_enumerate_nondiagonal(10**10, 10**4) == 0
    assert param_enumerate_nondiagonal(100020, 300) == 0


def test_enumeration_matches_oracle_on_random_intervals():
    rnd = random.Random(4242)
    seen_nonzero = 0
    for _ in range(30):
        x = rnd.randint(30, 2000)
        y = rnd.randint(5, max(5, x // 3))
        t = segmented_factorize(x, y)
        if t.squarefree_count > 150:
            continue
        nd = param_enumerate_nondiagonal(x, y)
        seen_nonzero += nd > 0
        assert diagonal_count(t.squarefree_count) + nd == oracle_count_square_quadruples(t)
    assert seen_nonzero >= 1  # the sweep must exercise real non-diagonal solutions


def test_bijection_and_invariants_of_enumerated_quadruples():
    for x, y in [(52, 26), (65, 29), (40, 20), (500, 50)]:
        pairs = list(nondiagonal_quadruples(x, y))
        assert len({quad for _, quad in pairs}) == len(pairs)
        for param, quad in pairs:
            back = param_of_quadruple(*quad)
            assert back == param
            param.check(x, y)


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(quadruples, "DEFAULT_BUDGET", 100)
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(5000, 500)
    # candidate rows are charged per level before the level is built
    monkeypatch.setattr(quadruples, "DEFAULT_BUDGET", 10**6)
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(10**6, 10**5)
    monkeypatch.undo()
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(10**7, 10**6)


def test_enumeration_budget_boundary(monkeypatch):
    # (5000, 5400] charges 21,287 candidate rows in all: a DEFAULT_BUDGET of
    # exactly that runs the enumeration, and one row less refuses it
    monkeypatch.setattr(quadruples, "DEFAULT_BUDGET", 21_287)
    assert param_enumerate_nondiagonal(5000, 400) == 648
    monkeypatch.setattr(quadruples, "DEFAULT_BUDGET", 21_286)
    with pytest.raises(ScaleError) as refusal:
        param_enumerate_nondiagonal(5000, 400)
    assert str(refusal.value) == (
        "enumeration budget of 21286 candidate rows exceeded: 21287 charged")


def test_enumeration_domain():
    with pytest.raises(ValueError):
        param_enumerate_nondiagonal(10, 20)  # y > x unsupported
    with pytest.raises(ValueError):
        param_enumerate_nondiagonal(1, 1)
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(10**12, 10**9)  # y > MAX_Y, before any sieve


def test_oracle_order_invariance():
    # ordered-tuple count cannot depend on how the member list is indexed
    from rmflab.quadruples import _oracle_count_members

    t = segmented_factorize(52, 26)
    members = t.squarefree_values()
    base = _oracle_count_members(members)
    rnd = random.Random(8)
    for _ in range(5):
        shuffled = members[:]
        rnd.shuffle(shuffled)
        assert _oracle_count_members(shuffled) == base
        assert _oracle_count_array(shuffled) == base


def test_nondiagonal_bound_holds():
    rnd = random.Random(9)
    for _ in range(15):
        x = rnd.randint(100, 3000)
        y = rnd.randint(10, max(10, x // 10))
        nd = param_enumerate_nondiagonal(x, y)
        assert nd <= nondiagonal_bound(x, y / x)


@pytest.mark.parametrize("x", [10**4, 2 * 10**4, 3 * 10**4])
@pytest.mark.parametrize("delta", [0.09, 0.099])
def test_nondiagonal_bound_near_delta_one_tenth(x, delta):
    y = round(delta * x)
    assert param_enumerate_nondiagonal(x, y) <= nondiagonal_bound(x, y / x)


def test_fourth_moment_exact():
    # the fourth moment as the harness writes it: diagonal + non-diagonal
    def fourth(x, y):
        s = segmented_factorize(x, y).squarefree_count
        return diagonal_count(s) + param_enumerate_nondiagonal(x, y)

    assert fourth(10, 10) == 96
    assert fourth(47, 1) == 0
    assert fourth(52, 26) == oracle_count_square_quadruples(segmented_factorize(52, 26))


def test_quadruple_param_check_rejects_bad_params():
    with pytest.raises(ContractViolation):
        QuadrupleParam(2, 2, 4, 2, 1, 1).check(10, 10)  # gcd(r, s) != 1
    with pytest.raises(ContractViolation):
        QuadrupleParam(11, 11, 1, 1, 1, 1).check(200, 20)  # 121 outside interval
    with pytest.raises(ContractViolation, match="4 not square-free"):
        QuadrupleParam(2, 2, 2, 1, 1, 1).check(1, 3)  # (4, 2, 4, 2)


def took_scalar_loop(monkeypatch, table):
    """Whether the oracle took the scalar loop; its count is checked against
    the scalar loop either way."""
    scalar = []

    def spy(members):
        scalar.append(len(members))
        return _oracle_count_members(members)

    monkeypatch.setattr(quadruples, "_oracle_count_members", spy)
    got = oracle_count_square_quadruples(table)
    monkeypatch.undo()
    assert got == _oracle_count_members(table.squarefree_values())
    return bool(scalar)


def interval_with_s(x, s):
    """(x, x + y] with y the offset of the s-th square-free entry past x."""
    flags = np.frombuffer(squarefree_flags(x, 4 * s), dtype=np.bool_)
    return segmented_factorize(x, int(np.flatnonzero(flags)[s - 1]) + 1)


def test_numpy_oracle_matches_scalar_loop_up_to_max_s(monkeypatch):
    for t in (segmented_factorize(47, 1), segmented_factorize(12, 1),
              interval_with_s(10**5, ORACLE_MAX_S), interval_with_s(10**9, ORACLE_MAX_S)):
        assert t.squarefree_count in (0, 1, ORACLE_MAX_S)
        assert not took_scalar_loop(monkeypatch, t)


# the largest member whose square fits an int64
INT64_MEMBER = math.isqrt((1 << 63) - 1)


def test_oracle_limbs_cover_the_scale_limit():
    # a/g and b/g split into two LIMB-bit limbs, and the middle partial
    # product, below 2^(2*LIMB + 1), fits an int64
    assert MAX_X_PLUS_Y < 2 ** (2 * LIMB)
    assert 2 * LIMB + 1 < 63


def test_oracle_matches_scalar_loop_across_int64_squares(monkeypatch):
    # x + y just below and just above the largest member whose pair
    # kernels all fit one int64
    assert INT64_MEMBER ** 2 < 2**63 <= (INT64_MEMBER + 1) ** 2
    below = segmented_factorize(INT64_MEMBER - 300, 300)
    above = segmented_factorize(INT64_MEMBER - 150, 300)
    assert below.squarefree_values()[-1] <= INT64_MEMBER < above.squarefree_values()[-1]
    assert not took_scalar_loop(monkeypatch, below)
    assert not took_scalar_loop(monkeypatch, above)


@pytest.mark.parametrize("x, y", [(10**12, 600), (10**15 - 10**4, 300)])
def test_oracle_above_int64_squares_matches_scalar_loop(monkeypatch, x, y):
    t = segmented_factorize(x, y)
    assert 0 < t.squarefree_count <= ORACLE_MAX_S
    assert t.squarefree_values()[-1] > INT64_MEMBER
    assert not took_scalar_loop(monkeypatch, t)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=INT64_MEMBER, max_value=10**13),
       st.integers(min_value=1, max_value=400))
def test_oracle_above_int64_squares_sweep(x, y):
    t = segmented_factorize(x, y)
    assert oracle_count_square_quadruples(t) == _oracle_count_members(t.squarefree_values())


def test_oracle_edge_cases():
    # no member, one member, and members above 2^31.5 (kernels of two int64
    # words) beside small ones
    big = segmented_factorize(INT64_MEMBER, 60).squarefree_values()
    small = segmented_factorize(100, 40).squarefree_values()
    assert big[0] > INT64_MEMBER
    for members in ([], [5], [7] + small[:9] + big + small[9:20] + [13]):
        assert _oracle_count_array(members) == _oracle_count_members(members)
    assert _oracle_count_array([]) == 0 and _oracle_count_array([5]) == 1


def test_oracle_kernels_sharing_the_low_word():
    # square-free members: 21 = 3 * 7 = (14 * 6) / 2^2 and 21 + 2^50 = 5 r
    # = (2r * 10) / 2^2 share the low kernel word; with the pairs of the two
    # kernels interleaved, a sort that skips the high word splits each
    # kernel's run of two
    r = (21 + (1 << 50)) // 5
    group = [3, 5, 7, r, 14, 6, 2 * r, 10]
    assert _oracle_count_array(group) == _oracle_count_members(group)
    # 2 * 3 = 6 and 2 c = 6 + 2^50 for c = 3 + 2^49 sort next to each other
    # (3 c has the high word 1 and a larger low word): two runs, not one
    trio = [2, 3, 3 + (1 << 49)]
    assert _oracle_count_array(trio) == _oracle_count_members(trio) == 9 + 3 * 4


# The enumeration before it streamed each level once, kept verbatim as the
# reference: every level is charged in full, by re-streaming the levels
# before it, and then all the levels are streamed once more.
def _reference_stream(levels, block):
    """Yield, in blocks, the rows below `block` that pass every level."""
    if not levels:
        yield block
        return
    name, _, keep = levels[0]
    first, width = _widths(levels[0], block)
    for idx, off in _expand(width):
        rows = {k: col[idx] for k, col in block.items()}
        rows[name] = first[idx] + off
        if keep is not None:
            mask = keep(rows)
            rows = {k: col[mask] for k, col in rows.items()}
        yield from _reference_stream(levels[1:], rows)


def _reference_enumerate(levels, bud: _Budget):
    """Yield, in blocks, the rows that pass every level.  A level is
    (column, block -> (first, last) of each row's range, row filter or
    None); the root is one row without columns.  Each level's candidate
    rows, the sum of its range widths, are charged to `bud` before the
    level's first row is built, so an over-budget level is never built."""
    root: dict[str, np.ndarray] = {}
    for k, level in enumerate(levels):
        for block in _reference_stream(levels[:k], root):
            bud.spend(int(_widths(level, block)[1].sum()))
    yield from _reference_stream(levels, root)


def solution_rows(blocks):
    """Each shape's solution rows as one lexicographically sorted array."""
    parts = {}
    for shape, *cols in blocks:
        parts.setdefault(shape, []).append(np.column_stack(cols))
    rows = {shape: np.concatenate(p) for shape, p in parts.items()}
    return {shape: r[np.lexsort(r.T[::-1])] for shape, r in rows.items() if r.size}


def assert_same_rows(got, want):
    assert got.keys() == want.keys()
    for shape in want:
        assert np.array_equal(got[shape], want[shape]), shape


def reference_run(monkeypatch, x, y, budget=10**15):
    """The solution rows and the total charge of the reference enumeration;
    ScaleError when it refuses a DEFAULT_BUDGET of `budget`."""
    buds = []

    def run(outer, deep, bud):
        buds.append(bud)
        return _reference_enumerate(outer + deep, bud)

    with monkeypatch.context() as mp:
        mp.setattr(quadruples, "_enumerate", run)
        mp.setattr(quadruples, "DEFAULT_BUDGET", budget)
        rows = solution_rows(quadruples._solution_blocks(x, y))
    return rows, buds[-1].charged if buds else 0


def one_pass_rows(x, y, budget=10**15):
    """The one pass's solution rows under a DEFAULT_BUDGET of `budget`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadruples, "DEFAULT_BUDGET", budget)
        return solution_rows(quadruples._solution_blocks(x, y))


def assert_one_pass_matches_reference(monkeypatch, x, y):
    """Equal solution rows; accepted at the reference's total charge T and
    refused at T - 1."""
    want, total = reference_run(monkeypatch, x, y)
    assert_same_rows(one_pass_rows(x, y, total), want)
    if total:
        with pytest.raises(ScaleError, match=f"budget of {total - 1} candidate rows"):
            one_pass_rows(x, y, total - 1)
    return want, total


@pytest.mark.parametrize("x, y", [(10, 10), (52, 26), (100, 40), (500, 50), (5000, 500),
                                  (10**4, 990), (100024, 1000), (100029, 1000),
                                  (3 * 10**4, 3000), (10**5, 2000), (10**5, 3000)])
def test_one_pass_enumeration_matches_the_reference(monkeypatch, x, y):
    assert_one_pass_matches_reference(monkeypatch, x, y)


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("x, y", [(5000, 500), (100029, 1000)])
def test_one_pass_charges_deep_levels_block_by_block(monkeypatch, x, y, block):
    # with small blocks every deep level is charged in many pieces between
    # the rows of the levels above it; the total charge does not move
    monkeypatch.setattr(quadruples, "BLOCK", block)
    _, total = assert_one_pass_matches_reference(monkeypatch, x, y)
    monkeypatch.undo()
    assert reference_run(monkeypatch, x, y)[1] == total


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10**5).flatmap(lambda x: st.tuples(
    st.just(x), st.integers(min_value=max(1, min(math.isqrt(x), x // 3)), max_value=max(1, x // 3)))))
def test_one_pass_enumeration_sweep(xy):
    x, y = xy
    # y >= sqrt(x) mostly, where the shapes are not empty; at most 2 * 10^5
    # candidate rows a run: the reference's refusal and the one pass's must
    # agree, and an accepted interval must be accepted at its total charge T
    # and refused at T - 1
    budget = 2 * 10**5
    mp = pytest.MonkeyPatch()
    try:
        try:
            want, total = reference_run(mp, x, y, budget)
        except ScaleError:
            with pytest.raises(ScaleError):
                one_pass_rows(x, y, budget)
            return
        assert_same_rows(one_pass_rows(x, y, budget), want)
        assert_one_pass_matches_reference(mp, x, y)
    finally:
        mp.undo()


def candidate_rows(levels):
    """Each level's candidate rows, from one stream of the reference, in
    which every level's range function runs once per parent block."""
    counts = [0] * len(levels)

    def counting(k, level):
        name, span, keep = level

        def spanned(block):
            first, last = span(block)
            counts[k] += int(np.maximum(last - first + 1, 0).sum())
            return first, last

        return name, spanned, keep

    for _ in _reference_stream([counting(k, lv) for k, lv in enumerate(levels)], {}):
        pass
    return counts


@pytest.mark.parametrize("x, y", [(5000, 500), (100029, 1000)])
def test_each_filter_sees_its_candidate_rows_once(monkeypatch, x, y):
    seen, want = {}, {}
    one_pass = quadruples._enumerate

    def spying(outer, deep, bud):
        shape = "bc" if outer[1][0] == "c1" else "d"
        levels = outer + deep
        for name, count in zip([lv[0] for lv in levels], candidate_rows(levels)):
            want[shape, name] = count

        def spy(shape, level):
            name, span, keep = level
            if keep is None:
                return level

            def keep_spied(rows):
                seen[shape, name] = seen.get((shape, name), 0) + rows[name].size
                return keep(rows)

            return name, span, keep_spied

        return one_pass(tuple(spy(shape, lv) for lv in outer),
                        tuple(spy(shape, lv) for lv in deep), bud)

    monkeypatch.setattr(quadruples, "_enumerate", spying)
    assert param_enumerate_nondiagonal(x, y) == GOLDEN_QUADRUPLES[(x, y)][0]
    # every deep level has candidate rows in both shapes
    assert all(want[level] > 0 for level in (("bc", "B"), ("d", "B"), ("d", "s"), ("d", "v")))
    # the deep levels and the last outer level are built once; c1, an outer
    # level with an outer level after it, is built once more by the stream
    # that charges c2
    once = [("bc", "c2"), ("bc", "B"), ("d", "u"), ("d", "s"), ("d", "v")]
    assert sorted(seen) == sorted(once + [("bc", "c1")])
    for level in once:
        assert seen[level] == want[level], level
    assert seen["bc", "c1"] == 2 * want["bc", "c1"]


@pytest.mark.slow
def test_one_pass_enumeration_at_scale():
    # (10^8, 10^8 + 10^5]: about 6.4 * 10^6 candidate rows in (b)/(c) and 10^7 in (d)
    assert param_enumerate_nondiagonal(10**8, 10**5) == 1520616


def lifted_oracle(monkeypatch, table):
    """oracle_count_square_quadruples with its S <= ORACLE_MAX_S gate lifted."""
    monkeypatch.setattr(quadruples, "ORACLE_MAX_S", table.squarefree_count)
    return oracle_count_square_quadruples(table)


@pytest.mark.parametrize("x, y, c", [(2000, 150, 25), (5000, 500, 108), (100020, 1000, 142)])
def test_nondiagonal_quadruples_lie_in_the_core(monkeypatch, x, y, c):
    t = segmented_factorize(x, y)
    core = set((np.flatnonzero(two_core(t)) + x + 1).tolist())
    assert len(core) == c
    rows = [quad for _, quad in nondiagonal_quadruples(x, y)]
    assert rows and set().union(*rows) <= core
    assert lifted_oracle(monkeypatch, t) == _oracle_count_array(t.squarefree_values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=400))
def test_core_oracle_matches_all_pairs_sweep(x, y):
    t = segmented_factorize(x, y)
    assert oracle_count_square_quadruples(t) == _oracle_count_array(t.squarefree_values())


@pytest.mark.slow
def test_core_oracle_matches_the_enumeration_past_the_gate(monkeypatch):
    # S = 6079, of which C = 2423 are paired: about a second and 370 MB
    # peak RSS on 2 shared vCPUs
    t = segmented_factorize(10**6, 10**4)
    assert t.squarefree_count == 6079 and np.count_nonzero(two_core(t)) == 2423
    want = diagonal_count(6079) + param_enumerate_nondiagonal(10**6, 10**4)
    assert lifted_oracle(monkeypatch, t) == want
