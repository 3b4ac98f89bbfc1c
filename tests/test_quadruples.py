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
)
from rmflab.quadruples import (
    LIMB,
    ORACLE_MAX_S,
    QuadrupleParam,
    _expand,
    _oracle_count_array,
    _oracle_count_members,
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


def test_enumeration_budget():
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(5000, 500, budget=100)
    # candidate rows are charged per level before the level is built
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(10**6, 10**5, budget=10**6)
    with pytest.raises(ScaleError):
        param_enumerate_nondiagonal(10**7, 10**6)


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


def grouped_reference(members, sizes):
    """_oracle_count_members of each group, the groups laid end to end."""
    ends = np.cumsum(sizes).tolist()
    return [_oracle_count_members(members[e - c : e]) for c, e in zip(sizes, ends)]


def test_grouped_oracle_edge_groups():
    # empty and one-member groups, a group of members above 2^31.5 (kernels
    # of two int64 words) beside small ones, and no group at all
    big = segmented_factorize(INT64_MEMBER, 60).squarefree_values()
    small = segmented_factorize(100, 40).squarefree_values()
    assert big[0] > INT64_MEMBER
    members = [7] + small[:9] + big + small[9:20] + [13]
    sizes = [0, 1, 9, 0, len(big), 0, 11, 1, 0]
    assert sum(sizes) == len(members)
    assert _oracle_count_array(members, sizes).tolist() == grouped_reference(members, sizes)
    assert _oracle_count_array([], []).tolist() == []
    assert _oracle_count_array([], [0, 0]).tolist() == [0, 0]
    assert _oracle_count_array([5]).tolist() == [1]


def test_grouped_oracle_kernels_sharing_the_low_word():
    # square-free members: 21 = 3 * 7 = (14 * 6) / 2^2 and 21 + 2^50 = 5 r
    # = (2r * 10) / 2^2 share the low kernel word; with the pairs of the two
    # kernels interleaved, a sort that skips the high word splits each
    # kernel's run of two
    r = (21 + (1 << 50)) // 5
    group = [3, 5, 7, r, 14, 6, 2 * r, 10]
    members, sizes = group * 4, [len(group)] * 4
    counts = _oracle_count_array(members, sizes).tolist()
    assert counts == grouped_reference(members, sizes) == [_oracle_count_members(group)] * 4
    # 2 * 3 = 6 and 2 c = 6 + 2^50 for c = 3 + 2^49 sort next to each other
    # (3 c has the high word 1 and a larger low word): two runs, not one
    trio = [2, 3, 3 + (1 << 49)]
    assert _oracle_count_array(trio).tolist() == [_oracle_count_members(trio)] == [9 + 3 * 4]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from((1, 2**20, 2**33, 2**48))),
                max_size=10),
       st.integers(0, 10**6))
def test_grouped_oracle_matches_scalar_loop(groups, seed):
    rnd = random.Random(seed)
    members, sizes = [], []
    for c, scale in groups:
        members += sorted(rnd.sample(range(scale, scale + 4 * c + 8), c))
        sizes.append(c)
    assert _oracle_count_array(members, sizes).tolist() == grouped_reference(members, sizes)


def test_grouped_oracle_independent_of_pair_block(monkeypatch):
    t = segmented_factorize(10**4, 400)
    members, sizes = [], []
    for p in (7, 11, 13, 17, 19, 23):
        ks = [n // p for n in t.squarefree_values() if n % p == 0]
        members += ks
        sizes.append(len(ks))
    want = grouped_reference(members, sizes)
    for block in (1, 3, 40, 1 << 30):
        monkeypatch.setattr(quadruples, "PAIR_BLOCK", block)
        assert _oracle_count_array(members, sizes).tolist() == want
