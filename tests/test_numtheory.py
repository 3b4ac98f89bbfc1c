import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.errors import ContractViolation, ScaleError
from rmflab.numtheory import (
    MAX_X_PLUS_Y,
    MAX_Y,
    IntervalTable,
    _factor_segment,
    is_squarefree,
    kernel_xor,
    omega_L,
    prime_split,
    segmented_factorize,
    sieve_primes,
    squarefree_count,
    squarefree_flags,
    trial_factorize,
    z_of_delta,
)


def naive_squarefree(n: int) -> bool:
    # independent oracle: largest-square-divisor check
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_sieve_primes_small():
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factorize_examples():
    t = segmented_factorize(10, 10)
    assert dict(t.factors(12)) == {2: 2, 3: 1}
    assert not t.is_squarefree(12)
    assert dict(t.factors(11)) == {11: 1}
    assert t.is_squarefree(11)
    assert dict(t.factors(20)) == {2: 2, 5: 1}
    assert not t.is_squarefree(20)


def test_factorize_recovers_large_cofactor():
    # 2 * 4999 has a prime factor above sqrt(xmax)
    t = segmented_factorize(9996, 4)
    assert dict(t.factors(9998)) == {2: 1, 4999: 1}


def test_table_shape_and_range_errors():
    t = segmented_factorize(10, 10)
    assert t.y_len == len(t.entries) == len(t.flags) == 10
    assert t.offsets.size == 11 and t.offsets[-1] == t.primes.size == t.exponents.size
    for a in (t.offsets, t.primes, t.exponents, t.flags):
        with pytest.raises(ValueError):  # read-only
            a[0] = 0
    with pytest.raises(ValueError):
        t.factors(10)
    with pytest.raises(ValueError):
        t.factors(21)


def test_factorize_preconditions():
    with pytest.raises(ValueError):
        segmented_factorize(0, 10)
    with pytest.raises(ValueError):
        segmented_factorize(10, 0)
    with pytest.raises(ValueError):
        segmented_factorize(2**64 - 5, 10)
    with pytest.raises(ScaleError):
        segmented_factorize(MAX_X_PLUS_Y, 1)
    with pytest.raises(ScaleError):
        segmented_factorize(10**12, MAX_Y + 1)



@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=1, max_value=100))
def test_factorization_round_trip(x, y):
    t = segmented_factorize(x, y)
    for i, fac in enumerate(t.entries):
        n = x + 1 + i
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n
        assert t.flags[i] == all(e == 1 for _, e in fac)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=200))
def test_table_at_paper_scale(x, y):
    t = segmented_factorize(x, y)
    for i, fac in enumerate(t.entries):
        primes = [p for p, _ in fac]
        assert math.prod(p**e for p, e in fac) == x + 1 + i
        assert primes == sorted(set(primes))
    assert [bool(f) for f in t.flags] == [bool(f) for f in squarefree_flags(x, y)]


def test_table_golden_digest():
    # taken from the nested-tuple table that the CSR arrays replaced
    t = segmented_factorize(10**12, 10**4)
    digest = hashlib.sha256(
        repr((tuple(t.entries), tuple(map(bool, t.flags)))).encode()).hexdigest()
    assert digest == "bee41f73e8fe5c0578e5d4ff6918f23a481e3c5e280ce72d29ab0cfd2f82207b"
    assert t.squarefree_count == 6079


def test_squarefree_count_examples():
    assert squarefree_count(segmented_factorize(10, 10)) == 6
    assert segmented_factorize(10, 10).squarefree_values() == [11, 13, 14, 15, 17, 19]
    assert squarefree_count(segmented_factorize(1, 1)) == 1  # n = 2
    assert squarefree_count(segmented_factorize(47, 1)) == 0  # 48 = 2^4 * 3
    from_zero = _factor_segment(0, 6)  # n = 1 has the empty factorization
    assert from_zero.factors(1) == ()
    assert from_zero.squarefree_values() == [1, 2, 3, 5, 6]


def test_squarefree_count_against_oracle():
    rnd = random.Random(93)
    for _ in range(25):
        x = rnd.randint(2, 10**4)
        y = rnd.randint(1, 100)
        t = segmented_factorize(x, y)
        expected = sum(naive_squarefree(n) for n in range(x + 1, x + y + 1))
        assert t.squarefree_count == expected
        assert bytes(squarefree_flags(x, y)) == bytes(
            naive_squarefree(n) for n in range(x + 1, x + y + 1)
        )


def test_squarefree_density():
    t = segmented_factorize(10**6, 10**4)
    ratio = t.squarefree_count / 10**4
    assert abs(ratio - 6 / math.pi**2) < 0.02 * 6 / math.pi**2


def test_kernel_xor_examples():
    assert kernel_xor(6, 10) == 15
    assert kernel_xor(7, 7) == 1
    assert kernel_xor(15, 14) == 210


def test_kernel_xor_rejects_non_squarefree():
    with pytest.raises(ContractViolation):
        kernel_xor(12, 5)
    with pytest.raises(ContractViolation):
        kernel_xor(5, 18)


def test_kernel_xor_group_laws_exhaustive():
    sf = [n for n in range(1, 1001) if is_squarefree(n)]
    for a in sf[::7]:
        assert kernel_xor(a, a) == 1
        assert kernel_xor(a, 1) == a
    rnd = random.Random(5)
    for _ in range(2000):
        a, b = rnd.choice(sf), rnd.choice(sf)
        assert kernel_xor(a, b) == kernel_xor(b, a)
    for _ in range(500):
        a, b, c = rnd.choice(sf), rnd.choice(sf), rnd.choice(sf)
        assert kernel_xor(kernel_xor(a, b), c) == kernel_xor(a, kernel_xor(b, c))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_kernel_xor_is_symmetric_difference(a, b):
    if not (is_squarefree(a) and is_squarefree(b)):
        return
    pa = {p for p, _ in trial_factorize(a)}
    pb = {p for p, _ in trial_factorize(b)}
    assert kernel_xor(a, b) == math.prod(pa ^ pb)  # empty product is 1


def test_prime_split_z_values():
    assert z_of_delta(math.exp(-10)) == pytest.approx(5.0)
    assert z_of_delta(0.01) == pytest.approx(math.log(10))
    with pytest.raises(ValueError):
        z_of_delta(0.5)
    with pytest.raises(ValueError):
        z_of_delta(0.0)


def test_prime_split_partition():
    t = segmented_factorize(100, 20)
    ps = prime_split(1e-5, t)  # z = 5.756: small primes 2, 3, 5
    assert ps.small_primes == (2, 3, 5)
    assert all(p > ps.z for p in ps.large_primes)
    in_table = {p for fac in t.entries for p, _ in fac}
    assert set(ps.large_primes) == {p for p in in_table if p > ps.z}


def test_omega_l_examples():
    z = math.log(10)
    assert omega_L(30, z) == 2  # 3 and 5
    assert omega_L(7, z) == 1
    assert omega_L(4, z) == 0
    assert omega_L(1, z) == 0
