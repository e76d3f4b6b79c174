import random

import numpy as np
import pytest

from sidonlab.numbertheory import (
    NotGenerator,
    NotPrime,
    PrimeNotFound,
    RangeError,
    crt_flatten,
    find_decomposition_prime,
    is_prime,
    is_primitive_root,
    power_table,
    prime_factors,
    primitive_root,
)


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return flags


def test_is_prime_matches_sieve_below_10000():
    flags = sieve(10000)
    for n in range(10000):
        assert is_prime(n) == flags[n], n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert is_prime(4999)
    assert not is_prime(4997 * 4999)


def test_is_prime_range_contract():
    with pytest.raises(RangeError):
        is_prime(-1)
    with pytest.raises(RangeError):
        is_prime(1 << 63)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(156) == [2, 3, 13]
    assert prime_factors(97) == [97]


def test_primitive_root_examples():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(2) == 1


def test_primitive_root_is_smallest_and_generates():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 61, 211):
        g = primitive_root(p)
        if p > 2:
            powers = {pow(g, k, p) for k in range(p - 1)}
            assert powers == set(range(1, p))
        for h in range(1, g):
            assert not is_primitive_root(h, p)


def test_primitive_root_rejects_composite():
    with pytest.raises(NotPrime):
        primitive_root(10)


def test_crt_flatten_examples():
    assert crt_flatten(0, 1, 5) == 16
    assert crt_flatten(1, 2, 5) == 17
    assert crt_flatten(0, 0, 7) == 0


def test_crt_flatten_is_bijective_and_additive():
    rng = random.Random(7)
    for p in (5, 7, 13, 31):
        m = (p - 1) * p
        seen = set()
        for u in range(p - 1):
            for v in range(p):
                t = crt_flatten(u, v, p)
                assert 0 <= t < m
                seen.add(t)
        assert len(seen) == m
        for _ in range(50):
            u1, u2 = rng.randrange(p - 1), rng.randrange(p - 1)
            v1, v2 = rng.randrange(p), rng.randrange(p)
            lhs = crt_flatten((u1 + u2) % (p - 1), (v1 + v2) % p, p)
            rhs = (crt_flatten(u1, v1, p) + crt_flatten(u2, v2, p)) % m
            assert lhs == rhs


def test_crt_flatten_range_errors():
    with pytest.raises(RangeError):
        crt_flatten(4, 0, 5)
    with pytest.raises(RangeError):
        crt_flatten(0, 5, 5)
    with pytest.raises(NotPrime):
        crt_flatten(0, 0, 6)


def test_crt_flatten_reads_integers_only():
    # u = 2.5 used to pass the range check and end in a bare AssertionError
    with pytest.raises(RangeError):
        crt_flatten(2.5, 3, 13)
    assert crt_flatten(np.int64(2), np.int64(3), np.int64(13)) \
        == crt_flatten(2, 3, 13)


def test_find_decomposition_prime_reads_integers_only():
    with pytest.raises(RangeError):
        find_decomposition_prime(681.5)
    assert find_decomposition_prime(np.int64(700)) == 13


def test_primitive_root_reads_integers_only():
    with pytest.raises(RangeError):
        primitive_root(13.0)
    assert primitive_root(np.int64(13)) == 2


def test_find_decomposition_prime_examples():
    assert find_decomposition_prime(700) == 13
    assert find_decomposition_prime(244) == 7
    with pytest.raises(PrimeNotFound):
        find_decomposition_prime(1000)


def test_find_decomposition_prime_brackets():
    for N in range(200, 4000):
        try:
            p = find_decomposition_prime(N)
        except PrimeNotFound:
            continue
        assert p >= 7 and p % 3 == 1 and is_prime(p)
        assert 4 * p * p < N < 5 * p * p
        # smallest such prime
        for q in range(7, p):
            if is_prime(q) and q % 3 == 1:
                assert not (4 * q * q < N < 5 * q * q)


def test_power_table():
    assert power_table(7, 3) == [1, 3, 2, 6, 4, 5]
    for p in (3, 5, 13, 211):
        g = primitive_root(p)
        assert power_table(p, g) == [pow(g, x, p) for x in range(p - 1)]
    with pytest.raises(NotPrime):
        power_table(2, 1)
    with pytest.raises(NotPrime):
        power_table(15, 2)
    with pytest.raises(NotGenerator):
        power_table(13, 3)  # 3^3 = 27 = 1 mod 13
    # the table rejects exactly the non-generators, 0 and 1 mod p included
    for p in (3, 5, 7, 13, 31):
        for g in range(-p, 2 * p + 1):
            if is_primitive_root(g, p):
                assert power_table(p, g)[1] == g % p
            else:
                with pytest.raises(NotGenerator):
                    power_table(p, g)
