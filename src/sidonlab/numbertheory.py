"""Exact small-scale number theory: primality, primitive roots, CRT flattening.

Everything here is plain integer arithmetic with no probabilistic behavior.
All functions are pure, so they are safe under concurrent callers.
It holds the package's readers of caller input: `_as_ints` for integers,
with `_int_fields` for dataclass fields and `_as_family` for the rows of
a vector family, and `_as_fraction` for exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import isqrt
from operator import index

__all__ = [
    "NotPrime",
    "NotGenerator",
    "PrimeNotFound",
    "RangeError",
    "is_prime",
    "prime_factors",
    "is_primitive_root",
    "primitive_root",
    "power_table",
    "crt_flatten",
    "find_decomposition_prime",
]


class NotPrime(ValueError):
    """Argument required to be prime is not."""


class NotGenerator(ValueError):
    """Element is not a generator of the multiplicative group mod p."""


class PrimeNotFound(LookupError):
    """No prime exists in the requested bracket."""


class RangeError(ValueError):
    """Residue or parameter outside its documented range."""


def _as_ints(values, what: str) -> list[int]:
    """values as Python ints through operator.index, so NumPy integers
    pass and a float raises RangeError instead of being truncated."""
    try:
        return list(map(index, values))
    except TypeError as exc:
        raise RangeError(f"{what} must be integers: {exc}") from exc


def _int_fields(obj, *names: str) -> None:
    """Store the named fields of a frozen dataclass as _as_ints reads them."""
    values = _as_ints([getattr(obj, name) for name in names],
                      f"{type(obj).__name__} {'/'.join(names)}")
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)


def _as_fraction(value) -> Fraction:
    """value as a Fraction, a tuple read as (numerator, denominator)."""
    return Fraction(*value) if isinstance(value, tuple) else Fraction(value)


def _as_family(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """rows as int tuples of one arity: a tuple of Python ints is kept
    uncopied, any other row is read through _as_ints. Distinctness is the
    caller's policy."""
    rows = tuple(rows)
    if not (set(map(type, rows)) <= {tuple}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        rows = tuple(t if type(t) is tuple and set(map(type, t)) <= {int}
                     else tuple(_as_ints(t, "member coordinates"))
                     for t in rows)
    if len(set(map(len, rows))) > 1:
        raise RangeError(f"{what} must share one arity")
    return rows


# Fixed witness set proven deterministic for every n < 3.3e24, which covers
# the full 2**63 contract of is_prime with a wide margin.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality test for 0 <= n < 2**63 (deterministic Miller-Rabin)."""
    (n,) = _as_ints((n,), "n")
    if n < 0 or n >= 1 << 63:
        raise RangeError(f"is_prime is specified for 0 <= n < 2**63, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_odd_prime(p: int) -> None:
    """Raise NotPrime unless p is an odd prime: the one such check."""
    if not is_prime(p) or p == 2:
        raise NotPrime(f"{p} is not an odd prime")


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending (trial division)."""
    (n,) = _as_ints((n,), "n")
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group mod prime p."""
    g, p = _as_ints((g, p), "g and p")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    g %= p
    if g == 0:
        return False
    if p == 2:
        return g == 1
    return all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))


def primitive_root(p: int) -> int:
    """Smallest primitive root mod prime p (p = 2 gives 1)."""
    (p,) = _as_ints((p,), "p")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return 1
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def power_table(p: int, g: int) -> list[int]:
    """[g^x mod p for x in range(p - 1)] for an odd prime p and a generator g.

    Raises NotPrime when p is 2 or composite, NotGenerator when g does not
    generate the multiplicative group mod p.
    """
    p, g = _as_ints((p, g), "p and g")
    _check_odd_prime(p)
    return _power_table(p, g)


def _power_table(p: int, g: int) -> list[int]:
    """power_table for an odd prime p, which is not tested again: g
    generates exactly when no g^x with 0 < x < p - 1 is 1, and g^1 != 0."""
    table = [1] * (p - 1)
    for x in range(1, p - 1):
        table[x] = table[x - 1] * g % p
    if table.count(1) > 1 or 0 in table:
        raise NotGenerator(f"{g} does not generate Z_{p}^*")
    return table


def crt_flatten(u: int, v: int, p: int) -> int:
    """Unique t mod (p-1)p with t = u mod (p-1) and t = v mod p.

    This is the isomorphism Z_(p-1) x Z_p -> Z_((p-1)p) used to flatten
    (discrete log, value) pairs into a single cyclic group; gcd(p-1, p) = 1
    makes it well defined. Addition is componentwise, so the map is an
    additive homomorphism in both coordinates.
    """
    u, v, p = _as_ints((u, v, p), "u, v and p")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not (0 <= u < p - 1):
        raise RangeError(f"u must lie in [0, {p - 1}), got {u}")
    if not (0 <= v < p):
        raise RangeError(f"v must lie in [0, {p}), got {v}")
    return _flatten(u, v, p)


def _flatten(u: int, v: int, p: int) -> int:
    # t = u + (p-1) * k with k chosen so t = v (mod p); p-1 = -1 (mod p).
    return u + (p - 1) * ((u - v) % p)


def _flattened_graph(p: int, powers: list[int]) -> list[int]:
    """[crt_flatten(x, g^x mod p, p) for x in range(p - 1)], the Ruzsa
    elements in order of x, from the power table of g. Its maker checked p
    and g once, and its entries lie in range, so no element repeats
    crt_flatten's checks."""
    return [_flatten(x, v, p) for x, v in enumerate(powers)]


def find_decomposition_prime(N: int) -> int:
    """Smallest prime p >= 7 with p = 1 (mod 3) and 4p**2 < N < 5p**2.

    This is the modulus bracket required by the order-3 decomposition
    pipeline over Z_N: the Sidon set construction at p then fits inside an
    interval of length 5p**2 covering every residue of N.
    """
    (N,) = _as_ints((N,), "N")
    if N < 2:
        raise RangeError(f"need N >= 2, got {N}")
    # 4p^2 < N < 5p^2  <=>  N/5 < p^2 < N/4, exact integer comparisons below.
    p = max(7, isqrt((N + 4) // 5 - 1) + 1)  # ceil(sqrt((N + 4) // 5))
    while 4 * p * p < N:
        if 5 * p * p > N and p % 3 == 1 and is_prime(p):
            return p
        p += 1
    raise PrimeNotFound(
        f"no prime p = 1 (mod 3), p >= 7 with 4p^2 < {N} < 5p^2"
    )
