"""Reference computations made apart from sidonlab.

Every answer the benchmark receives from the program is checked against
something computed here, with plain integer arithmetic or mpmath at high
precision, and never by calling back into the program. The functions follow
the documented definitions (the CRT graph of x -> g^x, the Erdos-Turan
elements, the splitmix64 inclusion rule, the deletion witnesses), not the
program's code paths: trial division instead of Miller-Rabin, the general
CRT formula instead of the program's shortcut, Euler's criterion instead of
a table of squares, exact integer powers instead of float pow.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath

# ------------------------------------------------------------ number theory


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primitive_roots(p: int) -> list[int]:
    """Every generator of (Z/p)^*, ascending, by the order test."""
    m = p - 1
    qs = [q for q in range(2, m + 1) if m % q == 0 and is_prime(q)]
    return [g for g in range(2, p) if all(pow(g, m // q, p) != 1 for q in qs)]


def crt(u: int, v: int, p: int) -> int:
    """t mod (p-1)p with t = u mod p-1 and t = v mod p (general CRT)."""
    m1, m2 = p - 1, p
    return (u * m2 * pow(m2, -1, m1) + v * m1 * pow(m1, -1, m2)) % (m1 * m2)


def ruzsa_elements(p: int, g: int) -> dict[int, int]:
    """log x -> flattened element of the graph {(x, g^x)}."""
    return {x: crt(x, pow(g, x, p), p) for x in range(p - 1)}


def erdos_turan_elements(p: int) -> dict[int, int]:
    return {x: x + pow(x, 2, p) * 2 * p for x in range(p)}


def curve_points(p: int, b: int, lam: int) -> int:
    """#(U, V), V != 0, with U^2 = 4V^3 + (bV + lam)^2 mod p, by Euler."""
    count = 0
    for v in range(1, p):
        rhs = (4 * v ** 3 + (b * v + lam) ** 2) % p
        if rhs == 0:
            count += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            count += 2
    return count


def decomposition_prime(N: int) -> int:
    """Smallest prime q >= 7, q = 1 mod 3, with 4q^2 < N < 5q^2."""
    q = 7
    while 4 * q * q < N:
        if 5 * q * q > N and q % 3 == 1 and is_prime(q):
            return q
        q += 1
    raise ValueError(f"no decomposition prime for N={N}")


def zn_lift(n: int, N: int, p: int) -> tuple[int, int]:
    """(r1, r2) of the documented lift: r1 + 2p r2 = n mod N with both
    digits in [K, U], smallest representable integer, then smallest r2."""
    K = (p + 3) // 4
    U = (5 * p - 1) // 2 + K
    lo = K * (2 * p + 1)
    M = lo + (n - lo) % N
    for r2 in range(K, U + 1):
        r1 = M - 2 * p * r2
        if K <= r1 <= U:
            return r1, r2
    raise ValueError("lift has no digits in range")


def zn_solution(p: int, r1: int, r2: int):
    """First (x1, x2, x3) in [0, p)^3 with x1+x2+x3 = r1 and
    sum of (x_i^2 mod p) = r2, or None: an exhaustive search."""
    sq = [x * x % p for x in range(p)]
    for x1 in range(p):
        for x2 in range(p):
            x3 = r1 - x1 - x2
            if 0 <= x3 < p and sq[x1] + sq[x2] + sq[x3] == r2:
                return (x1, x2, x3)
    return None


# ------------------------------------------------------------- integer sets


def pair_sum_counts(A) -> Counter:
    """Unordered representation count of every sum a + a', a <= a'."""
    A = sorted(A)
    return Counter(u + v for i, u in enumerate(A) for v in A[i:])


def lift_removals(A, limit: int) -> set[int]:
    """Elements a with some a' in A whose sum a + a' has at least `limit`
    unordered representations in A: limit 2 is the Sidon lift's rule,
    limit 3 the B2[2] lift's."""
    counts = pair_sum_counts(A)
    return {a for a in A if any(counts[a + b] >= limit for b in A)}


def q_count(A, n: int) -> int:
    """Unordered triples of distinct elements of A summing to n."""
    A = sorted(A)
    aset = set(A)
    return sum(1 for i, x1 in enumerate(A) for x2 in A[i + 1:]
               if n - x1 - x2 > x2 and n - x1 - x2 in aset)


def t_count(A, n: int) -> int:
    """Size of the T family at n, modulus 1, counted in closed form.

    A member is a permutation (x1, x2, x3) of a Q-triple, any x4 in A, an
    ordered pair (x5, x6) with x5 + x6 = x1 + x4 and {x5, x6} != {x1, x4},
    and an ordered pair (x7, x8) with the same sum and {x7, x8} != {x5, x6}.
    With c ordered pairs at sum s and mult(P) = 2 or 1 ordered pairs per
    set P, the (x5..x8) choices number c^2 - S2 - m14 c + m14^2 where S2
    sums mult^2 over all ordered pairs.
    """
    A = sorted(A)
    aset = set(A)
    ordered = Counter(u + v for u in A for v in A)
    unordered = pair_sum_counts(A)
    total = 0
    for i, x1 in enumerate(A):
        for x2 in A[i + 1:]:
            x3 = n - x1 - x2
            if x3 <= x2 or x3 not in aset:
                continue
            for x in (x1, x2, x3):   # two permutations start with each
                for x4 in A:
                    s = x + x4
                    c = ordered[s]
                    doubles = 1 if s % 2 == 0 and s // 2 in aset else 0
                    s2 = 4 * (unordered[s] - doubles) + doubles
                    m14 = 1 if x == x4 else 2
                    total += 2 * (c * c - s2 - m14 * c + m14 * m14)
    return total


# ----------------------------------------------------------- random model

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix_bits(seed: int, x: int) -> int:
    """Top 53 bits of the splitmix64 finalizer of seed + x * golden."""
    z = (seed + x * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) >> 11


def includes(seed: int, x: int, gamma: Fraction) -> bool:
    """The inclusion rule u < x^-gamma, u = k 2^-53, decided exactly:
    k^q x^p < 2^(53 q) for gamma = p/q."""
    k = splitmix_bits(seed, x)
    return k ** gamma.denominator * x ** gamma.numerator < 1 << (53 * gamma.denominator)


# ------------------------------------------------- high-precision series

DPS = 30
_EM_TERMS = 8
_DIRECT = 500


def _power_product(factors, x):
    """prod (c + sgn x)^(-s) for factors (c, sgn, s)."""
    out = mpmath.mpf(1)
    for c, sgn, s in factors:
        out *= mpmath.power(c + sgn * x, -s)
    return out


def _derivatives(factors, x, order: int) -> list:
    """f^(j)(x), j = 0..order, from the product of the factors' Taylor
    series: (c + sgn (x + h))^-s has coefficients binom(-s, k) sgn^k
    (c + sgn x)^(-s-k)."""
    series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * order
    for c, sgn, s in factors:
        base = c + sgn * x
        coef, own = mpmath.mpf(1), []
        for k in range(order + 1):
            own.append(coef * sgn ** k * mpmath.power(base, -s - k))
            coef *= (-s - k) / (k + 1)
        series = [mpmath.fsum(series[i] * own[j - i] for i in range(j + 1))
                  for j in range(order + 1)]
    return [series[j] * mpmath.factorial(j) for j in range(order + 1)]


def _em_correction(factors, x) -> mpmath.mpf:
    d = _derivatives(factors, x, 2 * _EM_TERMS - 1)
    return mpmath.fsum(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                       * d[2 * k - 1] for k in range(1, _EM_TERMS + 1))


def _tail(factors, start: int) -> mpmath.mpf:
    """sum over x >= start of f(x), by Euler-Maclaurin from `start`.

    With S the total decay exponent, x = start / t and t = u^(1/(S-1))
    turn the integral over [start, inf) into start/(S-1) times the integral
    over [0, 1] of prod (c t + start)^(-s), which is bounded and smooth, so
    quadrature keeps full precision; breaks sit at the factors' knees.
    """
    total = sum(s for _, _, s in factors)
    if total <= 1:
        raise ValueError("tail diverges")
    power = 1 / (total - 1)

    def integrand(u):
        t = mpmath.power(u, power)
        out = mpmath.mpf(1)
        for c, _, s in factors:
            out *= mpmath.power(c * t + start, -s)
        return out

    breaks = sorted({mpmath.power(mpmath.mpf(start) / c, total - 1)
                     for c, _, _ in factors if c > start})
    integral = mpmath.quad(integrand, [0, *breaks, 1]) * start * power
    return integral + _power_product(factors, start) / 2 - _em_correction(factors, start)


def _direct(factors, lo: int, hi: int) -> mpmath.mpf:
    return mpmath.fsum(_power_product(factors, x) for x in range(lo, hi + 1))


def _mp(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def sigma_reference(alpha: Fraction, beta: Fraction, n: int, m: int) -> float:
    """sum over m < x < n - m of x^-alpha (n-x)^-beta at DPS digits."""
    with mpmath.workdps(DPS):
        factors = [(0, 1, _mp(alpha)), (n, -1, _mp(beta))]
        lo, hi = m + 1, n - m - 1
        if hi < lo:
            return 0.0
        if hi - lo <= 3 * _DIRECT:
            return float(_direct(factors, lo, hi))
        left, right = lo + _DIRECT, hi - _DIRECT
        integral = mpmath.quad(lambda x: _power_product(factors, x),
                               [left, mpmath.mpf(n) / 2, right])
        middle = (integral + (_power_product(factors, left)
                              + _power_product(factors, right)) / 2
                  + _em_correction(factors, right)
                  - _em_correction(factors, left))
        return float(_direct(factors, lo, left - 1) + middle
                     + _direct(factors, right + 1, hi))


def tau_reference(alpha: Fraction, beta: Fraction, n: int, m: int) -> float:
    """sum over y > m of (n+y)^-alpha y^-beta at DPS digits."""
    with mpmath.workdps(DPS):
        factors = [(n, 1, _mp(alpha)), (0, 1, _mp(beta))]
        start = m + 1 + _DIRECT
        return float(_direct(factors, m + 1, start - 1) + _tail(factors, start))


def abab_reference(gamma: Fraction, a: int, b: int) -> float:
    """sum over x >= 1 of x^-g (x+a)^-g (x+b)^(1-2g) at DPS digits."""
    with mpmath.workdps(DPS):
        g = _mp(gamma)
        factors = [(0, 1, g), (a, 1, g), (b, 1, 2 * g - 1)]
        return float(_direct(factors, 1, _DIRECT) + _tail(factors, _DIRECT + 1))


# ------------------------------------------- triple-family expectations


def triple_moments(n: int, gamma: Fraction, m: int) -> tuple[float, float]:
    """(E, Delta) of the plain model's Q family at n by direct summation.

    E sums q1 q2 q3 over triples x1 < x2 < x3 of integers above m with sum
    n. Delta sums, over ordered pairs of distinct triples sharing an
    element, the probability that their union is sampled; two such
    triples share exactly one element x, and their other pairs P, P'
    sum to n - x, so Delta = sum_x q(x) ((sum_P w)^2 - sum_P w^2).
    """
    g = float(gamma)
    q = [0.0] * (n + 1)
    for x in range(m + 1, n + 1):
        q[x] = x ** -g
    expect = []
    for x1 in range(1, n):
        for x2 in range(x1 + 1, n):
            x3 = n - x1 - x2
            if x3 <= x2:
                break
            expect.append(q[x1] * q[x2] * q[x3])
    delta = []
    for x in range(1, n):
        w = [q[u] * q[n - x - u] for u in range(1, (n - x + 1) // 2)
             if u != x and n - x - u != x]
        delta.append(q[x] * (math.fsum(w) ** 2 - math.fsum(v * v for v in w)))
    return math.fsum(expect), math.fsum(delta)
