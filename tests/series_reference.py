"""Independent 30-digit references for the sums in analysis.

The finite split sum sigma is a direct mpmath sum of all its terms. Each
infinite series is a direct mpmath sum of its first terms plus an
Euler-Maclaurin tail with eight Bernoulli corrections, whose integral is
taken by quadrature after a change of variable that makes it bounded and
smooth. Nothing here shares code with `sidonlab.analysis`: no Hurwitz
zeta, no incomplete Beta, no binomial expansion. They live here, outside
`src/`, as oracles only.
"""

from fractions import Fraction

import mpmath

DPS = 30
EM_TERMS = 8
DIRECT = 500


def _mp(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


def _power_product(factors, x):
    """prod (c + x)^(-s) for factors (c, s)."""
    out = mpmath.mpf(1)
    for c, s in factors:
        out *= mpmath.power(c + x, -s)
    return out


def _derivatives(factors, x, order: int) -> list:
    """f^(j)(x), j = 0..order, from the product of the factors' Taylor
    series: (c + x + h)^-s has coefficients binom(-s, k) (c + x)^(-s-k)."""
    series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * order
    for c, s in factors:
        coef, own = mpmath.mpf(1), []
        for k in range(order + 1):
            own.append(coef * mpmath.power(c + x, -s - k))
            coef *= (-s - k) / (k + 1)
        series = [mpmath.fsum(series[i] * own[j - i] for i in range(j + 1))
                  for j in range(order + 1)]
    return [series[j] * mpmath.factorial(j) for j in range(order + 1)]


def _tail(factors, start: int) -> mpmath.mpf:
    """sum over x >= start of f(x), by Euler-Maclaurin from `start`.

    With S the total decay exponent, x = start / t and t = u^(1/(S-1))
    turn the integral over [start, inf) into start/(S-1) times the
    integral over [0, 1] of prod (c t + start)^(-s); breaks sit at the
    factors' knees.
    """
    total = sum(s for _, s in factors)
    power = 1 / (total - 1)

    def integrand(u):
        t = mpmath.power(u, power)
        out = mpmath.mpf(1)
        for c, s in factors:
            out *= mpmath.power(c * t + start, -s)
        return out

    breaks = sorted({mpmath.power(mpmath.mpf(start) / c, total - 1)
                     for c, _ in factors if c > start})
    integral = mpmath.quad(integrand, [0, *breaks, 1]) * start * power
    d = _derivatives(factors, start, 2 * EM_TERMS - 1)
    correction = mpmath.fsum(
        mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * d[2 * k - 1]
        for k in range(1, EM_TERMS + 1))
    return integral + _power_product(factors, start) / 2 - correction


def _series(factors, first: int) -> float:
    direct = mpmath.fsum(_power_product(factors, x)
                         for x in range(first, first + DIRECT))
    return float(direct + _tail(factors, first + DIRECT))


def abab(gamma: Fraction, a: int, b: int) -> float:
    """sum over x >= 1 of x^-g (x+a)^-g (x+b)^(1-2g)."""
    with mpmath.workdps(DPS):
        g = _mp(gamma)
        return _series([(0, g), (a, g), (b, 2 * g - 1)], 1)


def tau(alpha: Fraction, beta: Fraction, n: int, m: int) -> float:
    """sum over y > m of (n+y)^-alpha y^-beta."""
    with mpmath.workdps(DPS):
        return _series([(n, _mp(alpha)), (0, _mp(beta))], m + 1)


def sigma(alpha: Fraction, beta: Fraction, n: int, m: int) -> float:
    """sum over m < x < n - m of x^-alpha (n-x)^-beta, term by term."""
    with mpmath.workdps(DPS):
        a, b = _mp(alpha), _mp(beta)
        return float(mpmath.fsum(mpmath.power(x, -a) * mpmath.power(n - x, -b)
                                 for x in range(m + 1, n - m)))
