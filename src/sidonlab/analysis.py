"""Numeric audit of the weighted representation sums behind the random model.

Two families of finite/infinite sums drive every expectation estimate:

    sigma(n; m) = sum over x, y > m, x + y = n of x^-alpha y^-beta
    tau(n; m)   = sum over x, y > m, x - y = n of x^-alpha y^-beta

sigma is a finite sum, taken in bounded blocks, each split exactly into a
few floats, into one correctly rounded fsum; tau is an infinite one and is
evaluated with a certified tail: partial sum to a cutoff of at least 1024
(whatever n is) plus an integral sandwich, both in float64, the sandwich's
integrals as positive series, hypergeometric from n on and one in
t / (t + n) below n / 3. The reported
error bound (sandwich half-width plus a proved rounding bound) is
guaranteed below the requested tolerance, and the crude closed-form majorant
X^(1-alpha-beta)/(alpha+beta-1) for the discarded tail is reported
alongside the cutoff. The three-factor series of the deletion lemma is
certified the same way: a float partial sum to max(5 max(a, b) / 4, 1024),
and a tail expanded binomially into Hurwitz zeta values, everything scaled
by powers of the cut so that nothing overflows, with a proved remainder.
All of those values come from one float Euler-Maclaurin pass whose
remainder is bounded by its first omitted term. Each sum has one float
path, and no sum assumes a bound it does not prove; the independent
30-digit references that check them live with the tests.

The asymptotic inequalities these sums obey (everything of the shape
f <= C (n+m)^e with an unspecified constant) are operationalized as
bounded-ratio reports: compute f over a grid, normalize by the claimed
power, record the sup, and compare reruns against a pinned constant
stored with the package. The pins are measurements, not theorems.

Expected counts of the triple family used by the deletion audit, and the
clustering term controlling lower-tail concentration, are computed exactly
by two engines that return the same rows: for each first element, the
weight of its kept pairs (and, for the clustering term, their count and
squared weight). The loop sums them by direct convolutions, class pair by
class pair or as all pairs less the dropped ones, whose convolution makes
only the entries that a row reads (a row that cancels is summed
directly); the transform by inclusion-exclusion over forbidden
congruences on FFT convolutions. Each moment is finished from the rows in
one place, with exact zeros where no second pair is kept, and the Janson
table takes both moments from one pass of rows per target. "auto" picks
the loop up to n = 4096; both give exactly 0 where no admissible triple
exists: below 3m + 6, or where no three distinct residue classes reach n
with members that fit.
Monte Carlo shadows of the remaining families reuse the counter-based
sampler's blocks and accept rule, one pass of blocks for all trials, so
every table is reproducible from a seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import chain, count, islice

import numpy as np

from .deletionlab import FamilySpec, _family, _family_size
from .numbertheory import RangeError, _as_fraction, _as_ints, _int_fields
from .randommodel import SampleConfig, _accept, _blocks

__all__ = [
    "NonConvergent",
    "SumSpec",
    "TauResult",
    "RatioReport",
    "sigma",
    "tau",
    "check_lemma_ab",
    "check_lemma_abab",
    "gamma_from_epsilon",
    "exact_expectation_Q",
    "exact_delta_Q",
    "janson_threshold",
    "monte_carlo_family_mean",
    "load_pins",
    "get_pin",
]


class NonConvergent(ArithmeticError):
    """The requested infinite sum has a divergent tail."""


@dataclass(frozen=True)
class SumSpec:
    """Exponent pair, target, floor, and (for tau) a tail tolerance."""

    alpha: Fraction
    beta: Fraction
    n: int
    m: int = 0
    tail_tolerance: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        _int_fields(self, "n", "m")
        if self.n < 1:
            raise RangeError("n must be positive")
        if self.m < 0:
            raise RangeError("m must be nonnegative")
        if self.tail_tolerance is not None:
            tol = _as_fraction(self.tail_tolerance)
            if tol <= 0:
                raise RangeError("tail tolerance must be positive")
            object.__setattr__(self, "tail_tolerance", tol)


def sigma(spec: SumSpec) -> float:
    """Direct evaluation of the finite split sum; 0 on an empty range.

    The terms are made in blocks of _BLOCK, so memory stays bounded, and
    all of them go into one correctly rounded fsum. When alpha = beta the
    term at x equals the term at n - x bit for bit, so only x <= n/2 are
    made: the exact parts of the terms below n/2 are doubled (exact), and
    the middle term joins the fsum once, as it is, which leaves the
    correctly rounded sum unchanged."""
    a, b, n, m = float(spec.alpha), float(spec.beta), spec.n, spec.m
    lo, hi = m + 1, n - m - 1
    if a == b:
        hi = n // 2

    def block(start):
        xs = np.arange(start, min(start + _BLOCK, hi + 1), dtype=np.float64)
        terms = np.power(xs, -a)
        terms *= np.power(n - xs, -b)
        if a != b:
            return _exact_parts(terms)
        if 2 * hi == n and start + _BLOCK > hi:  # the middle term, once
            return [float(terms[-1])] + [2 * p for p in _exact_parts(terms[:-1])]
        return [2 * p for p in _exact_parts(terms)]

    return math.fsum(chain.from_iterable(map(block, range(lo, hi + 1, _BLOCK))))


def _exact_parts(terms: np.ndarray) -> list[float]:
    """A few floats whose exact sum is that of the terms, so that their
    fsum is the terms' fsum, bit for bit, at a fraction of its time.

    With every |t| < 2^E and fewer than 2^L terms, adding and subtracting
    1.5 2^(k+52), k = E + L - 52, rounds each t exactly to a multiple h of
    2^k (|t| <= 2^(k+51)), and t - h is exact: at most 2^(k-1), and a
    multiple of ulp(t). The partial sums of the h are multiples of 2^k
    below 2^L (2^E + 2^(k-1)) <= 2^(k+53), so np.sum adds them exactly in
    any order. The remainders t - h, below 2^(E+L-53), go round again
    until they are all 0; k stops at -1074, where every float is a
    multiple of 2^k and the remainders vanish. Terms that are not finite
    or not below 2^960 are returned as they are."""
    parts = []
    while True:
        top = float(np.abs(terms).max(initial=0.0))
        if top == 0.0:
            return parts
        if not top < 2.0 ** 960:
            return parts + terms.tolist()
        k = max(math.frexp(top)[1] + len(terms).bit_length() - 52, -1074)
        big = math.ldexp(1.5, k + 52)
        high = (terms + big) - big
        parts.append(float(high.sum()))
        terms = terms - high


@dataclass(frozen=True)
class TauResult:
    """Certified evaluation: value, proved error bound, majorant, cutoff."""

    value: float
    error_bound: float
    majorant_bound: float
    cutoff: int


# --- proved rounding bounds -------------------------------------------------
# The bounds below assume that each float64 power (`np.power` or `**`),
# `math.log` and `math.expm1` is within _POW_ULPS ulps of the exact function
# of its arguments, and nothing more. tau's tail integrals and the tail of
# the abab series are float series whose truncation and roundings are
# bounded in `_tau_tail_rel_error` and `_abab_series`; the Hurwitz zeta
# values of `_hurwitz_zetas` stop their Euler-Maclaurin sum below 2^-63 of
# the value (the remainder is at most the first omitted term) and count
# every rounding of the pass. The rest is IEEE arithmetic with unit
# roundoff u: a correctly rounded math.fsum, and Higham's
# gamma_k = k u / (1 - k u) for a sum of k + 1 terms or a dot product of k
# terms, in any order and with or without fused multiply-adds (Accuracy
# and Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 4.2).
# _SAFETY absorbs the few roundings of the bound's own arithmetic.

_U = 2.0 ** -53
_POW_ULPS = 4
_EM_TERMS = 12
_BLOCK = 1 << 12
_CONV_BLOCK = 1 << 9
_TAIL_TERMS = 62
_HEAD_TERMS = 58
_SAFETY = 1 + 2.0 ** -20


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u); infinite once k u >= 1."""
    ku = k * _U
    return ku / (1 - ku) if ku < 1 else math.inf


def _compose(*rels: float) -> float:
    """prod(1 + r) - 1 for nonnegative r, without cancellation."""
    acc = 0.0
    for r in rels:
        acc += r + acc * r
    return acc


def _term_rel_error(factors, hi: int) -> float:
    """rho with |computed - exact| <= rho * exact for one float term
    prod (x + c)^e at x <= hi, factors (c, e) with exact exponents e.

    The term takes one power per factor, with the exponent rounded once
    (|e' - e| <= u |e|, which scales (x + c)^e by at most
    exp(t) - 1 <= t (1 + t), t = u |e| ln(x + c)), and one product per
    extra factor.
    """
    t = _U * sum(abs(float(e)) * math.log(hi + c) for c, e in factors)
    if t >= 1:
        return math.inf
    per_term = ([2 * _POW_ULPS * _U] * len(factors)
                + [_U] * (len(factors) - 1))
    return _compose(*per_term, t * (1 + t))


def _power_sum_rel_error(factors, hi: int) -> float:
    """rho with |computed - exact| <= rho * exact for a sum of
    `_power_sums` over x <= hi of prod (x + c)^e: each term within
    `_term_rel_error`, summed in blocks of at most _BLOCK, and the block
    sums rounded to one float.
    """
    return _compose(_term_rel_error(factors, hi), _gamma(_BLOCK - 1), _U)


def _power_sums(products, lo: int, hi: int) -> list[float]:
    """For each list of factors (c, e) in products, the float sum over
    lo <= x <= hi of prod (x + c)^e, in blocks of _BLOCK terms so that
    memory stays bounded; the block sums go through fsum. A term starts
    from its first factor and multiplies in the others in their order.

    Each factor is made once per block, however many products share it.
    Offsets whose windows [start + c, start + c + size) overlap form a run
    with one base window x + c over their union; (x + c)^1 is a view into
    the base, and the factors of one exponent in a run are views into one
    `np.power` over the part of the base that their windows span. `np.power`
    gives an element the same bits wherever it sits in the array, so
    sharing a window moves no term; sharing only removes roundings that
    `_term_rel_error` counts."""
    if hi + max(c for factors in products for c, _ in factors) >= 2 ** 53:
        raise RangeError("summation range exceeds exact float integers")
    products = [[(c, float(e)) for c, e in factors] for factors in products]
    size = min(_BLOCK, hi + 1 - lo)  # a shorter last block keeps the runs
    plan = []  # runs of overlapping windows: first, last, offsets per e
    for c, e in sorted({f for factors in products for f in factors}):
        if plan and c - plan[-1][1] < size:
            plan[-1][1] = c
            plan[-1][2].setdefault(e, []).append(c)
        else:
            plan.append([c, c, {e: [c]}])
    steps = np.arange(max(cn - c0 for c0, cn, _ in plan) + size,
                      dtype=np.float64)
    sums = [[] for _ in products]
    for start in range(lo, hi + 1, _BLOCK):
        size = min(_BLOCK, hi + 1 - start)
        made = {}
        for c0, cn, offsets in plan:
            base = steps[:cn - c0 + size] + float(start + c0)
            for e, cs in offsets.items():
                # a run of one offset takes its windows whole, unsliced
                window = base[cs[0] - c0:cs[-1] - c0 + size] if cn > c0 else base
                if e != 1:
                    window = np.power(window, e)
                for c in cs:
                    made[c, e] = (window[c - cs[0]:c - cs[0] + size]
                                  if cn > c0 else window)
        for (head, *rest), out in zip(products, sums):
            # a product of two or more makes a new array: factors are shared
            terms = made[head] * made[rest[0]] if rest else made[head]
            for f in rest[1:]:
                terms *= made[f]
            out.append(float(terms.sum()))
    return [math.fsum(s) for s in sums]


def _tau_tails(n: int, p: float, b: float, x0: float, rise: float):
    """c -> (I, rho), I the integral over t > c of t^-b (t+n)^-a, a + b > 1,
    0 < b < 1, for c in [1, n/3] or c >= n, with c + n <= 2^52 (exact for
    the integer and half-integer starts tau asks for), and rho with
    |computed - exact| <= rho * exact; p = a + b - 1, b, x0 = 1 - b and
    rise = 2 - a - b each rounded once. From c >= n it is
    `_tau_tail_integral`. From c <= n/3 it is n^-p `_tau_head_series` plus
    the integral from n, made at most once: two positive parts, so rho is
    the larger of theirs plus the rounding of the sum."""
    @cache
    def tail(c):
        if not (1 <= c and 3 * c <= n or n <= c) or c + n > 2 ** 52:
            raise RangeError("the tail must start in [1, n/3] or at n or "
                             "later, with c + n <= 2^52")
        if c >= n:
            return _tau_tail_integral(n, p, b, c), _tau_tail_rel_error(n, p, c)
        value, rho = tail(n)
        return (n ** -p * _tau_head_series(n, x0, rise, c) + value,
                _compose(max(_tau_head_rel_error(n, p, x0, c), rho), _U))
    return tail


def _tau_tail_integral(n: int, p: float, b: float, c) -> float:
    """The integral over t > c >= n of t^-b (t+n)^-a, p = a + b - 1.

    It is n^(1-a-b) B(s; p, 1-b) with s = n / (c + n), which is (c + n)^-p
    times the positive series sum over k of (b)_k / k! s^k / (p + k).
    There s <= 1/2, and each term is below s times the one before: the
    remainder after a term is at most that term. The sum stops at the
    first term below 2^-60 of the sum so far."""
    s = n / (c + n)
    r, total = 1.0, 0.0
    for k in count():
        term = r / (p + k)
        total += term
        if term <= total * 2.0 ** -60:
            return (c + n) ** -p * total
        r *= s * (b + k) / (k + 1)


def _tau_head_series(n: int, x0: float, rise: float, c) -> float:
    """S with n^-p S the integral over c < t < n of t^-b (t+n)^-a, for
    1 <= c <= n/3, p = a + b - 1, x0 = 1 - b and rise = 2 - a - b = 1 - p.

    w = t / (t + n) turns the integral into n^-p times the integral of
    w^-b (1-w)^(p-1) from w0 = c / (c + n) to 1/2, and (1-w)^(p-1) is the
    sum over k of (1-p)_k / k! w^k, all positive as 0 < p < 1. So S is the
    sum over k of t_k = (1-p)_k / k! 2^-x (1 - (2 w0)^x) / x, x = k + 1 - b,
    and each bracket is -expm1(x ln(2 w0)) with ln(2 w0) <= -ln 2: it
    cannot cancel. The weights (1-p)_k / k! fall, so for j > k,
    t_j < (1-p)_k / k! 2^-x / x 2^(k-j); for k >= 1 (x >= 1) the bracket is
    at least 1/2, so the remainder after t_k is at most 2 t_k. The sum
    stops at the first term below 2^-61 of the sum so far, which is never
    t_0, and it is taken by fsum. By `_tau_head_rel_error`, it stops by
    k = _HEAD_TERMS - 1."""
    log_w = math.log(2 * c / (c + n))
    half = 2.0 ** -x0
    coef, terms, total = 1.0, [], 0.0
    for k in count():
        x = x0 + k
        term = coef * math.ldexp(half, -k) * -math.expm1(x * log_w) / x
        terms.append(term)
        total += term
        if term <= total * 2.0 ** -61:
            return math.fsum(terms)
        coef *= (k + rise) / (k + 1)


def _tau_tail_rel_error(n: int, p: float, c) -> float:
    """rho with |computed - exact| <= rho * exact for `_tau_tail_integral`.

    s takes one rounding, and so do b and p (|b' - b| <= u b <= u (b + k),
    likewise for p). A step of the recurrence adds six: b + k, its product
    with s, the division by k + 1, the update of r, and the errors of b
    and s. Term k then carries at most 6k + 3 (p + k, the error of p and
    the division), and the running sum of at most _TAIL_TERMS terms
    K = _TAIL_TERMS - 1 more: term k is within gamma(6k + 3 + K) of its
    exact value. Exact terms fall by a factor below s, so term_k <=
    s^k term_0 <= s^k S and the sum over k of k term_k is at most
    s / (1 - s)^2 S: the roundings add at most
    (6 s / (1 - s)^2 + 3 + K) u / (1 - 7 K u) of S. At s <= 1/2 the
    computed terms reach 2^-60 of the computed sum by k = 61, so
    _TAIL_TERMS = 62 terms at most, and the truncation is below 2^-59 of S
    (2^-60 of the computed sum, with room for the rounding of both). The
    power (c + n)^-p is within _POW_ULPS ulps, its exponent's rounding
    scales it by at most t (1 + t), t = u p ln(c + n), and the final
    product rounds once."""
    s = n / (c + n)
    k = _TAIL_TERMS - 1
    series = (6 * s / (1 - s) ** 2 + 3 + k) * _U / (1 - 7 * k * _U)
    t = _U * p * math.log(c + n)
    return _compose(2 * _POW_ULPS * _U, t * (1 + t), series, 2.0 ** -59, _U)


def _tau_head_rel_error(n: int, p: float, x0: float, c) -> float:
    """rho with |computed - exact| <= rho * exact for n^-p times
    `_tau_head_series`, 1 <= c <= n/3.

    Length. t_0 >= ln 2 2^-2(1-b), since 1 - 2^-y >= y ln 2 2^-y, and for
    k >= 1 t_k <= 2^-k 2^-(1-b) / k, so t_k / t_0 <= 2^(1-k) / (k ln 2):
    below 2^-61 (with room for the roundings) from k = 57 on, and at most
    _HEAD_TERMS = 58 terms are made. The remainder after the last is at
    most twice it, below 2^-59 of S.

    Rounding. 1 - b and 1 - p are rounded once from exact values, x = k +
    (1 - b) once more (two factors in all). 2 w0 = 2c / (c + n) rounds
    once, which moves ln(2 w0) by at most u / ln 2 of itself, and the log
    adds _POW_ULPS ulps: within 10 u. x ln(2 w0) is then within
    eta = compose(gamma_2, 10 u, u), and for y < 0 a relative error eta in
    y moves expm1(y) by at most eta exp(|y| eta) of itself
    (|y| e^y <= 1 - e^y), with |y| <= _HEAD_TERMS (|ln(2 w0)| + 1); expm1
    adds _POW_ULPS ulps. 2^-(1-b) is one power, its exponent's rounding
    worth t (1 + t), t = u ln 2 (1 - b), and the ldexp is exact. A step of
    the weights takes four roundings (the error of 1 - p, the sum, the
    quotient, the product), so t_k is within gamma(4k + 5) of its exact
    value times the factors above. Since the sum over k of k t_k is at
    most 2^-(1-b) <= 2^(1-b) t_0 / ln 2 <= 3 S, the terms' roundings add
    at most 17 u / (1 - (4 _HEAD_TERMS + 5) u) of S, composed with those
    factors and the truncation; fsum rounds once. n^-p is one more power
    (t = u p ln n) and one product."""
    log_w = abs(math.log(2 * c / (c + n)))
    eta = _compose(_gamma(2), 10 * _U, _U)
    y = _HEAD_TERMS * (log_w + 1)
    bracket = _compose(eta * math.exp(eta * y), 2 * _POW_ULPS * _U)
    t = _U * math.log(2) * x0
    weights = 17 * _U / (1 - (4 * _HEAD_TERMS + 5) * _U)
    series = _compose(weights, bracket, 2 * _POW_ULPS * _U, t * (1 + t),
                      2.0 ** -59, _U)
    t = _U * p * math.log(n)
    return _compose(2 * _POW_ULPS * _U, t * (1 + t), series, _U)


def tau(spec: SumSpec) -> TauResult:
    """Partial sum plus an integral sandwich for the tail.

    The summand f(y) = (n+y)^-alpha y^-beta is positive, decreasing and
    convex, so the tail beyond a cutoff X sits between the trapezoid
    minorant (integral from X+1, plus half of f(X+1)) and the midpoint
    majorant (integral from X+1/2); both integrals have a closed
    incomplete-Beta form, summed in float64 (`_tau_tails`). The
    sandwich width shrinks like f(X)/X, so the cutoff stays small even
    for tight tolerances: it starts at max(m + 1, 1024) for every n and
    doubles until the bound fits, except that a cut whose tails would
    start between n/3 and n, where neither series of the integral is
    proved, moves up to n. So the partial sum has 1024 terms at a loose
    tolerance however large n is. alpha, beta, alpha + beta - 1, 1 - beta
    and 2 - alpha - beta are rounded once, here, and both sides of the
    sandwich share one integral from n.

    The error bound is proved under the assumptions stated above: the
    sandwich half-width, plus the rounding of both sides of the sandwich
    (`_tau_tails` for the integrals, `_term_rel_error` for
    f(X+1)), of the partial sum (relative bound from
    `_power_sum_rel_error`, applied to the a priori majorant
    f(m+1) + (m+1)^(1-alpha-beta)/(alpha+beta-1)), of the midpoint and of
    the final addition. All of it enters the cut check, so the bound
    never exceeds the tolerance; a tolerance below the rounding alone
    raises RangeError.
    """
    a, b = spec.alpha, spec.beta
    if a + b <= 1:
        raise NonConvergent("tail exponent alpha+beta must exceed 1")
    if a >= 1 or b >= 1:
        raise RangeError("exponents must be below 1")
    tol = float(spec.tail_tolerance if spec.tail_tolerance is not None
                else Fraction(1, 10 ** 9))
    n, m = spec.n, spec.m
    af, bf, excess = float(a), float(b), float(a + b - 1)
    tail = _tau_tails(n, excess, bf, float(1 - b), float(2 - a - b))
    factors = ((n, -af), (0, -bf))

    def term(y):
        return (n + y) ** -af * y ** -bf

    # f(m+1) plus the integral from m+1 of t^-(alpha+beta) >= f(t)
    partial_bound = _SAFETY * (term(m + 1) + (m + 1) ** -excess / excess)
    cut = _tail_cut(max(m + 1, 1 << 10), n)
    while True:
        upper, rho_upper = tail(cut + 0.5)
        lower, rho_lower = tail(cut + 1)
        lower += term(cut + 1) / 2
        rho_lower = _compose(max(rho_lower, _term_rel_error(factors, cut + 1)),
                             _U)
        half = (max(upper - lower, 0) / 2 + rho_upper * upper
                + rho_lower * lower)
        rho = _power_sum_rel_error(factors, cut)
        rounding = (rho * partial_bound
                    + 3 * _U * (partial_bound + upper))
        error = _SAFETY * (half + rounding)
        if error <= tol:
            break
        if _SAFETY * rounding > tol or 2 * cut + 1 > 2 ** 52 - n:
            raise RangeError(
                f"tail tolerance {tol!r} is out of reach: the rounding "
                f"bound alone is {_SAFETY * rounding!r} at cut {cut}")
        cut = _tail_cut(2 * cut, n)
    mid = (upper + lower) / 2
    partial, = _power_sums((factors,), m + 1, cut)
    majorant = cut ** -excess / excess
    return TauResult(value=partial + mid, error_bound=error,
                     majorant_bound=majorant, cutoff=cut)


def _tail_cut(cut: int, n: int) -> int:
    """cut, or n where the tails from cut + 1/2 and cut + 1 would start
    between n/3 and n, which neither series of `_tau_tails` covers."""
    return n if 3 * (cut + 1) > n > cut else cut


@dataclass(frozen=True)
class RatioReport:
    """Normalized-ratio table with its sup and an optional pinned constant."""

    exponent: float
    rows: tuple[tuple[str, float, float], ...]
    sup_ratio: float
    pinned: float | None = None

    def with_pin(self, pinned: float) -> "RatioReport":
        return replace(self, pinned=float(pinned))

    def holds(self, slack: float = 1.01) -> bool:
        return self.pinned is not None and self.sup_ratio <= self.pinned * slack


def check_lemma_ab(alpha, beta, grid, *,
                   tail_tolerance=Fraction(1, 10 ** 6)) -> RatioReport:
    """Normalize sigma and tau by (n+m)^(alpha+beta-1) over the grid.

    Both sums are claimed O((n+m)^(1-alpha-beta)); the report's sup is the
    largest normalized value seen, to be pinned and monitored. The exponents
    follow tau's rules, which its first call checks, before any sigma.
    """
    a, b = _as_fraction(alpha), _as_fraction(beta)
    excess = float(a + b - 1)
    rows = []
    for n, m in grid:
        norm = float(n + m) ** excess
        t = tau(SumSpec(a, b, n, m, tail_tolerance))
        s = sigma(SumSpec(a, b, n, m))
        rows.append((f"sigma n={n} m={m}", s, s * norm))
        rows.append((f"tau n={n} m={m}", t.value, t.value * norm))
    if not rows:
        raise RangeError("grid must be nonempty")
    return RatioReport(exponent=-excess, rows=tuple(rows),
                       sup_ratio=max(r[2] for r in rows))


def _abab_series(g, a: int, b: int, tol: float):
    """((value, error_bound), (value, error_bound), cutoff) for the sum
    over x >= 1 of x^-g (x+a)^-g (x+b)^(1-2g), 1/2 < g < 1, and for the
    same sum with a and b swapped, with each error_bound <= tol.

    Terms up to X = max(ceil(5 max(a, b) / 4), 1024) are summed in float
    blocks (`_power_sums`) for both sums at once: with P = x^-g,
    A = (x+a)^-g and B = (x+b)^-g the terms are (x+b) P A B B and
    (x+a) P B A A, three powers for the two. The tails share the cutoff,
    the degree and the zeta values below. Beyond X the summand is
    x^(1-4g) (1+a/x)^-g (1+b/x)^(1-2g). Both factors expand as binomial
    series; scaled by N = X + 1, the tail is the sum over n of e_n z_n,
    with e_n = sum over j+k=n of C(-g, j) (a/N)^j C(1-2g, k) (b/N)^k and
    z_n = N^n zeta(s+n, N), s = 4g-1 (`_hurwitz_zetas`). No power of a,
    b or N is formed, and r = max(a, b)/N stays below 4/5.

    Truncation. For 1/2 < g < 1, C(-g, j) = (-1)^j (g)_j / j! and
    C(1-2g, k) = (-1)^k (2g-1)_k / k!, so every term of e_n has the sign
    (-1)^n, and Vandermonde's identity gives |e_n| <= m_n = r^n (c)_n / n!,
    c = 3g - 1, so m_n <= (n+1) r^n as c < 2. The z_n fall with n, and
    z_n <= N^-s (1 + N/(s+n-1)) (the sum over x >= N against its
    integral). The terms of degree K and up therefore add at most z_0
    times the sum over n >= K of (n+1) r^n = r^K ((K+1)/(1-r) +
    r/(1-r)^2); K is the smallest degree that keeps this below tol/2, so
    the value lands well inside tol/2 at the cost of a few more terms.
    The bound reports instead the sharper N^-s (1 + N/(s+K-1)) m_K /
    (1 - q_K) where that is smaller and q_K < 9/10: for n >= K,
    m_(n+1)/m_n = r (c+n)/(n+1) <= q_K = r max(1, (c+K)/(K+1)). K stays
    below 2^12, since (K + 1) (4/5)^K underflows before.

    Rounding, under the assumptions stated with `_power_sum_rel_error`,
    must fit in the other tol/2. C(e, j) (a/N)^j is a running product of
    j steps (e - j)/(j + 1) (a/N), each within six roundings (e, e - j,
    the quotient, a/N and two products). A product of two such
    coefficients carries at most 6n + 1 roundings, and e_n, a sum of one
    sign taken in any order, 7n + 1 relative to |e_n|. The dot product
    with z adds K more, and each z_n its own relative bound rho_z. So
    the tail is within compose(gamma_8K, rho_z) of the sum of |e_n| z_n,
    which is at most tail_abs = z_0 / (1 - r)^2, since m_n <= (n+1) r^n
    for c < 2. A product that underflows errs by at most 2^-1074; at most
    4 K^3 of those errors reach the tail, each scaled by less than 2 z_0,
    which leaves them far inside _SAFETY's share of tail_abs.
    """
    g = _as_fraction(g)
    if g >= 1:
        raise RangeError("gamma must be below 1")
    if g <= Fraction(1, 2):
        raise NonConvergent("series needs gamma > 1/2")
    if not tol > 0:
        raise RangeError("tail tolerance must be positive")
    top = max(a, b)
    cut = max(-(-5 * top // 4), 1 << 10)
    orders = ((a, b), (b, a))
    products = [((v, 1), (0, -g), (u, -g), (v, -g), (v, -g))
                for u, v in orders]
    partials = _power_sums(products, 1, cut)
    big, s, c = cut + 1, 4 * g - 1, float(3 * g - 1)
    r = top / big
    head = big ** -float(s)

    def zeta_bound(k):
        """An upper bound on z_k = N^k zeta(s+k, N)."""
        return _SAFETY * head * (1 + big / (float(s - 1) + k))

    z = zeta_bound(0)
    tail_abs = z / (1 - r) ** 2
    degree, truncation = 0, tail_abs
    while truncation > tol / 2:
        degree += 1
        truncation = _SAFETY * z * r ** degree * (
            (degree + 1) / (1 - r) + r / (1 - r) ** 2)
    m = math.prod(r * (c + n) / (n + 1) for n in range(degree))
    q = r * max(1.0, (c + degree) / (degree + 1))
    if q < 0.9:
        truncation = min(truncation,
                         _SAFETY * zeta_bound(degree) * m / (1 - q))
    zetas, rho_z = _hurwitz_zetas(s, big, degree)
    tail_rel = _compose(_gamma(8 * degree), rho_z)
    out = []
    for (u, v), factors, partial in zip(orders, products, partials):
        e = np.convolve(_binomial_powers(-g, u / big, degree),
                        _binomial_powers(1 - 2 * g, v / big, degree))[:degree]
        rho = _power_sum_rel_error(factors, cut)
        rounding = _SAFETY * (rho * partial / (1 - rho)
                              + 3 * _U * (partial + tail_abs)
                              + tail_rel * tail_abs)
        if rounding > tol / 2:
            raise RangeError(f"tail tolerance {tol!r} is below twice the "
                             f"rounding bound {rounding!r} of this series")
        out.append((partial + float(e @ zetas), truncation + rounding))
    return *out, cut


def _hurwitz_zetas(s: Fraction, start: int,
                   count: int) -> tuple[np.ndarray, float]:
    """N^k zeta(s + k, N) for k < count, N = start, s > 1, and rho with
    |computed - exact| <= rho * exact for each. By Euler-Maclaurin from N,
    for sigma = s + k,

        N^k zeta(sigma, N) = N^-s (N/(sigma-1) + 1/2
            + sum over j >= 1 of B_2j / (2j)! (sigma)_(2j-1) N^(1-2j))

    with (sigma)_i the rising factorial: one power N^-s serves every k, and
    nothing overflows or underflows however large N is. Every even
    derivative of x^-sigma is positive, so the remainder after any term
    lies between 0 and the first omitted term (Graham, Knuth and
    Patashnik, Concrete Mathematics, 2nd ed., section 9.5), and the value
    is at least M + 1/2, M = N/(sigma-1). The terms stop, for every k at
    once, at the first one below 2^-64 of M, so the truncation is below
    2^-63 of the value.

    |B_2j / (2j)!| = 2 zeta(2j) / (2 pi)^2j falls by more than 39 from
    each j to the next, so the terms fall by more than 39 while
    sigma + 2j <= N, from a first term sigma / (12 N) <= M / 12: the
    thirteenth is below 2^-66 of M, and at most _EM_TERMS = 12 are added.
    That needs sigma + 24 <= N at every k, so the largest count covered
    is N - s - 23; a larger one raises RangeError.

    Rounding. N^-s is within _POW_ULPS ulps, and the rounding of s scales
    it by at most t (1 + t), t = u s ln N, as in `_term_rel_error`. M
    takes three roundings (s - 1, its sum with k, the quotient) and one
    more where the corrections join it. The corrections, 1/2 and the
    Bernoulli terms, are summed apart. The j-th term takes 10j - 5
    roundings (s, sigma, the quotient by N, the float ratio and their
    product, then ten for each step of the weight), and 13 - j more in
    the sum and where it joins M: at most 10 _EM_TERMS - 3 in all. So the
    corrections are within gamma(10 _EM_TERMS) of
    1/2 + (39/38) sigma / (12 N); relative to the value this is largest
    at the largest sigma. The final product rounds once."""
    if s + count + 2 * _EM_TERMS - 1 > start:
        raise RangeError(f"{count} Hurwitz zeta values from {start} are more "
                         f"than the Euler-Maclaurin bound covers")
    big = float(start)
    ks = np.arange(count, dtype=np.float64)
    sigma = float(s) + ks
    main = big / (float(s - 1) + ks)
    corrections = np.full(count, 0.5)
    weight = sigma / big                  # (sigma)_(2j-1) N^(1-2j) at j = 1
    square = big * big
    for j, ratio in enumerate(_BERNOULLI, 1):
        term = ratio * weight
        if (np.abs(term) <= main * 2.0 ** -64).all():
            break
        corrections += term
        weight *= (sigma + (2 * j - 1)) * (sigma + 2 * j) / square
    top = float(s) + max(count - 1, 0)
    share = (0.5 + 39 * top / (456 * big)) / (big / (top - 1) + 0.5)
    t = _U * float(s) * math.log(big)
    rho = _compose(2 * _POW_ULPS * _U, t * (1 + t),
                   _gamma(4) + _gamma(10 * _EM_TERMS) * share,
                   2.0 ** -63, _U)
    return big ** -float(s) * (main + corrections), rho


def _bernoulli_ratios():
    """B_2j / (2j)! for j = 1, 2, ..., exact: the ratios a_n = B_n / n!
    (a_0 = 1, a_1 = -1/2, a_n = 0 for odd n > 1) satisfy, for n >= 1,
    sum over k <= n of a_k / (n + 1 - k)! = 0."""
    even = [Fraction(1)]                                # a_0, a_2, ...
    while True:
        n = 2 * len(even)
        a_n = -(Fraction(-1, 2 * math.factorial(n))
                + sum(a / math.factorial(n + 1 - 2 * i)
                      for i, a in enumerate(even)))
        even.append(a_n)
        yield a_n


_BERNOULLI = tuple(map(float, islice(_bernoulli_ratios(), _EM_TERMS + 1)))


def _binomial_powers(e: Fraction, ratio: float, count: int) -> np.ndarray:
    """C(e, j) ratio^j for j < count (j = 0 alone when count is 0), the
    running product of the steps (e - j) / (j + 1) ratio."""
    j = np.arange(count - 1, dtype=np.float64)
    return np.cumprod(np.concatenate(([1.0], (float(e) - j) / (j + 1) * ratio)))


def check_lemma_abab(gamma, pairs, *,
                     tail_tolerance=Fraction(1, 10 ** 6)) -> RatioReport:
    """Ratio of the three-factor series against (ab)^(1-2 gamma).

    The series is not symmetric in (a, b), so the report records both
    orientations of every pair. gamma and the tolerance follow the rules
    of _abab_series, which its first call checks.
    """
    g = _as_fraction(gamma)
    gf, tol = float(g), float(_as_fraction(tail_tolerance))
    rows, seen = [], set()
    for pair in pairs:
        a, b = _as_ints(pair, "pair entries")
        if a < 1 or b < 1:
            raise RangeError("pair entries must be positive")
        if (a, b) in seen:          # seen with (b, a), from an earlier pair
            continue
        both = _abab_series(g, a, b, tol)[:2]
        for (u, v), (val, _) in zip(((a, b), (b, a)), both):
            if (u, v) not in seen:
                seen.add((u, v))
                rows.append((f"a={u} b={v}", val,
                             val * (u * v) ** (2 * gf - 1)))
    if not rows:
        raise RangeError("pairs must be nonempty")
    return RatioReport(exponent=float(1 - 2 * g), rows=tuple(rows),
                       sup_ratio=max(r[2] for r in rows))


def gamma_from_epsilon(epsilon) -> Fraction:
    """Model exponent used for the short-element splits: 2/3 + e/(9+9e)."""
    eps = _as_fraction(epsilon)
    if not 0 < eps < 1:
        raise RangeError("epsilon must lie in (0, 1)")
    return Fraction(2, 3) + eps / (9 * (1 + eps))


# --- exact expectation and clustering term for the triple family ---------


def _prob_array(cfg: SampleConfig, top: int) -> np.ndarray:
    """q[x] = inclusion probability for x in [0, top]."""
    q = np.zeros(top + 1)
    for xs, probs in _blocks(cfg, top):
        q[xs] = probs
    return q


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a nonnegative integer array, ascending.
    np.unique would do, but its first call imports numpy.ma, about 20 ms
    of every process that uses it."""
    values = np.sort(values)
    return values[np.flatnonzero(np.diff(values, prepend=-1))]


def _moment(n: int, cfg: SampleConfig, engine: str, finish, zero=0.0):
    """The engine dispatch shared by the moments: "auto" takes the loop up
    to n = 4096 and the transform beyond; `finish` turns the chosen
    engine's rows into the moment, or `_moments` into both. Exactly `zero`
    below 3m + 6, the smallest sum of three distinct integers above m, and
    wherever no three residue classes reach n."""
    (n,) = _as_ints((n,), "n")
    if engine == "auto":
        engine = "loop" if n <= 4096 else "transform"
    if engine not in ("loop", "transform"):
        raise RangeError("engine must be auto, loop, or transform")
    if n < 3 * cfg.m + 6:
        return zero
    q = _prob_array(cfg, n)
    if not _residues_reach(n, cfg.modulus, q):
        return zero
    rows = _loop_rows if engine == "loop" else _transform_rows
    return finish(rows, n, cfg.modulus, q)


def _residues_reach(n: int, modulus: int, q: np.ndarray) -> bool:
    """Whether three pairwise-distinct residue classes that meet the
    support of q sum to n mod the modulus, with their smallest members
    summing to at most n; otherwise no triple exists and both moments are
    0. The support is every admissible x up to some point, so the smallest
    members are its x below its first plus the modulus, one per class.
    Always true for modulus 1, where the caller checks n >= 3m + 6."""
    if modulus == 1:
        return True
    low = np.flatnonzero(q[:np.argmax(q > 0) + modulus])
    order = np.argsort(low % modulus)
    res, low = low[order] % modulus, low[order]
    for i, (r1, x1) in enumerate(zip(res.tolist(), low.tolist())):
        r2 = res[i + 1:]
        r3 = (n - r1 - r2) % modulus
        at = np.minimum(np.searchsorted(res, r3), len(res) - 1)
        if ((res[at] == r3) & (r3 > r2)
                & (x1 + low[i + 1:] + low[at] <= n)).any():
            return True
    return False


def exact_expectation_Q(n: int, cfg: SampleConfig,
                        engine: str = "auto") -> float:
    """Expected number of admissible triples x1+x2+x3 = n, pairwise
    incongruent mod the config modulus (pairwise distinct when it is 1),
    counted unordered. Exact; no sampling."""
    return _moment(n, cfg, engine, _expectation)


def _expectation(rows, n: int, modulus: int, q: np.ndarray) -> float:
    return _mean_sum(*rows(n, modulus, q, q))


def _mean_sum(q1: np.ndarray, pair_sum: np.ndarray) -> float:
    return math.fsum(_exact_parts(q1 * pair_sum)) / 6.0


def exact_delta_Q(n: int, cfg: SampleConfig, engine: str = "auto") -> float:
    """Clustering term for the triple family: sum over ordered pairs of
    distinct intersecting triples of the probability that their union is
    sampled. Two distinct triples with one total share exactly one
    element, so the sum splits over the shared element.

    A first element with a single unordered pair has no second pair to
    meet, so its row is exactly 0. Kept ordered counts are even (a pair
    and its swap), so the rule is count < 3 and a count error below 1 is
    enough. Percival (Math. Comp. 72, 2003) bounds each entry of a float64
    FFT convolution of length 2^k by |x| |y| ((1+u)^3k (1+u sqrt5)^(3k+1)
    (1+mu)^3k - 1), u = 2^-53, mu the error of the twiddle factors.
    Assuming numpy's pocketfft keeps mu <= 4u, that is below
    8.2e-16 (3k+1)(n+1) for 0/1 vectors of length n + 1. The transform's
    count adds at most five such errors (C2, two class convolutions of G2,
    twice one of H): below 1e-3 for every n <= 2^30, far beyond memory."""
    return _moment(n, cfg, engine, _delta)


def _delta(rows, n: int, modulus: int, q: np.ndarray) -> float:
    return _delta_sum(*rows(n, modulus, q, *_delta_weights(q)))


def _delta_weights(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Delta's weight arrays: the 0/1 support (pair counts), q and q^2."""
    return (q > 0).astype(np.float64), q, q * q


def _delta_sum(q1, count, pair_sum, pair_sq) -> float:
    terms = q1 * ((pair_sum / 2.0) ** 2 - pair_sq / 2.0)
    terms[count < 3] = 0.0
    return math.fsum(_exact_parts(terms))


def _moments(rows, n: int, modulus: int, q: np.ndarray):
    """(E, Delta) from Delta's one rows pass: its q row is the row E sums,
    made the same way, so both equal separate calls bit for bit. Where the
    loop's cost rule sums one weight array another way than three, E takes
    its own pass."""
    q1, count, pair_sum, pair_sq = rows(n, modulus, q, *_delta_weights(q))
    x1s = _first_elements(n, q)
    if rows is _loop_rows and (_by_class(n, modulus, x1s, 1)
                               != _by_class(n, modulus, x1s, 3)):
        mean = _expectation(rows, n, modulus, q)
    else:
        mean = _mean_sum(q1, pair_sum)
    return mean, _delta_sum(q1, count, pair_sum, pair_sq)


def _first_elements(n: int, q: np.ndarray) -> np.ndarray:
    """The x1 in [1, n - 3] with q[x1] > 0."""
    return np.flatnonzero(q[1:n - 2]) + 1


def _loop_rows(n: int, modulus: int, q: np.ndarray, *weights):
    """For every x1 with q[x1] > 0: q[x1] and, for each weight array w,
    the sum of w[x2] w[x3] over the kept ordered pairs (x2, x3) with
    x2 + x3 = n - x1. A pair is kept when the triple is pairwise
    incongruent (pairwise distinct when the modulus is 1). x1 stops at
    n - 3: at n - 2 the only pair is x2 = x3 = 1, never kept. Counts (w
    the 0/1 support) are exact below 2^53.

    Both ways below sum weights by direct convolutions; only the 0/1
    support's counts come from a rounded FFT. Summing the kept
    pairs of classes takes a pass per residue class of x1, about 25-40 us
    on a 2-vCPU host; all pairs less the dropped ones take one
    convolution per weight array and a pass over rows and offsets that
    only stays small while the modulus exceeds n / 16. So the classes are
    summed when the modulus is at most n / 16, or when the classes of x1
    number at most w n^2 / 2^18 for w weight arrays. That rule was set for
    a convolution of every entry, about 0.15 ns * n^2; making only the
    entries the rows read (about a quarter of the products) takes
    0.05-0.1 ns * n^2 on the plain model at n of 2000 to 8000, so the rule
    leans a little to the classes."""
    x1s = _first_elements(n, q)
    by_class = _by_class(n, modulus, x1s, len(weights))
    pair_sums = _pair_sums_by_class if by_class else _pair_sums_by_exclusion
    return q[x1s], *pair_sums(n, modulus, np.array(weights), x1s)


def _by_class(n: int, modulus: int, x1s: np.ndarray, arrays: int) -> bool:
    """The loop's cost rule (see `_loop_rows`) for `arrays` weight arrays."""
    return modulus > 1 and (
        16 * modulus <= n
        or 2 ** 18 * len(_distinct(x1s % modulus)) <= arrays * n * n)


def _pair_sums_by_exclusion(n: int, modulus: int, ws: np.ndarray,
                            x1s: np.ndarray) -> np.ndarray:
    """All pairs x2 + x3 = u = n - x1 by one convolution, less the dropped
    pairs: x2 congruent to x1, else x3 congruent to x1, else x2 congruent
    to x3, each family run through by its offset k p (p = modulus, or
    n + 1 when the modulus is 1, so that congruent means equal). The
    convolution is direct, except for a 0/1 array, whose counts are exact
    from a rounded FFT."""
    p = modulus if modulus > 1 else n + 1
    ks = np.arange(-(n // p), n // p + 1) * p
    x1, u = x1s[:, None], (n - x1s)[:, None]
    half, odd = np.divmod(u - ks, 2)
    x2 = np.concatenate([x1 + ks, u - x1 - ks, half], axis=1)
    ok = (x2 >= 1) & (x2 < u)
    ok[:, len(ks):] &= (x2[:, len(ks):] - x1) % p != 0
    ok[:, 2 * len(ks):] &= odd == 0
    x2[~ok] = 0                     # w[0] = 0: 0 <= m is never admissible
    us = u[:, 0]
    top = int(us.max(initial=0))
    out = np.empty((len(ws), len(x1s)))
    for w, row in zip(ws, out):
        dropped = (w[x2] * w[u - x2]).sum(axis=1)
        if ((w == 0) | (w == 1)).all():
            # pair counts: the FFT misses each by less than 1/2 (the
            # bound in exact_delta_Q), so rounding makes them exact;
            # adding 0.0 turns the -0.0 of a tiny negative into 0.0
            full = np.rint(_self_convolution(w)) + 0.0
        else:
            full = _head_self_convolution(w, top)
        row[:] = full[us] - dropped
        # a row that dropped more than it kept lost bits to cancellation
        # (x1 = 1 when gamma is large): sum its kept pairs directly
        for i in np.flatnonzero(row < dropped).tolist():
            y2 = np.arange(1, us[i])
            y3 = us[i] - y2
            keep = (((y2 - y3) % p != 0) & ((y2 - x1s[i]) % p != 0)
                    & ((y3 - x1s[i]) % p != 0))
            row[i] = w[y2[keep]] @ w[y3[keep]]
    return out


def _pair_sums_by_class(n: int, modulus: int, ws: np.ndarray,
                        x1s: np.ndarray) -> np.ndarray:
    """x1 in class s1 puts u = n - x1 in class v = n - s1, so each class
    s2 fixes s3 = v - s2; the pairs of classes with s1, s2, s3 pairwise
    distinct add their convolutions, batched over all weight arrays and
    looped over the shorter of the class pairs and the class length."""
    classes, cw = _class_matrix(ws, np.flatnonzero(ws.any(axis=0)), modulus)
    span = cw.shape[-1]
    us = n - x1s
    r1s = x1s % modulus
    out = np.zeros((len(ws), len(x1s)))
    for s1 in _distinct(r1s).tolist():
        v = (n - s1) % modulus
        s3 = (v - classes) % modulus
        i3 = np.minimum(np.searchsorted(classes, s3), len(classes) - 1)
        i2 = np.flatnonzero((classes[i3] == s3) & (classes != s3)
                            & (classes != s1) & (s3 != s1))
        i3 = i3[i2]
        # s2 + s3 is v or v + modulus; in the second case the pair's
        # convolution lands one place later in u = v + modulus t
        late = classes[i2] + classes[i3] > v
        a = cw[:, i2]
        b = np.zeros((len(ws), len(i2), span + 1))
        b[:, ~late, :span] = cw[:, i3[~late]]
        b[:, late, 1:] = cw[:, i3[late]]
        acc = np.zeros((len(ws), 2 * span))
        if len(i2) <= span:
            for acc_w, a_w, b_w in zip(acc, a, b):
                for ak, bk in zip(a_w, b_w):
                    acc_w += np.convolve(ak, bk)
        else:
            for t in range(span):
                acc[:, t:t + span + 1] += (a[:, None, :, t] @ b)[:, 0]
        rows = np.flatnonzero(r1s == s1)
        out[:, rows] = acc[:, (us[rows] - v) // modulus]
    return out


def _transform_rows(n: int, modulus: int, q: np.ndarray, *weights):
    """What `_loop_rows` gives, by inclusion-exclusion on FFT convolutions:
    at u = n - x1, all ordered pairs (C2) less those with x2 congruent to
    x3 (G2) and twice those with x2 congruent to x1 (H; x3 congruent to
    x1 weighs the same), plus twice those with all three congruent (K).
    K is nonzero only where 3 x1 = n mod p, and there it is H itself, so
    such rows take C2 - G2.

    p is the modulus, or n + 1 when the modulus is 1. When p > n, congruent
    means equal, and G2 and H are products of single entries (an FFT of
    length 1 takes twice as long). Otherwise each weight array, laid out
    by the classes of q's support, takes one FFT: G2 squares its classes
    in place and H multiplies the pairs (s1, c), so the transient memory
    is about three transforms of one array's classes."""
    x1s = _first_elements(n, q)
    us = n - x1s
    p = modulus if modulus > 1 else n + 1
    if p > n:
        even, single = us % 2 == 0, 3 * x1s != n
        x3 = np.maximum(n - 2 * x1s, 0)     # w[0] = 0 where n - 2 x1 < 1
        return q[x1s], *(_self_convolution(w)[us] - w[us // 2] ** 2 * even
                         - 2 * w[x1s] * w[x3] * single for w in weights)
    classes, cw = _class_matrix(np.array(weights), np.flatnonzero(q), p)
    s1 = _distinct(x1s % p)
    c = (n - 2 * s1) % p                          # x3's class for H
    at = np.minimum(np.searchsorted(classes, c), len(classes) - 1)
    with_h = (classes[at] == c) & (c != s1)
    h1, h3 = np.searchsorted(classes, s1[with_h]), at[with_h]
    span = cw.shape[-1]
    size = 1 << (2 * span - 2).bit_length()
    # the pair of classes (s, t) puts its j-th entry at u = s + t + j p
    first = np.concatenate([2 * classes, (s1 + c)[with_h]])
    u = (first[:, None] + p * np.arange(span)).ravel()
    rows = []
    for w, g2 in zip(weights, cw):
        c2 = _self_convolution(w)[us]
        g2 = np.fft.rfft(g2, size)
        h = g2[h1]
        h *= g2[h3]
        g2 *= g2
        g2 = np.fft.irfft(g2, size)[:, :span]
        h = np.fft.irfft(h, size)[:, :span]
        pairs = np.concatenate([g2, 2 * h]).ravel()
        rows.append(c2 - np.bincount(u, pairs, n + 1)[us])
    return q[x1s], *rows


def _self_convolution(w: np.ndarray) -> np.ndarray:
    """np.convolve(w, w): directly below 256 entries, where each entry
    stays exact to rounding even when w spans many magnitudes (large
    gamma), else by one FFT of w alone."""
    nout = 2 * len(w) - 1
    if nout < 256:
        return np.convolve(w, w)
    size = 1 << (nout - 1).bit_length()
    f = np.fft.rfft(w, size)
    f *= f
    return np.fft.irfft(f, size)[:nout]


def _head_self_convolution(w: np.ndarray, top: int) -> np.ndarray:
    """np.convolve(w, w)[:top + 1] for nonnegative w, each entry a direct
    sum of products. Entries up to top read only the window v = w[lo:
    top - lo + 1], lo the first nonzero place. Cut into blocks of
    _CONV_BLOCK, the pairs of blocks (i, j) with i <= j and i + j below
    the number of blocks reach those entries: block i against itself, then
    against the rest of the window that it reaches, doubled (exactly, as
    each product stands for a pair and its swap). When the window fits in
    one block this is np.convolve itself."""
    nz = np.flatnonzero(w[:top + 1])
    lo = int(nz[0]) if len(nz) else top + 1
    v = w[lo:top - lo + 1]
    if len(v) <= _CONV_BLOCK:
        return np.convolve(w, w)[:top + 1]
    out = np.zeros(top + 1)
    head = out[2 * lo:]                     # head[j] is the entry 2 lo + j
    size = len(v)
    for start in range(0, (size + 1) // 2, _CONV_BLOCK):
        block = v[start:start + _CONV_BLOCK]
        own = np.convolve(block, block)[:size - 2 * start]
        head[2 * start:2 * start + len(own)] += own
        rest = v[start + _CONV_BLOCK:size - start]
        if len(rest):
            pairs = np.convolve(block, rest)[:size - 2 * start - _CONV_BLOCK]
            pairs *= 2
            head[2 * start + _CONV_BLOCK:
                 2 * start + _CONV_BLOCK + len(pairs)] += pairs
    return out


def _class_matrix(ws: np.ndarray, nz: np.ndarray, modulus: int):
    """The residue classes of the positions nz, ascending, and the weight
    arrays at those positions laid out by class: cw[:, i, j] is the
    weight at classes[i] + j modulus (0 off nz)."""
    classes = _distinct(nz % modulus)
    cw = np.zeros((len(ws), len(classes), (ws.shape[1] - 1) // modulus + 1))
    cw[:, np.searchsorted(classes, nz % modulus), nz // modulus] = ws[:, nz]
    return classes, cw


def janson_threshold(cfg: SampleConfig, targets, engine: str = "auto"):
    """Rows (n, mean, clustering, mean > clustering) over the targets, and
    the smallest target from which the comparison holds onward (None if
    it fails at the last target). Each target takes one pass of rows for
    both moments (`_moments`), and its mean and clustering equal
    `exact_expectation_Q` and `exact_delta_Q` with the same engine bit
    for bit."""
    rows = []
    for n in _as_ints(targets, "targets"):
        mu, delta = _moment(n, cfg, engine, _moments, (0.0, 0.0))
        rows.append((n, mu, delta, delta < mu))
    threshold = None
    for n, _, _, ok in reversed(rows):
        if not ok:
            break
        threshold = n
    return threshold, tuple(rows)


def monte_carlo_family_mean(kind, targets, cfg: SampleConfig, horizon: int,
                            trials: int = 50, master_seed: int | None = None,
                            epsilon=None):
    """Sample-mean table (target, mean, stderr) of family sizes across
    trial seeds derived from the master seed by unit offsets. The family
    specs are built, and so validated, before any sample is drawn. The
    trials share one pass over the model's blocks, which do not depend on
    the seed; each block goes through `_accept` once with every trial
    seed, so every trial's sample is the one `sample_sequence` draws,
    ascending, distinct and positive: the kind's counter takes it as is."""
    (trials,) = _as_ints((trials,), "trials")
    if trials < 2:
        raise RangeError("trials must be at least 2")
    kind, family = _family(kind)
    modulus = cfg.modulus if family.modulus else 1
    specs = [FamilySpec(kind=kind, target=t, modulus=modulus,
                        epsilon=epsilon) for t in targets]
    base = cfg.seed if master_seed is None else \
        _as_ints((master_seed,), "master seed")[0]
    seeds = [(base + i) % 2 ** 64 for i in range(trials)]
    kept = [[] for _ in seeds]
    for xs, t in _blocks(cfg, horizon):
        for parts, keep in zip(kept, _accept(cfg.gamma, seeds, xs, t)):
            parts.append(xs[keep])
    counts = np.zeros((trials, len(specs)))
    for i, parts in enumerate(kept):
        sample = tuple(np.concatenate(parts).tolist()) if parts else ()
        for j, spec in enumerate(specs):
            counts[i, j] = _family_size(sample, spec)
    means = counts.mean(axis=0)
    errs = counts.std(axis=0, ddof=1) / math.sqrt(trials)
    return tuple((spec.target, float(mu), float(se))
                 for spec, mu, se in zip(specs, means, errs))


def load_pins() -> dict:
    """Regression constants measured at first run and shipped with the
    package; see scripts/refresh_pins.py."""
    text = resources.files("sidonlab").joinpath("pins.json").read_text()
    return json.loads(text)


def get_pin(name: str) -> float:
    pins = load_pins()
    if name not in pins:
        raise KeyError(f"no pinned constant named {name!r}")
    return float(pins[name])
