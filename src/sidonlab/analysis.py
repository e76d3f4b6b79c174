"""Numeric audit of the weighted representation sums behind the random model.

Two families of finite/infinite sums drive every expectation estimate:

    sigma(n; m) = sum over x, y > m, x + y = n of x^-alpha y^-beta
    tau(n; m)   = sum over x, y > m, x - y = n of x^-alpha y^-beta

sigma is a finite sum, taken in bounded blocks into one correctly rounded
fsum; tau is an infinite one and is evaluated with a certified tail:
partial sum to a cutoff plus an integral sandwich. The reported error
bound (sandwich half-width plus a proved rounding bound) is guaranteed
below the requested tolerance, and the crude closed-form majorant
X^(1-alpha-beta)/(alpha+beta-1) for the discarded tail is reported
alongside the cutoff. The three-factor series of the deletion lemma is
certified the same way, its tail expanded into Hurwitz zeta values with a
closed-form remainder. Each sum has one float path; the independent
30-digit references that check them live with the tests.

The asymptotic inequalities these sums obey (everything of the shape
f <= C (n+m)^e with an unspecified constant) are operationalized as
bounded-ratio reports: compute f over a grid, normalize by the claimed
power, record the sup, and compare reruns against a pinned constant
stored with the package. The pins are measurements, not theorems.

Expected counts of the triple family used by the deletion audit are
computed exactly, by a quadratic loop and by a convolution engine
(inclusion-exclusion over forbidden congruences), and the clustering term
controlling lower-tail concentration is computed the same two ways; both
loops reduce one shared scan, and "auto" picks the loop up to n = 4096.
Monte Carlo shadows of the remaining families reuse the counter-based
sampler, so every table is reproducible from a seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

import mpmath
import numpy as np

from .deletionlab import _MODULUS_KINDS, FamilySpec, enumerate_family
from .numbertheory import RangeError
from .randommodel import SampleConfig, _as_fraction, _blocks, sample_sequence

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
    all of them go into one correctly rounded fsum."""
    a, b, n, m = float(spec.alpha), float(spec.beta), spec.n, spec.m
    lo, hi = m + 1, n - m - 1

    def terms():
        for start in range(lo, hi + 1, _BLOCK):
            xs = np.arange(start, min(start + _BLOCK, hi + 1), dtype=np.float64)
            powers = np.power(np.stack((xs, n - xs)), [[-a], [-b]])
            yield from (powers[0] * powers[1]).tolist()

    return math.fsum(terms())


@dataclass(frozen=True)
class TauResult:
    """Certified evaluation: value, proved error bound, majorant, cutoff."""

    value: float
    error_bound: float
    majorant_bound: float
    cutoff: int


# --- proved rounding bounds -------------------------------------------------
# The bounds below assume that each float64 `np.power` call (and each mpmath
# power at its working precision) is within _POW_ULPS ulps of the exact
# power of its arguments, and that mpmath's special functions (incomplete
# Beta, Hurwitz zeta) evaluated at _MP_DPS digits carry a relative error
# below _MP_REL. The rest is IEEE arithmetic with unit roundoff u: a
# correctly rounded math.fsum, and Higham's gamma_k = k u / (1 - k u) for a
# sum of k + 1 terms in any order (Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 4.2). _SAFETY absorbs the few roundings of
# the bound's own arithmetic.

_U = 2.0 ** -53
_POW_ULPS = 4
_MP_DPS = 18
_MP_REL = 1e-14
_BLOCK = 1 << 12
_SAFETY = 1 + 2.0 ** -20


def _mp(value) -> mpmath.mpf:
    """A Fraction (or the exact value of a float) at the working precision."""
    value = _as_fraction(value)
    return mpmath.mpf(value.numerator) / value.denominator


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


def _power_sum_rel_error(factors, hi: int) -> float:
    """rho with |computed - exact| <= rho * exact for `_power_sum` over
    x <= hi of prod (x + c)^e, factors (c, e) with exact exponents e.

    Each term takes one power per factor, with the exponent rounded once
    (|e' - e| <= u |e|, which scales (x + c)^e by at most
    exp(t) - 1 <= t (1 + t), t = u |e| ln(x + c)), and one product per
    extra factor. Terms are summed in blocks of at most _BLOCK, and the
    block sums are rounded to one float.
    """
    t = _U * sum(abs(float(e)) * math.log(hi + c) for c, e in factors)
    if t >= 1:
        return math.inf
    per_term = ([2 * _POW_ULPS * _U] * len(factors)
                + [_U] * (len(factors) - 1))
    return _compose(*per_term, t * (1 + t), _gamma(_BLOCK - 1), _U)


def _power_sum(factors, lo: int, hi: int) -> float:
    """Float sum over lo <= x <= hi of prod (x + c)^e, in blocks of _BLOCK
    terms so that memory stays bounded; the block sums go through fsum."""
    if hi + max(c for c, _ in factors) >= 2 ** 53:
        raise RangeError("summation range exceeds exact float integers")
    (c0, e0), *rest = [(c, float(e)) for c, e in factors]
    sums = []
    for start in range(lo, hi + 1, _BLOCK):
        xs = np.arange(start, min(start + _BLOCK, hi + 1), dtype=np.float64)
        terms = np.power(xs + c0, e0)
        for c, e in rest:
            terms *= np.power(xs + c, e)
        sums.append(float(terms.sum()))
    return math.fsum(sums)


def _tau_tail_integral(n: int, a, b, c) -> mpmath.mpf:
    # integral over t > c of t^-b (t+n)^-a, via an incomplete Beta form,
    # with exact exponents at the caller's working precision
    am, bm = _mp(a), _mp(b)
    s = mpmath.mpf(n) / (mpmath.mpf(c) + n)
    return (mpmath.power(n, 1 - am - bm)
            * mpmath.betainc(am + bm - 1, 1 - bm, 0, s))


def tau(spec: SumSpec) -> TauResult:
    """Partial sum plus an integral sandwich for the tail.

    The summand f(y) = (n+y)^-alpha y^-beta is positive, decreasing and
    convex, so the tail beyond a cutoff X sits between the trapezoid
    minorant (integral from X+1, plus half of f(X+1)) and the midpoint
    majorant (integral from X+1/2); both integrals have a closed
    incomplete-Beta form, evaluated at _MP_DPS digits so that their
    difference does not cancel. The sandwich width shrinks like f(X)/X,
    so the cutoff stays small even for tight tolerances.

    The error bound is proved under the assumptions stated above: the
    sandwich half-width, plus the rounding of the partial sum (relative
    bound from `_power_sum_rel_error`, applied to the a priori majorant
    f(m+1) + (m+1)^(1-alpha-beta)/(alpha+beta-1)), of the tail values and
    of the final addition. All of it enters the cut check, so the bound
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
    excess = float(a + b - 1)
    factors = ((n, -a), (0, -b))
    with mpmath.workdps(_MP_DPS):
        def term(y):
            return mpmath.power(n + y, -_mp(a)) * mpmath.power(y, -_mp(b))

        # f(m+1) plus the integral from m+1 of t^-(alpha+beta) >= f(t)
        partial_bound = _SAFETY * (float(term(m + 1))
                                   + (m + 1) ** -excess / excess)
        cut = max(m + 1, n, 1 << 10)
        while True:
            upper = _tau_tail_integral(n, a, b, cut + 0.5)
            lower = _tau_tail_integral(n, a, b, cut + 1) + term(cut + 1) / 2
            half = float(max(upper - lower, 0) / 2 + 2 * _MP_REL * upper)
            rho = _power_sum_rel_error(factors, cut)
            rounding = (rho * partial_bound
                        + 3 * _U * (partial_bound + float(upper)))
            error = _SAFETY * (half + rounding)
            if error <= tol:
                break
            if _SAFETY * rounding > tol or cut >= 2 ** 52:
                raise RangeError(
                    f"tail tolerance {tol!r} is out of reach: the rounding "
                    f"bound alone is {_SAFETY * rounding!r} at cut {cut}")
            cut *= 2
        mid = float((upper + lower) / 2)
    partial = _power_sum(factors, m + 1, cut)
    majorant = cut ** -excess / excess
    return TauResult(value=partial + mid, error_bound=error,
                     majorant_bound=majorant, cutoff=cut)


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

    def to_csv(self) -> str:
        lines = ["target,value,normalized"]
        lines += [f"{label},{value!r},{norm!r}" for label, value, norm in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "exponent": self.exponent,
                "rows": [list(r) for r in self.rows],
                "supRatio": self.sup_ratio,
                "pinned": self.pinned,
            },
            sort_keys=True,
        )


def check_lemma_ab(alpha, beta, grid, *,
                   tail_tolerance=Fraction(1, 10 ** 6)) -> RatioReport:
    """Normalize sigma and tau by (n+m)^(alpha+beta-1) over the grid.

    Both sums are claimed O((n+m)^(1-alpha-beta)); the report's sup is the
    largest normalized value seen, to be pinned and monitored.
    """
    a, b = _as_fraction(alpha), _as_fraction(beta)
    if a >= 1 or b >= 1:
        raise RangeError("exponents must be below 1")
    if a + b <= 1:
        raise NonConvergent("hypotheses need alpha+beta > 1")
    excess = float(a + b - 1)
    rows = []
    for n, m in grid:
        norm = float(n + m) ** excess
        s = sigma(SumSpec(a, b, n, m))
        t = tau(SumSpec(a, b, n, m, tail_tolerance))
        rows.append((f"sigma n={n} m={m}", s, s * norm))
        rows.append((f"tau n={n} m={m}", t.value, t.value * norm))
    if not rows:
        raise RangeError("grid must be nonempty")
    return RatioReport(exponent=-excess, rows=tuple(rows),
                       sup_ratio=max(r[2] for r in rows))


def _abab_series(g, a: int, b: int, tol: float) -> tuple[float, float, int]:
    """(value, error_bound, cutoff) for the sum over x >= 1 of
    x^-g (x+a)^-g (x+b)^(1-2g), 1/2 < g < 1, with error_bound <= tol.

    Terms up to X = max(2 max(a, b), 1024) are summed in float blocks
    (`_power_sum`). Beyond X the summand is x^(1-4g) (1+a/x)^-g
    (1+b/x)^(1-2g); expanding both factors as binomial series gives the
    tail sum over n of e_n zeta(4g-1+n, X+1), with
    e_n = sum over j+k=n of C(-g, j) a^j C(1-2g, k) b^k. Every binomial
    coefficient has modulus at most 1 for 1/2 < g < 1, so |e_n| <=
    (n+1) max(a, b)^n, and zeta(s+n, X+1) <= (X+1)^-n zeta(s, X+1). The
    terms of degree K and up are therefore at most zeta(4g-1, X+1) times
    the sum over n >= K of (n+1) r^n = r^K ((K+1)/(1-r) + r/(1-r)^2),
    r = max(a, b)/(X+1) < 1/2; K is the smallest degree that keeps this
    below tol/2. The rest of the bound is rounding, under the assumptions
    stated with `_power_sum_rel_error`; it must fit in the other tol/2.
    """
    g = _as_fraction(g)
    if not Fraction(1, 2) < g < 1:
        raise RangeError("gamma must lie in (1/2, 1)")
    if not tol > 0:
        raise RangeError("tail tolerance must be positive")
    top = max(a, b)
    cut = max(2 * top, 1 << 10)
    factors = ((0, -g), (a, -g), (b, 1 - 2 * g))
    partial = _power_sum(factors, 1, cut)
    rho = _power_sum_rel_error(factors, cut)
    r = top / (cut + 1)
    with mpmath.workdps(_MP_DPS):
        s = 4 * _mp(g) - 1
        zeta0 = mpmath.zeta(s, cut + 1)
        z = float(zeta0) * _SAFETY
        # tail_abs >= sum of |e_n| zeta(s+n, X+1) over all n, so >= |tail|
        tail_abs = z / (1 - r) ** 2
        rounding = _SAFETY * (rho * partial / (1 - rho)
                              + 3 * _U * (partial + tail_abs)
                              + _MP_REL * tail_abs)
        if rounding > tol / 2:
            raise RangeError(f"tail tolerance {tol!r} is below twice the "
                             f"rounding bound {rounding!r} of this series")
        degree, truncation = 0, tail_abs
        while truncation > tol / 2:
            degree += 1
            truncation = _SAFETY * z * r ** degree * (
                (degree + 1) / (1 - r) + r / (1 - r) ** 2)
        coef_a = _binomial_powers(-g, a, degree)
        coef_b = _binomial_powers(1 - 2 * g, b, degree)
        tail = mpmath.mpf(0)
        for k in range(degree):
            e_k = mpmath.fsum(coef_a[j] * coef_b[k - j] for j in range(k + 1))
            zeta_k = zeta0 if k == 0 else mpmath.zeta(s + k, cut + 1)
            tail += e_k * zeta_k
        tail = float(tail)
    return partial + tail, truncation + rounding, cut


def _binomial_powers(e: Fraction, c: int, count: int) -> list:
    """C(e, j) c^j for j < count, at the working precision."""
    out, coef = [], mpmath.mpf(1)
    em = _mp(e)
    for j in range(count):
        out.append(coef)
        coef = coef * (em - j) / (j + 1) * c
    return out


def check_lemma_abab(gamma, pairs, *,
                     tail_tolerance=Fraction(1, 10 ** 6)) -> RatioReport:
    """Ratio of the three-factor series against (ab)^(1-2 gamma).

    The series is not symmetric in (a, b), so the report records both
    orientations of every pair.
    """
    g = _as_fraction(gamma)
    if g >= 1:
        raise RangeError("gamma must be below 1")
    if 4 * g - 1 <= 1:
        raise NonConvergent("series needs gamma > 1/2")
    gf = float(g)
    tol = float(_as_fraction(tail_tolerance))
    if tol <= 0:
        raise RangeError("tail tolerance must be positive")
    rows, seen = [], set()
    for a, b in pairs:
        for u, v in ((int(a), int(b)), (int(b), int(a))):
            if u < 1 or v < 1:
                raise RangeError("pair entries must be positive")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            val = _abab_series(g, u, v, tol)[0]
            rows.append((f"a={u} b={v}", val, val * (u * v) ** (2 * gf - 1)))
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


def _linconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    nout = len(a) + len(b) - 1
    if nout <= 0:
        return np.zeros(0)
    if nout < 256:
        return np.convolve(a, b)
    size = 1 << (nout - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size),
                        size)[:nout]


def _pair_sum_arrays(q: np.ndarray, modulus: int, top: int):
    """C2[u] = unrestricted pair weight at sum u; G2[u] = congruent-pair
    weight (x equal to y mod modulus), both truncated to u <= top."""
    c2 = _linconv(q, q)[:top + 1]
    g2 = np.zeros(top + 1)
    if modulus == 1:
        even = np.arange(0, top + 1, 2)
        g2[even] = q[even // 2] ** 2
    else:
        for s in range(modulus):
            qs = q[s::modulus]
            if not qs.any():
                continue
            conv = _linconv(qs, qs)
            jmax = (top - 2 * s) // modulus
            if jmax >= 0:
                sl = min(jmax + 1, len(conv))
                g2[2 * s + modulus * np.arange(sl)] += conv[:sl]
    return c2, g2


def _moment(n: int, cfg: SampleConfig, engine: str, loop, transform) -> float:
    """The engine dispatch shared by both moments: "auto" takes the loop up
    to n = 4096 and the transform beyond."""
    if engine == "auto":
        engine = "loop" if n <= 4096 else "transform"
    if engine not in ("loop", "transform"):
        raise RangeError("engine must be auto, loop, or transform")
    if n <= 3 * cfg.m or n < 6:
        return 0.0
    q = _prob_array(cfg, n)
    return (loop if engine == "loop" else transform)(n, cfg.modulus, q)


def exact_expectation_Q(n: int, cfg: SampleConfig,
                        engine: str = "auto") -> float:
    """Expected number of admissible triples x1+x2+x3 = n, pairwise
    incongruent mod the config modulus (pairwise distinct when it is 1),
    counted unordered. Exact inclusion-exclusion; no sampling."""
    return _moment(n, cfg, engine, _expectation_loop, _expectation_transform)


def _loop_scan(n: int, modulus: int, q: np.ndarray):
    """For every x1 with q[x1] > 0: q[x1], the products q[x2] q[x3] over
    x2 = 1, 2, ... with x2 + x3 = n - x1, and the mask of the triples that
    are pairwise incongruent (pairwise distinct when the modulus is 1).
    x1 stops at n - 3: at n - 2 the only pair is x2 = x3 = 1, which the
    mask always drops. Both loop engines reduce this one scan."""
    res = np.arange(n + 1, dtype=np.int64) % modulus
    for x1 in range(1, n - 2):
        if q[x1] == 0.0:
            continue
        u = n - x1
        prod = q[1:u] * q[u - 1:0:-1]
        if modulus > 1:
            r2, r3, r1 = res[1:u], res[u - 1:0:-1], res[x1]
            mask = (r2 != r3) & (r2 != r1) & (r3 != r1)
        else:
            x2 = np.arange(1, u)
            x3 = u - x2
            mask = (x2 != x3) & (x2 != x1) & (x3 != x1)
        yield q[x1], prod, mask


def _expectation_loop(n: int, modulus: int, q: np.ndarray) -> float:
    parts = [q1 * float(prod @ mask)
             for q1, prod, mask in _loop_scan(n, modulus, q)]
    return math.fsum(parts) / 6.0


def _expectation_transform(n: int, modulus: int, q: np.ndarray) -> float:
    c2, g2 = _pair_sum_arrays(q, modulus, n)
    qrev = q[::-1]
    total = float(c2 @ qrev)        # ordered triples, no constraint
    paired = float(g2 @ qrev)       # one congruent pair fixed
    triple = 0.0                    # all three congruent
    if modulus == 1:
        if n % 3 == 0:
            triple = float(q[n // 3] ** 3)
    else:
        for s in range(modulus):
            if (n - 3 * s) % modulus:
                continue
            qs = q[s::modulus]
            if not qs.any():
                continue
            j3 = (n - 3 * s) // modulus
            conv = _linconv(_linconv(qs, qs), qs)
            if 0 <= j3 < len(conv):
                triple += float(conv[j3])
    return (total - 3 * paired + 2 * triple) / 6.0


def exact_delta_Q(n: int, cfg: SampleConfig, engine: str = "auto") -> float:
    """Clustering term for the triple family: sum over ordered pairs of
    distinct intersecting triples of the probability that their union is
    sampled. Two distinct triples with one total share exactly one
    element, so the sum splits over the shared element."""
    return _moment(n, cfg, engine, _delta_loop, _delta_transform)


def _delta_loop(n: int, modulus: int, q: np.ndarray) -> float:
    parts = []
    for q1, prod, mask in _loop_scan(n, modulus, q):
        kept = prod[mask]
        pair_sum = float(kept.sum()) / 2.0
        pair_sq = float((kept ** 2).sum()) / 2.0
        parts.append(q1 * (pair_sum ** 2 - pair_sq))
    return math.fsum(parts)


def _delta_inner_transform(n: int, modulus: int, q: np.ndarray):
    """For every x1, the ordered weight of pairs (x2, x3), x2+x3 = n-x1,
    with the triple pairwise incongruent: C2 - G2 - 2H + 2K at u = n-x1,
    where H fixes x2 in x1's class and K fixes both."""
    top = n
    c2, g2 = _pair_sum_arrays(q, modulus, top)
    x1s = np.arange(1, n - 2 + 1)
    us = n - x1s
    ordered = np.zeros(len(x1s))
    if modulus == 1:
        free = c2[us]
        eq23 = np.where(us % 2 == 0, q[us // 2] ** 2, 0.0)
        idx3 = us - x1s
        eq12 = np.where((idx3 >= 0) & (idx3 <= top),
                        q[x1s] * q[np.clip(idx3, 0, top)], 0.0)
        eq_all = np.where(us == 2 * x1s, q[x1s] ** 2, 0.0)
        ordered = free - eq23 - 2 * eq12 + 2 * eq_all
        return x1s, ordered
    class_arrays = [q[s::modulus] for s in range(modulus)]
    for s in range(modulus):
        sel = np.nonzero(x1s % modulus == s)[0]
        if not len(sel):
            continue
        qs = class_arrays[s]
        c = (n - 2 * s) % modulus
        conv_sc = _linconv(qs, class_arrays[c])
        uu = us[sel]
        hidx = (uu - s - c) // modulus
        h = np.zeros(len(sel))
        ok = (hidx >= 0) & (hidx < len(conv_sc))
        h[ok] = conv_sc[hidx[ok]]
        k = np.zeros(len(sel))
        if (n - 3 * s) % modulus == 0:
            conv_ss = _linconv(qs, qs)
            kidx = (uu - 2 * s) // modulus
            ok = (kidx >= 0) & (kidx < len(conv_ss))
            k[ok] = conv_ss[kidx[ok]]
        ordered[sel] = c2[uu] - g2[uu] - 2 * h + 2 * k
    return x1s, ordered


def _delta_transform(n: int, modulus: int, q: np.ndarray) -> float:
    x1s, ordered = _delta_inner_transform(n, modulus, q)
    _, ordered_sq = _delta_inner_transform(n, modulus, q ** 2)
    pair_sum = ordered / 2.0
    pair_sq = ordered_sq / 2.0
    contrib = q[x1s] * (pair_sum ** 2 - pair_sq)
    return math.fsum(contrib.tolist())


def janson_threshold(cfg: SampleConfig, targets, engine: str = "auto"):
    """Rows (n, mean, clustering, mean > clustering) over the targets, and
    the smallest target from which the comparison holds onward (None if
    it fails at the last target)."""
    rows = []
    for n in targets:
        mu = exact_expectation_Q(n, cfg, engine)
        delta = exact_delta_Q(n, cfg, engine)
        rows.append((int(n), mu, delta, delta < mu))
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
    specs are built, and so validated, before any sample is drawn."""
    if trials < 2:
        raise RangeError("trials must be at least 2")
    kind = str(kind).upper()
    modulus = cfg.modulus if kind in _MODULUS_KINDS else 1
    specs = [FamilySpec(kind=kind, target=int(t), modulus=modulus,
                        epsilon=epsilon) for t in targets]
    base = cfg.seed if master_seed is None else int(master_seed)
    counts = np.zeros((trials, len(specs)))
    for i in range(trials):
        conf = replace(cfg, seed=(base + i) % 2 ** 64)
        sample = sample_sequence(conf, horizon)
        for j, spec in enumerate(specs):
            counts[i, j] = len(enumerate_family(sample, spec).members)
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
