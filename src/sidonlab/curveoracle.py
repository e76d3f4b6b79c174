"""Exact point counts linking 3-term representations to a plane curve mod p.

For a primitive root g mod p and a target (a, b), the ordered solutions of

    x1 + x2 + x3 = a  (mod p-1),   g^x1 + g^x2 + g^x3 = b  (mod p)

are in bijection with the points (U, V), V != 0, of the curve

    U^2 = 4 V^3 + (b V + lam)^2   (mod p),   lam = g^a,

so their number is p + O(sqrt(p)). The counts for every target at once are
the 3-fold sum profile of the Ruzsa set (`triple_rep_table`), which makes
the identity a statement about that set: it reads
curve_point_table(p, g) == triple_rep_table(p, g). Solutions with a
repeated coordinate reduce to a cubic and number at most 9 per target,
which keeps pairwise-distinct representations plentiful for every target
once p is moderately large.

The module also enumerates the quadric x1^2 + x2^2 + (x1 + x2 - r1)^2 = r2
used by the integer decomposition pipeline, maps its solutions to exact
points of the unit 4-torus, and measures dyadic box coverage of those
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .numbertheory import (RangeError, _as_ints, _check_odd_prime,
                           _flattened_graph, _int_fields, _ruzsa_group)
from .sidoncore import rep_profile

__all__ = [
    "CurveParams",
    "QuadricParams",
    "curve_point_count",
    "curve_point_table",
    "triple_reps",
    "triple_rep_count",
    "triple_rep_table",
    "repeated_coordinate_count",
    "special_rep4_count",
    "hasse_gap",
    "hasse_slack",
    "enumerate_quadric",
    "torus_points",
    "dyadic_box_coverage",
]


@dataclass(frozen=True)
class CurveParams:
    """Parameters (p, b, lam) of U^2 = 4V^3 + (bV + lam)^2 over F_p, lam != 0."""

    p: int
    b: int
    lam: int

    def __post_init__(self):
        _int_fields(self, "p", "b", "lam")
        _check_odd_prime(self.p)
        if not (0 <= self.b < self.p):
            raise RangeError(f"b must lie in [0, p), got {self.b}")
        if not (1 <= self.lam < self.p):
            raise RangeError(f"lam must lie in [1, p), got {self.lam}")


@dataclass(frozen=True)
class QuadricParams:
    """Parameters (p, r1, r2) of x1^2 + x2^2 + (x1 + x2 - r1)^2 = r2 over F_p.

    The quadric splits into two lines exactly when 6 r2 = 2 r1^2 (mod p) and
    p = 1 (mod 3) (a primitive cube root of unity is needed);
    `splits_into_lines` reports this.
    """

    p: int
    r1: int
    r2: int

    def __post_init__(self):
        _int_fields(self, "p", "r1", "r2")
        _check_odd_prime(self.p)
        if not (0 <= self.r1 < self.p and 0 <= self.r2 < self.p):
            raise RangeError("r1, r2 must lie in [0, p)")

    @property
    def degenerate_rhs(self) -> bool:
        return (6 * self.r2 - 2 * self.r1 * self.r1) % self.p == 0

    @property
    def splits_into_lines(self) -> bool:
        return self.degenerate_rhs and self.p % 3 == 1


def _sqrt_table(p: int) -> np.ndarray:
    """root[v] = the square root of v mod p in [0, p/2]; -1 for non-residues.
    The squares of 0..p/2 are distinct mod an odd prime."""
    root = np.full(p, -1, dtype=np.int64)
    s = np.arange(p // 2 + 1, dtype=np.int64)
    root[s * s % p] = s
    return root


def curve_point_count(params: CurveParams) -> int:
    """Number of (U, V) with V != 0 and U^2 = 4V^3 + (bV + lam)^2 mod p,
    in one pass over V. Every product is reduced mod p at once, so int64
    holds it for p < 2^31; larger p raise RangeError."""
    if params.p >= 2 ** 31:
        raise RangeError("curve point counts need p < 2^31")
    return int(_point_counts(params.p, params.b, params.lam,
                             _sqrt_table(params.p)))


def _point_counts(p: int, b, lam: int, root: np.ndarray):
    """curve_point_count for one b, or an array of counts for a sequence of
    b at one lam, with root = _sqrt_table(p). A sequence takes
    len(b) * (p - 1) int64 entries per temporary."""
    v = np.arange(1, p, dtype=np.int64)
    w = (np.multiply.outer(b, v) + lam) % p
    s = root[(4 * (v * v % p * v % p) + w * w) % p]
    return (s >= 0).sum(axis=-1) + (s > 0).sum(axis=-1)  # U = s and U = -s


def curve_point_table(p: int, g: int) -> dict:
    """curve_point_count for every target (a, b) at lam = g^a, keyed and
    zero-free like triple_rep_table, so the identity reads
    curve_point_table(p, g) == triple_rep_table(p, g). One _point_counts
    call per lam counts every b at once, with p (p - 1) int64 entries per
    temporary; p is checked once for every target."""
    p, _, powers = _ruzsa_group(p, g)
    root = _sqrt_table(p)
    counts = np.array([_point_counts(p, range(p), lam, root)
                       for lam in powers])
    a, b = np.nonzero(counts)
    return dict(zip(zip(a.tolist(), b.tolist()), counts[a, b].tolist()))


def triple_reps(p: int, g: int, a: int, b: int):
    """Iterator over the ordered triples (x1, x2, x3) in [0, p-1)^3 with
    exponent sum a mod p-1 and power sum b mod p, in lexicographic order.

    Fixing x1 leaves X = g^x2, Y = g^x3 with X + Y = d = b - g^x1 and
    XY = c = g^(a-x1): X is a root of X^2 - dX + c, found with a square-root
    table, and x2 = log X, smaller log first. O(p); checks run at the call,
    on p and g first.
    """
    p, _, pw = _ruzsa_group(p, g)
    return _triple_solver(p, pw)(*_ruzsa_target(p, a, b))


def _ruzsa_target(p: int, a, b) -> tuple[int, int]:
    """The target (a, b) read, and checked to lie in Z_(p-1) x Z_p."""
    a, b = _as_ints((a, b), "target (a, b)")
    if not (0 <= a < p - 1 and 0 <= b < p):
        raise RangeError("target (a, b) out of range")
    return a, b


def _triple_solver(p: int, pw: list[int]):
    """A generator function yielding the triples of `triple_reps` for an
    in-range target (a, b), from x1 = start on, given the power table pw
    of g; the log and square-root tables are built here, once for every
    target at (p, g)."""
    log = dict(zip(pw, range(p - 1)))
    root = _sqrt_table(p).tolist()
    n, half = p - 1, (p + 1) // 2

    def solve(a: int, b: int, start: int = 0):
        for x1 in range(start, n):
            d = (b - pw[x1]) % p
            s = root[(d * d - 4 * pw[(a - x1) % n]) % p]
            if s < 0:
                continue
            lo, hi = sorted((log[(d - s) * half % p], log[(d + s) * half % p]))
            yield x1, lo, (a - x1 - lo) % n
            if hi != lo:
                yield x1, hi, (a - x1 - hi) % n

    return solve


def triple_rep_count(p: int, g: int, a: int, b: int,
                     distinct: str = "none") -> int:
    """Ordered triples (x1, x2, x3) in [0, p-1)^3 with exponent sum a mod p-1
    and power sum b mod p. distinct="pairwise" requires x1, x2, x3 pairwise
    different."""
    if distinct not in ("none", "pairwise"):
        raise RangeError(f"unknown distinct flag {distinct!r}")
    return sum(distinct != "pairwise" or len(set(t)) == 3
               for t in triple_reps(p, g, a, b))


def triple_rep_table(p: int, g: int, distinct: str = "none") -> dict:
    """Counts for every target (a, b), read off the ordered 3-fold sum
    profile of the Ruzsa set (pairwise distinct for distinct="pairwise")
    at z = crt_flatten(a, b, p)."""
    p, _, powers = _ruzsa_group(p, g)
    profile = rep_profile(_flattened_graph(p, powers), 3,
                          modulus=(p - 1) * p, distinct=distinct)
    return {(z % (p - 1), z % p): n for z, n in profile.items()}


def repeated_coordinate_count(p: int, g: int, a: int, b: int) -> int:
    """Ordered solutions with x_i = x_j for some i != j; at most 9 per target."""
    return sum(len(set(t)) < 3 for t in triple_reps(p, g, a, b))


def special_rep4_count(p: int, g: int, a: int, b: int) -> int:
    """Pairwise-distinct triples hitting the shifted target (a, b-1) that use
    the exponent 0; these are the only 4-term decompositions through the
    fixed fourth part (0, 1) that break full distinctness. At most 6 per
    target: fixing x3 = 0 forces X + Y = b - 1, XY = g^a, a quadratic."""
    return sum(len(set(t)) == 3 and 0 in t
               for t in triple_reps(p, g, a, (b - 1) % p))


def hasse_gap(params: CurveParams) -> int:
    """curve_point_count - p; small by the Hasse bound."""
    return curve_point_count(params) - params.p


def hasse_slack(p: int) -> int:
    """Testing tolerance for |hasse_gap|: 2*ceil(sqrt(p)) + 4."""
    (p,) = _as_ints((p,), "p")
    r = isqrt(p)
    if r * r != p:
        r += 1
    return 2 * r + 4


def enumerate_quadric(params: QuadricParams) -> list[tuple[int, int]]:
    """All (x1, x2) in [0,p)^2 with x1^2 + x2^2 + (x1+x2-r1)^2 = r2 mod p.

    Solutions come out in lexicographic order; the set is symmetric under
    swapping x1 and x2. For fixed x1 the equation is quadratic in x2, so
    the search is O(p).
    """
    p, r1, r2 = params.p, params.r1, params.r2
    root = _sqrt_table(p).tolist()
    half = (p + 1) // 2
    points = []
    for x1 in range(p):
        # with e = x1 - r1 the equation reads (2 x2 + e)^2 = 2 r2 - e^2 - 2 x1^2
        e = x1 - r1
        s = root[(2 * r2 - e * e - 2 * x1 * x1) % p]
        if s >= 0:
            x2s = {(-e - s) * half % p, (-e + s) * half % p}
            points += [(x1, x2) for x2 in sorted(x2s)]
    return points


def torus_points(params: QuadricParams) -> tuple[tuple[Fraction, ...], ...]:
    """Every quadric solution (x1, x2), in enumerate_quadric's order, as the
    exact point (x1/p, x2/p, (x1^2 mod p)/p, (x2^2 mod p)/p) of [0,1)^4."""
    p = params.p
    return tuple((Fraction(x1, p), Fraction(x2, p), Fraction(x1 * x1 % p, p),
                  Fraction(x2 * x2 % p, p))
                 for x1, x2 in enumerate_quadric(params))


def dyadic_box_coverage(points, k: int) -> tuple[int, int]:
    """(empty, total) count of dyadic boxes of side 2^-k in [0,1)^4 for
    exact points such as torus_points makes.

    A box is the product of four dyadic intervals; a point lands in the box
    whose index is floor(coord * 2^k) on each axis (exact rational floor).
    """
    (k,) = _as_ints((k,), "k")
    if k < 0:
        raise RangeError(f"need k >= 0, got {k}")
    scale = 1 << k
    total = scale**4
    occupied = {tuple(c.numerator * scale // c.denominator for c in pt)
                for pt in points}
    return (total - len(occupied), total)
