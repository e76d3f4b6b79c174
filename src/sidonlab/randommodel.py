"""Random sparse sequences with power-law inclusion, restricted to residues.

The model: x is a candidate only when x > m and x mod N lies in a chosen
residue set S; each candidate joins the sequence independently with
probability x^(-gamma). Draws are counter-based rather than stateful: the
uniform for (seed, x) is the splitmix64 finalizer applied to
seed + x * golden, so membership of x can be decided in isolation, any
subrange can be resampled without replaying a generator, and restricting S
provably filters a fuller sample rather than reshuffling it.

Candidates are streamed, never sized by the horizon: `_blocks` yields the
admissible x in ascending order as k N + r, a run of k at a time against
the sorted residues, in blocks of about _BLOCK candidates, so a sample or
a moment sum holds O(_BLOCK + output) memory at any horizon.

The accept rule u < x^(-gamma), with u = k 2^-53, is decided exactly.
The float threshold t = fl(x^(-fl(gamma))) is trusted only outside the
proved margin `_margin` around it, which assumes that `np.power` is within
4 ulps of the exact power of its float arguments. Each block turns the
margin into two integer thresholds per candidate, once, so the per-draw
decision takes no float: a word k below the lower one is kept, one above
the upper one dropped, and one between them decided in integers, k^q x^p <
2^(53 q) for gamma = p/q, or for large q from the sign of q ln k + p ln x -
53 q ln 2 in correctly rounded `decimal` logarithms. So a seeded sample
does not depend on the platform's `pow`.

The rule has one implementation, `_accept` on a block of candidates for
any number of seeds; `sample_sequence` and `contains` pass one seed, and
`contains` a block of one. The tests pin it bit for bit to an independent
scalar oracle in `tests/brute_scans.py`: the splitmix64 finalizer in Python
integers and the exact rule with no float comparison.

Each input has one reader: `SampleConfig` reads gamma and the integer
fields, `_blocks` a horizon and `_accept` each candidate's 53-bit word.
The probability x^(-gamma) has one expression, `_power`: a sample's
thresholds, `inclusion_probability` and every moment agree bit for bit.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Union

import numpy as np

from .numbertheory import RangeError, _as_fraction, _as_ints, _int_fields
from .sidoncore import ModSet

__all__ = [
    "SampleConfig",
    "IntSeq",
    "inclusion_probability",
    "contains",
    "sample_sequence",
    "expected_count",
    "count_variance",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_BLOCK = 1 << 16          # candidates per streamed block
_EXACT_BITS = 1 << 12     # past this size of k^q x^p, compare logarithms

GammaLike = Union[Fraction, str, int, tuple]


@dataclass(frozen=True)
class SampleConfig:
    """Full description of one random sequence: model parameters plus seed."""

    gamma: Fraction
    m: int
    modulus: int
    residues: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _as_fraction(self.gamma))
        _int_fields(self, "m", "modulus", "seed")
        residues = sorted(set(_as_ints(self.residues, "residues")))
        object.__setattr__(self, "residues", tuple(residues))
        if self.gamma <= 0:
            raise RangeError("gamma must be positive")
        if self.m < 0:
            raise RangeError("m must be nonnegative")
        if self.modulus < 1:
            raise RangeError("modulus must be >= 1")
        if not self.residues:
            raise RangeError("residue set must be nonempty")
        if not all(0 <= r < self.modulus for r in self.residues):
            raise RangeError("residues must lie in [0, modulus)")
        if not (0 <= self.seed <= _MASK):
            raise RangeError("seed must fit in 64 bits")

    @classmethod
    def from_modset(cls, modset: ModSet, gamma: GammaLike, m: int,
                    seed: int = 0) -> "SampleConfig":
        return cls(gamma=gamma, m=m, modulus=modset.modulus,
                   residues=tuple(modset.elements), seed=seed)


def _power(xs, gamma: Fraction) -> np.ndarray:
    """fl(x^-fl(gamma)) for each x of xs, by `np.power` on float64."""
    return np.power(np.asarray(xs, dtype=np.float64), -float(gamma))


def inclusion_probability(config: SampleConfig, x: int) -> float:
    (x,) = _as_ints((x,), "x")
    if x <= config.m or x % config.modulus not in config.residues:
        return 0.0
    return float(_power([x], config.gamma)[0])


def _margin(t, x, gamma: float):
    """Half-width of the band around t = fl(x^-fl(gamma)) outside which
    the float comparison u < t is proved to equal u < x^-gamma; x may be
    any bound at least as large as the candidates t was computed for.

    With unit roundoff u0 = 2^-53: fl(gamma) and fl(x) move x^-gamma by a
    factor exp(+-s), s = u0 gamma (ln x + 2), and `pow` within 4 ulps
    adds a factor 1 +- 8 u0, so t = x^-gamma (1 + e) with |e| <= rho =
    exp(s)(1 + 8 u0) - 1 <= 2 s + 9 u0 while s <= 1/2 (gamma below about
    10^14). Then x^-gamma lies in [t (1 - rho), t (1 + 2 rho)], so the
    comparison is safe once |u - t| > 2 rho t; the factor below is twice
    that, which absorbs the rounding of the band's own arithmetic: `_accept`
    takes t - margin and t + margin in floats and scales them by 2^53
    (exact); flooring them to integers only widens the band, as k < floor(v)
    implies k < v and k <= floor(v) is k <= v. The absolute term covers
    subnormal t, where `pow` is only 4 ulps of 2^-1074 off."""
    return t * (2.0 ** -47 + 2.0 ** -50 * gamma * (2.0 + math.log(x))) \
        + 2.0 ** -1000


def _exact_accept(k: int, x: int, gamma: Fraction) -> bool:
    """u < x^-gamma for u = k 2^-53 and gamma = p/q, exactly: k^q x^p <
    2^(53 q). Equality needs k and x powers of two; past that case the
    sign of D = q ln k + p ln x - 53 q ln 2 decides. `Decimal.ln` is
    correctly rounded, so at `digits` significant digits ln v (0 or > 1/10)
    times 10^digits is an integer within 5 ln v <= 4 log2 v of exact, D' from
    them within 4 (q bitlen k + p bitlen x + 53 q) of 10^digits D; past
    that D' has D's sign, and doubling `digits` gets there as D != 0."""
    p, q = gamma.numerator, gamma.denominator
    if k == 0:
        return True
    if 53 * q + p * x.bit_length() <= _EXACT_BITS:
        return k ** q * x ** p < 1 << (53 * q)
    if k & (k - 1) == 0 and x & (x - 1) == 0:
        return q * (k.bit_length() - 1) + p * (x.bit_length() - 1) < 53 * q
    digits = 40
    while True:
        ctx = decimal.Context(prec=digits)
        lk, lx, l2 = (int(ctx.scaleb(ctx.ln(v), digits)) for v in (k, x, 2))
        d = q * lk + p * lx - 53 * q * l2
        if abs(d) > 4 * (q * k.bit_length() + p * x.bit_length() + 53 * q):
            return d < 0
        digits *= 2


def contains(config: SampleConfig, x: int) -> bool:
    """Membership of x, decided by `_accept` on a one-candidate block, the
    rule `sample_sequence` applies."""
    (x,) = _as_ints((x,), "x")
    if x >= 1 << 64:
        raise RangeError("x must be below 2^64")
    if x <= config.m or x % config.modulus not in config.residues:
        return False
    xs = np.array([x], dtype=np.uint64)
    return bool(_accept(config.gamma, (config.seed,), xs,
                        _power(xs, config.gamma))[0][0])


def _words(seeds, xg: np.ndarray, z, tmp) -> np.ndarray:
    """The 53-bit word k of each (seed, x), whose uniform is k 2^-53, from
    xg = x * golden mod 2^64: the top 53 bits of the splitmix64 finalizer
    of seed + x * golden, made in place in z, with tmp as scratch of the
    same shape; seeds is one seed or a column of them, a row of z each."""
    np.add(xg, seeds, out=z)
    z ^= np.right_shift(z, 30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, 27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, 31, out=tmp)
    return np.right_shift(z, 11, out=z)


def _blocks(config: SampleConfig, horizon: int):
    """(x, q): the admissible x in (m, horizon], ascending, with their
    inclusion probabilities, as nonempty blocks of about _BLOCK candidates.
    x = k N + r for a run of k against every residue r; only the first and
    last blocks are clipped to the range. The one reader of a horizon."""
    (horizon,) = _as_ints((horizon,), "horizon")
    if horizon < 0:
        raise RangeError("horizon must be nonnegative")
    if horizon >> 64:
        raise RangeError("horizon must be below 2^64")
    n, m = config.modulus, config.m
    res = np.asarray(config.residues, dtype=np.uint64)
    first, last = (m + 1) // n, horizon // n
    rows = max(1, _BLOCK // len(res))
    for k0 in range(first, last + 1, rows):
        k1 = min(k0 + rows, last + 1)
        xs = (np.arange(k0, k1, dtype=np.uint64)[:, None] * np.uint64(n)
              + res).ravel()
        if k0 == first or k1 == last + 1:
            xs = xs[(xs > np.uint64(m)) & (xs <= np.uint64(horizon))]
        if len(xs):
            yield xs, _power(xs, config.gamma)


def _accept(gamma: Fraction, seeds, xs: np.ndarray,
            t: np.ndarray) -> list[np.ndarray]:
    """The accept masks of a block with thresholds t = fl(x^-gamma), one
    per seed. The band of words k whose float comparison k 2^-53 < t the
    margin leaves open becomes, once for the block, the integer range
    [lo, hi]: a word below lo is kept, one above hi dropped, and one in the
    range decided exactly. Every word lies in [0, 2^53), so both ends are
    clamped to [0, 2^53] before the cast floors them to integers. The
    seeds go through in rows of about _BLOCK words, whose buffers serve
    as the band's float scratch first, so a block touches little fresh
    memory and a short block pays few NumPy calls per seed."""
    rows = max(1, min(len(seeds), _BLOCK // len(xs)))
    z, tmp = np.empty((2, rows, len(xs)), dtype=np.uint64)
    band, f = np.empty((2, len(xs)), dtype=np.int64), tmp[0].view(np.float64)
    margin = _margin(t, int(xs[-1]), float(gamma))
    np.maximum(np.subtract(t, margin, out=f), 0.0, out=f)
    np.multiply(f, 2.0 ** 53, out=band[0], casting="unsafe")
    np.minimum(np.add(t, margin, out=f), 1.0, out=f)
    np.multiply(f, 2.0 ** 53, out=band[1], casting="unsafe")
    del margin
    lo, hi = band.view(np.uint64)
    xg = xs * np.uint64(_GOLDEN)  # the seed-independent half, made once
    masks = []
    for j in range(0, len(seeds), rows):
        column = np.array(seeds[j:j + rows], dtype=np.uint64)[:, None]
        k = _words(column, xg, z[:len(column)], tmp[:len(column)])
        keep, below = k < lo, k <= hi
        if np.count_nonzero(below) > np.count_nonzero(keep):
            for r, i in zip(*np.nonzero(below ^ keep)):
                keep[r, i] = _exact_accept(int(k[r, i]), int(xs[i]), gamma)
        masks += list(keep)
    return masks


def sample_sequence(config: SampleConfig, horizon: int) -> "IntSeq":
    """All sampled elements in [1, horizon], vectorized."""
    kept = [xs[_accept(config.gamma, (config.seed,), xs, t)[0]]
            for xs, t in _blocks(config, horizon)]
    elements = tuple(np.concatenate(kept).tolist()) if kept else ()
    return IntSeq(elements=elements, config=config, horizon=horizon)


def expected_count(config: SampleConfig, horizon: int) -> float:
    """Exact E|A intersect [1, horizon]| = sum of inclusion probabilities."""
    return math.fsum(float(q.sum()) for _, q in _blocks(config, horizon))


def count_variance(config: SampleConfig, horizon: int) -> float:
    """Sum of q(1-q) over admissible x: exact variance of the count."""
    return math.fsum(float((q * (1.0 - q)).sum())
                     for _, q in _blocks(config, horizon))


@dataclass(frozen=True)
class IntSeq:
    """A sampled sequence with its provenance: the config and horizon that
    `verify` resamples."""

    elements: tuple[int, ...]
    config: SampleConfig
    horizon: int

    def __post_init__(self):
        _int_fields(self, "horizon")
        if not (type(self.elements) is tuple
                and set(map(type, self.elements)) <= {int}):
            object.__setattr__(self, "elements", tuple(
                _as_ints(self.elements, "sequence elements")))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, x):
        return x in self._members

    def as_set(self) -> set[int]:
        return set(self.elements)

    def verify(self) -> bool:
        """Resample from the stored config and compare element for element."""
        return sample_sequence(self.config, self.horizon).elements == self.elements
