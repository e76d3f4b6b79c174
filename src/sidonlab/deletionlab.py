"""Representation families over integer sequences, and deletion processes
that trim a sequence down to Sidon or B2[2] while provably sparing most
representations.

Families (members drawn coordinate-wise from a finite sequence A):

* Q: unordered triples summing to a target, coordinates in pairwise
  distinct residue classes mod N (a modulus of 1 waives the residue
  condition and asks only for three distinct integers).
* R: unordered quadruples summing to a target whose minimum is at most
  target^epsilon, the threshold compared through exact integer powers.
* T: ordered 8-tuples: a Q-triple up front, then x1+x4 = x5+x6 = x7+x8
  with {x1,x4} != {x5,x6} != {x7,x8} and the congruences x1 = x5 = x7,
  x4 = x6 = x8 mod N.
* B: ordered 7-tuples: an R-quadruple up front, then x1+x5 = x6+x7 with
  {x1,x5} != {x6,x7}, x1 = x6 and x5 = x7 mod N.
* U2/V2 (pairs), U3/V3 (triples), W (5-tuples): ordered, pairwise
  distinct coordinates, tied to the target r by x1+x2 = r, x1-x2 = r,
  x1+x2+x3 = r, x1+x2-x3 = r, and x5+x6-x4 = x7+x8-x4 = r respectively.

The two deletion processes are single passes whose removal decisions
reference only the original sequence: the Sidon lift removes a when some
a' completes a pair sum that another pair {a'',a'''} also attains; the
B2[2] lift removes a1 when a pair sum through a1 is attained by three
pairwise distinct pairs. T (resp. B) then overcounts the Q-members
(resp. R-members) the lift can destroy, which is the audited inequality
|Q_n(lifted)| >= |Q_n(A)| - |T_n(A)|.

A public entry reads its sequence once (`_coerce`, into a sorted tuple of
distinct positive ints); everything below takes that tuple as it is.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import permutations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .numbertheory import (RangeError, _as_family, _as_fraction, _as_ints,
                           _int_fields)

__all__ = [
    "FamilySpec",
    "VectorFamily",
    "enumerate_family",
    "sidon_removals",
    "sidon_lift",
    "b22_removals",
    "b2_2_lift",
    "AuditResult",
    "destruction_audit",
]

_BITMAP_LIMIT = 1 << 24     # entries of `_q_count`'s pair-sum bitmap
_BLOCK_PAIRS = 1 << 16      # pair sums per block of `_q_count`


def _coerce(A) -> tuple[int, ...]:
    xs = sorted(set(_as_ints(getattr(A, "elements", A), "sequence elements")))
    if xs and xs[0] < 1:
        raise RangeError("sequence elements must be positive integers")
    return tuple(xs)


@dataclass(frozen=True)
class FamilySpec:
    """Which family, at which target, under which modulus/threshold."""

    kind: str
    target: int
    modulus: int = 1
    epsilon: Optional[Fraction] = None

    def __post_init__(self):
        kind, family = _family(self.kind)
        object.__setattr__(self, "kind", kind)
        _int_fields(self, "target", "modulus")
        if self.modulus < 1:
            raise RangeError("modulus must be >= 1")
        if self.modulus != 1 and not family.modulus:
            raise RangeError(f"kind {kind} does not take a modulus")
        if family.epsilon:
            if self.epsilon is None:
                raise RangeError(f"kind {kind} requires epsilon")
            eps = _as_fraction(self.epsilon)
            if not 0 < eps < 1:
                raise RangeError("epsilon must satisfy 0 < epsilon < 1")
            object.__setattr__(self, "epsilon", eps)
        elif self.epsilon is not None:
            raise RangeError(f"kind {kind} does not take epsilon")


@dataclass(frozen=True)
class VectorFamily:
    """Distinct same-arity integer tuples plus the spec that produced them."""

    spec: FamilySpec
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        members = _as_family(self.members, "family members")
        object.__setattr__(self, "members", members)
        if len(set(members)) != len(members):
            raise RangeError("family members must be distinct")
        if members and len(members[0]) != self.arity:
            raise RangeError(f"kind {self.spec.kind} has arity {self.arity}, "
                             f"got {len(members[0])}")

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def arity(self) -> int:
        return _FAMILIES[self.spec.kind].arity

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, t):
        return tuple(t) in self._member_set


def _leq_power(x: int, n: int, eps: Fraction) -> bool:
    """x <= n^eps decided exactly: x^q <= n^p for eps = p/q."""
    return x ** eps.denominator <= n ** eps.numerator


def _ordered_pairs_by_sum(A):
    idx = defaultdict(list)
    for u in A:
        for v in A:
            idx[u + v].append((u, v))
    return idx


def _q_members(A, spec):
    n, N = spec.target, spec.modulus
    aset = set(A)
    for i, x1 in enumerate(A):
        if 3 * x1 >= n:
            break
        for x2 in A[i + 1:]:
            x3 = n - x1 - x2
            if x3 <= x2:
                break
            if x3 not in aset:
                continue
            if N > 1 and len({x1 % N, x2 % N, x3 % N}) < 3:
                continue
            yield (x1, x2, x3)


def _r_members(A, spec):
    n, eps = spec.target, spec.epsilon
    aset = set(A)
    for i, x1 in enumerate(A):
        if not _leq_power(x1, n, eps):
            break
        for j in range(i + 1, len(A)):
            x2 = A[j]
            for k in range(j + 1, len(A)):
                x3 = A[k]
                x4 = n - x1 - x2 - x3
                if x4 <= x3:
                    break
                if x4 in aset:
                    yield (x1, x2, x3, x4)


def _t_members(A, spec):
    N = spec.modulus
    idx = _ordered_pairs_by_sum(A)

    @cache
    def tails(x1, x4):
        """Every (x5, x6, x7, x8) that completes a T-member from x1, x4."""
        pool = [(u, v) for (u, v) in idx[x1 + x4]
                if (u - x1) % N == 0 and (v - x4) % N == 0]
        p14 = {x1, x4}
        return [(x5, x6, x7, x8) for x5, x6 in pool if {x5, x6} != p14
                for x7, x8 in pool if {x7, x8} != {x5, x6}]

    for triple in _q_members(A, spec):
        for x1, x2, x3 in permutations(triple):
            for x4 in A:
                yield from map((x1, x2, x3, x4).__add__, tails(x1, x4))


def _b_members(A, spec):
    N = spec.modulus
    idx = _ordered_pairs_by_sum(A)
    for quad in _r_members(A, spec):
        for prefix in permutations(quad):
            x1 = prefix[0]
            for x5 in A:
                p15 = {x1, x5}
                for x6, x7 in idx[x1 + x5]:
                    if not ((x6 - x1) % N or (x7 - x5) % N or {x6, x7} == p15):
                        yield prefix + (x5, x6, x7)


def _u2_members(A, spec):
    r, aset = spec.target, set(A)
    return ((u, r - u) for u in A if r - u in aset and r - u != u)


def _v2_members(A, spec):
    r, aset = spec.target, set(A)
    return ((v + r, v) for v in A if v + r in aset and r != 0)


def _triple_members(A, spec, sign):
    """U3 (sign 1, x1 + x2 + x3 = r) and V3 (sign -1, x1 + x2 - x3 = r)."""
    r, aset = spec.target, set(A)
    for x1 in A:
        for x2 in A:
            x3 = sign * (r - x1 - x2)
            if x3 in aset and x1 != x2 and x1 != x3 and x2 != x3:
                yield (x1, x2, x3)


def _w_members(A, spec):
    r = spec.target
    idx = _ordered_pairs_by_sum(A)
    for x4 in A:
        pool = idx[r + x4]
        for x5, x6 in pool:
            for x7, x8 in pool:
                if len({x4, x5, x6, x7, x8}) == 5:
                    yield (x4, x5, x6, x7, x8)


def _q_count(A, spec) -> int:
    """The number of Q members of the sorted A, from pair sums.

    Of the ordered triples of A with sum n, take all of them (T), less
    those with x1 congruent to x2 (C; x1, x3 and x2, x3 give C as well),
    plus twice those with all three congruent (D; any two congruences
    imply the third). That counts every triple of pairwise incongruent
    coordinates once, so every member six times: |Q| = (T - 3C + 2D) / 6.
    Congruent means mod N, or equal when N is 1. Members stop at n - 3,
    so A does too; each pair sum x1 + x2 is then looked up in a bitmap of
    n - A, a block of rows at a time so that memory stays bounded. A set
    whose bitmap would pass _BITMAP_LIMIT entries counts the builder's
    stream instead."""
    n, N = spec.target, spec.modulus
    A = A[:bisect_right(A, n - 3)]
    if len(A) < 3 or 3 * A[-1] < n:
        return 0
    top = 2 * A[-1]
    if top >= _BITMAP_LIMIT:
        return sum(1 for _ in _q_members(A, spec))
    a = np.array(A, dtype=np.int64)
    third = n - a
    hit = np.zeros(top + 1, dtype=bool)             # hit[u]: n - u in A
    hit[third[third <= top]] = True
    r = a % N
    t = c = d = 0
    step = max(1, _BLOCK_PAIRS // len(a))
    for lo in range(0, len(a), step):
        rows = slice(lo, lo + step)
        g = hit[a[rows, None] + a]
        t += np.count_nonzero(g)
        if N > 1:
            g &= r[rows, None] == r
            c += np.count_nonzero(g)
            d += np.count_nonzero(g[(3 * r[rows] - n) % N == 0])
    if N == 1:
        c = np.count_nonzero(hit[2 * a])
        d = n % 3 == 0 and n // 3 in A
    return int(t - 3 * c + 2 * d) // 6


class _Family(NamedTuple):
    arity: int
    build: Callable  # (sorted elements, spec) -> stream of member tuples
    count: Optional[Callable] = None  # counts without building, if given
    modulus: bool = False  # reads the modulus; other kinds take only 1
    epsilon: bool = False  # requires epsilon; other kinds take none


# the one table of family kinds, in the order the CLI offers them; Q/R
# members are canonical sorted sets, the rest are genuinely ordered
_FAMILIES = {
    "Q": _Family(3, _q_members, _q_count, modulus=True),
    "R": _Family(4, _r_members, epsilon=True),
    "T": _Family(8, _t_members, modulus=True),
    "B": _Family(7, _b_members, modulus=True, epsilon=True),
    "U2": _Family(2, _u2_members),
    "U3": _Family(3, partial(_triple_members, sign=1)),
    "V2": _Family(2, _v2_members),
    "V3": _Family(3, partial(_triple_members, sign=-1)),
    "W": _Family(5, _w_members),
}


def _family(kind) -> tuple[str, _Family]:
    """The kind upper-cased and its row of _FAMILIES."""
    key = str(kind).upper()
    if key not in _FAMILIES:
        raise RangeError(f"unknown family kind {kind!r}")
    return key, _FAMILIES[key]


def _family_size(A: tuple[int, ...], spec: FamilySpec) -> int:
    """len(enumerate_family(A, spec)) for A as `_coerce` makes it, the one
    place the audits and Monte Carlo count a family: by the kind's counter
    where it has one (Q, from pair sums), else by counting its builder's
    stream, whose members are neither kept nor validated."""
    family = _FAMILIES[spec.kind]
    if family.count:
        return family.count(A, spec)
    return sum(1 for _ in family.build(A, spec))


def enumerate_family(A, spec: FamilySpec) -> VectorFamily:
    """All tuples over A meeting the spec's defining conditions, in the
    order the kind's builder yields them; Q/R come out as sorted sets,
    everything else as ordered tuples."""
    members = tuple(_FAMILIES[spec.kind].build(_coerce(A), spec))
    return VectorFamily(spec=spec, members=members)


def _pair_sets_by_sum(A):
    idx = defaultdict(set)
    for i, u in enumerate(A):
        for v in A[i:]:
            idx[u + v].add(frozenset((u, v)))
    return idx


def _pair_tuple(fs) -> tuple[int, int]:
    vals = sorted(fs)
    return (vals[0], vals[-1])  # {v} stands for the doubled pair (v, v)


def _removals(A, limit: int) -> dict[int, tuple[int, ...]]:
    """Element a of the sorted A -> (a2, then limit - 1 rival pairs) for the
    first a2 whose sum a + a2 has at least limit - 1 unordered pairs other
    than {a, a2}, the rivals smallest first. Limit 2 is the Sidon lift's
    rule, limit 3 the B2[2] lift's."""
    idx = _pair_sets_by_sum(A)
    out = {}
    for a in A:
        for a2 in A:
            rivals = idx[a + a2] - {frozenset((a, a2))}
            if len(rivals) >= limit - 1:
                first = sorted(rivals, key=sorted)[:limit - 1]
                out[a] = (a2,) + tuple(v for p in first for v in _pair_tuple(p))
                break
    return out


def _lift(A: tuple[int, ...], limit: int) -> tuple[int, ...]:
    removed = _removals(A, limit)
    return tuple(x for x in A if x not in removed)


def sidon_removals(A) -> dict[int, tuple[int, int, int]]:
    """Element -> witness (a', a'', a''') with a + a' = a'' + a''' and
    {a, a'} != {a'', a'''}; presence means the Sidon lift removes it."""
    return _removals(_coerce(A), 2)


def b22_removals(A) -> dict[int, tuple[int, int, int, int, int]]:
    """Element -> witness (a2..a6) with a1+a2 = a3+a4 = a5+a6 and the three
    pairs pairwise distinct; presence means the B2[2] lift removes it."""
    return _removals(_coerce(A), 3)


def sidon_lift(A) -> tuple[int, ...]:
    """Single pass against the original sequence; the result is Sidon, so
    a second pass removes nothing."""
    return _lift(_coerce(A), 2)


def b2_2_lift(A) -> tuple[int, ...]:
    """Single pass; survivors never share one pair sum three times over."""
    return _lift(_coerce(A), 3)


class AuditResult(NamedTuple):
    q_before: int
    q_after: int
    obstructions: int
    holds: bool


def destruction_audit(A, n: int, N: int = 1, mode: str = "b22",
                      epsilon=None) -> AuditResult:
    """Count target representations before and after the lift, count the
    obstruction family on the original sequence, and check that the drop
    never exceeds the obstruction count.

    mode "b22": Q against T with the B2[2] lift (no epsilon). mode "sidon":
    R against B with the Sidon lift (epsilon required). Representation
    counts are unordered-set counts; obstruction counts are ordered-tuple
    counts.
    """
    A = _coerce(A)
    if mode == "b22":
        if epsilon is not None:
            raise RangeError("mode b22 does not take epsilon")
        fam = FamilySpec("Q", n, modulus=N)
        obs = FamilySpec("T", n, modulus=N)
        limit = 3
    elif mode == "sidon":
        fam = FamilySpec("R", n, epsilon=epsilon)
        obs = FamilySpec("B", n, modulus=N, epsilon=epsilon)
        limit = 2
    else:
        raise RangeError(f"unknown audit mode {mode!r}")
    q_before = _family_size(A, fam)
    q_after = _family_size(_lift(A, limit), fam)
    t_count = _family_size(A, obs)
    return AuditResult(q_before, q_after, t_count,
                       q_after >= q_before - t_count)
