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
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import NamedTuple, Optional

from .numbertheory import RangeError
from .randommodel import _as_fraction

__all__ = [
    "UnsupportedKind",
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

_KINDS = ("Q", "R", "T", "B", "U2", "U3", "V2", "V3", "W", "CUSTOM")
_ARITY = {"Q": 3, "R": 4, "T": 8, "B": 7, "U2": 2, "U3": 3, "V2": 2,
          "V3": 3, "W": 5}


class UnsupportedKind(ValueError):
    """The family kind is unknown, or cannot be enumerated."""


def _coerce(A) -> tuple[int, ...]:
    xs = sorted(set(int(x) for x in getattr(A, "elements", A)))
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
        kind = str(self.kind).upper()
        if kind not in _KINDS:
            raise UnsupportedKind(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if self.modulus < 1:
            raise RangeError("modulus must be >= 1")
        needs_eps = kind in ("R", "B")
        if needs_eps:
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
        members = tuple(tuple(int(v) for v in t) for t in self.members)
        object.__setattr__(self, "members", members)
        if len(set(members)) != len(members):
            raise RangeError("family members must be distinct")
        arities = {len(t) for t in members}
        if len(arities) > 1:
            raise RangeError("family members must share one arity")
        want = _ARITY.get(self.spec.kind)
        if want is not None and arities and arities != {want}:
            raise RangeError(
                f"kind {self.spec.kind} has arity {want}, got {arities.pop()}")

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def arity(self) -> int:
        if self.members:
            return len(self.members[0])
        return _ARITY.get(self.spec.kind, 0)

    @property
    def convention(self) -> str:
        # Q/R members are canonical sorted sets; the rest are genuinely ordered
        return "unordered-sets" if self.spec.kind in ("Q", "R") else "ordered-tuples"

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, t):
        return tuple(t) in self._member_set

    def to_json_lines(self) -> str:
        meta = {"kind": self.spec.kind, "target": self.spec.target,
                "convention": self.convention}
        if self.spec.kind in ("Q", "T", "B"):
            meta["modulus"] = self.spec.modulus
        if self.spec.epsilon is not None:
            meta["epsilon"] = str(self.spec.epsilon)
        return "\n".join(
            json.dumps(dict(meta, tuple=list(t)), sort_keys=True)
            for t in self.members)


def _leq_power(x: int, n: int, eps: Fraction) -> bool:
    """x <= n^eps decided exactly: x^q <= n^p for eps = p/q."""
    return x ** eps.denominator <= n ** eps.numerator


def _ordered_pairs_by_sum(A):
    idx = defaultdict(list)
    for u in A:
        for v in A:
            idx[u + v].append((u, v))
    return idx


def _q_members(A, n, N):
    out = []
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
            if N > 1:
                r1, r2, r3 = x1 % N, x2 % N, x3 % N
                if r1 == r2 or r1 == r3 or r2 == r3:
                    continue
            out.append((x1, x2, x3))
    return out


def _r_members(A, n, eps):
    out = []
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
                    out.append((x1, x2, x3, x4))
    return out


def _t_members(A, n, N):
    idx = _ordered_pairs_by_sum(A)
    out = []
    for triple in _q_members(A, n, N):
        for x1, x2, x3 in permutations(triple):
            for x4 in A:
                pool = [(u, v) for (u, v) in idx[x1 + x4]
                        if (u - x1) % N == 0 and (v - x4) % N == 0]
                p14 = {x1, x4}
                for x5, x6 in pool:
                    if {x5, x6} == p14:
                        continue
                    p56 = {x5, x6}
                    for x7, x8 in pool:
                        if {x7, x8} == p56:
                            continue
                        out.append((x1, x2, x3, x4, x5, x6, x7, x8))
    return out


def _b_members(A, n, N, eps):
    idx = _ordered_pairs_by_sum(A)
    out = []
    for quad in _r_members(A, n, eps):
        for prefix in permutations(quad):
            x1 = prefix[0]
            for x5 in A:
                p15 = {x1, x5}
                for x6, x7 in idx[x1 + x5]:
                    if (x6 - x1) % N or (x7 - x5) % N:
                        continue
                    if {x6, x7} == p15:
                        continue
                    out.append(prefix + (x5, x6, x7))
    return out


def _u2_members(A, r):
    aset = set(A)
    return [(u, r - u) for u in A if r - u in aset and r - u != u]


def _v2_members(A, r):
    aset = set(A)
    return [(v + r, v) for v in A if v + r in aset and r != 0]


def _u3_members(A, r):
    aset = set(A)
    out = []
    for x1 in A:
        for x2 in A:
            x3 = r - x1 - x2
            if x3 in aset and x1 != x2 and x1 != x3 and x2 != x3:
                out.append((x1, x2, x3))
    return out


def _v3_members(A, r):
    aset = set(A)
    out = []
    for x1 in A:
        for x2 in A:
            x3 = x1 + x2 - r
            if x3 in aset and x1 != x2 and x1 != x3 and x2 != x3:
                out.append((x1, x2, x3))
    return out


def _w_members(A, r):
    idx = _ordered_pairs_by_sum(A)
    out = []
    for x4 in A:
        pool = idx[r + x4]
        for x5, x6 in pool:
            for x7, x8 in pool:
                if len({x4, x5, x6, x7, x8}) == 5:
                    out.append((x4, x5, x6, x7, x8))
    return out


def enumerate_family(A, spec: FamilySpec) -> VectorFamily:
    """All tuples over A meeting the spec's defining conditions; Q/R come
    out as sorted sets, everything else as ordered tuples."""
    A = _coerce(A)
    kind, n = spec.kind, spec.target
    if kind == "Q":
        members = _q_members(A, n, spec.modulus)
    elif kind == "R":
        members = _r_members(A, n, spec.epsilon)
    elif kind == "T":
        members = _t_members(A, n, spec.modulus)
    elif kind == "B":
        members = _b_members(A, n, spec.modulus, spec.epsilon)
    elif kind == "U2":
        members = _u2_members(A, n)
    elif kind == "V2":
        members = _v2_members(A, n)
    elif kind == "U3":
        members = _u3_members(A, n)
    elif kind == "V3":
        members = _v3_members(A, n)
    elif kind == "W":
        members = _w_members(A, n)
    else:
        raise UnsupportedKind(f"kind {kind} cannot be enumerated")
    return VectorFamily(spec=spec, members=tuple(members))


def _pair_sets_by_sum(A):
    idx = defaultdict(set)
    for i, u in enumerate(A):
        for v in A[i:]:
            idx[u + v].add(frozenset((u, v)))
    return idx


def _pair_tuple(fs) -> tuple[int, int]:
    vals = sorted(fs)
    return (vals[0], vals[-1])  # {v} stands for the doubled pair (v, v)


def sidon_removals(A) -> dict[int, tuple[int, int, int]]:
    """Element -> witness (a', a'', a''') with a + a' = a'' + a''' and
    {a, a'} != {a'', a'''}; presence means the Sidon lift removes it."""
    A = _coerce(A)
    idx = _pair_sets_by_sum(A)
    out = {}
    for a in A:
        for a2 in A:
            rivals = idx[a + a2] - {frozenset((a, a2))}
            if rivals:
                a3, a4 = _pair_tuple(min(rivals, key=sorted))
                out[a] = (a2, a3, a4)
                break
    return out


def b22_removals(A) -> dict[int, tuple[int, int, int, int, int]]:
    """Element -> witness (a2..a6) with a1+a2 = a3+a4 = a5+a6 and the three
    pairs pairwise distinct; presence means the B2[2] lift removes it."""
    A = _coerce(A)
    idx = _pair_sets_by_sum(A)
    out = {}
    for a1 in A:
        for a2 in A:
            rivals = sorted(idx[a1 + a2] - {frozenset((a1, a2))}, key=sorted)
            if len(rivals) >= 2:
                a3, a4 = _pair_tuple(rivals[0])
                a5, a6 = _pair_tuple(rivals[1])
                out[a1] = (a2, a3, a4, a5, a6)
                break
    return out


def sidon_lift(A) -> tuple[int, ...]:
    """Single pass against the original sequence; the result is Sidon, so
    a second pass removes nothing."""
    A = _coerce(A)
    removed = sidon_removals(A)
    return tuple(x for x in A if x not in removed)


def b2_2_lift(A) -> tuple[int, ...]:
    """Single pass; survivors never share one pair sum three times over."""
    A = _coerce(A)
    removed = b22_removals(A)
    return tuple(x for x in A if x not in removed)


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

    mode "b22": Q against T with the B2[2] lift. mode "sidon": R against
    B with the Sidon lift (epsilon required). Representation counts are
    unordered-set counts; obstruction counts are ordered-tuple counts.
    """
    A = _coerce(A)
    if mode == "b22":
        fam = FamilySpec("Q", n, modulus=N)
        obs = FamilySpec("T", n, modulus=N)
        lifted = b2_2_lift(A)
    elif mode == "sidon":
        fam = FamilySpec("R", n, epsilon=epsilon)
        obs = FamilySpec("B", n, modulus=N, epsilon=epsilon)
        lifted = sidon_lift(A)
    else:
        raise UnsupportedKind(f"unknown audit mode {mode!r}")
    q_before = len(enumerate_family(A, fam))
    q_after = len(enumerate_family(lifted, fam))
    t_count = len(enumerate_family(A, obs))
    return AuditResult(q_before, q_after, t_count,
                       q_after >= q_before - t_count)

