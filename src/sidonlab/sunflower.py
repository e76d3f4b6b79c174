"""Classical sunflowers over uniform set families, and a vectorial variant.

A classical sunflower is k sets whose pairwise intersections all equal one
core. k vectors form a vectorial sunflower of type I when they agree on
every coordinate in I and, after deleting those coordinates, their
coordinate sets are pairwise disjoint (a disjoint set of vectors, d.s.v.).

The vectorial finder is one exact search, so "none" is always exact. It
returns the first certificate in this order:
  - types I by size, then by position (combinations of 1..h);
  - for each type, cores (the values on I) ascending;
  - within a core, the lexicographically first k-combination of its
    members (taken in lexicographic member order) whose coordinate sets
    off I are pairwise disjoint, found by backtracking.

Size guarantees, checked in tests through that search: a family of h-sets
larger than h!(k-1)^h always yields a classical sunflower (Erdos-Rado), and
a family of h-tuples larger than h!((h^2-h+1)k)^h always yields a
vectorial one.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations

from .numbertheory import RangeError, _as_family, _as_ints

__all__ = [
    "SunflowerCert",
    "is_vectorial_sunflower",
    "set_h_embed",
    "find_classical_sunflower",
    "find_vectorial_sunflower",
]


@dataclass(frozen=True)
class SunflowerCert:
    """Petals by member index, the type (1-indexed positions), core values."""

    petal_indices: tuple[int, ...]
    type_set: tuple[int, ...]
    core_values: tuple[int, ...]

    def verify(self, members) -> bool:
        """True when the petals are distinct in-range members, the type is
        strictly increasing within 1..h with one core value per position,
        and the petals form a vectorial sunflower with those core values."""
        members = _as_family(getattr(members, "members", members), "vectors")
        idxs, I = self.petal_indices, self.type_set
        if not idxs or len(set(idxs)) != len(idxs) \
                or not all(0 <= i < len(members) for i in idxs):
            return False
        petals = [members[i] for i in idxs]
        h = len(petals[0])
        if len(self.core_values) != len(I) or list(I) != sorted(set(I)) \
                or not all(1 <= i <= h for i in I):
            return False
        if any(p[pos - 1] != val for pos, val in zip(I, self.core_values)
               for p in petals):
            return False
        return is_vectorial_sunflower(petals, I)


def is_vectorial_sunflower(members, type_set) -> bool:
    """Both definition clauses for the given type: agreement on I, and the
    I-deleted vectors forming a d.s.v."""
    members = _as_family(members, "vectors")
    h = len(members[0]) if members else 0
    I = sorted(set(_as_ints(type_set, "type positions")))
    if I and not (1 <= I[0] and I[-1] <= h):
        raise RangeError("type positions must lie in 1..arity")
    if len(set(members)) != len(members):
        return False
    if any(len({t[i - 1] for t in members}) > 1 for i in I):
        return False
    drop = set(I)
    reduced = [tuple(v for pos, v in enumerate(t, 1) if pos not in drop)
               for t in members]
    if len(set(reduced)) != len(reduced):
        return False
    sets = [set(r) for r in reduced]
    return not any(a & b for a, b in combinations(sets, 2))


def set_h_embed(vector) -> frozenset[int]:
    """Position-tagged set {h*x_i + i}: injective, h elements, and the
    position is recoverable as value mod h (0 standing for h)."""
    t = _as_ints(vector, "coordinates")
    if any(v < 1 for v in t):
        raise RangeError("coordinates must be positive")
    return frozenset(len(t) * x + i for i, x in enumerate(t, 1))


def find_classical_sunflower(sets, k: int):
    """(core, k petal sets) with pairwise intersections exactly the core,
    or None; never None for families larger than h!(k-1)^h."""
    (k,) = _as_ints((k,), "k")
    if k < 1:
        raise RangeError("k must be >= 1")
    family = sorted({frozenset(s) for s in sets}, key=sorted)
    if not family:
        return None
    if len({len(s) for s in family}) > 1:
        raise RangeError("sets must share one size")
    return _classical(family, k)


def _classical(family, k):
    chosen, used = [], set()
    for s in family:
        if not (used & s):
            chosen.append(s)
            used.update(s)
    if len(chosen) >= k:
        return frozenset(), chosen[:k]
    counts = Counter(x for s in family for x in s)
    if not counts:
        return None
    # most popular element; ties go to the smallest value
    x = max(counts, key=lambda v: (counts[v], -v))
    reduced = sorted((s - {x} for s in family if x in s), key=sorted)
    got = _classical(reduced, k)
    if got is None:
        return None
    core, petals = got
    return core | {x}, [p | {x} for p in petals]


def _disjoint_index_pick(cands, k):
    """cands: list of (index, coordinate set); exact backtracking."""
    chosen = []

    def backtrack(start, used):
        if len(chosen) == k:
            return True
        for pos in range(start, len(cands)):
            idx, s = cands[pos]
            if used & s:
                continue
            chosen.append(idx)
            if backtrack(pos + 1, used | s):
                return True
            chosen.pop()
        return False

    return list(chosen) if backtrack(0, frozenset()) else None


def _complete_search(members, k):
    h = len(members[0])
    order = sorted(range(len(members)), key=lambda i: members[i])
    types = (I for size in range(h + 1)
             for I in combinations(range(1, h + 1), size))
    for I in types:
        drop = set(I)
        groups = defaultdict(list)
        for i in order:
            groups[tuple(members[i][p - 1] for p in I)].append(i)
        for key in sorted(groups):
            idxs = groups[key]
            if len(idxs) < k:
                continue
            cands = []
            for i in idxs:
                red = frozenset(v for pos, v in enumerate(members[i], 1)
                                if pos not in drop)
                cands.append((i, red))
            picked = _disjoint_index_pick(cands, k)
            if picked is None:
                continue
            cert = SunflowerCert(petal_indices=tuple(picked),
                                 type_set=I,
                                 core_values=key)
            if cert.verify(members):
                return cert
    return None


def find_vectorial_sunflower(family, k: int):
    """SunflowerCert or None, from the exact search in the order the module
    docstring gives; never None for families larger than h!((h^2-h+1)k)^h."""
    (k,) = _as_ints((k,), "k")
    if k < 1:
        raise RangeError("k must be >= 1")
    members = _as_family(getattr(family, "members", family), "vectors")
    if len(set(members)) != len(members):
        raise RangeError("family members must be distinct")
    return _complete_search(members, k) if members else None
