"""Sidon set constructions and exact representation counting over Z_N and Z.

A set A is Sidon when all pairwise sums a + a' (a <= a') are distinct, and
B_2[g] when no value has more than g such representations. The two classical
dense constructions are provided: the Erdos-Turan set

    {x + (x^2 mod p) * 2p : 0 <= x < p}   inside Z_{2p^2},

and the Ruzsa set, the graph {(x, g^x)} of the discrete exponential flattened
through the CRT isomorphism Z_{p-1} x Z_p = Z_{(p-1)p}.

Representation counts are exact integers, and the convention picks the one
way they are made: cyclic, ordered counts with no distinctness constraint
come from an integer convolution, every other convention from enumerating
the tuples.

Pair sums a + a' (a <= a') have one index, `_pair_sums`: every such sum,
sorted stably, so that equal sums form runs in scan order. `is_sidon`
reads its witness off the first repeated run and `b2g_bound` is the
longest run.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from .numbertheory import RangeError, crt_flatten, is_prime, power_table, primitive_root

__all__ = [
    "NotOddPrime",
    "ModSet",
    "SidonWitness",
    "RepProfile",
    "erdos_turan_set",
    "ruzsa_set",
    "is_sidon",
    "b2g_bound",
    "rep_profile",
    "convolution_profile_array",
    "basis_order_check",
]


class NotOddPrime(ValueError):
    """Argument must be an odd prime."""


@dataclass(frozen=True)
class ModSet:
    """A subset of Z_N: a modulus and a sorted tuple of distinct residues."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise RangeError(f"modulus must be >= 1, got {self.modulus}")
        elems = tuple(sorted(int(e) for e in self.elements))
        if any(not (0 <= e < self.modulus) for e in elems):
            raise RangeError("elements must lie in [0, modulus)")
        if len(set(elems)) != len(elems):
            raise RangeError("elements must be distinct")
        object.__setattr__(self, "elements", elems)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, x):
        return x in self._members

    def to_json(self) -> str:
        return json.dumps(
            {"modulus": self.modulus, "elements": list(self.elements)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModSet":
        obj = json.loads(text)
        return cls(modulus=int(obj["modulus"]), elements=tuple(obj["elements"]))

    def to_text(self) -> str:
        lines = [f"mod {self.modulus}"]
        lines += [str(e) for e in self.elements]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModSet":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("mod "):
            raise RangeError("expected first line 'mod N'")
        modulus = int(lines[0][4:])
        return cls(modulus=modulus, elements=tuple(int(ln) for ln in lines[1:]))


@dataclass(frozen=True)
class SidonWitness:
    """Verdict of a Sidon check; on failure, a colliding sum quadruple.

    collision = (a, a2, a3, a4) with a + a2 = a3 + a4 (in the checked
    group) and {a, a2} != {a3, a4} as multisets.
    """

    is_sidon: bool
    collision: Optional[tuple[int, int, int, int]] = None

    def __bool__(self):
        return self.is_sidon


@dataclass
class RepProfile:
    """Exact counts of h-fold sums of a set, labeled with their convention."""

    arity: int
    mode: str  # "cyclic" or "integer"
    modulus: Optional[int]
    convention: str  # "ordered" or "unordered"
    distinct: str  # "none" or "pairwise"
    counts: dict = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def expected_total(self, set_size: int) -> int:
        """Combinatorial identity for the sum of all counts."""
        h, n = self.arity, set_size
        if self.distinct == "none":
            return n**h if self.convention == "ordered" else comb(n + h - 1, h)
        falling = 1
        for i in range(h):
            falling *= n - i
        return max(falling, 0) if self.convention == "ordered" else comb(n, h)


def erdos_turan_set(p: int) -> ModSet:
    """Erdos-Turan Sidon set {x + (x^2 mod p) * 2p : 0 <= x < p} in Z_{2p^2}.

    p elements, all below 2p^2; Sidon both as integers and mod 2p^2.
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    elems = tuple(x + (x * x % p) * 2 * p for x in range(p))
    return ModSet(modulus=2 * p * p, elements=elems)


def ruzsa_set(p: int, g: Optional[int] = None) -> ModSet:
    """Ruzsa Sidon set in Z_{(p-1)p}: CRT-flattened graph of x -> g^x.

    g defaults to the smallest primitive root mod p. p - 1 elements.
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if g is None:
        g = primitive_root(p)
    elems = (crt_flatten(x, v, p) for x, v in enumerate(power_table(p, g)))
    return ModSet(modulus=(p - 1) * p, elements=tuple(elems))


def _coerce_elements(setlike, mode: str, modulus: Optional[int]):
    """Accept a ModSet or a plain iterable of ints; resolve the modulus."""
    if isinstance(setlike, ModSet):
        elems = list(setlike.elements)
        if mode == "cyclic" and modulus is None:
            modulus = setlike.modulus
    else:
        elems = sorted(int(x) for x in setlike)
        if len(set(elems)) != len(elems):
            raise RangeError("elements must be distinct")
    if mode == "cyclic":
        if modulus is None or modulus < 1:
            raise RangeError("cyclic mode needs a modulus >= 1")
        elems = [e % modulus for e in elems]
        if len(set(elems)) != len(elems):
            raise RangeError("elements collide after reduction mod modulus")
    elif mode != "integer":
        raise RangeError(f"unknown mode {mode!r}")
    return elems, modulus


def _pair_sums(elems: Sequence[int], mode: str, modulus: Optional[int]):
    """The pair-sum index: (left, right, ranked) over the pairs i <= j of elems.

    ranked[k] is the sum elems[left[k]] + elems[right[k]] (reduced mod the
    modulus in cyclic mode), and the pairs are sorted stably by it from
    row-major (i, j) order. Equal sums therefore form runs, and each run
    lists its pairs in scan order, that is by their smaller index i. Values
    of 2^62 and up are summed as exact Python ints in object arrays.
    """
    top = max([abs(e) for e in elems] + [modulus if mode == "cyclic" else 0])
    vals = np.array(elems, dtype=np.int64 if top < 1 << 62 else object)
    left, right = np.triu_indices(len(elems))
    sums = vals[left] + vals[right]
    if mode == "cyclic":
        sums %= modulus
    order = np.argsort(sums, kind="stable")
    return left[order], right[order], sums[order]


def is_sidon(setlike, mode: str = "integer", modulus: Optional[int] = None) -> SidonWitness:
    """Check all pairwise sums a + a' (a <= a') are distinct.

    mode "cyclic" sums in Z_modulus, mode "integer" sums in Z. On failure the
    witness (a, a2, a3, a4) has (a3, a4) the first pair in (i, j >= i) scan
    order whose sum repeats, (a, a2) the first pair with that sum.
    """
    elems, modulus = _coerce_elements(setlike, mode, modulus)
    left, right, ranked = _pair_sums(elems, mode, modulus)
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    if not repeats.size:
        return SidonWitness(True)
    # (i, j) -> i * n + j keeps scan order; a run's first pair opens it
    k = repeats[np.argmin(left[repeats] * len(elems) + right[repeats])]
    first = np.searchsorted(ranked, ranked[k])
    return SidonWitness(False, (elems[left[first]], elems[right[first]],
                                elems[left[k]], elems[right[k]]))


def b2g_bound(setlike, mode: str = "integer", modulus: Optional[int] = None) -> int:
    """Smallest g such that the set is B_2[g]: max representation count of
    any value as a + a' with a <= a', the longest run of equal pair sums.
    Empty set gives 0."""
    elems, modulus = _coerce_elements(setlike, mode, modulus)
    _, _, ranked = _pair_sums(elems, mode, modulus)
    edges = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    return int(np.diff(edges, prepend=0, append=len(ranked)).max(initial=0))


def _brute_profile_counts(elems: Sequence[int], h: int, mode: str,
                          modulus: Optional[int], convention: str,
                          distinct: str) -> dict:
    counts: dict[int, int] = {}
    if convention == "ordered":
        tuples: Iterable = itertools.product(elems, repeat=h)
        if distinct == "pairwise":
            tuples = (t for t in tuples if len(set(t)) == h)
    else:
        if distinct == "pairwise":
            tuples = itertools.combinations(elems, h)
        else:
            tuples = itertools.combinations_with_replacement(elems, h)
    for t in tuples:
        s = sum(t)
        if mode == "cyclic":
            s %= modulus
        counts[s] = counts.get(s, 0) + 1
    return counts


def convolution_profile_array(setlike, h: int, modulus: Optional[int] = None) -> np.ndarray:
    """Ordered h-fold cyclic sum counts for every residue, as an int64 array.

    Exact integer arithmetic: the first fold is a bincount of pairwise sums,
    later folds are shift-adds of the indicator. No floating point anywhere.
    """
    elems, modulus = _coerce_elements(setlike, "cyclic", modulus)
    if h < 1:
        raise RangeError(f"need h >= 1, got {h}")
    n = len(elems)
    if n > 0 and n**h >= 1 << 62:
        raise RangeError("counts could overflow int64 for this |A| and h")
    N = modulus
    a = np.array(elems, dtype=np.int64)
    if h == 1:
        ind = np.zeros(N, dtype=np.int64)
        ind[a] = 1
        return ind
    pair_sums = a[:, None] + a
    pair_sums %= N
    cur = np.bincount(pair_sums.ravel(), minlength=N).astype(np.int64, copy=False)
    for _ in range(h - 2):
        nxt = np.zeros(N, dtype=np.int64)
        for e in elems:
            if e == 0:
                nxt += cur
            else:
                nxt[e:] += cur[: N - e]
                nxt[:e] += cur[N - e:]
        cur = nxt
    return cur


def rep_profile(setlike, h: int, mode: str = "cyclic",
                modulus: Optional[int] = None, convention: str = "ordered",
                distinct: str = "none") -> RepProfile:
    """Exact h-fold sum counts under an explicit convention.

    Cyclic, ordered counts with no distinctness constraint come from the
    convolution kernel; every other convention enumerates the tuples.
    """
    if convention not in ("ordered", "unordered"):
        raise RangeError(f"unknown convention {convention!r}")
    if distinct not in ("none", "pairwise"):
        raise RangeError(f"unknown distinct flag {distinct!r}")
    if h < 1:
        raise RangeError(f"need h >= 1, got {h}")
    elems, modulus = _coerce_elements(setlike, mode, modulus)
    if mode == "cyclic" and convention == "ordered" and distinct == "none":
        arr = convolution_profile_array(elems, h, modulus)
        counts = {int(i): int(c) for i, c in enumerate(arr) if c}
    else:
        counts = _brute_profile_counts(elems, h, mode, modulus, convention, distinct)
    return RepProfile(arity=h, mode=mode,
                      modulus=modulus if mode == "cyclic" else None,
                      convention=convention, distinct=distinct, counts=counts)


def basis_order_check(modset: ModSet, h: int,
                      repetition: str = "allowed") -> tuple[bool, list[int]]:
    """Is every residue of Z_N a sum of h elements of the set?

    repetition "forbidden" restricts to sums of pairwise-distinct elements.
    Returns (covered, sorted uncovered residues).
    """
    if repetition not in ("allowed", "forbidden"):
        raise RangeError(f"unknown repetition flag {repetition!r}")
    distinct = "pairwise" if repetition == "forbidden" else "none"
    profile = rep_profile(modset, h, mode="cyclic", convention="unordered",
                          distinct=distinct)
    uncovered = [r for r in range(modset.modulus) if r not in profile.counts]
    return (not uncovered, uncovered)
