"""Sidon set constructions and exact representation counting over Z_N and Z.

A set A is Sidon when all pairwise sums a + a' (a <= a') are distinct, and
B_2[g] when no value has more than g such representations. The two classical
dense constructions are provided: the Erdos-Turan set

    {x + (x^2 mod p) * 2p : 0 <= x < p}   inside Z_{2p^2},

and the Ruzsa set, the graph {(x, g^x)} of the discrete exponential flattened
through the CRT isomorphism Z_{p-1} x Z_p = Z_{(p-1)p}.

Representation counts are exact integers made by shift-adding int64 count
arrays: ordered counts with repetition fold the indicator, and the other
conventions are its symmetric functions by Newton's identities.

Pair sums a + a' (a <= a') have one index, `_pair_sums`: every such sum,
sorted stably, so that equal sums form runs in scan order. `is_sidon`
reads its witness off the first repeated run and `b2g_bound` is the
longest run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Optional, Sequence

import numpy as np

from .numbertheory import (RangeError, _as_ints, _check_odd_prime,
                           _flattened_graph, _int_fields, _power_table,
                           primitive_root)

__all__ = [
    "ModSet",
    "SidonWitness",
    "erdos_turan_set",
    "ruzsa_set",
    "is_sidon",
    "b2g_bound",
    "rep_profile",
    "convolution_profile_array",
    "basis_order_check",
]


@dataclass(frozen=True)
class ModSet:
    """A subset of Z_N: a modulus and a sorted tuple of distinct residues."""

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        _int_fields(self, "modulus")
        if self.modulus < 1:
            raise RangeError(f"modulus must be >= 1, got {self.modulus}")
        elems = tuple(sorted(_as_ints(self.elements, "elements")))
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


def erdos_turan_set(p: int) -> ModSet:
    """Erdos-Turan Sidon set {x + (x^2 mod p) * 2p : 0 <= x < p} in Z_{2p^2}.

    p elements, all below 2p^2; Sidon both as integers and mod 2p^2.
    """
    _check_odd_prime(p)
    elems = tuple(x + (x * x % p) * 2 * p for x in range(p))
    return ModSet(modulus=2 * p * p, elements=elems)


def ruzsa_set(p: int, g: Optional[int] = None) -> ModSet:
    """Ruzsa Sidon set in Z_{(p-1)p}: CRT-flattened graph of x -> g^x.

    g defaults to the smallest primitive root mod p. p - 1 elements.
    """
    _check_odd_prime(p)
    if g is None:
        g = primitive_root(p)
    p, g = _as_ints((p, g), "p and g")
    elements = _flattened_graph(p, _power_table(p, g))
    return ModSet(modulus=(p - 1) * p, elements=tuple(elements))


def _coerce_elements(setlike, mode: str, modulus: Optional[int]):
    """Accept a ModSet or a plain iterable of ints; resolve the modulus."""
    if isinstance(setlike, ModSet):
        elems = list(setlike.elements)
        if mode == "cyclic" and modulus is None:
            modulus = setlike.modulus
    else:
        elems = sorted(_as_ints(setlike, "elements"))
        if len(set(elems)) != len(elems):
            raise RangeError("elements must be distinct")
    if mode == "cyclic":
        (modulus,) = _as_ints((0 if modulus is None else modulus,), "modulus")
        if modulus < 1:
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


def _arity(h) -> int:
    (h,) = _as_ints((h,), "h")
    if h < 1:
        raise RangeError(f"need h >= 1, got {h}")
    return h


def _shift_add(cur: np.ndarray, shifts) -> np.ndarray:
    """cur rotated by every s in shifts (ints in [0, len(cur))), summed."""
    N = len(cur)
    out = np.zeros(N, dtype=np.int64)
    for s in shifts:
        out[s:] += cur[: N - s]
        out[:s] += cur[N - s:]
    return out


def convolution_profile_array(setlike, h: int, modulus: Optional[int] = None) -> np.ndarray:
    """Ordered h-fold cyclic sum counts for every residue, as an int64 array.

    Exact integer arithmetic: the first fold is a bincount of pairwise sums,
    later folds are shift-adds of the indicator. No floating point anywhere.
    """
    elems, N = _coerce_elements(setlike, "cyclic", modulus)
    h = _arity(h)
    if len(elems)**h >= 1 << 62:
        raise RangeError("counts could overflow int64 for this |A| and h")
    a = np.array(elems, dtype=np.int64)
    if h == 1:
        return np.bincount(a, minlength=N).astype(np.int64, copy=False)
    pair_sums = a[:, None] + a
    pair_sums %= N
    cur = np.bincount(pair_sums.ravel(), minlength=N).astype(np.int64, copy=False)
    for _ in range(h - 2):
        cur = _shift_add(cur, elems)
    return cur


def _counts_array(elems: Sequence[int], h: int, N: int, convention: str,
                  distinct: str) -> np.ndarray:
    """h-fold sum counts of the distinct residues elems in Z_N, int64.

    Ordered with repetition is `convolution_profile_array`; the rest follow
    Newton's identities k s_k = sum_{i=1..k} c^(i-1) s_{k-i} * p_i for the
    elementary (c = -1, pairwise distinct) or complete (c = 1) symmetric
    functions s of the indicator: p_i counts the dilate i A, the product
    shifts s_{k-i} by each i a, and ordered pairwise distinct is h! e_h
    (0 for h > n). No overflow: s_j totals at most C(n + j - 1, j) <= n^j,
    so each term is nonnegative with total at most n^k, each partial sum of
    step k lies within k n^k <= h n^h < 2^62, and h! e_h <= n^h; h N < 2^63
    keeps int64 indexes and pair sums. Both guards raise before any array."""
    if h * N >= 1 << 63:
        raise RangeError("h * window must stay below 2^63")
    if convention == "ordered" and distinct == "none":
        return convolution_profile_array(elems, h, N)
    n = len(elems)
    if h * n**h >= 1 << 62:
        raise RangeError("counts could overflow int64 for this |A| and h")
    c = -1 if distinct == "pairwise" else 1
    dilates = [[i * e % N for e in elems] for i in range(h + 1)]
    sym = [None]
    for k in range(1, h + 1):
        acc = np.bincount(dilates[k], minlength=N).astype(np.int64) * c ** (k - 1)
        for i in range(1, k):
            acc += _shift_add(sym[k - i], dilates[i]) * c ** (i - 1)
        sym.append(acc // k)
    return sym[h] * factorial(h) if convention == "ordered" and h <= n else sym[h]


def rep_profile(setlike, h: int, mode: str = "cyclic",
                modulus: Optional[int] = None, convention: str = "ordered",
                distinct: str = "none") -> dict[int, int]:
    """Exact h-fold sum counts {sum: count} under an explicit convention,
    keys ascending and zero counts left out.

    Every convention takes 8 bytes per residue of a window: Z_modulus in
    cyclic mode, and in integer mode the h (max A - min A) + 1 sums of
    A - min A, which no sum leaves, with h min A added back to the keys."""
    if convention not in ("ordered", "unordered"):
        raise RangeError(f"unknown convention {convention!r}")
    if distinct not in ("none", "pairwise"):
        raise RangeError(f"unknown distinct flag {distinct!r}")
    h = _arity(h)
    elems, modulus = _coerce_elements(setlike, mode, modulus)
    base = min(elems, default=0) if mode == "integer" else 0
    elems = [e - base for e in elems]
    window = modulus if mode == "cyclic" else h * max(elems, default=0) + 1
    arr = _counts_array(elems, h, window, convention, distinct)
    return {h * base + k: c for k, c in enumerate(arr.tolist()) if c}


def basis_order_check(modset: ModSet, h: int,
                      repetition: str = "allowed") -> tuple[bool, list[int]]:
    """Is every residue of Z_N a sum of h elements of the set?

    repetition "forbidden" restricts to sums of pairwise-distinct elements.
    Returns (covered, sorted uncovered residues), the zeros of the ordered
    counts (whose support is the unordered one's)."""
    if repetition not in ("allowed", "forbidden"):
        raise RangeError(f"unknown repetition flag {repetition!r}")
    counts = _counts_array(modset.elements, _arity(h), modset.modulus, "ordered",
                           "pairwise" if repetition == "forbidden" else "none")
    uncovered = np.flatnonzero(counts == 0).tolist()
    return (not uncovered, uncovered)
