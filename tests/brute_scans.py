"""Brute-force reference scans that the fast kernels are pinned against.

These are the O(p^2) (x1, x2) scans and the dictionary pair-sum scan that
the library used before its O(p) curve solver and vectorised Sidon check,
the O(p^3) triple loop behind the old `triple_rep_table`, a per-V curve
point count against a table of squares, the splitmix64 scrambler and the
accept rule u < x^-gamma in Python integers (or mpmath logarithms), with no
float comparison, behind a full-range sampler that builds every x in
[1, horizon], a literal reading of the deletion lifts' removal rule, and the
per-x1 scan behind the triple family's moments before the loop engines
moved onto direct convolutions, the split sum over every x that
sigma made before it halved the symmetric case, and the where-masked halves
it made before it doubled them once, the per-factor power sums behind tau
and the abab series before factors shared windows, and the tuple
enumeration behind every representation profile convention before they all
moved onto the shift-add kernel. They live here, outside `src/`, as exact
oracles only.
"""

import itertools
import math
import random
from functools import lru_cache

import mpmath
import numpy as np

from sidonlab.numbertheory import (crt_flatten, is_prime, is_primitive_root,
                                   primitive_root)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def targets():
    """(p, g, a, b): every target at every odd prime up to 31 with the
    smallest primitive root, then eight seeded targets each at p = 211 and
    p = 307 with a seeded primitive root."""
    for p in range(3, 32):
        if is_prime(p):
            g = primitive_root(p)
            for a in range(p - 1):
                for b in range(p):
                    yield p, g, a, b
    for p in (211, 307):
        rng = random.Random(p)
        g = rng.choice([h for h in range(2, p) if is_primitive_root(h, p)])
        for _ in range(8):
            yield p, g, rng.randrange(p - 1), rng.randrange(p)


def powers(p, g):
    return [pow(g, x, p) for x in range(p - 1)]


@lru_cache(maxsize=None)
def triples(p, g, a, b):
    """Every (x1, x2, x3) with exponent sum a mod p-1 and power sum b mod p,
    in lexicographic (x1, x2) scan order. Cached: each sweep target is
    scanned once for (a, b) and reused as the shifted target (a, b-1)."""
    pw = powers(p, g)
    found = []
    for x1 in range(p - 1):
        for x2 in range(p - 1):
            x3 = (a - x1 - x2) % (p - 1)
            if (pw[x1] + pw[x2] + pw[x3]) % p == b:
                found.append((x1, x2, x3))
    return tuple(found)


def triple_rep_count(p, g, a, b, distinct="none"):
    reps = triples(p, g, a, b)
    if distinct == "pairwise":
        reps = [t for t in reps if len(set(t)) == 3]
    return len(reps)


def repeated_coordinate_count(p, g, a, b):
    return sum(1 for t in triples(p, g, a, b) if len(set(t)) < 3)


def special_rep4_count(p, g, a, b):
    return sum(1 for t in triples(p, g, a, (b - 1) % p)
               if len(set(t)) == 3 and 0 in t)


def decompose3_logs(p, g, a, b, require_distinct=False):
    """Logs of the first hit of the scan, or None."""
    for t in triples(p, g, a, b):
        if not require_distinct or len(set(t)) == 3:
            return list(t)
    return None


def decompose4(p, g, a, b):
    """(logs, parts) of the 4-term decomposition: the first distinct triple
    avoiding exponent 0 at (a, b-1) plus the fixed part (0, 1), else the
    first pairwise-distinct 4-tuple x1 < x2 < x3 (x4 forced); None if none."""
    pw = powers(p, g)
    for t in triples(p, g, a, (b - 1) % p):
        if 0 not in t and len(set(t)) == 3:
            return (list(t), [crt_flatten(x, pw[x], p) for x in t]
                    + [crt_flatten(0, 1, p)])
    for x1 in range(p - 1):
        for x2 in range(x1 + 1, p - 1):
            for x3 in range(x2 + 1, p - 1):
                x4 = (a - x1 - x2 - x3) % (p - 1)
                if x4 in (x1, x2, x3):
                    continue
                if (pw[x1] + pw[x2] + pw[x3] + pw[x4]) % p == b:
                    logs = [x1, x2, x3, x4]
                    return logs, [crt_flatten(x, pw[x], p) for x in logs]
    return None


def triple_rep_table(p, g, distinct="none"):
    """(a, b) -> ordered exponent triples hitting it, by looping over all
    (x1, x2, x3); distinct="pairwise" skips a repeated coordinate."""
    pw = powers(p, g)
    table = {}
    for x1 in range(p - 1):
        for x2 in range(p - 1):
            for x3 in range(p - 1):
                if distinct == "pairwise" and len({x1, x2, x3}) < 3:
                    continue
                key = ((x1 + x2 + x3) % (p - 1), (pw[x1] + pw[x2] + pw[x3]) % p)
                table[key] = table.get(key, 0) + 1
    return table


def curve_point_count(p, b, lam):
    """Points (U, V), V != 0, of U^2 = 4V^3 + (bV + lam)^2 mod p, by
    testing every V against every square."""
    squares = {}
    for u in range(p):
        squares[u * u % p] = squares.get(u * u % p, 0) + 1
    return sum(squares.get((4 * v ** 3 + (b * v + lam) ** 2) % p, 0)
               for v in range(1, p))


def enumerate_quadric(p, r1, r2):
    sq = [(x * x) % p for x in range(p)]
    return [(x1, x2) for x1 in range(p) for x2 in range(p)
            if (sq[x1] + sq[x2] + sq[(x1 + x2 - r1) % p]) % p == r2 % p]


def sidon_witness(elems, mode, modulus):
    """Collision quadruple of the first repeated pair sum in (i, j >= i)
    order with the first pair of that sum, or None for a Sidon set; elems
    in the order the library scans them."""
    seen = {}
    for i, a in enumerate(elems):
        for b in elems[i:]:
            s = (a + b) % modulus if mode == "cyclic" else a + b
            if s in seen:
                return (seen[s][0], seen[s][1], a, b)
            seen[s] = (a, b)
    return None


def profile_counts(elems, h, mode, modulus, convention, distinct):
    """Sum -> count over the h-tuples of elems (ordered or sorted, with
    repetition or pairwise distinct), summed in Z (mode "integer") or in
    Z_modulus, one tuple at a time."""
    if convention == "ordered":
        tuples = itertools.product(elems, repeat=h)
        if distinct == "pairwise":
            tuples = (t for t in tuples if len(set(t)) == h)
    elif distinct == "pairwise":
        tuples = itertools.combinations(elems, h)
    else:
        tuples = itertools.combinations_with_replacement(elems, h)
    counts = {}
    for t in tuples:
        s = sum(t) % modulus if mode == "cyclic" else sum(t)
        counts[s] = counts.get(s, 0) + 1
    return counts


def removals(A, limit):
    """Element -> removal witness of the deletion lifts (limit 2 Sidon,
    limit 3 B2[2]): A's unordered pairs (u <= v) grouped by sum once, then
    for each a in ascending order the first a2 in ascending order whose sum
    has at least limit - 1 pairs other than {a, a2}; the witness is a2
    followed by the smallest limit - 1 of those pairs."""
    A = sorted(set(A))
    by_sum = {}
    for i, u in enumerate(A):
        for v in A[i:]:
            by_sum.setdefault(u + v, []).append((u, v))
    out = {}
    for a in A:
        for a2 in A:
            own = (min(a, a2), max(a, a2))
            rivals = sorted(p for p in by_sum[a + a2] if p != own)
            if len(rivals) >= limit - 1:
                out[a] = (a2,) + tuple(v for p in rivals[:limit - 1] for v in p)
                break
    return out


def admissible(config, horizon):
    """Every x in [1, horizon] with x > m and x mod N in the residue set,
    by a mask over the whole range."""
    xs = np.arange(1, horizon + 1, dtype=np.uint64)
    mask = xs > np.uint64(config.m)
    res = np.asarray(config.residues, dtype=np.uint64)
    mask &= np.isin(xs % np.uint64(config.modulus), res)
    return xs[mask]


def mix64(z):
    """splitmix64 finalizer: a 64-bit bijective scrambler."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def uniform_unit(seed, x):
    """Deterministic uniform in [0, 1) for the pair (seed, x): top 53 bits
    of the scrambled counter."""
    return (mix64(seed + x * _GOLDEN) >> 11) * 2.0 ** -53


def below_power(k, x, gamma):
    """k 2^-53 < x^-gamma for gamma = p/q, exactly: k^q x^p < 2^(53 q) in
    integers while that stays small, else the sign of q ln k + p ln x -
    53 q ln 2 in mpmath, each term within 2^(8 - prec) of its size, at
    doubling precision; it is 0 only for k and x powers of two."""
    p, q = gamma.numerator, gamma.denominator
    if k == 0:
        return True
    if 53 * q + p * x.bit_length() <= 1 << 16:
        return k ** q * x ** p < 1 << (53 * q)
    if k & (k - 1) == 0 and x & (x - 1) == 0:
        return q * (k.bit_length() - 1) + p * (x.bit_length() - 1) < 53 * q
    prec = 64
    while True:
        with mpmath.workprec(prec):
            terms = [q * mpmath.log(k), p * mpmath.log(x),
                     -53 * q * mpmath.log(2)]
            d = mpmath.fsum(terms)
            if abs(d) > mpmath.ldexp(mpmath.fsum(map(abs, terms)), 8 - prec):
                return bool(d < 0)
        prec *= 2


def contains(config, x):
    """The scalar accept rule: x is admissible and its uniform from the
    Python-int scrambler lies below x^-gamma, decided exactly."""
    if x <= config.m or x % config.modulus not in config.residues:
        return False
    k = int(uniform_unit(config.seed, x) * 2.0 ** 53)
    return below_power(k, x, config.gamma)


def sample_elements(config, horizon):
    """The full-range sample: the scalar rule on every admissible x."""
    return tuple(x for x in admissible(config, horizon).tolist()
                 if contains(config, x))


def moments(config, horizon):
    """(sum of q, sum of q (1 - q)) over the full-range admissible x."""
    xs = admissible(config, horizon)
    q = np.power(xs.astype(np.float64), -float(config.gamma))
    return float(q.sum()), float((q * (1.0 - q)).sum())


def _loop_scan(n, modulus, q):
    """For every x1 with q[x1] > 0: q[x1], the products q[x2] q[x3] over
    x2 = 1, 2, ... with x2 + x3 = n - x1, and the mask of the triples that
    are pairwise incongruent (pairwise distinct when the modulus is 1)."""
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


def triple_moments(n, modulus, q):
    """(E, Delta) of the triple family from the probability array q by a
    per-x1 scan: E sums q1 times the kept products, over 6; Delta sums q1
    ((S/2)^2 - S2/2), S and S2 the kept products and their squares."""
    expect, delta = [], []
    for q1, prod, mask in _loop_scan(n, modulus, q):
        expect.append(q1 * float(prod @ mask))
        kept = prod[mask]
        pair_sum = float(kept.sum()) / 2.0
        pair_sq = float((kept ** 2).sum()) / 2.0
        delta.append(q1 * (pair_sum ** 2 - pair_sq))
    return math.fsum(expect) / 6.0, math.fsum(delta)


def sigma(alpha, beta, n, m):
    """sum over m < x < n - m of x^-alpha (n-x)^-beta: every term made by
    one float64 np.power call per block of 4096, all of them in one fsum."""
    a, b = float(alpha), float(beta)
    lo, hi = m + 1, n - m - 1

    def terms():
        for start in range(lo, hi + 1, 1 << 12):
            xs = np.arange(start, min(start + (1 << 12), hi + 1),
                           dtype=np.float64)
            powers = np.power(np.stack((xs, n - xs)), [[-a], [-b]])
            yield from (powers[0] * powers[1]).tolist()

    return math.fsum(terms())


def power_sums(products, lo, hi, block=1 << 12):
    """For each list of factors (c, e), the sum over lo <= x <= hi of
    prod (x + c)^e, as the analysis kernel made it before its factors
    shared windows: per block of `block` terms, the first factor as a new
    array and each other one by its own np.power over x + c, taken once per
    block; the block sums through fsum."""
    products = [[(c, float(e)) for c, e in factors] for factors in products]

    def power(xs, c, e):
        return xs + c if e == 1 else np.power(xs + c, e)

    sums = [[] for _ in products]
    for start in range(lo, hi + 1, block):
        xs = np.arange(start, min(start + block, hi + 1), dtype=np.float64)
        powers = {}
        for ((c0, e0), *rest), out in zip(products, sums):
            terms = power(xs, c0, e0)
            for c, e in rest:
                if (c, e) not in powers:
                    powers[c, e] = power(xs, c, e)
                terms *= powers[c, e]
            out.append(float(terms.sum()))
    return [math.fsum(s) for s in sums]


def sigma_masked(alpha, beta, n, m, block=1 << 12):
    """sigma as the analysis kernel made it before it doubled the halves
    once: x <= n/2 only when alpha = beta, each block's terms scaled by a
    mask of 2 below n/2 and 1 at it, every block's exact parts in one
    fsum."""
    from sidonlab.analysis import _exact_parts
    a, b = float(alpha), float(beta)
    lo, hi = m + 1, n - m - 1
    if a == b:
        hi = n // 2
    parts = []
    for start in range(lo, hi + 1, block):
        xs = np.arange(start, min(start + block, hi + 1), dtype=np.float64)
        terms = np.power(xs, -a)
        terms *= np.power(n - xs, -b)
        if a == b:
            terms *= np.where(2 * xs < n, 2.0, 1.0)
        parts += _exact_parts(terms)
    return math.fsum(parts)
