"""Write residues as sums of 3 (or 4) Sidon set elements, with certificates.

Two pipelines:

* In the Ruzsa group Z_{p-1} x Z_p, a target (a, b) is decomposed into three
  set elements by walking the exponent triples of `curveoracle.triple_reps`
  (O(p) per target, one quadratic per x1); the curve identity guarantees
  roughly p of them, at most 9 of which repeat a coordinate. A 4-term
  variant fixes the fourth part at (0, 1) and decomposes the shifted target;
  failing that, it walks the same solver once per first part x1.

* Over Z_N with 4p^2 < N < 5p^2, p = 1 (mod 3), a target n is lifted to an
  integer r1 + r2 * 2p with K <= r1, r2 <= (5p-1)/2 + K, K = ceil(p/4);
  quadric solutions mod p are then screened against the two exact integer
  identities x1+x2+x3 = r1 and (x1^2)_p + (x2^2)_p + (x3^2)_p = r2, which
  turn a mod-p solution into three genuine Erdos-Turan elements summing to
  the lift. Box mode additionally requires the solution's torus point to lie
  in a small cube around (r1/3p, r1/3p, r2/3p, r2/3p), which at desk scale
  almost never happens; exhaustive mode searches every quadric point.

Every returned decomposition carries enough data to replay the defining
identities exactly; `Decomposition.replay()` does so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .numbertheory import (
    RangeError,
    _as_ints,
    _check_odd_prime,
    _flatten,
    crt_flatten,
    find_decomposition_prime,
    is_prime,
    is_primitive_root,
    primitive_root,
)
from .curveoracle import (QuadricParams, _triple_solver, enumerate_quadric,
                          triple_reps)

__all__ = [
    "NoRepresentation",
    "LiftTarget",
    "Decomposition",
    "decompose3_ruzsa",
    "decompose4_ruzsa",
    "lift_to_interval",
    "decompose3_zn",
]


class NoRepresentation(LookupError):
    """No decomposition exists (or was found) for the requested target."""


@dataclass(frozen=True)
class LiftTarget:
    """Integer lift r1 + r2 * 2p of n mod N, with both digits in [K, U]."""

    n: int
    N: int
    p: int
    K: int
    U: int
    r1: int
    r2: int

    def __post_init__(self):
        if not (self.K <= self.r1 <= self.U and self.K <= self.r2 <= self.U):
            raise RangeError("lift digits outside [K, U]")
        if (self.r1 + 2 * self.p * self.r2) % self.N != self.n % self.N:
            raise RangeError("lift does not reduce to the target")

    @property
    def value(self) -> int:
        return self.r1 + 2 * self.p * self.r2


@dataclass
class Decomposition:
    """Parts of a target as elements of a named Sidon construction."""

    target: object  # residue n, or [a, b] pair for the Ruzsa group
    modulus: object  # N, or [p-1, p]
    parts: list[int]
    construction: str  # "erdos_turan" or "ruzsa"
    p: int
    mode: Optional[str] = None  # "box" or "exhaustive" for Z_N targets
    certificate: dict = field(default_factory=dict)

    def replay(self) -> bool:
        """Re-verify every defining identity with exact integer arithmetic."""
        p = self.p
        if self.construction == "ruzsa":
            a, b = self.target
            g = self.certificate.get("g")
            if g is None:
                g = primitive_root(p)
            m = (p - 1) * p
            # z is a Ruzsa element iff it flattens a pair (x, g^x)
            if not is_primitive_root(g, p) or any(
                    not 0 <= z < m or pow(g, z % (p - 1), p) != z % p
                    for z in self.parts):
                return False
            return sum(self.parts) % m == crt_flatten(a, b, p)
        if self.construction == "erdos_turan":
            n, N = self.target, self.modulus
            r1, r2 = self.certificate["r1"], self.certificate["r2"]
            xs = self.certificate["xs"]
            if any(not 0 <= x < p for x in xs):
                return False
            if [x + (x * x % p) * 2 * p for x in xs] != self.parts:
                return False
            if sum(xs) != r1 or sum((x * x) % p for x in xs) != r2:
                return False
            return sum(self.parts) % N == n % N
        return False


def _ruzsa_generator(p: int, g: Optional[int]) -> int:
    """g, or the smallest primitive root when it is None; p must be an odd
    prime."""
    _check_odd_prime(p)
    return primitive_root(p) if g is None else g


def _ruzsa(p: int, a: int, b: int, pairs, **certificate) -> Decomposition:
    """The decomposition of (a, b) into the Ruzsa elements (x, g^x) of the
    pairs: p was checked by _ruzsa_generator, and each log and power lies in
    range, so they flatten without crt_flatten's checks."""
    return Decomposition(target=[a, b], modulus=[p - 1, p],
                         parts=[_flatten(x, v, p) for x, v in pairs],
                         construction="ruzsa", p=p, certificate=certificate)


def decompose3_ruzsa(p: int, a: int, b: int, g: Optional[int] = None,
                     require_distinct: bool = False) -> Decomposition:
    """First (x1, x2) in lexicographic order with x3 = a - x1 - x2 mod p-1
    and g^x1 + g^x2 + g^x3 = b mod p; parts are the flattened set elements.
    O(p) per target."""
    g = _ruzsa_generator(p, g)
    for logs in triple_reps(p, g, a, b):
        if require_distinct and len(set(logs)) < 3:
            continue
        powers = [pow(g, x, p) for x in logs]
        return _ruzsa(p, a, b, zip(logs, powers), g=g, logs=list(logs),
                      powers=powers)
    raise NoRepresentation(f"no 3-term representation of ({a}, {b}) mod ({p - 1}, {p})")


def decompose4_ruzsa(p: int, a: int, b: int, g: Optional[int] = None) -> Decomposition:
    """Four pairwise-distinct parts for (a, b): fix the part (0, 1), then
    write the shifted target (a, b-1) as three distinct parts avoiding
    exponent 0. Else the first x1 < x2 < x3 (x4 forced, distinct from all
    three) by the same O(p) solver per x1: O(p^2) at worst."""
    g = _ruzsa_generator(p, g)
    a, b = _as_ints((a, b), "target (a, b)")
    if not (0 <= a < p - 1 and 0 <= b < p):
        raise RangeError("target (a, b) out of range")
    bb = (b - 1) % p
    pw, solve = _triple_solver(p, g)
    for logs in solve(a, bb):
        if 0 in logs or len(set(logs)) < 3:
            continue
        return _ruzsa(p, a, b, [(x, pw[x]) for x in logs] + [(0, 1)],
                      g=g, logs=list(logs), fixed_part=[0, 1],
                      shifted_target=[a, bb])
    # the first x1 < x2 < x3 with x4 forced and distinct: for each x1, the
    # triples (x2 > x1, x3, x4) of the target less (x1, g^x1), (x2, x3) order
    for x1 in range(p - 1):
        for x2, x3, x4 in solve((a - x1) % (p - 1), (b - pw[x1]) % p, x1 + 1):
            if x2 < x3 and x4 not in (x1, x2, x3):
                logs = [x1, x2, x3, x4]
                return _ruzsa(p, a, b, [(x, pw[x]) for x in logs], g=g,
                              logs=logs)
    raise NoRepresentation(
        f"no 4-term pairwise-distinct representation of ({a}, {b})"
    )


def lift_to_interval(n: int, N: int, p: Optional[int] = None) -> LiftTarget:
    """Deterministic lift of n mod N to r1 + r2 * 2p with digits in [K, U].

    K = ceil(p/4), U = (5p-1)/2 + K. The representable integers cover the
    interval [K(2p+1), U(2p+1)], whose length exceeds 5p^2 > N, so the lift
    is total: take the smallest representable integer congruent to n, then
    the smallest valid row index r2.
    """
    n, N = _as_ints((n, N), "n and N")
    if p is None:
        p = find_decomposition_prime(N)
    else:
        if not is_prime(p) or p % 3 != 1 or p < 7:
            raise RangeError(f"p must be a prime >= 7 with p = 1 mod 3, got {p}")
        if not (4 * p * p < N < 5 * p * p):
            raise RangeError(f"need 4p^2 < N < 5p^2, got p={p}, N={N}")
    K = -(-p // 4)
    U = (5 * p - 1) // 2 + K
    lo = K * (2 * p + 1)
    M = lo + ((n - lo) % N)
    r2 = max(K, -((U - M) // (2 * p)))  # smallest r2 with r1 = M - 2p r2 <= U
    r1 = M - 2 * p * r2
    return LiftTarget(n=n % N, N=N, p=p, K=K, U=U, r1=r1, r2=r2)


def decompose3_zn(n: int, N: int, mode: str = "exhaustive") -> Decomposition:
    """Write n mod N as a sum of three Erdos-Turan elements via the quadric.

    Lift n, enumerate the quadric at (r1 mod p, r2 mod p), fill in x3 from
    the linear relation, and accept only solutions passing both exact
    integer identities. mode="box" additionally requires every torus
    coordinate within K/(12p) of the box center. The first accepting
    (x1, x2) in lexicographic order wins.
    """
    if mode not in ("box", "exhaustive"):
        raise RangeError(f"unknown mode {mode!r}")
    p = find_decomposition_prime(N)
    lift = lift_to_interval(n, N, p)
    r1, r2, K = lift.r1, lift.r2, lift.K
    q = QuadricParams(p, r1 % p, r2 % p)
    for x1, x2 in enumerate_quadric(q):
        x3 = (r1 - x1 - x2) % p
        if mode == "box":
            # |x_i/p - r1/(3p)| <= K/(12p)  <=>  |12 x_i - 4 r1| <= K, and
            # likewise |12 (x_i^2)_p - 4 r2| <= K on the square coordinates.
            coords = [x1, x2, x3]
            sq = [(x * x) % p for x in coords]
            if any(abs(12 * c - 4 * r1) > K for c in coords):
                continue
            if any(abs(12 * s - 4 * r2) > K for s in sq):
                continue
        if x1 + x2 + x3 != r1:
            continue
        if (x1 * x1) % p + (x2 * x2) % p + (x3 * x3) % p != r2:
            continue
        xs = [x1, x2, x3]
        parts = [x + (x * x % p) * 2 * p for x in xs]
        return Decomposition(
            target=n % N,
            modulus=N,
            parts=parts,
            construction="erdos_turan",
            p=p,
            mode=mode,
            certificate={"r1": r1, "r2": r2, "K": K, "xs": xs,
                         "lift_value": lift.value},
        )
    raise NoRepresentation(
        f"no {mode} decomposition of {n} mod {N}: lift (r1={r1}, r2={r2}) failed"
    )
