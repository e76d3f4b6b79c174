import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from sidonlab.deletionlab import (
    AuditResult,
    FamilySpec,
    UnsupportedKind,
    VectorFamily,
    b2_2_lift,
    b22_removals,
    destruction_audit,
    enumerate_family,
    sidon_lift,
    sidon_removals,
)
from sidonlab.numbertheory import RangeError
from sidonlab.randommodel import SampleConfig, sample_sequence
from sidonlab.sidoncore import b2g_bound, is_sidon, ruzsa_set


# ---- literal transcriptions of the defining conditions, used as oracles ----

def _noncongruent(vals, N):
    if N <= 1:
        return len(set(vals)) == len(vals)
    res = [v % N for v in vals]
    return len(set(res)) == len(res)


def oracle_q(A, n, N):
    return {t for t in combinations(sorted(set(A)), 3)
            if sum(t) == n and _noncongruent(t, N)}


def oracle_r(A, n, eps):
    return {t for t in combinations(sorted(set(A)), 4)
            if sum(t) == n
            and min(t) ** eps.denominator <= n ** eps.numerator}


def oracle_t(A, n, N):
    A = sorted(set(A))
    out = set()
    triples = [t for t in product(A, repeat=3)
               if len(set(t)) == 3 and sum(t) == n and _noncongruent(t, N)]
    for x1, x2, x3 in triples:
        for x4, x5, x6, x7, x8 in product(A, repeat=5):
            if not (x1 + x4 == x5 + x6 == x7 + x8):
                continue
            if {x1, x4} == {x5, x6} or {x5, x6} == {x7, x8}:
                continue
            if (x1 - x5) % N or (x1 - x7) % N:
                continue
            if (x4 - x6) % N or (x4 - x8) % N:
                continue
            out.add((x1, x2, x3, x4, x5, x6, x7, x8))
    return out


def oracle_b(A, n, N, eps):
    A = sorted(set(A))
    out = set()
    for x in product(A, repeat=7):
        x1, x2, x3, x4, x5, x6, x7 = x
        quad = {x1, x2, x3, x4}
        if len(quad) != 4 or x1 + x2 + x3 + x4 != n:
            continue
        if min(quad) ** eps.denominator > n ** eps.numerator:
            continue
        if x1 + x5 != x6 + x7 or {x1, x5} == {x6, x7}:
            continue
        if (x6 - x1) % N or (x7 - x5) % N:
            continue
        out.add(x)
    return out


def oracle_small(A, kind, r):
    A = sorted(set(A))
    if kind == "U2":
        return {(a, b) for a in A for b in A if a + b == r and a != b}
    if kind == "V2":
        return {(a, b) for a in A for b in A if a - b == r and a != b}
    if kind == "U3":
        return {t for t in product(A, repeat=3)
                if sum(t) == r and len(set(t)) == 3}
    if kind == "V3":
        return {(a, b, c) for a in A for b in A for c in A
                if a + b - c == r and len({a, b, c}) == 3}
    if kind == "W":
        return {t for t in product(A, repeat=5)
                if t[1] + t[2] - t[0] == r and t[3] + t[4] - t[0] == r
                and len(set(t)) == 5}
    raise AssertionError(kind)


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(UnsupportedKind):
            FamilySpec("X9", 5)
        with pytest.raises(RangeError):
            FamilySpec("R", 5)  # epsilon required
        with pytest.raises(RangeError):
            FamilySpec("Q", 5, epsilon=Fraction(1, 2))
        with pytest.raises(RangeError):
            FamilySpec("R", 5, epsilon=Fraction(3, 2))
        with pytest.raises(RangeError):
            FamilySpec("Q", 5, modulus=0)
        assert FamilySpec("q", 5).kind == "Q"
        assert FamilySpec("B", 5, epsilon="1/2").epsilon == Fraction(1, 2)

    def test_custom_tag(self):
        # every accepted kind can be enumerated and has a fixed arity
        with pytest.raises(UnsupportedKind):
            FamilySpec("custom", 0)
        assert VectorFamily(spec=FamilySpec("U2", 0), members=()).arity == 2
        with pytest.raises(RangeError):
            VectorFamily(spec=FamilySpec("U2", 0), members=((1, 2, 3),))


class TestEnumerate:
    def test_u2_pair_example(self):
        fam = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        assert set(fam.members) == {(2, 4), (4, 2)}

    def test_empty_sequence(self):
        specs = [FamilySpec("Q", 6), FamilySpec("T", 6),
                 FamilySpec("R", 6, epsilon="1/2"),
                 FamilySpec("B", 6, epsilon="1/2"), FamilySpec("U2", 6),
                 FamilySpec("U3", 6), FamilySpec("V2", 6),
                 FamilySpec("V3", 6), FamilySpec("W", 6)]
        for spec in specs:
            assert len(enumerate_family((), spec)) == 0

    @pytest.mark.parametrize("N", [1, 5])
    @pytest.mark.parametrize("n", [12, 15, 18])
    def test_q_matches_oracle(self, n, N):
        A = range(1, 11)
        fam = enumerate_family(A, FamilySpec("Q", n, modulus=N))
        assert set(fam.members) == oracle_q(A, n, N)

    def test_q_modulus_one_is_plain_distinctness(self):
        fam = enumerate_family({1, 2, 3}, FamilySpec("Q", 6, modulus=1))
        assert fam.members == ((1, 2, 3),)
        fam2 = enumerate_family({1, 2, 3}, FamilySpec("Q", 6, modulus=2))
        assert len(fam2) == 0  # 1 and 3 share a residue

    def test_r_threshold_boundary(self):
        A = {6, 7, 8, 9, 12, 15}
        fam = enumerate_family(A, FamilySpec("R", 36, epsilon="1/2"))
        assert (6, 7, 8, 15) in fam.members  # min = 6 and 6^2 = 36: a tie, kept
        assert all(min(t) ** 2 <= 36 for t in fam.members)
        assert set(fam.members) == oracle_r(A, 36, Fraction(1, 2))

    @pytest.mark.parametrize("n,eps", [(30, Fraction(1, 2)),
                                       (45, Fraction(2, 3))])
    def test_r_matches_oracle(self, n, eps):
        A = range(1, 16)
        fam = enumerate_family(A, FamilySpec("R", n, epsilon=eps))
        assert set(fam.members) == oracle_r(A, n, eps)

    def test_t_contains_spec_tuple(self):
        fam = enumerate_family(range(1, 7), FamilySpec("T", 6, modulus=1))
        assert (1, 2, 3, 6, 2, 5, 3, 4) in fam.members

    @pytest.mark.parametrize("n,N", [(6, 1), (9, 5), (9, 2)])
    def test_t_matches_oracle(self, n, N):
        A = range(1, 7)
        fam = enumerate_family(A, FamilySpec("T", n, modulus=N))
        assert len(fam.members) == len(set(fam.members))
        assert set(fam.members) == oracle_t(A, n, N)

    @pytest.mark.parametrize("n,N,eps", [(12, 1, Fraction(2, 3)),
                                         (12, 2, Fraction(2, 3)),
                                         (14, 1, Fraction(1, 2))])
    def test_b_matches_oracle(self, n, N, eps):
        A = range(1, 7)
        fam = enumerate_family(A, FamilySpec("B", n, modulus=N, epsilon=eps))
        assert set(fam.members) == oracle_b(A, n, N, eps)

    def test_small_family_examples(self):
        v2 = enumerate_family({1, 3, 4, 9}, FamilySpec("V2", 2))
        assert v2.members == ((3, 1),)
        u3 = enumerate_family({1, 2, 3, 4}, FamilySpec("U3", 7))
        assert set(u3.members) == set(permutations((1, 2, 4)))
        w = enumerate_family(range(1, 7), FamilySpec("W", 5))
        assert (2, 1, 6, 3, 4) in w.members
        assert len(w) == 8

    @pytest.mark.parametrize("kind", ["U2", "V2", "U3", "V3", "W"])
    def test_small_families_match_oracle(self, kind):
        rng = random.Random(20260816)
        for _ in range(5):
            A = rng.sample(range(1, 21), 8)
            for r in (3, 10, 17):
                fam = enumerate_family(A, FamilySpec(kind, r))
                assert set(fam.members) == oracle_small(A, kind, r)
                assert len(fam.members) == len(set(fam.members))


class TestLifts:
    def test_sidon_lift_examples(self):
        assert sidon_lift({1, 2, 4}) == (1, 2, 4)
        assert sidon_lift({1, 2, 3, 4}) == ()  # 1+4 = 2+3 implicates all
        assert sidon_lift(()) == ()

    def test_b22_lift_examples(self):
        assert b2_2_lift(range(1, 7)) == ()  # 1+6 = 2+5 = 3+4
        sidon = (1, 2, 5, 11, 22)
        assert not sidon_removals(sidon)
        assert b2_2_lift(sidon) == sidon
        assert b2_2_lift(iter(sidon)) == sidon  # the input is read once
        assert sidon_lift(iter(sidon)) == sidon
        assert b2_2_lift(()) == ()

    def test_lift_outputs_and_monotonicity(self):
        rng = random.Random(4057)
        for _ in range(30):
            A = tuple(sorted(rng.sample(range(1, 61), 12)))
            s = sidon_lift(A)
            b = b2_2_lift(A)
            assert set(s) <= set(A) and set(b) <= set(A)
            assert is_sidon(s, mode="integer")
            assert b2g_bound(b, mode="integer") <= 2
            assert set(s) <= set(b)  # sidon removal witnesses are b22-rarer

    def test_fixpoint_equals_single_pass(self):
        # one pass reaches the fixpoint: a second pass removes nothing
        rng = random.Random(911)
        for _ in range(20):
            A = tuple(sorted(rng.sample(range(1, 50), 10)))
            assert sidon_lift(sidon_lift(A)) == sidon_lift(A)
            assert b2_2_lift(b2_2_lift(A)) == b2_2_lift(A)

    def test_sidon_witnesses_replay(self):
        rng = random.Random(77)
        for _ in range(20):
            A = tuple(sorted(rng.sample(range(1, 61), 12)))
            removed = sidon_removals(A)
            assert set(sidon_lift(A)) == set(A) - set(removed)
            for a, (a2, a3, a4) in removed.items():
                assert {a, a2, a3, a4} <= set(A)
                assert a + a2 == a3 + a4
                assert {a, a2} != {a3, a4}

    def test_b22_witnesses_replay(self):
        rng = random.Random(78)
        for _ in range(20):
            A = tuple(sorted(rng.sample(range(1, 61), 12)))
            removed = b22_removals(A)
            assert set(b2_2_lift(A)) == set(A) - set(removed)
            for a1, (a2, a3, a4, a5, a6) in removed.items():
                assert {a1, a2, a3, a4, a5, a6} <= set(A)
                assert a1 + a2 == a3 + a4 == a5 + a6
                pairs = [frozenset((a1, a2)), frozenset((a3, a4)),
                         frozenset((a5, a6))]
                assert len(set(pairs)) == 3


class TestAudit:
    def test_dense_b22_bites(self):
        res = destruction_audit(range(1, 31), 20, N=1, mode="b22")
        assert res.holds
        assert res.q_after < res.q_before  # the lift destroyed something
        assert res.q_before > 0

    def test_dense_sidon_bites(self):
        res = destruction_audit(range(1, 31), 24, N=1, mode="sidon",
                                epsilon="1/2")
        assert res.holds
        assert res.q_after < res.q_before

    def test_sidon_input_is_fixed_point(self):
        sidon = (1, 2, 5, 11, 22)
        for n in (8, 14, 25):
            res = destruction_audit(sidon, n, mode="b22")
            assert res.q_after == res.q_before and res.holds
        res = destruction_audit(sidon, 14, mode="sidon", epsilon="1/2")
        assert res.q_after == res.q_before and res.holds

    def test_empty_sequence(self):
        assert destruction_audit((), 10, mode="b22") == (0, 0, 0, True)
        assert destruction_audit((), 10, mode="sidon", epsilon="1/2") \
            == (0, 0, 0, True)

    def test_sampled_sequence_audits(self):
        S = ruzsa_set(13)
        cfg = SampleConfig.from_modset(S, "7/11", 100, seed=20260816)
        A = sample_sequence(cfg, 10000).elements
        rng = random.Random(20260816)
        targets = [rng.randrange(3, 30000) for _ in range(20)]
        for n in targets:
            res = destruction_audit(A, n, N=156, mode="b22")
            assert res.holds
            res = destruction_audit(A, n, N=156, mode="sidon", epsilon="1/2")
            assert res.holds

    def test_unknown_mode(self):
        with pytest.raises(UnsupportedKind):
            destruction_audit((1, 2), 5, mode="fast")


class TestFamilyType:
    def test_container_and_convention(self):
        fam = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        assert len(fam) == 2 and (2, 4) in fam
        assert fam.convention == "ordered-tuples"
        q = enumerate_family({1, 2, 3}, FamilySpec("Q", 6))
        assert q.convention == "unordered-sets"
        assert q.arity == 3 and fam.arity == 2

    def test_membership_is_cached(self):
        fam = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        again = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        assert [2, 4] in fam and (4, 4) not in fam
        assert fam._member_set is fam._member_set
        assert fam == again and hash(fam) == hash(again)
        assert fam.to_json_lines() == again.to_json_lines()

    def test_invariants_enforced(self):
        spec = FamilySpec("U2", 6)
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((2, 4), (2, 4)))
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((2, 4), (1, 2, 3)))
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((1, 2, 3),))  # U2 is pairs

    def test_json_lines(self):
        fam = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        lines = fam.to_json_lines().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"kind": "U2", "target": 6,
                         "convention": "ordered-tuples", "tuple": [2, 4]}
        r = enumerate_family(range(1, 10), FamilySpec("R", 20, epsilon="1/2"))
        blob = json.loads(r.to_json_lines().splitlines()[0])
        assert blob["epsilon"] == "1/2"
        q = enumerate_family(range(1, 10), FamilySpec("Q", 12, modulus=5))
        blob = json.loads(q.to_json_lines().splitlines()[0])
        assert blob["modulus"] == 5

    def test_positive_elements_required(self):
        with pytest.raises(RangeError):
            enumerate_family({0, 1, 2}, FamilySpec("U2", 3))
