import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from pathlib import Path

import brute_scans as brute
import numpy as np
import pytest

from sidonlab import deletionlab
from sidonlab.deletionlab import (
    AuditResult,
    FamilySpec,
    VectorFamily,
    _family_size,
    _q_members,
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
        with pytest.raises(RangeError):
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

    def test_reads_integers_only(self):
        for kw in (dict(target=20.5), dict(target=20, modulus=5.0)):
            with pytest.raises(RangeError):
                FamilySpec("Q", **kw)
        spec = FamilySpec("Q", np.int64(20), modulus=np.int64(5))
        assert spec == FamilySpec("Q", 20, modulus=5)
        assert type(spec.target) is int and type(spec.modulus) is int
        assert FamilySpec("B", 5, epsilon="1/2").epsilon == Fraction(1, 2)

    def test_modulus_only_for_kinds_that_read_it(self):
        for kind in ("R", "U2", "V2", "U3", "V3", "W"):
            eps = "1/2" if kind == "R" else None
            with pytest.raises(RangeError, match="does not take a modulus"):
                FamilySpec(kind, 16, modulus=5, epsilon=eps)
            assert FamilySpec(kind, 16, modulus=1, epsilon=eps).modulus == 1
        for kind in ("Q", "T"):
            assert FamilySpec(kind, 16, modulus=5).modulus == 5
        assert FamilySpec("B", 16, modulus=5, epsilon="1/2").modulus == 5

    def test_custom_tag(self):
        # every accepted kind can be enumerated and has a fixed arity
        with pytest.raises(RangeError):
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
        spec = FamilySpec("Q", n, modulus=N)
        fam = enumerate_family(A, spec)
        assert set(fam.members) == oracle_q(A, n, N)
        assert _family_size(tuple(A), spec) == len(fam)

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
        spec = FamilySpec("R", n, epsilon=eps)
        fam = enumerate_family(A, spec)
        assert set(fam.members) == oracle_r(A, n, eps)
        assert _family_size(tuple(A), spec) == len(fam)

    def test_t_contains_spec_tuple(self):
        fam = enumerate_family(range(1, 7), FamilySpec("T", 6, modulus=1))
        assert (1, 2, 3, 6, 2, 5, 3, 4) in fam.members

    @pytest.mark.parametrize("n,N", [(6, 1), (9, 5), (9, 2)])
    def test_t_matches_oracle(self, n, N):
        A = range(1, 7)
        spec = FamilySpec("T", n, modulus=N)
        fam = enumerate_family(A, spec)
        assert len(fam.members) == len(set(fam.members))
        assert set(fam.members) == oracle_t(A, n, N)
        assert _family_size(tuple(A), spec) == len(fam)

    @pytest.mark.parametrize("n,N,eps", [(12, 1, Fraction(2, 3)),
                                         (12, 2, Fraction(2, 3)),
                                         (14, 1, Fraction(1, 2))])
    def test_b_matches_oracle(self, n, N, eps):
        A = range(1, 7)
        spec = FamilySpec("B", n, modulus=N, epsilon=eps)
        fam = enumerate_family(A, spec)
        assert set(fam.members) == oracle_b(A, n, N, eps)
        assert _family_size(tuple(A), spec) == len(fam)

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
                spec = FamilySpec(kind, r)
                fam = enumerate_family(A, spec)
                assert set(fam.members) == oracle_small(A, kind, r)
                assert len(fam.members) == len(set(fam.members))
                assert _family_size(tuple(sorted(A)), spec) == len(fam)


class TestQCount:
    """`_family_size` counts Q from pair sums, without building members."""

    @pytest.mark.parametrize("N", [1, 5, 156, 7])
    def test_equals_builder_on_seeded_sets(self, N):
        rng = random.Random(20261019 + N)
        for _ in range(150):
            top = rng.randrange(4, 600)
            A = rng.sample(range(1, top), rng.randrange(min(top - 1, 80)))
            n = rng.randrange(1, 3 * top)
            spec = FamilySpec("Q", n, modulus=N)
            A = tuple(sorted(A))
            stream = _q_members(A, spec)
            assert _family_size(A, spec) == sum(1 for _ in stream)
        # every builder streams its members in one fixed order, ascending
        # tuples (T and B grouped by the set of their Q or R head first),
        # and enumerate_family keeps that order
        A = rng.sample(range(1, 40), 14)
        for kind, family in deletionlab._FAMILIES.items():
            head = {"T": 3, "B": 4}.get(kind, 0)
            sizes = []
            for n in (12, 40):
                spec = FamilySpec(kind, n, modulus=N if family.modulus else 1,
                                  epsilon="1/2" if family.epsilon else None)
                stream = tuple(family.build(sorted(A), spec))
                assert enumerate_family(A, spec).members == stream
                assert list(stream) == sorted(
                    stream, key=lambda t: (sorted(t[:head]), t))
                sizes.append(len(stream))
            # T and B need congruent pairs, which mod 156 means equal ones
            assert any(sizes) or (head and N == 156)

    @pytest.mark.parametrize("N", [1, 5, 156])
    @pytest.mark.parametrize("A,n", [
        (range(1, 31), 30),             # 3x = n, and 2x + y = n for many x
        (range(1, 31), 31),             # 2x + y = n only
        ((1, 2, 3, 4, 6), 9),           # (3, 3, 3) and (4, 4, 1)
        ((2, 7, 12, 17), 21),           # (7, 7, 7) and (2, 7, 12): x = 2 mod 5
        ((4, 160, 316), 480),           # all three = 4 mod 156
        ((), 9), ((3,), 9), ((3, 6), 12), ((3, 6), 9)])
    def test_repeated_coordinates_and_tiny_sets(self, A, n, N):
        spec = FamilySpec("Q", n, modulus=N)
        assert _family_size(tuple(A), spec) == len(oracle_q(A, n, N))

    def test_blocks_and_wide_sets(self, monkeypatch):
        rng = random.Random(5)
        sets = [(tuple(sorted(rng.sample(range(1, 400), 40))),
                 rng.randrange(1, 1200), N)
                for N in (1, 5, 156) for _ in range(20)]
        want = [len(oracle_q(A, n, N)) for A, n, N in sets]
        monkeypatch.setattr(deletionlab, "_q_members", None)
        monkeypatch.setattr(deletionlab, "_BLOCK_PAIRS", 7)
        assert [_family_size(A, FamilySpec("Q", n, modulus=N))
                for A, n, N in sets] == want
        # a bitmap past the limit hands the set to the builder
        monkeypatch.undo()
        monkeypatch.setattr(deletionlab, "_BITMAP_LIMIT", 64)
        assert [_family_size(A, FamilySpec("Q", n, modulus=N))
                for A, n, N in sets] == want


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

    def test_lifts_read_integers_only(self):
        # int() used to truncate 1.9, so the lift returned (1, 2, 3)
        for lift in (b2_2_lift, sidon_lift):
            with pytest.raises(RangeError):
                lift([1.9, 2, 3])
        assert b2_2_lift(np.array([1, 2, 5], dtype=np.int64)) == (1, 2, 5)

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

    def test_removals_match_literal_scan(self):
        # the witness chosen, not only its validity, is pinned: dense
        # ranges, sparse sets and values from 2^62, sizes 0 to 40
        rng = random.Random(20261018)
        for i in range(300):
            size = rng.randrange(41)
            if i % 3 == 0:
                lo = rng.randrange(1, 100)
                A = rng.sample(range(lo, lo + 2 * size + 1), size)
            elif i % 3 == 1:
                A = rng.sample(range(1, 10 ** 5), size)
            else:
                A = [2 ** 62 + rng.randrange(3 * size + 1) for _ in range(size)]
            assert sidon_removals(A) == brute.removals(A, 2)
            assert b22_removals(A) == brute.removals(A, 3)

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

    def test_each_entry_reads_its_sequence_once(self, monkeypatch):
        calls, coerce = [], deletionlab._coerce

        def spy(A):
            calls.append(A)
            return coerce(A)

        A = [9, 1, 5, 2, 7, 3, 1, 12, 4]
        want = [destruction_audit(A, 15, mode="b22"),
                destruction_audit(A, 15, N=2, mode="sidon", epsilon="1/2")]
        monkeypatch.setattr(deletionlab, "_coerce", spy)
        assert [destruction_audit(A, 15, mode="b22"),
                destruction_audit(A, 15, N=2, mode="sidon",
                                  epsilon="1/2")] == want
        assert calls == [A, A]
        for entry in (sidon_lift, b2_2_lift, sidon_removals, b22_removals,
                      partial(enumerate_family, spec=FamilySpec("Q", 15))):
            calls.clear()
            entry(A)
            assert calls == [A]

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
        with pytest.raises(RangeError):
            destruction_audit((1, 2), 5, mode="fast")

    def test_b22_mode_rejects_epsilon(self):
        with pytest.raises(RangeError, match="does not take epsilon"):
            destruction_audit(range(1, 10), 12, mode="b22", epsilon="1/2")

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="ru_maxrss is in KB on Linux only")
    @pytest.mark.parametrize("spec,size", [
        ("FamilySpec('T', 30)", 9_215_532),
        ("FamilySpec('B', 60, modulus=7, epsilon=Fraction(1, 2))", 2_137_428),
    ], ids=["T", "B"])
    def test_obstruction_counts_in_bounded_memory(self, spec, size):
        # the obstruction families of `audit destruction` on 1..39; a list
        # of their members took 1,158 MB (T) and 246 MB (B)
        code = ("import resource\n"
                "from fractions import Fraction\n"
                "from sidonlab.deletionlab import FamilySpec, _family_size\n"
                f"print(_family_size(tuple(range(1, 40)), {spec}),\n"
                "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(deletionlab.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        count, kb = map(int, done.stdout.split())
        assert count == size
        assert kb < 200 * 1024


class TestFamilyType:
    def test_container_and_convention(self):
        # Q and R members are sorted sets, the other kinds ordered tuples
        fam = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        assert len(fam) == 2 and (2, 4) in fam and (4, 2) in fam
        q = enumerate_family({1, 2, 3}, FamilySpec("Q", 6))
        assert q.members == ((1, 2, 3),)
        assert q.arity == 3 and fam.arity == 2
        for kind, ordered in (("R", False), ("B", True)):
            spec = FamilySpec(kind, 20, epsilon="1/2")
            members = enumerate_family(range(1, 10), spec).members
            assert members
            assert any(list(t) != sorted(t) for t in members) == ordered

    def test_membership_is_cached(self):
        fam = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        again = enumerate_family({1, 2, 4}, FamilySpec("U2", 6))
        assert [2, 4] in fam and (4, 4) not in fam
        assert fam._member_set is fam._member_set
        assert fam == again and hash(fam) == hash(again)

    def test_invariants_enforced(self):
        spec = FamilySpec("U2", 6)
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((2, 4), (2, 4)))
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((2, 4), (1, 2, 3)))
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((1, 2, 3),))  # U2 is pairs

    def test_reads_integers_only(self):
        # int() used to store (1.9, 8.2) as (1, 8)
        spec = FamilySpec("U2", 9)
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((1.9, 8.2),))
        with pytest.raises(RangeError):
            VectorFamily(spec=spec, members=((1, 8), (2.0, 7)))
        fam = VectorFamily(spec=spec, members=np.array([[1, 8], [2, 7]]))
        assert fam.members == ((1, 8), (2, 7))
        assert all(type(v) is int for t in fam.members for v in t)
        mixed = VectorFamily(spec=spec, members=((1, 8), [2, 7]))
        assert mixed.members == ((1, 8), (2, 7))

    def test_int_tuples_are_not_copied(self):
        members = ((1, 8), (2, 7), (4, 5))
        fam = VectorFamily(spec=FamilySpec("U2", 9), members=members)
        assert fam.members is members
        assert fam.members[0] is members[0]
        mixed = VectorFamily(spec=FamilySpec("U2", 9),
                             members=[members[0], [2, 7]])
        assert mixed.members[0] is members[0]

    def test_positive_elements_required(self):
        with pytest.raises(RangeError):
            enumerate_family({0, 1, 2}, FamilySpec("U2", 3))
