import random

import numpy as np
import pytest

import brute_scans as brute
from sidonlab.curveoracle import (
    CurveParams,
    QuadricParams,
    curve_point_count,
    curve_point_table,
    dyadic_box_coverage,
    enumerate_quadric,
    hasse_gap,
    hasse_slack,
    repeated_coordinate_count,
    special_rep4_count,
    torus_points,
    triple_rep_count,
    triple_rep_table,
    triple_reps,
)
from sidonlab import numbertheory
from sidonlab.numbertheory import (NotGenerator, NotPrime, RangeError, is_prime,
                                   is_primitive_root, primitive_root)


def test_curve_point_count_example():
    assert curve_point_count(CurveParams(7, 0, 1)) == 6


def test_curve_point_count_matches_brute_scan():
    # every (b, lam) at the primes up to 31, seeded ones at 211 and 307
    for p, g, a, b in brute.targets():
        lam = pow(g, a, p)
        assert curve_point_count(CurveParams(p, b, lam)) == \
            brute.curve_point_count(p, b, lam), (p, b, lam)


@pytest.mark.parametrize("p", [3, 13, 31, 101])
def test_point_counts_for_every_b_at_once(p):
    # the sweep's path: one kernel call counts every b at one lam
    g = primitive_root(p)
    want = {}
    for a in range(p - 1):
        lam = pow(g, a, p)
        for b in range(p):
            points = brute.curve_point_count(p, b, lam)
            if points:
                want[a, b] = points
    table = curve_point_table(p, g)
    assert table == want
    assert table == triple_rep_table(p, g)


@pytest.mark.parametrize("p, g, error", [
    (15, 2, NotPrime), (2, 1, NotPrime), (7, 2, NotGenerator)])
def test_curve_point_table_checks_p_and_g(p, g, error):
    with pytest.raises(error):
        curve_point_table(p, g)


def test_curve_point_count_needs_p_below_2_31():
    p = 2 ** 31 + 11
    assert is_prime(p)
    with pytest.raises(RangeError):
        curve_point_count(CurveParams(p, 0, 1))


def test_curve_params_reads_integers_only():
    # b = 2.5 used to be stored and end in an IndexError in the point count
    with pytest.raises(RangeError):
        CurveParams(13, 2.5, 1)
    params = CurveParams(np.int64(13), np.int64(2), np.int64(1))
    assert params == CurveParams(13, 2, 1)
    assert all(type(v) is int for v in (params.p, params.b, params.lam))


def test_triple_rep_count_reads_integers_only():
    with pytest.raises(RangeError):
        triple_rep_count(13, 2, 2.0, 3)
    assert triple_rep_count(13, 2, np.int64(2), np.int64(3)) \
        == triple_rep_count(13, 2, 2, 3)
    # p and k as floats used to raise TypeError
    with pytest.raises(RangeError):
        hasse_slack(13.0)
    assert hasse_slack(np.int64(13)) == hasse_slack(13)
    points = torus_points(QuadricParams(7, 0, 1))
    with pytest.raises(RangeError):
        dyadic_box_coverage(points, 1.0)
    assert dyadic_box_coverage(points, np.int64(1)) \
        == dyadic_box_coverage(points, 1)


def test_triple_rep_distinct_flag():
    # an unknown flag used to count as "none"
    with pytest.raises(RangeError):
        triple_rep_count(13, 2, 2, 3, distinct="bogus")
    with pytest.raises(RangeError):
        triple_rep_table(13, 2, distinct="bogus")


def test_curve_params_validation():
    with pytest.raises(NotPrime):
        CurveParams(8, 0, 1)
    with pytest.raises(RangeError):
        CurveParams(7, 0, 0)
    with pytest.raises(RangeError):
        CurveParams(7, 7, 1)


def test_triple_rep_count_example():
    # logs {0,2,4} for g=3 mod 7: powers {1,2,4} sum to 0 mod 7.
    assert triple_rep_count(7, 3, 0, 0) == 6
    assert repeated_coordinate_count(7, 3, 0, 0) == 0


def test_solver_matches_brute_scans():
    # lexicographic order included: the decompositions take first hits
    for p, g, a, b in brute.targets():
        assert tuple(triple_reps(p, g, a, b)) == brute.triples(p, g, a, b)
        for distinct in ("none", "pairwise"):
            assert triple_rep_count(p, g, a, b, distinct) == \
                brute.triple_rep_count(p, g, a, b, distinct), (p, a, b)
        assert repeated_coordinate_count(p, g, a, b) == \
            brute.repeated_coordinate_count(p, g, a, b), (p, a, b)
        assert special_rep4_count(p, g, a, b) == \
            brute.special_rep4_count(p, g, a, b), (p, a, b)


def test_solver_checks_arguments_before_iterating():
    with pytest.raises(RangeError):
        triple_reps(7, 3, 6, 0)
    with pytest.raises(NotGenerator):
        triple_reps(7, 2, 0, 0)
    with pytest.raises(NotPrime):
        triple_reps(2, 1, 0, 1)


def test_triple_rep_requires_generator():
    with pytest.raises(NotGenerator):
        triple_rep_count(7, 2, 0, 0)  # 2^3 = 1 mod 7


def test_identity_small_sweep():
    # The count of ordered log-triples equals the V != 0 point count of the
    # curve with lam = g^a, for every target. Full sweep at p = 11, 13.
    for p in (5, 7, 11, 13):
        g = primitive_root(p)
        table = triple_rep_table(p, g)
        for a in range(p - 1):
            lam = pow(g, a, p)
            for b in range(p):
                curve = curve_point_count(CurveParams(p, b, lam))
                assert table.get((a, b), 0) == curve, (p, a, b)


def test_table_matches_triple_loop():
    # the profile of the Ruzsa set, read back through the CRT, against the
    # loop over every (x1, x2, x3), with up to three generators per prime
    for p in range(3, 32):
        if not is_prime(p):
            continue
        gens = [h for h in range(2, p) if is_primitive_root(h, p)][:3]
        for g in gens:
            for distinct in ("none", "pairwise"):
                want = brute.triple_rep_table(p, g, distinct)
                got = triple_rep_table(p, g, distinct)
                assert got == want, (p, g, distinct)
                assert all(type(k) is int for key in got for k in key)


def test_table_tests_primality_once(monkeypatch):
    real, calls = numbertheory.is_prime, []
    monkeypatch.setattr(numbertheory, "is_prime",
                        lambda p: calls.append(p) or real(p))
    triple_rep_table(31, 3)
    assert calls.count(31) == 1


def test_table_checks_arguments_as_the_solver_does():
    with pytest.raises(NotPrime):
        triple_rep_table(2, 1)
    with pytest.raises(NotPrime):
        triple_rep_table(15, 2)
    with pytest.raises(NotGenerator):
        triple_rep_table(7, 2)  # 2^3 = 1 mod 7


def test_pairwise_table_is_total_minus_repeated():
    p, g = 11, primitive_root(11)
    full = triple_rep_table(p, g)
    pairwise = triple_rep_table(p, g, distinct="pairwise")
    for a in range(p - 1):
        for b in range(p):
            rep = repeated_coordinate_count(p, g, a, b)
            assert rep <= 9
            assert pairwise.get((a, b), 0) == full.get((a, b), 0) - rep


def test_special_rep4_bounded_small():
    for p in (5, 7):
        g = primitive_root(p)
        for a in range(p - 1):
            for b in range(p):
                assert special_rep4_count(p, g, a, b) <= 6


def test_hasse_gap_example_and_slack():
    assert hasse_gap(CurveParams(7, 0, 1)) == -1
    assert hasse_slack(7) == 10
    assert hasse_slack(100) == 24
    rng = random.Random(99)
    primes = [p for p in range(101, 200) if is_prime(p)]
    for _ in range(10):
        p = rng.choice(primes)
        b = rng.randrange(p)
        lam = rng.randrange(1, p)
        assert abs(hasse_gap(CurveParams(p, b, lam))) <= hasse_slack(p)


def test_enumerate_quadric_example():
    sols = enumerate_quadric(QuadricParams(7, 0, 1))
    assert (0, 2) in sols and (0, 5) in sols
    assert all(((x1 * x1 + x2 * x2 + (x1 + x2) ** 2) % 7 == 1) for x1, x2 in sols)
    # swap symmetry
    assert set(sols) == {(b, a) for a, b in sols}


def test_enumerate_quadric_matches_brute_scan():
    cases = [(p, r1, r2) for p in range(3, 32) if is_prime(p)
             for r1 in range(p) for r2 in range(p)]
    rng = random.Random(5)
    for p in (211, 307):
        cases += [(p, rng.randrange(p), rng.randrange(p)) for _ in range(8)]
        r1 = rng.randrange(p)  # a reducible target: 6 r2 = 2 r1^2
        cases.append((p, r1, r1 * r1 * pow(3, -1, p) % p))
    for p, r1, r2 in cases:
        got = enumerate_quadric(QuadricParams(p, r1, r2))
        assert got == brute.enumerate_quadric(p, r1, r2), (p, r1, r2)
        assert type(got) is list


def test_quadric_swap_symmetry_random():
    rng = random.Random(3)
    for _ in range(10):
        p = rng.choice([7, 13, 19, 31])
        q = QuadricParams(p, rng.randrange(p), rng.randrange(p))
        pts = set(enumerate_quadric(q))
        assert pts == {(b, a) for a, b in pts}


def test_reducible_case_splits_into_lines():
    # 6 r2 = 2 r1^2 mod p with p = 1 mod 3: writing c = r1/3 (the center),
    # the quadric becomes (x1-c)^2 + (x1-c)(x2-c) + (x2-c)^2 = 0, the union
    # of the lines x1 - c = w (x2 - c) for the two roots of w^2 + w + 1 = 0.
    p = 13
    w = next(z for z in range(2, p) if (z * z + z + 1) % p == 0)
    w2 = w * w % p
    inv3 = pow(3, -1, p)
    for r1 in range(p):
        r2 = (2 * r1 * r1) % p * pow(6, -1, p) % p
        q = QuadricParams(p, r1, r2)
        assert q.degenerate_rhs and q.splits_into_lines
        sols = enumerate_quadric(q)
        c = r1 * inv3 % p
        lines = set()
        for x2 in range(p):
            lines.add(((c + w * (x2 - c)) % p, x2))
            lines.add(((c + w2 * (x2 - c)) % p, x2))
        assert set(sols) == lines, r1


def test_irreducible_flag():
    q = QuadricParams(7, 0, 1)
    assert not q.splits_into_lines  # 6*1 - 0 = 6 != 0 mod 7


def test_torus_points_example():
    q = QuadricParams(7, 0, 1)
    points = torus_points(q)
    from fractions import Fraction

    assert (Fraction(0), Fraction(2, 7), Fraction(0), Fraction(4, 7)) in points
    # one exact point per solution, in enumerate_quadric's order
    assert points == tuple((Fraction(x1, 7), Fraction(x2, 7),
                            Fraction(x1 * x1 % 7, 7), Fraction(x2 * x2 % 7, 7))
                           for x1, x2 in enumerate_quadric(q))
    for pt in points:
        for c in pt:
            assert 0 <= c < 1


def test_dyadic_box_coverage_empty_cloud():
    assert dyadic_box_coverage((), 1) == (16, 16)
    assert dyadic_box_coverage((), 0) == (1, 1)


def test_dyadic_box_coverage_counts():
    points = torus_points(QuadricParams(7, 0, 1))
    assert points
    e0, t0 = dyadic_box_coverage(points, 0)
    assert (e0, t0) == (0, 1)
    e1, t1 = dyadic_box_coverage(points, 1)
    assert t1 == 16 and 0 <= e1 < 16
    e2, t2 = dyadic_box_coverage(points, 2)
    assert t2 == 256
    # occupied boxes can only split as k grows
    assert (t1 - e1) <= (t2 - e2) <= 4 * 4 * (t1 - e1)
