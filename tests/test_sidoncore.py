import itertools
import random
from math import comb

import pytest

import brute_scans as brute
from sidonlab.numbertheory import NotGenerator, RangeError
from sidonlab.sidoncore import (
    _brute_profile_counts,
    ModSet,
    NotOddPrime,
    b2g_bound,
    basis_order_check,
    convolution_profile_array,
    erdos_turan_set,
    is_sidon,
    rep_profile,
    ruzsa_set,
)


def test_modset_validation_and_ordering():
    s = ModSet(10, (3, 1, 7))
    assert s.elements == (1, 3, 7)
    with pytest.raises(RangeError):
        ModSet(10, (1, 10))
    with pytest.raises(RangeError):
        ModSet(10, (1, 1))
    with pytest.raises(RangeError):
        ModSet(0, ())


def test_modset_json_and_text_roundtrip():
    s = ModSet(156, (3, 14, 16, 17))
    assert ModSet.from_json(s.to_json()) == s
    assert ModSet.from_text(s.to_text()) == s
    assert s.to_text().splitlines()[0] == "mod 156"
    with pytest.raises(RangeError):
        ModSet.from_text("156\n3\n")


def test_modset_membership_is_cached():
    s, t = ModSet(156, (3, 14, 16, 17)), ModSet(156, (17, 16, 14, 3))
    assert 14 in s and 15 not in s and "14" not in s
    assert s._members is s._members
    assert s == t and hash(s) == hash(t) and s.to_json() == t.to_json()


def test_erdos_turan_examples():
    assert erdos_turan_set(3).elements == (0, 7, 8)
    assert erdos_turan_set(3).modulus == 18
    assert erdos_turan_set(5).elements == (0, 11, 14, 42, 43)
    with pytest.raises(NotOddPrime):
        erdos_turan_set(2)
    with pytest.raises(NotOddPrime):
        erdos_turan_set(9)


def test_erdos_turan_shape():
    for p in (3, 5, 7, 11, 13, 31):
        s = erdos_turan_set(p)
        assert len(s) == p
        assert max(s.elements) < 2 * p * p
        assert is_sidon(s, mode="integer").is_sidon


def test_ruzsa_examples():
    assert ruzsa_set(5, 2).elements == (3, 14, 16, 17)
    assert ruzsa_set(3, 2).elements == (4, 5)
    with pytest.raises(NotGenerator):
        ruzsa_set(13, 3)
    with pytest.raises(NotOddPrime):
        ruzsa_set(8)


def test_ruzsa_shape_and_sidon():
    for p in (3, 5, 7, 13, 31):
        s = ruzsa_set(p)
        assert len(s) == p - 1
        assert s.modulus == (p - 1) * p
        assert is_sidon(s, mode="cyclic").is_sidon


def test_is_sidon_examples():
    assert is_sidon(ModSet(7, (0, 1, 3)), mode="cyclic").is_sidon
    w = is_sidon([1, 2, 3, 4], mode="integer")
    assert not w.is_sidon
    a, a2, a3, a4 = w.collision
    assert a + a2 == a3 + a4
    assert {a, a2} != {a3, a4}
    assert {a, a2, a3, a4} <= {1, 2, 3, 4}


def test_is_sidon_witness_matches_dict_scan():
    # the first repeated pair sum in (i, j >= i) order and the first pair of
    # that sum, as the dictionary scan finds them; the scan order is the
    # sorted input, reduced mod N in cyclic mode
    rng = random.Random(17)
    big = 1 << 70  # beyond int64: exact object arithmetic
    cases = [([], "integer", None), ([], "cyclic", 5)]
    for _ in range(400):
        shift = rng.choice([0, 10 ** 6, big, -big])
        elems = {shift + rng.randrange(-60, 60) for _ in range(rng.randrange(1, 25))}
        cases.append((list(elems), "integer", None))
        modulus = rng.choice([rng.randrange(1, 200), big + rng.randrange(200)])
        cyclic = {rng.randrange(60) + modulus * rng.randrange(3)
                  for _ in range(rng.randrange(1, 20))}
        if len({e % modulus for e in cyclic}) == len(cyclic):
            cases.append((list(cyclic), "cyclic", modulus))
    witnessed = wide = 0
    for elems, mode, modulus in cases:
        order = sorted(elems)
        if mode == "cyclic":
            order = [e % modulus for e in order]
        want = brute.sidon_witness(order, mode, modulus)
        got = is_sidon(elems, mode=mode, modulus=modulus)
        assert got.collision == want, (elems, mode, modulus)
        assert got.is_sidon == (want is None)
        witnessed += want is not None
        wide += want is not None and max(map(abs, want)) >= 1 << 63
    assert witnessed > 200 and wide > 50


def test_is_sidon_modes_differ():
    # {0,1,3} is Sidon as integers but not mod 5 (1+3 = 4 = 0+4... use 0+0=3+... )
    # 0+3 = 3, 1+1 = 2, 0+1 = 1, 3+3 = 6 = 1 mod 5: collides with 0+1.
    s = [0, 1, 3]
    assert is_sidon(s, mode="integer").is_sidon
    assert not is_sidon(s, mode="cyclic", modulus=5).is_sidon


def test_b2g_bound_example():
    assert b2g_bound([1, 2, 3, 4], mode="integer") == 2
    assert b2g_bound([], mode="integer") == 0
    assert b2g_bound([5], mode="integer") == 1


def test_b2g_bound_one_iff_sidon():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(20, 60)
        size = rng.randrange(0, 8)
        elems = tuple(sorted(rng.sample(range(n), size)))
        ms = ModSet(n, elems)
        verdict = is_sidon(ms, mode="cyclic")
        g = b2g_bound(ms, mode="cyclic")
        if elems:
            assert (g == 1) == verdict.is_sidon
        else:
            assert g == 0


def test_b2g_bound_matches_brute_profile():
    # the longest run of equal pair sums is the largest unordered count
    rng = random.Random(29)
    checked = 0
    for _ in range(200):
        size = rng.randrange(0, 30)
        base = rng.choice([0, -50, 1 << 62, 10 ** 20])
        elems = [base + x for x in rng.sample(range(3 * size + 5), size)]
        cases = [("integer", None)]
        modulus = rng.choice([rng.randrange(1, 60), (1 << 63) + rng.randrange(9)])
        if len({e % modulus for e in elems}) == size:
            cases.append(("cyclic", modulus))
        for mode, mod in cases:
            profile = rep_profile(elems, 2, mode=mode, modulus=mod,
                                  convention="unordered")
            want = max(profile.counts.values(), default=0)
            assert b2g_bound(elems, mode=mode, modulus=mod) == want
            checked += mode == "cyclic" and want > 1
    assert checked > 20


def test_rep_profile_totals():
    ms = ModSet(20, (0, 3, 5, 11))
    for h in (1, 2, 3):
        for convention in ("ordered", "unordered"):
            for distinct in ("none", "pairwise"):
                prof = rep_profile(ms, h, convention=convention,
                                   distinct=distinct)
                assert prof.total() == prof.expected_total(len(ms))
    prof = rep_profile(ms, 2, convention="unordered")
    assert prof.total() == comb(4 + 1, 2)


def test_rep_profile_integer_mode():
    prof = rep_profile([1, 2, 4], 2, mode="integer", convention="unordered",
                       distinct="none")
    assert prof.counts == {2: 1, 3: 1, 5: 1, 4: 1, 6: 1, 8: 1}
    assert prof.modulus is None


def test_engines_agree_random_sweep():
    rng = random.Random(20260816)
    for trial in range(100):
        N = rng.randrange(2, 2001)
        h = rng.choice((2, 3))
        max_size = min(N, 60 if h == 2 else 36)
        size = rng.randrange(1, max_size + 1)
        ms = ModSet(N, tuple(rng.sample(range(N), size)))
        brute = _brute_profile_counts(ms.elements, h, "cyclic", N,
                                      "ordered", "none")
        conv = rep_profile(ms, h, convention="ordered", distinct="none")
        assert conv.counts == brute, (trial, N, h, size)


def test_convolution_array_matches_counts():
    ms = ModSet(50, (0, 1, 4, 9, 11))
    arr = convolution_profile_array(ms, 3)
    brute = _brute_profile_counts(ms.elements, 3, "cyclic", 50, "ordered", "none")
    assert {i: c for i, c in enumerate(arr.tolist()) if c} == brute
    assert int(arr.sum()) == 5**3


def test_basis_order_check_example():
    ms = ModSet(7, (0, 1, 3))
    ok, uncovered = basis_order_check(ms, 2)
    assert not ok and uncovered == [5]
    ok3, uncovered3 = basis_order_check(ms, 3)
    assert ok3 and uncovered3 == []


def test_basis_order_repetition_flag():
    ms = ModSet(4, (0, 2))
    ok_allowed, _ = basis_order_check(ms, 2, repetition="allowed")
    ok_forbidden, unc = basis_order_check(ms, 2, repetition="forbidden")
    assert not ok_allowed  # sums 0,2 only
    assert not ok_forbidden and unc == [0, 1, 3]  # only 0+2=2


def test_no_sidon_basis_of_order_2_at_toy_scale():
    # Exhaustive: for 3 < N <= 12, no subset of Z_N of size >= 2 is both
    # Sidon (cyclic) and an additive basis of order 2 for all of Z_N.
    for N in range(4, 13):
        for size in range(2, N + 1):
            for elems in itertools.combinations(range(N), size):
                ms = ModSet(N, elems)
                if not is_sidon(ms, mode="cyclic").is_sidon:
                    continue
                covered, _ = basis_order_check(ms, 2)
                assert not covered, (N, elems)
    # N = 3 is the boundary case where one exists.
    ms = ModSet(3, (0, 1))
    assert is_sidon(ms, mode="cyclic").is_sidon
    assert basis_order_check(ms, 2)[0]


def test_integer_sidon_embeds_mod_n():
    # An integer Sidon set with max < N/2 stays Sidon mod N.
    rng = random.Random(5)
    for _ in range(40):
        N = rng.randrange(10, 200)
        size = rng.randrange(1, 8)
        pool = range(N // 2)
        if size > len(pool):
            continue
        elems = sorted(rng.sample(pool, size))
        if is_sidon(elems, mode="integer").is_sidon:
            assert is_sidon(ModSet(N, tuple(elems)), mode="cyclic").is_sidon
