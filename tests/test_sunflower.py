"""Sunflower finders: definition checks, frozen examples, counting guarantees,
and equivalence with an exhaustive oracle on tiny families."""

import json
import random
from itertools import combinations, product

import numpy as np
import pytest

from sidonlab import cli
from sidonlab.numbertheory import RangeError
from sidonlab.sunflower import (
    SunflowerCert,
    find_classical_sunflower,
    find_vectorial_sunflower,
    is_vectorial_sunflower,
    set_h_embed,
)

# Four 5-tuples sharing coordinates 2 and 5; deleting them leaves
# pairwise disjoint coordinate sets.
DISPLAY = (
    (7, 7, 1, 13, 8),
    (17, 7, 6, 6, 8),
    (8, 7, 18, 8, 8),
    (11, 7, 4, 5, 8),
)


class TestEmbed:
    def test_pair(self):
        assert set_h_embed((3, 5)) == frozenset({7, 12})

    def test_constant_triple(self):
        assert set_h_embed((1, 1, 1)) == frozenset({4, 5, 6})

    def test_size_and_injectivity(self):
        rng = random.Random(20260816)
        seen = {}
        for _ in range(300):
            t = tuple(rng.randint(1, 9) for _ in range(3))
            s = set_h_embed(t)
            assert len(s) == 3
            assert seen.setdefault(s, t) == t
        assert len(seen) > 100

    def test_position_recovery(self):
        t = (4, 9, 2, 2)
        for v in set_h_embed(t):
            pos = v % 4 or 4
            assert t[pos - 1] == (v - pos) // 4

    def test_rejects_nonpositive(self):
        with pytest.raises(RangeError):
            set_h_embed((0, 3))


class TestIsVectorialSunflower:
    def test_display_true(self):
        assert is_vectorial_sunflower(DISPLAY, (2, 5))

    def test_display_wrong_types(self):
        assert not is_vectorial_sunflower(DISPLAY, (2,))
        assert not is_vectorial_sunflower(DISPLAY, (5,))
        assert not is_vectorial_sunflower(DISPLAY, ())

    def test_display_sub_family(self):
        assert is_vectorial_sunflower([DISPLAY[0], DISPLAY[2]], (2, 5))

    def test_disjoint_pair_empty_type(self):
        assert is_vectorial_sunflower([(1, 2), (3, 4)], ())

    def test_third_vector_disagrees(self):
        assert not is_vectorial_sunflower([(1, 2), (1, 3), (2, 3)], (1,))

    def test_two_vector_core(self):
        assert is_vectorial_sunflower([(1, 2), (1, 3)], (1,))

    def test_shared_free_value(self):
        assert not is_vectorial_sunflower([(1, 5), (1, 6)], ())
        # the shared value sits on the removed coordinate here
        assert is_vectorial_sunflower([(1, 5), (2, 5)], (2,))

    def test_repeats_inside_one_vector(self):
        assert is_vectorial_sunflower([(2, 2, 3), (4, 5, 6)], ())

    def test_duplicates_fail(self):
        assert not is_vectorial_sunflower([(1, 2), (1, 2)], ())

    def test_full_type_needs_identical(self):
        assert not is_vectorial_sunflower([(1, 2), (1, 3)], (1, 2))

    def test_mixed_arity(self):
        with pytest.raises(RangeError):
            is_vectorial_sunflower([(1, 2), (1, 2, 3)], ())

    def test_bad_position(self):
        with pytest.raises(RangeError):
            is_vectorial_sunflower([(1, 2), (3, 4)], (3,))


def _exact_core(core, petals):
    return all(a & b == core for a, b in combinations(petals, 2))


class TestClassical:
    def test_disjoint_family(self):
        fam = [{1, 2}, {3, 4}, {5, 6}, {7, 8}]
        core, petals = find_classical_sunflower(fam, 3)
        assert core == frozenset()
        assert petals == [frozenset(s) for s in fam[:3]]

    def test_all_pairs_of_five(self):
        fam = [set(c) for c in combinations(range(1, 6), 2)]
        core, petals = find_classical_sunflower(fam, 3)
        assert core == frozenset({1})
        assert petals == [frozenset({1, 2}), frozenset({1, 3}),
                          frozenset({1, 4})]
        assert _exact_core(core, petals)

    def test_single_set(self):
        assert find_classical_sunflower([{1, 2}], 2) is None

    def test_empty_family(self):
        assert find_classical_sunflower([], 1) is None

    def test_k_one(self):
        core, petals = find_classical_sunflower([{4, 7}, {1, 2}], 1)
        assert core == frozenset() and petals == [frozenset({1, 2})]

    def test_duplicates_collapse(self):
        got = find_classical_sunflower([{1, 2}, {2, 1}, {3, 4}], 2)
        assert got is not None
        core, petals = got
        assert core == frozenset()
        assert petals == [frozenset({1, 2}), frozenset({3, 4})]

    def test_bad_k(self):
        with pytest.raises(RangeError):
            find_classical_sunflower([{1, 2}], 0)

    def test_mixed_sizes(self):
        with pytest.raises(RangeError):
            find_classical_sunflower([{1, 2}, {3, 4, 5}], 2)

    def test_petals_are_family_members(self):
        fam = [set(c) for c in combinations(range(1, 7), 3)]
        core, petals = find_classical_sunflower(fam, 2)
        members = {frozenset(s) for s in fam}
        assert all(p in members for p in petals)
        assert _exact_core(core, petals)

    def test_guarantee_pairs(self):
        # 9 distinct 2-sets > 2!*(3-1)^2 = 8, so k=3 must be found
        rng = random.Random(20260816)
        pool = [frozenset(c) for c in combinations(range(1, 9), 2)]
        for _ in range(200):
            fam = rng.sample(pool, 9)
            got = find_classical_sunflower(fam, 3)
            assert got is not None
            core, petals = got
            assert len(petals) == 3 and _exact_core(core, petals)
            assert all(p in set(fam) for p in petals)

    def test_guarantee_triples(self):
        # 7 distinct 3-sets > 3!*(2-1)^3 = 6, so k=2 must be found
        rng = random.Random(99991)
        pool = [frozenset(c) for c in combinations(range(1, 10), 3)]
        for _ in range(200):
            fam = rng.sample(pool, 7)
            got = find_classical_sunflower(fam, 2)
            assert got is not None
            core, petals = got
            assert len(petals) == 2 and _exact_core(core, petals)

    def test_deterministic(self):
        fam = [set(c) for c in combinations(range(1, 6), 2)]
        assert (find_classical_sunflower(fam, 3)
                == find_classical_sunflower(list(reversed(fam)), 3))


def _oracle_exists(members, k):
    """Exhaustive search over petal subsets and types, h=2 only."""
    idx = range(len(members))
    for type_set in ((), (1,), (2,), (1, 2)):
        for combo in combinations(idx, k):
            if is_vectorial_sunflower([members[i] for i in combo], type_set):
                return True
    return False


def _oracle_first(members, k):
    """The documented order, walked literally: types by size then position,
    cores ascending, then the first k-combination of the core's members in
    lexicographic order whose coordinates off the type are pairwise
    disjoint."""
    h = len(members[0])
    order = sorted(range(len(members)), key=lambda i: members[i])
    for size in range(h + 1):
        for I in combinations(range(1, h + 1), size):
            free = [p for p in range(1, h + 1) if p not in I]
            cores = sorted({tuple(members[i][p - 1] for p in I) for i in order})
            for core in cores:
                group = [i for i in order
                         if tuple(members[i][p - 1] for p in I) == core]
                for combo in combinations(group, k):
                    offs = [{members[i][p - 1] for p in free} for i in combo]
                    if all(not (a & b) for a, b in combinations(offs, 2)):
                        return SunflowerCert(combo, I, core)
    return None


class TestVectorial:
    def test_display(self):
        cert = find_vectorial_sunflower(DISPLAY, 4)
        assert cert is not None
        assert cert.type_set == (2, 5)
        assert cert.core_values == (7, 8)
        assert sorted(cert.petal_indices) == [0, 1, 2, 3]
        assert cert.verify(DISPLAY)

    def test_display_k5(self):
        assert find_vectorial_sunflower(DISPLAY, 5) is None

    def test_reads_integers_only(self):
        with pytest.raises(RangeError):
            find_vectorial_sunflower([(1.9, 7, 2), (3, 7, 4.2)], 2)
        cert = find_vectorial_sunflower(np.array(DISPLAY), 4)
        assert cert == find_vectorial_sunflower(DISPLAY, 4)
        assert cert.verify(np.array(DISPLAY))
        # k = 3.5 used to make the search return None on every family
        with pytest.raises(RangeError):
            find_vectorial_sunflower(DISPLAY, 3.5)
        assert find_vectorial_sunflower(DISPLAY, np.int64(4)) == cert
        # classical k = 2.0 used to raise TypeError
        with pytest.raises(RangeError):
            find_classical_sunflower([{1, 2}, {3, 4}], 2.0)
        assert find_classical_sunflower([{1, 2}, {3, 4}], np.int64(2)) \
            == find_classical_sunflower([{1, 2}, {3, 4}], 2)
        with pytest.raises(RangeError):
            cert.verify([(7.5, 7, 1, 13, 8)] + list(DISPLAY[1:]))
        # set_h_embed used to read (1.5, 2.7) as (1, 2)
        with pytest.raises(RangeError):
            set_h_embed((1.5, 2.7))
        embedded = set_h_embed(np.array([2, 5], dtype=np.int64))
        assert embedded == {5, 12}
        assert all(type(v) is int for v in embedded)
        # type positions used to be truncated: 2.9 read as 2
        with pytest.raises(RangeError):
            is_vectorial_sunflower(DISPLAY, (2.9, 5))
        with pytest.raises(RangeError):
            is_vectorial_sunflower([(7.0, 1), (7, 2)], (1,))
        assert is_vectorial_sunflower(np.array(DISPLAY), np.array([2, 5]))

    def test_disjoint_pair(self):
        cert = find_vectorial_sunflower([(1, 2), (3, 4)], 2)
        assert cert is not None
        assert cert.type_set == ()
        assert sorted(cert.petal_indices) == [0, 1]
        assert cert.verify([(1, 2), (3, 4)])

    def test_triangle_family_has_one_core(self):
        members = [(1, 2), (1, 3), (2, 3)]
        cert = find_vectorial_sunflower(members, 2)
        assert cert is not None
        assert cert.type_set == (1,)
        assert cert.core_values == (1,)
        assert cert.petal_indices == (0, 1)
        assert cert.verify(members)

    def test_single_tuple(self):
        assert find_vectorial_sunflower([(4, 9)], 2) is None

    def test_empty_family(self):
        assert find_vectorial_sunflower([], 1) is None

    def test_k_one(self):
        cert = find_vectorial_sunflower([(9, 9), (2, 7)], 1)
        assert cert == SunflowerCert(petal_indices=(1,), type_set=(),
                                     core_values=())

    def test_bad_k(self):
        with pytest.raises(RangeError):
            find_vectorial_sunflower([(1, 2)], 0)

    def test_any_integer_coordinates(self):
        members = [(0, -3), (5, -3), (-1, 2)]
        cert = find_vectorial_sunflower(members, 2)
        assert cert == SunflowerCert((2, 0), (), ())
        assert cert.verify(members)

    def test_duplicate_members(self):
        with pytest.raises(RangeError):
            find_vectorial_sunflower([(1, 2), (1, 2)], 1)

    def test_guarantee_pairs_73(self):
        # 73 > 2!*(3*2)^2 = 72: two petals must always exist
        rng = random.Random(20260816)
        pool = [(a, b) for a in range(1, 41) for b in range(1, 41)]
        for _ in range(200):
            members = rng.sample(pool, 73)
            cert = find_vectorial_sunflower(members, 2)
            assert cert is not None
            assert cert.verify(members)

    def test_guarantee_triples_16465(self):
        # 16465 > 3!*(7*2)^3 = 16464: the counting bound for k=2
        rng = random.Random(424242)
        size = 6 * (7 * 2) ** 3 + 1
        for _ in range(20):
            codes = rng.sample(range(60 ** 3), size)
            members = [(c // 3600 + 1, c // 60 % 60 + 1, c % 60 + 1)
                       for c in codes]
            cert = find_vectorial_sunflower(members, 2)
            assert cert is not None
            assert cert.verify(members)

    def test_tiny_oracle_equivalence(self):
        rng = random.Random(77001)
        pool = [(a, b) for a in range(1, 9) for b in range(1, 9)]
        for trial in range(150):
            members = rng.sample(pool, rng.randint(1, 12))
            k = 2 if trial % 2 == 0 else 3
            cert = find_vectorial_sunflower(members, k)
            assert (cert is not None) == _oracle_exists(members, k)
            if cert is not None:
                assert cert.verify(members)
                assert len(cert.petal_indices) == k

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_returns_the_first_certificate_in_documented_order(self, h, k):
        rng = random.Random(1000 * h + k)
        for _ in range(120):
            vmax = rng.choice((3, 4, 6))
            size = rng.randint(1, min(14, vmax ** h))
            members = rng.sample(
                list(product(range(1, vmax + 1), repeat=h)), size)
            assert find_vectorial_sunflower(members, k) == \
                _oracle_first(members, k), members

    def test_accepts_family_object(self):
        class Bag:
            members = ((1, 2), (3, 4), (5, 6))

        cert = find_vectorial_sunflower(Bag(), 3)
        assert cert is not None and cert.verify(Bag())


class TestCert:
    # a certificate is written as the certificate of the CLI's sunflower find
    def test_json(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text("[[7, 1], [7, 2]]")
        assert cli.run(["sunflower", "find", "--in", str(path), "-k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)["payload"]["certificate"]
        assert doc == {"petalIndices": [0, 1], "typeSet": [1],
                       "coreValues": [7]}
        assert find_vectorial_sunflower([(7, 1), (7, 2)], 2) \
            == SunflowerCert(petal_indices=(0, 1), type_set=(1,),
                             core_values=(7,))

    def test_verify_rejects_wrong_core(self):
        cert = SunflowerCert(petal_indices=(0, 1), type_set=(1,),
                             core_values=(9,))
        assert not cert.verify([(1, 2), (1, 3)])

    def test_verify_rejects_bad_index(self):
        cert = SunflowerCert(petal_indices=(0, 5), type_set=(),
                             core_values=())
        assert not cert.verify([(1, 2), (3, 4)])

    @pytest.mark.parametrize("type_set, core_values", [
        ((2,), ()),          # a type position without its core value
        ((2, 2), (7, 7)),    # a repeated type position
        ((4,), (7,)),        # a type position past the arity
        ((0,), (1,)),        # a type position below 1
    ])
    def test_verify_rejects_malformed_type(self, type_set, core_values):
        members = [(1, 7, 2), (3, 7, 4)]
        assert SunflowerCert((0, 1), (2,), (7,)).verify(members)
        assert not SunflowerCert((0, 1), type_set, core_values).verify(members)

    def test_verify_rejects_unordered_type(self):
        members = [(1, 7, 2), (3, 7, 2)]
        assert SunflowerCert((0, 1), (2, 3), (7, 2)).verify(members)
        assert not SunflowerCert((0, 1), (3, 2), (2, 7)).verify(members)

    def test_verify_rejects_no_petals(self):
        assert not SunflowerCert((), (), ()).verify([(1, 2)])

    def test_verify_rejects_repeated_index(self):
        cert = SunflowerCert(petal_indices=(0, 0), type_set=(),
                             core_values=())
        assert not cert.verify([(1, 2), (3, 4)])
