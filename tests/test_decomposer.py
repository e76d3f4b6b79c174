import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import brute_scans as brute
from sidonlab import cli, numbertheory
from sidonlab.curveoracle import curve_point_table
from sidonlab.decomposer import (
    Decomposition,
    LiftTarget,
    NoRepresentation,
    decompose3_ruzsa,
    decompose3_zn,
    decompose4_ruzsa,
    lift_to_interval,
)
from sidonlab.numbertheory import PrimeNotFound, RangeError, crt_flatten
from sidonlab.sidoncore import ruzsa_set


def _maybe(f):
    try:
        return f()
    except NoRepresentation:
        return None


class TestLift:
    def test_reads_integers_only(self):
        # lift_to_interval(1000.5, 681) used to return r1 = 33.5
        for n, N in ((1000.5, 681), (1000, 681.0)):
            with pytest.raises(RangeError):
                lift_to_interval(n, N)
        lift = lift_to_interval(np.int64(1000), np.int64(681))
        assert lift == lift_to_interval(1000, 681)
        assert all(type(getattr(lift, f)) is int
                   for f in ("n", "N", "p", "K", "U", "r1", "r2"))

    def test_example_700(self):
        lift = lift_to_interval(0, 700)
        assert (lift.p, lift.K, lift.U) == (13, 4, 36)
        # lo = 4 * 27 = 108, M = 700, r2 = ceil((700 - 36) / 26) = 26
        assert (lift.r1, lift.r2) == (24, 26)
        assert lift.value == 700

    @pytest.mark.parametrize("N,p,K,U", [(244, 7, 2, 19), (700, 13, 4, 36),
                                         (1500, 19, 5, 52)])
    def test_total_and_minimal(self, N, p, K, U):
        lo = K * (2 * p + 1)
        for n in range(N):
            lift = lift_to_interval(n, N)
            assert (lift.p, lift.K, lift.U) == (p, K, U)
            assert K <= lift.r1 <= U and K <= lift.r2 <= U
            assert lift.value % N == n
            assert lo <= lift.value < lo + N  # smallest representable lift

    def test_explicit_p_validation(self):
        assert lift_to_interval(5, 700, p=13).value % 700 == 5
        with pytest.raises(RangeError):
            lift_to_interval(0, 700, p=11)  # 11 = 2 mod 3
        with pytest.raises(RangeError):
            lift_to_interval(0, 700, p=12)
        with pytest.raises(RangeError):
            lift_to_interval(0, 900, p=13)  # 5 * 169 = 845 < 900

    def test_no_prime_in_bracket(self):
        with pytest.raises(PrimeNotFound):
            lift_to_interval(0, 1000)

    def test_target_validation(self):
        with pytest.raises(RangeError):
            LiftTarget(n=0, N=700, p=13, K=4, U=36, r1=3, r2=26)
        with pytest.raises(RangeError):
            LiftTarget(n=1, N=700, p=13, K=4, U=36, r1=24, r2=26)


class TestRuzsaDecompose:
    @pytest.mark.parametrize("decompose", [decompose3_ruzsa, decompose4_ruzsa])
    def test_reads_integers_only(self, decompose):
        # a = 2.0 used to end in "TypeError: list indices must be integers"
        with pytest.raises(RangeError):
            decompose(13, 2.0, 3)
        assert decompose(13, np.int64(2), np.int64(3)).parts \
            == decompose(13, 2, 3).parts

    def test_three_term_example(self):
        d = decompose3_ruzsa(7, 0, 0, g=3)
        assert d.certificate["logs"] == [0, 2, 4]  # 1 + 2 + 4 = 7 = 0 mod 7
        assert d.parts == [36, 2, 4]
        assert sum(d.parts) % 42 == crt_flatten(0, 0, 7) == 0
        assert d.replay()

    def test_three_term_full_sweep_p13(self):
        for a in range(12):
            for b in range(13):
                d = decompose3_ruzsa(13, a, b)
                logs = d.certificate["logs"]
                assert sum(logs) % 12 == a
                assert sum(pow(d.certificate["g"], x, 13) for x in logs) % 13 == b
                assert d.replay()

    def test_distinct_flag(self):
        default = decompose3_ruzsa(7, 0, 3, g=3)
        assert default.certificate["logs"] == [0, 0, 0]  # 1 + 1 + 1 = 3
        # every triple summing to (0, 3) repeats an exponent
        with pytest.raises(NoRepresentation):
            decompose3_ruzsa(7, 0, 3, g=3, require_distinct=True)
        d = decompose3_ruzsa(7, 0, 0, g=3, require_distinct=True)
        assert d.certificate["logs"] == [0, 2, 4]

    def test_four_term_example(self):
        d = decompose4_ruzsa(7, 0, 2, g=3)
        assert d.certificate["logs"] == [3, 4, 5]
        assert d.parts == [27, 4, 5, 36]  # 36 is the fixed part (0, 1)
        assert len(set(d.parts)) == 4
        assert sum(d.parts) % 42 == crt_flatten(0, 2, 7)
        assert d.replay()

    def test_four_term_sweep_p13(self):
        hits = 0
        for a in range(12):
            for b in range(13):
                d = _maybe(lambda: decompose4_ruzsa(13, a, b))
                if d is None:
                    continue
                hits += 1
                assert len(d.parts) == 4 and len(set(d.parts)) == 4
                assert d.replay()
        assert hits == 153  # 3 of 156 targets admit no distinct 4-tuple

    def test_three_term_matches_brute_scan(self):
        for p, g, a, b in brute.targets():
            for distinct in (False, True):
                want = brute.decompose3_logs(p, g, a, b, distinct)
                got = _maybe(lambda: decompose3_ruzsa(
                    p, a, b, g=g, require_distinct=distinct))
                if want is None:
                    assert got is None, (p, a, b, distinct)
                    continue
                powers = [pow(g, x, p) for x in want]
                assert got.certificate == {"g": g, "logs": want,
                                           "powers": powers}
                assert got.parts == [crt_flatten(x, v, p)
                                     for x, v in zip(want, powers)]

    def test_four_term_matches_brute_scan(self):
        fallbacks = 0
        for p, g, a, b in brute.targets():
            want = brute.decompose4(p, g, a, b)
            got = _maybe(lambda: decompose4_ruzsa(p, a, b, g=g))
            if want is None:
                assert got is None, (p, a, b)
                continue
            logs, parts = want
            assert (got.certificate["logs"], got.parts) == (logs, parts)
            fallbacks += "fixed_part" not in got.certificate
            assert got.replay()
        assert fallbacks > 0  # some small-p targets need the 4-tuple search

    @pytest.mark.parametrize("call, p, tests", [
        pytest.param(lambda: decompose3_ruzsa(211, 5, 7), 211, 1,
                     id="decompose3_ruzsa"),
        pytest.param(lambda: decompose3_ruzsa(211, 5, 7, g=2), 211, 1,
                     id="decompose3_ruzsa_g"),
        pytest.param(lambda: decompose4_ruzsa(211, 5, 7), 211, 1,
                     id="decompose4_ruzsa"),
        pytest.param(lambda: ruzsa_set(211), 211, 1, id="ruzsa_set"),
        pytest.param(lambda: curve_point_table(31, 3), 31, 1,
                     id="curve_point_table"),
        pytest.param(decompose3_ruzsa(13, 5, 7).replay, 13, 1,
                     id="replay_ruzsa"),
        pytest.param(decompose3_zn(1, 700).replay, 13, 1,
                     id="replay_erdos_turan"),
        # the bracket search's own test of p, then QuadricParams's
        pytest.param(lambda: decompose3_zn(100, 700), 13, 2,
                     id="decompose3_zn"),
    ] + [pytest.param(argv, p, tests, id=argv) for argv, p, tests in (
        ("decompose ruzsa3 -p 211 -a 5 -b 7", 211, 1),
        ("decompose ruzsa3 -p 211 -a 5 -b 7 -g 2", 211, 1),
        ("decompose ruzsa4 -p 211 -a 5 -b 7", 211, 1),
        ("construct ruzsa -p 211", 211, 1),
        ("decompose zn -N 700 -n 100", 13, 2),
        # the handler's one test finds the default g; then the triple count
        # and CurveParams, or the two tables, test p once each
        ("curve identity -p 211 -a 5 -b 7", 211, 3),
        ("curve identity -p 211 -g 2 -a 5 -b 7", 211, 2),
        ("curve identity -p 31", 31, 3),
    )])
    def test_prime_checked_once_per_call(self, monkeypatch, capsys, call, p,
                                         tests):
        # every sidonlab module that holds is_prime is spied on, so a test
        # of p made anywhere in the call is counted
        real, calls = numbertheory.is_prime, []
        for name, module in list(sys.modules.items()):
            if (name.startswith("sidonlab")
                    and getattr(module, "is_prime", None) is real):
                monkeypatch.setattr(module, "is_prime",
                                    lambda n: calls.append(n) or real(n))
        if isinstance(call, str):
            assert cli.run(call.split()) == 0, capsys.readouterr().out
        else:
            assert call() is not False  # the replays hold
        assert calls == [p] * tests

    def test_replay_rejects_tampering(self):
        d = decompose3_ruzsa(13, 5, 7)
        assert d.replay()
        m = 12 * 13
        for parts in ([d.parts[0] + 1] + d.parts[1:],     # not a Ruzsa element
                      [d.parts[0] + m] + d.parts[1:],     # out of range
                      [d.parts[1], d.parts[0], d.parts[0]]):
            assert not replace(d, parts=parts).replay()
        assert not replace(d, certificate={**d.certificate, "g": 3}).replay()
        z = decompose3_zn(1, 700)
        xs = z.certificate["xs"]
        shifted = [xs[0] + 13] + xs[1:]  # same parts mod 2p^2, x out of range
        assert not replace(z, certificate={**z.certificate, "xs": shifted},
                           parts=[x + (x * x % 13) * 26 for x in shifted]).replay()

    @pytest.mark.parametrize("p", [15, 2, 1])
    def test_replay_is_false_off_an_odd_prime(self, p):
        # at 15 the Ruzsa side used to raise NotPrime, and an Erdos-Turan
        # certificate whose identities all hold at p used to replay True
        d = decompose3_ruzsa(13, 5, 7)
        assert not replace(d, p=p).replay()
        assert not replace(d, p=p, certificate={}).replay()
        for q in (13, p):
            xs = [x % q for x in (1, 2, 3)]
            parts = [x + (x * x % q) * 2 * q for x in xs]
            e = Decomposition(target=sum(parts) % 700, modulus=700,
                              parts=parts, construction="erdos_turan", p=q,
                              certificate={"r1": sum(xs), "xs": xs, "r2": sum(
                                  x * x % q for x in xs)})
            assert e.replay() is (q == 13)

    def test_replay_is_false_off_the_group(self):
        d = decompose3_ruzsa(13, 5, 7)
        for target in ([17, 7], [5, 13], [-1, 7]):  # crt_flatten raised
            assert not replace(d, target=target).replay()
        assert not replace(d, certificate={**d.certificate, "g": 3}).replay()
        assert not replace(d, certificate={**d.certificate, "g": 2.0}).replay()

    def test_bad_inputs(self):
        from sidonlab.numbertheory import NotGenerator, NotPrime
        with pytest.raises(NotPrime):
            decompose3_ruzsa(15, 0, 0)
        with pytest.raises(NotGenerator):
            decompose3_ruzsa(7, 0, 0, g=2)  # 2^3 = 1 mod 7
        with pytest.raises(RangeError):
            decompose3_ruzsa(7, 6, 0)
        with pytest.raises(RangeError):
            decompose4_ruzsa(7, 0, 7)


def _brute_zn(n, N, p, mode):
    """Independent reference: scan the integer grid, not the quadric."""
    lift = lift_to_interval(n, N, p)
    r1, r2, K = lift.r1, lift.r2, lift.K
    for x1 in range(p):
        for x2 in range(p):
            x3 = r1 - x1 - x2
            if not 0 <= x3 < p:
                continue
            sq = [(x * x) % p for x in (x1, x2, x3)]
            if sum(sq) != r2:
                continue
            if mode == "box":
                if any(abs(12 * c - 4 * r1) > K for c in (x1, x2, x3)):
                    continue
                if any(abs(12 * s - 4 * r2) > K for s in sq):
                    continue
            return [x1, x2, x3]
    return None


class TestZnDecompose:
    @pytest.mark.parametrize("N,p,expected_hits", [(244, 7, 64), (700, 13, 298)])
    def test_exhaustive_matches_grid_reference(self, N, p, expected_hits):
        hits = 0
        for n in range(N):
            want = _brute_zn(n, N, p, "exhaustive")
            got = _maybe(lambda: decompose3_zn(n, N, mode="exhaustive"))
            if want is None:
                assert got is None
            else:
                assert got is not None and got.certificate["xs"] == want
                assert got.replay()
                hits += 1
        assert hits == expected_hits

    def test_box_matches_grid_reference(self):
        hits = 0
        for n in range(700):
            want = _brute_zn(n, 700, 13, "box")
            got = _maybe(lambda: decompose3_zn(n, 700, mode="box"))
            if want is None:
                assert got is None
            else:
                assert got is not None and got.certificate["xs"] == want
                assert got.replay()
                hits += 1
        assert hits == 6  # the box filter is brutally selective at p = 13

    def test_box_is_subset_of_exhaustive(self):
        for n in range(0, 700, 7):
            b = _maybe(lambda: decompose3_zn(n, 700, mode="box"))
            if b is not None:
                e = decompose3_zn(n, 700, mode="exhaustive")
                assert e.replay()

    def test_parts_are_construction_elements(self):
        d = decompose3_zn(1, 700, mode="exhaustive")
        assert d.certificate["xs"] == [6, 8, 11]  # 6+8+11 = 25, 10+12+4 = 26
        for part, x in zip(d.parts, d.certificate["xs"]):
            assert part == x + (x * x % 13) * 26
        assert d.parts == [266, 320, 115]
        assert sum(d.parts) % 700 == 1

    def test_mode_validation(self):
        with pytest.raises(RangeError):
            decompose3_zn(0, 700, mode="fast")
        with pytest.raises(PrimeNotFound):
            decompose3_zn(0, 1000)


class TestSerialization:
    # a decomposition is written as the payload of the CLI's decompose
    def test_json_fields(self, capsys):
        assert cli.run(["decompose", "zn", "-N", "700", "-n", "1"]) == 0
        blob = json.loads(capsys.readouterr().out)["payload"]
        d = decompose3_zn(1, 700, mode="exhaustive")
        assert Decomposition(**blob) == d
        assert blob["construction"] == "erdos_turan"
        assert blob["modulus"] == 700 and blob["target"] == 1
        assert blob["parts"] == d.parts
        assert blob["mode"] == "exhaustive"
        assert blob["certificate"]["r1"] + 26 * blob["certificate"]["r2"] \
            == blob["certificate"]["lift_value"]

    def test_json_deterministic(self, capsys):
        argv = ["decompose", "ruzsa4", "-p", "13", "-a", "3", "-b", "5"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == first
