"""Every subcommand must replay byte-for-byte from the library call it
wraps, hold the documented exit-code contract, and stay deterministic
under --threads."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sidonlab import cli
from sidonlab.analysis import (check_lemma_ab, check_lemma_abab,
                               exact_delta_Q, exact_expectation_Q,
                               monte_carlo_family_mean, sigma, tau, SumSpec)
from sidonlab.cli import run
from sidonlab.curveoracle import (CurveParams, QuadricParams,
                                  curve_point_count, dyadic_box_coverage,
                                  enumerate_quadric, torus_points,
                                  triple_rep_count)
from sidonlab.decomposer import (Decomposition, decompose3_ruzsa, decompose3_zn,
                                 decompose4_ruzsa)
from sidonlab.deletionlab import (FamilySpec, b2_2_lift, destruction_audit,
                                  enumerate_family, sidon_lift)
from sidonlab.randommodel import SampleConfig, sample_sequence
from sidonlab.sidoncore import ModSet, b2g_bound, basis_order_check, \
    erdos_turan_set, is_sidon, ruzsa_set
from sidonlab.sunflower import SunflowerCert, find_vectorial_sunflower

G = Fraction(7, 11)

DISPLAY = ((7, 7, 1, 13, 8), (17, 7, 6, 6, 8),
           (8, 7, 18, 8, 8), (11, 7, 4, 5, 8))


def _ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    envelope = json.loads(captured.out)
    assert envelope["status"] == "ok"
    assert len(envelope["configHash"]) == 64
    int(envelope["configHash"], 16)
    return envelope


def _err(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1, captured.err
    envelope = json.loads(captured.out)
    assert envelope["status"] == "error"
    return envelope


def _report_payload(report):
    return {"exponent": report.exponent,
            "rows": [list(row) for row in report.rows],
            "supRatio": report.sup_ratio, "pinned": None}


def _usage(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    return captured.err


class TestConstruct:
    def test_ruzsa_replays_library(self, capsys):
        env = _ok(capsys, ["construct", "ruzsa", "-p", "13"])
        assert env["payload"] == {"modulus": 156,
                                  "elements": list(ruzsa_set(13).elements)}
        assert len(env["payload"]["elements"]) == 12
        assert env["payload"]["modulus"] == 156

    def test_erdos_turan_replays_library(self, capsys):
        env = _ok(capsys, ["construct", "erdos-turan", "-p", "7"])
        assert ModSet(**env["payload"]) == erdos_turan_set(7)

    def test_explicit_generator(self, capsys):
        env = _ok(capsys, ["construct", "ruzsa", "-p", "13", "-g", "6"])
        assert ModSet(**env["payload"]) == ruzsa_set(13, 6)

    def test_composite_p_is_domain_error(self, capsys):
        env = _err(capsys, ["construct", "ruzsa", "-p", "10"])
        assert "error" in env["payload"] and env["payload"]["message"]

    def test_csv_lists_elements(self, capsys):
        code = run(["construct", "ruzsa", "-p", "5", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "element"
        assert [int(x) for x in lines[1:]] == list(ruzsa_set(5).elements)


class TestDeterminism:
    def test_byte_identical_across_threads(self, capsys):
        outs = []
        for threads in ("1", "7"):
            run(["analyze", "lemma-abab", "--gamma", "7/11",
                 "--pairs", "2:5,3:4", "--threads", threads])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_repeat_run_identical(self, capsys):
        argv = ["sample", "--gamma", "7/11", "--m", "3", "--horizon", "500",
                "--seed", "42"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first

    def test_config_hash_tracks_parameters(self, capsys):
        one = _ok(capsys, ["construct", "ruzsa", "-p", "13"])
        two = _ok(capsys, ["construct", "ruzsa", "-p", "13"])
        other = _ok(capsys, ["construct", "ruzsa", "-p", "17"])
        assert one["configHash"] == two["configHash"]
        assert one["configHash"] != other["configHash"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "cloud.json"
        run(["curve", "coverage", "-p", "101", "--r1", "1", "--r2", "2",
             "-k", "2", "--out", str(path)])
        capsys.readouterr()
        run(["curve", "coverage", "-p", "101", "--r1", "1", "--r2", "2",
             "-k", "2"])
        assert path.read_text() == capsys.readouterr().out


class TestVerify:
    def test_sidon_cyclic_from_construct_file(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        run(["construct", "ruzsa", "-p", "13", "--out", str(path)])
        capsys.readouterr()
        env = _ok(capsys, ["verify", "sidon", "--in", str(path),
                           "--mode", "cyclic"])
        assert env["payload"] == {"sidon": True, "witness": None}

    def test_sidon_failure_carries_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3, 4]")
        env = _ok(capsys, ["verify", "sidon", "--in", str(path)])
        wit = is_sidon([1, 2, 3, 4])
        assert env["payload"] == {"sidon": False,
                                  "witness": list(wit.collision)}

    def test_b2g_replays_library(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text("[1, 2, 3, 4, 7]")
        env = _ok(capsys, ["verify", "b2g", "--in", str(path)])
        assert env["payload"] == {"b2g": b2g_bound([1, 2, 3, 4, 7])}

    def test_basis_replays_library(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        run(["construct", "ruzsa", "-p", "5", "--out", str(path)])
        capsys.readouterr()
        env = _ok(capsys, ["verify", "basis", "--in", str(path),
                           "--order", "3"])
        covered, missing = basis_order_check(ruzsa_set(5), 3)
        assert env["payload"] == {"basis": covered, "missing": missing}

    def test_zero_modulus_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text("[1, 2, 3]")
        for prop in ("sidon", "b2g"):
            env = _err(capsys, ["verify", prop, "--in", str(path),
                                "--mode", "cyclic", "--modulus", "0"])
            assert env["payload"]["error"] == "RangeError"

    def test_cyclic_without_modulus_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text("[1, 2, 3]")
        err = _usage(capsys, ["verify", "sidon", "--in", str(path),
                              "--mode", "cyclic"])
        assert "--modulus" in err


class TestCurve:
    def test_count_replays_library(self, capsys):
        env = _ok(capsys, ["curve", "count", "-p", "13", "-b", "3",
                           "--lam", "5"])
        points = curve_point_count(CurveParams(13, 3, 5))
        assert env["payload"]["points"] == points
        assert env["payload"]["gap"] == points - 13

    def test_identity_single_pair(self, capsys):
        env = _ok(capsys, ["curve", "identity", "-p", "11", "-g", "2",
                           "-a", "3", "-b", "4"])
        reps = triple_rep_count(11, 2, 3, 4)
        assert env["payload"]["tripleReps"] == reps
        assert env["payload"]["match"] is True

    def test_identity_full_sweep(self, capsys):
        env = _ok(capsys, ["curve", "identity", "-p", "7"])
        assert env["payload"]["checked"] == 6 * 7
        assert env["payload"]["mismatches"] == []
        assert env["payload"]["ok"] is True

    def test_identity_half_specified_is_usage_error(self, capsys):
        _usage(capsys, ["curve", "identity", "-p", "7", "-a", "1"])

    @pytest.mark.parametrize("argv,error", [
        (["-p", "2"], "NotPrime"),
        (["-p", "15", "-g", "2"], "NotPrime"),
        (["-p", "7", "-g", "2"], "NotGenerator"),  # 2^3 = 1 mod 7
    ])
    def test_identity_sweep_error_names(self, capsys, argv, error):
        env = _err(capsys, ["curve", "identity"] + argv)
        assert env["payload"]["error"] == error

    def test_composite_p_has_one_wording(self, capsys):
        # every curve command words a composite p as the odd-prime check does
        for argv in (["identity", "-p", "15"], ["identity", "-p", "15", "-g", "2"],
                     ["count", "-p", "15", "-b", "1", "--lam", "1"],
                     ["quadric", "-p", "15", "--r1", "1", "--r2", "2"]):
            env = _err(capsys, ["curve"] + argv)
            assert env["payload"] == {"error": "NotPrime",
                                      "message": "15 is not an odd prime"}

    def test_quadric_replays_library(self, capsys):
        env = _ok(capsys, ["curve", "quadric", "-p", "13", "--r1", "1",
                           "--r2", "2"])
        params = QuadricParams(13, 1, 2)
        sols = enumerate_quadric(params)
        assert env["payload"]["solutions"] == [list(pt) for pt in sols]
        assert env["payload"]["count"] == len(sols)
        assert env["payload"]["reducible"] == params.splits_into_lines

    def test_coverage_replays_library(self, capsys):
        env = _ok(capsys, ["curve", "coverage", "-p", "101", "--r1", "1",
                           "--r2", "2", "-k", "2"])
        points = torus_points(QuadricParams(101, 1, 2))
        empty, total = dyadic_box_coverage(points, 2)
        covered = total - empty
        assert env["payload"]["covered"] == covered <= len(points)
        assert env["payload"]["total"] == total
        assert env["payload"]["fraction"] == covered / total


class TestDecompose:
    def test_ruzsa3_replays_library(self, capsys):
        env = _ok(capsys, ["decompose", "ruzsa3", "-p", "13", "-a", "5",
                           "-b", "7"])
        found = Decomposition(**env["payload"])
        assert found == decompose3_ruzsa(13, 5, 7) and found.replay()

    def test_ruzsa4_replays_library(self, capsys):
        env = _ok(capsys, ["decompose", "ruzsa4", "-p", "13", "-a", "5",
                           "-b", "7"])
        found = Decomposition(**env["payload"])
        assert found == decompose4_ruzsa(13, 5, 7) and found.replay()

    def test_zn_success(self, capsys):
        env = _ok(capsys, ["decompose", "zn", "-N", "700", "-n", "100"])
        found = Decomposition(**env["payload"])
        assert found == decompose3_zn(100, 700) and found.replay()

    def test_zn_no_representation_exits_one(self, capsys):
        env = _err(capsys, ["decompose", "zn", "-N", "700", "-n", "123",
                            "--search", "exhaustive"])
        assert env["payload"]["error"] == "NoRepresentation"


class TestSample:
    def test_replays_library(self, capsys):
        env = _ok(capsys, ["sample", "--gamma", "7/11", "--m", "3",
                           "--horizon", "400", "--seed", "9"])
        cfg = SampleConfig(gamma=G, m=3, modulus=1, residues=(0,), seed=9)
        seq = sample_sequence(cfg, 400)
        assert tuple(env["payload"]["elements"]) == seq.elements
        assert env["payload"]["count"] == len(seq.elements)
        assert env["payload"]["config"] == {"gamma": "7/11", "m": 3,
                                            "modulus": 1, "residues": [0],
                                            "seed": 9}

    def test_ruzsa_p_shortcut(self, capsys):
        env = _ok(capsys, ["sample", "--gamma", "7/11", "--m", "100",
                           "--ruzsa-p", "13", "--horizon", "2000",
                           "--seed", "5"])
        base = ruzsa_set(13)
        assert env["payload"]["config"]["modulus"] == 156
        assert tuple(env["payload"]["config"]["residues"]) == base.elements

    def test_ruzsa_p_conflicts_with_modulus(self, capsys):
        _usage(capsys, ["sample", "--gamma", "7/11", "--ruzsa-p", "13",
                        "--modulus", "5", "--horizon", "10"])

    def test_modulus_without_residues_is_usage_error(self, capsys):
        _usage(capsys, ["sample", "--gamma", "7/11", "--modulus", "5",
                        "--horizon", "10"])

    def test_bad_rational_is_usage_error(self, capsys):
        _usage(capsys, ["sample", "--gamma", "fast", "--horizon", "10"])


class TestLift:
    @pytest.fixture()
    def sampled(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        run(["sample", "--gamma", "7/11", "--m", "3", "--horizon", "3000",
             "--seed", "11", "--out", str(path)])
        capsys.readouterr()
        cfg = SampleConfig(gamma=G, m=3, modulus=1, residues=(0,), seed=11)
        return path, sample_sequence(cfg, 3000).elements

    def test_sidon_lift_pipes_from_sample_envelope(self, capsys, sampled):
        path, elements = sampled
        env = _ok(capsys, ["lift", "sidon", "--in", str(path)])
        want = sidon_lift(elements)
        assert tuple(env["payload"]["elements"]) == want
        assert env["payload"]["inputSize"] == len(elements)
        assert env["payload"]["removedCount"] == len(elements) - len(want)

    def test_b22_lift_replays_library(self, capsys, sampled):
        path, elements = sampled
        env = _ok(capsys, ["lift", "b22", "--in", str(path)])
        assert tuple(env["payload"]["elements"]) == b2_2_lift(elements)

    @pytest.mark.parametrize("target", ["sidon", "b22"])
    def test_duplicates_are_not_removals(self, capsys, tmp_path, target):
        path = tmp_path / "dup.json"
        path.write_text("[2, 2, 5]")
        env = _ok(capsys, ["lift", target, "--in", str(path)])
        assert env["payload"] == {"inputSize": 2, "outputSize": 2,
                                  "removedCount": 0, "elements": [2, 5]}


class TestFamily:
    def test_enumerate_replays_library(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(list(range(1, 40))))
        env = _ok(capsys, ["family", "enumerate", "--in", str(path),
                           "--kind", "Q", "--target", "60",
                           "--modulus", "1"])
        fam = enumerate_family(range(1, 40), FamilySpec("Q", 60))
        assert env["payload"]["members"] == [list(t) for t in fam.members]
        assert env["payload"]["count"] == len(fam.members)

    def test_epsilon_kind(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(list(range(1, 60))))
        env = _ok(capsys, ["family", "enumerate", "--in", str(path),
                           "--kind", "R", "--target", "90",
                           "--epsilon", "1/2"])
        fam = enumerate_family(range(1, 60),
                               FamilySpec("R", 90, epsilon=Fraction(1, 2)))
        assert env["payload"]["members"] == [list(t) for t in fam.members]

    def test_csv_rows_are_members(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(list(range(1, 20))))
        run(["family", "enumerate", "--in", str(path), "--kind", "Q",
             "--target", "24", "--format", "csv"])
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,x3"
        fam = enumerate_family(range(1, 20), FamilySpec("Q", 24))
        assert len(lines) - 1 == len(fam.members)

    def test_modulus_on_a_kind_that_ignores_it_exits_one(self, capsys,
                                                         tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(list(range(1, 20))))
        env = _err(capsys, ["family", "enumerate", "--in", str(path),
                            "--kind", "U2", "--target", "16",
                            "--modulus", "5"])
        assert env["payload"]["error"] == "RangeError"


class TestSunflower:
    def test_find_matches_library(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([list(v) for v in DISPLAY]))
        env = _ok(capsys, ["sunflower", "find", "--in", str(path),
                           "-k", "4"])
        cert = find_vectorial_sunflower(DISPLAY, 4)
        assert env["payload"]["found"] is True
        doc = env["payload"]["certificate"]
        assert set(doc) == {"petalIndices", "typeSet", "coreValues"}
        assert SunflowerCert(tuple(doc["petalIndices"]), tuple(doc["typeSet"]),
                             tuple(doc["coreValues"])) == cert

    def test_find_reports_absence(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([list(v) for v in DISPLAY]))
        env = _ok(capsys, ["sunflower", "find", "--in", str(path),
                           "-k", "5"])
        assert env["payload"] == {"k": 5, "found": False, "certificate": None}

    def test_check_roundtrip(self, capsys, tmp_path):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps([list(v) for v in DISPLAY]))
        cert_path = tmp_path / "cert.json"
        run(["sunflower", "find", "--in", str(fam_path), "-k", "4",
             "--out", str(cert_path)])
        capsys.readouterr()
        env = _ok(capsys, ["sunflower", "check", "--in", str(fam_path),
                           "--cert", str(cert_path)])
        assert env["payload"] == {"valid": True}

    def test_check_rejects_tampered_core(self, capsys, tmp_path):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps([list(v) for v in DISPLAY]))
        cert_path = tmp_path / "cert.json"
        run(["sunflower", "find", "--in", str(fam_path), "-k", "4",
             "--out", str(cert_path)])
        envelope = json.loads(cert_path.read_text())
        doc = envelope["payload"]["certificate"]
        doc["coreValues"] = [v + 1 for v in doc["coreValues"]]
        cert_path.write_text(json.dumps(envelope))
        env = _ok(capsys, ["sunflower", "check", "--in", str(fam_path),
                           "--cert", str(cert_path)])
        assert env["payload"] == {"valid": False}

    def test_family_envelope_pipes_into_find_and_check(self, capsys,
                                                       tmp_path):
        seq_path, fam_path, cert_path = (tmp_path / name for name in
                                         ("seq.json", "fam.json", "cert.json"))
        seq_path.write_text(json.dumps([1, 2, 3, 5, 8, 13, 21, 34, 55]))
        assert run(["family", "enumerate", "--in", str(seq_path), "--kind",
                    "T", "--target", "40", "--out", str(fam_path)]) == 0
        members = json.loads(fam_path.read_text())["payload"]["members"]
        env = _ok(capsys, ["sunflower", "find", "--in", str(fam_path),
                           "-k", "2"])
        cert = find_vectorial_sunflower([tuple(m) for m in members], 2)
        assert cert is not None and env["payload"]["found"] is True
        assert env["payload"]["certificate"]["petalIndices"] \
            == list(cert.petal_indices)
        cert_path.write_text(json.dumps(env))
        env = _ok(capsys, ["sunflower", "check", "--in", str(fam_path),
                           "--cert", str(cert_path)])
        assert env["payload"] == {"valid": True}

    def test_malformed_cert_is_usage_error(self, capsys, tmp_path):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps([list(v) for v in DISPLAY]))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"wrong": True}))
        err = _usage(capsys, ["sunflower", "check", "--in", str(fam_path),
                              "--cert", str(cert_path)])
        assert "--cert" in err

    @pytest.mark.parametrize("cert, code", [
        ({"typeSet": [2], "coreValues": []}, 0),
        ({"typeSet": [2, 2], "coreValues": [7, 7]}, 0),
        ({"typeSet": [4], "coreValues": [7]}, 0),
        ({"typeSet": ["x"], "coreValues": [7]}, 2),
        ({"typeSet": [2.9], "coreValues": [7]}, 2),
        ({"typeSet": [2], "coreValues": [True]}, 2),
    ])
    def test_check_malformed_type(self, capsys, tmp_path, cert, code):
        fam_path = tmp_path / "m.json"
        fam_path.write_text("[[1, 7, 2], [3, 7, 4]]")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"petalIndices": [0, 1], **cert}))
        argv = ["sunflower", "check", "--in", str(fam_path),
                "--cert", str(cert_path)]
        if code == 0:
            assert _ok(capsys, argv)["payload"] == {"valid": False}
        else:
            assert "--cert" in _usage(capsys, argv)

    def test_check_mixed_arity_is_domain_error(self, capsys, tmp_path):
        fam_path = tmp_path / "m.json"
        fam_path.write_text("[[1, 7, 2], [3, 7]]")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            {"petalIndices": [0, 1], "typeSet": [2], "coreValues": [7]}))
        env = _err(capsys, ["sunflower", "check", "--in", str(fam_path),
                            "--cert", str(cert_path)])
        assert env["payload"]["error"] == "RangeError"


class TestAnalyze:
    def test_sigma_example_value(self, capsys):
        env = _ok(capsys, ["analyze", "sigma", "--alpha", "1/2",
                           "--beta", "1/2", "-n", "4"])
        assert env["payload"]["value"] == pytest.approx(
            2 / math.sqrt(3) + 0.5, rel=1e-15)

    def test_tau_replays_library(self, capsys):
        env = _ok(capsys, ["analyze", "tau", "--alpha", "7/11",
                           "--beta", "7/11", "-n", "10", "--m", "2"])
        want = tau(SumSpec(G, G, 10, 2))
        assert env["payload"]["value"] == want.value
        assert env["payload"]["errorBound"] == want.error_bound
        assert env["payload"]["cutoff"] == want.cutoff

    @pytest.mark.parametrize("task", ["sigma", "tau"])
    def test_dps_flag_is_gone(self, capsys, task):
        code = run(["analyze", task, "--alpha", "7/11", "--beta", "7/11",
                    "-n", "10", "--dps", "30"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--dps" in captured.err

    def test_lemma_ab_replays_library(self, capsys):
        env = _ok(capsys, ["analyze", "lemma-ab", "--alpha", "7/11",
                           "--beta", "7/11", "--grid", "30:0,100:5"])
        report = check_lemma_ab(G, G, [(30, 0), (100, 5)])
        assert env["payload"] == _report_payload(report)

    def test_lemma_ab_csv(self, capsys):
        run(["analyze", "lemma-ab", "--alpha", "7/11", "--beta", "7/11",
             "--grid", "30:0", "--format", "csv"])
        out = capsys.readouterr().out
        rows = check_lemma_ab(G, G, [(30, 0)]).rows
        assert out == "".join(["target,value,normalized\n"] + [
            f"{label},{value!r},{norm!r}\n" for label, value, norm in rows])

    def test_lemma_abab_divergent_exits_one(self, capsys):
        env = _err(capsys, ["analyze", "lemma-abab", "--gamma", "1/2",
                            "--pairs", "1:1"])
        assert env["payload"]["error"] == "NonConvergent"

    def test_lemma_abab_zero_tolerance_exits_one(self, capsys):
        env = _err(capsys, ["analyze", "lemma-abab", "--gamma", "7/11",
                            "--pairs", "1:1", "--tol", "0"])
        assert env["payload"]["error"] == "RangeError"

    def test_lemma_abab_replays_library(self, capsys):
        env = _ok(capsys, ["analyze", "lemma-abab", "--gamma", "7/11",
                           "--pairs", "2:5"])
        report = check_lemma_abab(G, [(2, 5)])
        assert env["payload"] == _report_payload(report)

    def test_expectation_replays_library(self, capsys):
        env = _ok(capsys, ["analyze", "expectation", "--gamma", "7/11",
                           "--m", "2", "--modulus", "5",
                           "--residues", "1,2,3", "-n", "45"])
        cfg = SampleConfig(gamma=G, m=2, modulus=5, residues=(1, 2, 3),
                           seed=0)
        assert env["payload"]["value"] == exact_expectation_Q(45, cfg)

    def test_delta_replays_library(self, capsys):
        env = _ok(capsys, ["analyze", "delta", "--gamma", "7/11",
                           "--m", "2", "--modulus", "5",
                           "--residues", "1,2,3", "-n", "45",
                           "--engine", "loop"])
        cfg = SampleConfig(gamma=G, m=2, modulus=5, residues=(1, 2, 3),
                           seed=0)
        assert env["payload"]["value"] == exact_delta_Q(45, cfg, "loop")

    def test_montecarlo_replays_library(self, capsys):
        env = _ok(capsys, ["analyze", "montecarlo", "--gamma", "7/11",
                           "--m", "2", "--kind", "U2", "--targets", "30,41",
                           "--horizon", "80", "--trials", "4",
                           "--master-seed", "77"])
        cfg = SampleConfig(gamma=G, m=2, modulus=1, residues=(0,), seed=0)
        table = monte_carlo_family_mean("U2", (30, 41), cfg, 80, trials=4,
                                        master_seed=77)
        rows = [{"target": t, "mean": m, "stderr": s} for t, m, s in table]
        assert env["payload"]["rows"] == rows

    def test_bad_grid_chunk_is_usage_error(self, capsys):
        _usage(capsys, ["analyze", "lemma-ab", "--alpha", "1/2",
                        "--beta", "2/3", "--grid", "30-0"])


class TestAudit:
    def test_destruction_replays_library(self, capsys, tmp_path):
        cfg = SampleConfig(gamma=G, m=3, modulus=1, residues=(0,), seed=2)
        elements = sample_sequence(cfg, 2500).elements
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(list(elements)))
        env = _ok(capsys, ["audit", "destruction", "--in", str(path),
                           "-n", "150"])
        want = destruction_audit(elements, 150)
        assert env["payload"]["qBefore"] == want.q_before
        assert env["payload"]["qAfter"] == want.q_after
        assert env["payload"]["obstructions"] == want.obstructions
        assert env["payload"]["holds"] == want.holds

    def test_b22_epsilon_exits_one(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(list(range(1, 20))))
        env = _err(capsys, ["audit", "destruction", "--in", str(path),
                            "-n", "30", "--mode", "b22", "--epsilon", "1/2"])
        assert env["payload"]["error"] == "RangeError"


class TestStrictIntegers:
    """JSON integers only: floats, strings and booleans in --in exit 2
    instead of being truncated or read as 0/1."""

    @pytest.mark.parametrize("argv", [
        ["lift", "b22"],
        ["verify", "sidon"],
        ["family", "enumerate", "--kind", "Q", "--target", "20"],
        ["audit", "destruction", "-n", "20"],
    ])
    @pytest.mark.parametrize("data", [
        [1.5, 2, True, 9],
        [1, True, 9],
        [1, 2.0, 9],
        ["1", 2, 9],
        {"elements": [1, 2, 9.5]},
        {"payload": {"elements": [1, 2, 9], "modulus": 20.0}},
    ])
    def test_sets(self, capsys, tmp_path, argv, data):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(data))
        err = _usage(capsys, argv + ["--in", str(path)])
        assert err.startswith("error: --in: ")

    @pytest.mark.parametrize("task", ["find", "check"])
    @pytest.mark.parametrize("data", [
        [[1.9, 7, 2], [3, 7, 4.2]],
        [[1, True, 2], [3, 7, 4]],
        [[1, 7, 2], "374"],
    ])
    def test_families(self, capsys, tmp_path, task, data):
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(json.dumps(data))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            {"petalIndices": [0, 1], "typeSet": [2], "coreValues": [7]}))
        extra = ["-k", "2"] if task == "find" else ["--cert", str(cert_path)]
        err = _usage(capsys, ["sunflower", task, "--in", str(fam_path)]
                     + extra)
        assert err.startswith("error: --in: ")


class TestUnwritableOut:
    @pytest.mark.parametrize("p, code", [("13", 0), ("15", 1)])
    def test_exits_two(self, capsys, tmp_path, p, code):
        target = tmp_path / "missing" / "x.json"
        argv = ["construct", "ruzsa", "-p", p]
        assert run(argv + ["--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out: cannot write {target}")
        assert not target.exists()
        # the same envelope goes out once the path is writable
        assert run(argv) == code
        assert json.loads(capsys.readouterr().out)["status"] == \
            ("ok" if code == 0 else "error")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bare_group_prints_usage(self, capsys):
        assert run(["construct"]) == 2
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["construct", "ruzsa"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["sidon", "b2g", "basis"])
    def test_verify_needs_in(self, capsys, command):
        assert run(["verify", command, "--modulus", "7"]) == 2
        assert "--in" in capsys.readouterr().err


class TestFailureIsExplicit:
    def test_internal_error_propagates(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            return 1 // 0

        monkeypatch.setattr(cli, "ruzsa_set", broken)
        with pytest.raises(ZeroDivisionError):
            run(["construct", "ruzsa", "-p", "13"])
        assert capsys.readouterr().out == ""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("module", ["sidonlab", "sidonlab.cli"])
    def test_module_entry_points(self, module):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["construct", "ruzsa", "-p", "13"]
        done = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert ModSet(**json.loads(done.stdout)["payload"]) == ruzsa_set(13)
        bad = subprocess.run([sys.executable, "-m", module, "frobnicate"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert bad.returncode == 2 and bad.stdout == ""
