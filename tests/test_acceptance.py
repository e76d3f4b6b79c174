"""Acceptance gate: thirteen criteria, one test and one printed verdict
line each. Tolerances are pinned inline or in src/sidonlab/pins.json;
sweep definitions shared with scripts/refresh_pins.py are imported from
that script so both sides always measure the same thing."""

import importlib.util
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import brute_scans as brute
from test_sunflower import _oracle_exists

from sidonlab.analysis import (check_lemma_ab, check_lemma_abab,
                               exact_delta_Q, exact_expectation_Q, get_pin,
                               monte_carlo_family_mean)
from sidonlab.cli import run
from sidonlab.curveoracle import (CurveParams, curve_point_count,
                                  repeated_coordinate_count,
                                  special_rep4_count, triple_rep_table)
from sidonlab.decomposer import (NoRepresentation, decompose3_ruzsa,
                                 decompose3_zn)
from sidonlab.deletionlab import (FamilySpec, b2_2_lift, destruction_audit,
                                  enumerate_family, sidon_lift)
from sidonlab.numbertheory import is_prime, primitive_root
from sidonlab.randommodel import sample_sequence
from sidonlab.sidoncore import (ModSet, b2g_bound,
                                convolution_profile_array, erdos_turan_set,
                                is_sidon, rep_profile, ruzsa_set)
from sidonlab.sunflower import find_vectorial_sunflower

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "refresh_pins.py"
_spec = importlib.util.spec_from_file_location("refresh_pins", _SCRIPT)
refresh_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refresh_pins)

SLACK = 1.01


def _verdict(num: int, detail: str, started: float, limit: float | None = None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {num} overran {limit}s: {elapsed:.1f}s"
    print(f"criterion {num:02d} PASS: {detail} ({elapsed:.1f}s)")


def test_criterion_01_curve_identity_exact_sweep():
    started = time.perf_counter()
    primes = [p for p in range(5, 32) if is_prime(p)]
    checked = 0
    for p in primes:
        g = primitive_root(p)
        table = triple_rep_table(p, g)
        for a in range(p - 1):
            lam = pow(g, a, p)
            for b in range(p):
                reps = table.get((a, b), 0)
                points = curve_point_count(CurveParams(p, b, lam))
                assert reps == points, (p, a, b, reps, points)
                checked += 1
    _verdict(1, f"triple count equals curve count on {checked} targets, "
                f"primes 5..31", started, limit=60.0)


def test_criterion_02_repeated_coordinate_and_special4_bounds():
    started = time.perf_counter()
    primes = [p for p in range(5, 32) if is_prime(p)]
    worst = 0
    for p in primes:
        g = primitive_root(p)
        for a in range(p - 1):
            for b in range(p):
                count = repeated_coordinate_count(p, g, a, b)
                worst = max(worst, count)
                assert count <= 9, (p, a, b, count)
    worst4 = 0
    for p in [q for q in primes if q <= 13]:
        g = primitive_root(p)
        for a in range(p - 1):
            for b in range(p):
                count = special_rep4_count(p, g, a, b)
                worst4 = max(worst4, count)
                assert count <= 6, (p, a, b, count)
    _verdict(2, f"repeated-coordinate max {worst} <= 9; "
                f"4-term correction max {worst4} <= 6", started)


def test_criterion_03_hasse_gap_random():
    started = time.perf_counter()
    rng = random.Random(1003)
    primes = [p for p in range(101, 500) if is_prime(p)]
    worst_ratio = 0.0
    for _ in range(100):
        p = rng.choice(primes)
        b = rng.randrange(p)
        lam = rng.randrange(1, p)
        gap = abs(curve_point_count(CurveParams(p, b, lam)) - p)
        bound = 2 * (math.isqrt(p) + 1) + 4
        assert gap <= bound, (p, b, lam, gap, bound)
        worst_ratio = max(worst_ratio, gap / bound)
    _verdict(3, f"100 random curves within the gap bound "
                f"(worst fill {worst_ratio:.2f})", started, limit=30.0)


def test_criterion_04_constructions_are_sidon():
    started = time.perf_counter()
    et_primes = [p for p in range(3, 212) if is_prime(p)]
    for p in et_primes:
        made = erdos_turan_set(p)
        assert is_sidon(made.elements, mode="integer").is_sidon, p
    rz_primes = [p for p in range(3, 62) if is_prime(p)]
    for p in rz_primes:
        made = ruzsa_set(p)
        assert is_sidon(made, mode="cyclic", modulus=made.modulus).is_sidon, p
    _verdict(4, f"Erdos-Turan Sidon for {len(et_primes)} primes <= 211; "
                f"Ruzsa cyclic Sidon for {len(rz_primes)} primes <= 61",
             started, limit=20.0)


def test_criterion_05_engine_equivalence_random_modsets():
    started = time.perf_counter()
    rng = random.Random(1005)
    for trial in range(100):
        modulus = rng.randrange(3, 2001)
        size = rng.randrange(2, min(modulus, 70) + 1)
        elements = tuple(sorted(rng.sample(range(modulus), size)))
        h = rng.randrange(1, 4)
        ms = ModSet(modulus, elements)
        want = brute.profile_counts(elements, h, "cyclic", modulus,
                                    "ordered", "none")
        assert rep_profile(ms, h) == want, (trial, modulus, size, h)
        for distinct in ("none", "pairwise"):
            want = brute.profile_counts(elements, h, "cyclic", modulus,
                                        "unordered", distinct)
            got = rep_profile(ms, h, convention="unordered", distinct=distinct)
            assert got == want, (trial, modulus, size, h, distinct)
    _verdict(5, "tuple-enumeration and shift-add profiles identical on "
                "100 random ModSets (N <= 2000, h <= 3), ordered and both "
                "unordered conventions", started)


def test_criterion_06_big_profile_performance():
    started = time.perf_counter()
    rng = random.Random(1006)
    modulus = 2 ** 20
    elements = tuple(sorted(rng.sample(range(modulus), 2000)))
    profile = convolution_profile_array(ModSet(modulus, elements), 3,
                                        modulus=modulus)
    assert len(profile) == modulus
    assert int(profile.sum()) == 2000 ** 3
    _verdict(6, "ordered r3 profile over Z_(2^20), |A| = 2000", started,
             limit=10.0)


def test_criterion_07_zn700_soundness_and_pinned_fractions():
    started = time.perf_counter()
    base = erdos_turan_set(13)
    oracle = convolution_profile_array(ModSet(700, base.elements), 3,
                                       modulus=700)
    wins = {"exhaustive": 0, "box": 0}
    for mode in wins:
        for n in range(700):
            try:
                found = decompose3_zn(n, 700, mode=mode)
            except NoRepresentation:
                continue
            wins[mode] += 1
            assert found.replay(), (mode, n)
            assert oracle[n] > 0, (mode, n)
    assert wins["exhaustive"] / 700 == get_pin(
        "zn700_success_fraction_exhaustive")
    assert wins["box"] / 700 == get_pin("zn700_success_fraction_box")
    _verdict(7, f"successes replay and sit inside the r3 > 0 oracle; "
                f"fractions {wins['exhaustive']}/700 exhaustive, "
                f"{wins['box']}/700 box match pins", started, limit=120.0)


def test_criterion_08_basis_coverage_at_scale():
    started = time.perf_counter()
    minima = {}
    for p in (31, 37):
        g = primitive_root(p)
        rz = ruzsa_set(p, g)
        bound = p - 2 * (math.isqrt(p) + 1) - 13
        assert bound > 0
        profile = rep_profile(rz, 3, mode="cyclic", modulus=rz.modulus,
                              convention="ordered", distinct="pairwise")
        minima[p] = min(profile.get(n, 0) for n in range(rz.modulus))
        assert minima[p] >= bound, (p, minima[p], bound)
        for a in range(p - 1):
            for b in range(p):
                found = decompose3_ruzsa(p, a, b, g=g, require_distinct=True)
                assert found.replay(), (p, a, b)
                assert len(set(found.parts)) == 3, (p, a, b)
    _verdict(8, f"full (a, b) coverage with pairwise-distinct triples; "
                f"min distinct-rep counts {minima}", started, limit=120.0)


def test_criterion_09_sunflower_guarantees_and_tiny_oracle():
    started = time.perf_counter()
    rng = random.Random(909)
    for trial in range(200):
        seen = set()
        while len(seen) < 73:
            seen.add((rng.randint(1, 40), rng.randint(1, 40)))
        cert = find_vectorial_sunflower(sorted(seen), 2)
        assert cert is not None and cert.verify(sorted(seen)), trial
    for trial in range(20):
        per_family = time.perf_counter()
        codes = rng.sample(range(60 ** 3), 16465)
        members = [(c // 3600 + 1, c // 60 % 60 + 1, c % 60 + 1)
                   for c in codes]
        cert = find_vectorial_sunflower(members, 2)
        assert cert is not None and cert.verify(members), trial
        assert time.perf_counter() - per_family < 30.0
    for trial in range(120):
        size = rng.randint(1, 12)
        seen = set()
        while len(seen) < size:
            seen.add((rng.randint(1, 8), rng.randint(1, 8)))
        members = sorted(seen)
        k = 2 if trial % 2 == 0 else 3
        cert = find_vectorial_sunflower(members, k)
        assert (cert is not None) == _oracle_exists(members, k), (trial, members, k)
        if cert is not None:
            assert cert.verify(members)
    _verdict(9, "200 pair families and 20 triple families above the "
                "h!((h^2-h+1)k)^h threshold all certify; tiny verdicts "
                "match the exhaustive oracle", started)


def test_criterion_10_lifting_and_destruction_audit():
    started = time.perf_counter()
    base = refresh_pins.mc_model()
    rng = random.Random(1010)
    for i in range(50):
        cfg = replace(base, seed=7100 + i)
        elements = sample_sequence(cfg, 10 ** 5).elements
        sidon_kept = sidon_lift(elements)
        assert is_sidon(sidon_kept, mode="integer").is_sidon, i
        b22_kept = b2_2_lift(elements)
        assert b2g_bound(b22_kept, mode="integer") <= 2, i
        for _ in range(20):
            n = rng.randrange(400, 2 * 10 ** 5)
            audit = destruction_audit(elements, n, N=cfg.modulus, mode="b22")
            assert audit.holds, (i, n, audit)
    _verdict(10, "50 sampled sequences: Sidon lifts verify, B2[2] lifts "
                 "stay within bound 2, 1000 destruction audits hold",
             started)


def test_criterion_11_ratio_regressions_stay_pinned():
    started = time.perf_counter()
    sup_ab = check_lemma_ab(refresh_pins.GAMMA, refresh_pins.GAMMA,
                            refresh_pins.AB_GRID).sup_ratio
    sup_ab_eps = check_lemma_ab(refresh_pins.GAMMA_EPS_HALF,
                                refresh_pins.GAMMA_EPS_HALF,
                                refresh_pins.AB_GRID).sup_ratio
    sup_abab = check_lemma_abab(refresh_pins.GAMMA,
                                refresh_pins.ABAB_PAIRS).sup_ratio
    sup_mu = refresh_pins.moment_norm_sup("expectation")
    sup_delta = refresh_pins.moment_norm_sup("delta")
    for value, name in ((sup_ab, "lemma_ab_sup_gamma_7_11"),
                        (sup_ab_eps, "lemma_ab_sup_gamma_19_27"),
                        (sup_abab, "lemma_abab_sup_gamma_7_11"),
                        (sup_mu, "expectation_q_norm_sup"),
                        (sup_delta, "delta_q_norm_sup")):
        assert math.isfinite(value), name
        # two-sided: an engine that returns zeros must fail, not pass
        assert get_pin(name) / SLACK <= value <= get_pin(name) * SLACK, \
            (name, value, get_pin(name))
    _verdict(11, f"five normalized sups finite and within 1% of pins "
                 f"(ab {sup_ab:.3f}, ab' {sup_ab_eps:.3f}, "
                 f"abab {sup_abab:.3f}, mu {sup_mu:.3f}, "
                 f"delta {sup_delta:.3f})", started)


def test_criterion_12_monte_carlo_shadows():
    started = time.perf_counter()
    sup_t = refresh_pins.mc_norm_sup("T", refresh_pins.T_TARGETS,
                                     refresh_pins.T_EXPONENT)
    sup_u2 = refresh_pins.mc_norm_sup("U2", refresh_pins.U2_TARGETS,
                                      refresh_pins.U2_EXPONENT)
    assert sup_t <= get_pin("tn_norm_sup") * SLACK + 1e-9, sup_t
    assert sup_u2 <= get_pin("u2r_norm_sup") * SLACK + 1e-9, sup_u2

    plain = refresh_pins.plain_model()
    n, trials = 10 ** 4, 50
    mu = exact_expectation_Q(n, plain)
    delta = exact_delta_Q(n, plain)
    ((_, mean, stderr),) = monte_carlo_family_mean(
        "Q", (n,), plain, horizon=n, trials=trials, master_seed=4242)
    floor = math.sqrt((mu + delta) / trials)
    assert abs(mean - mu) <= 3 * max(stderr, floor), (mean, mu, stderr)

    assert delta < mu, "Janson hypothesis Delta < mu failed"
    seeds = 200
    low = 0
    for i in range(seeds):
        cfg = replace(plain, seed=90000 + i)
        seq = sample_sequence(cfg, n)
        count = len(enumerate_family(seq.elements, FamilySpec("Q", n)).members)
        if count <= mu / 2:
            low += 1
    freq = low / seeds
    if 0 < freq < 1:
        se = math.sqrt(freq * (1 - freq) / seeds)
    else:
        se = math.sqrt(0.25 / seeds)
    assert freq <= math.exp(-mu / 12) + 3 * se, (freq, mu)
    _verdict(12, f"normalized T/U2 means within pins; MC mean {mean:.2f} "
                 f"matches exact {mu:.2f}; lower-tail freq {freq:.3f} <= "
                 f"Janson shadow {math.exp(-mu / 12):.3f} + 3se", started)


def test_criterion_13_cli_determinism(capsys, tmp_path):
    started = time.perf_counter()
    outputs = []
    for threads in ("1", "8"):
        assert run(["analyze", "lemma-abab", "--gamma", "7/11",
                    "--pairs", "2:5,3:4", "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for threads in ("1", "6"):
        assert run(["sample", "--gamma", "7/11", "--m", "100",
                    "--ruzsa-p", "13", "--horizon", "20000", "--seed", "31",
                    "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]
    for _ in range(2):
        assert run(["analyze", "montecarlo", "--gamma", "7/11", "--m", "2",
                    "--kind", "U2", "--targets", "30,41", "--horizon", "90",
                    "--trials", "5", "--master-seed", "11"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[4] == outputs[5]
    # the parser is shared across calls in one process: a call in between
    # must leave no trace in the next one
    ruzsa3 = ["decompose", "ruzsa3", "-p", "211", "-a", "17", "-b", "40",
              "--distinct"]
    for argv in (ruzsa3, ["decompose", "zn", "-N", "200000", "-n", "777"],
                 ruzsa3):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[6] == outputs[8]
    # the deletion commands: a lift that keeps 5 of 11, the T family and
    # an audit in which the lift destroys 2 of 3 Q-members
    path = tmp_path / "seq.json"
    path.write_text(json.dumps([2, 4, 10, 20, 35, 40, 42, 44, 50, 54, 59]))
    for argv in (["lift", "b22"],
                 ["family", "enumerate", "--kind", "T", "--target", "66"],
                 ["audit", "destruction", "-n", "66"]):
        outs = []
        for threads in ("1", "8"):
            assert run(argv + ["--in", str(path), "--threads", threads]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
    # both moments by loop and by auto, plain and Ruzsa-residue; at
    # n <= 4096 auto takes the loop, so the values must be equal
    for model in (["--m", "100"], ["--m", "100", "--ruzsa-p", "13"]):
        for name in ("expectation", "delta"):
            values = []
            for engine in ("loop", "auto"):
                outs = []
                for threads in ("1", "8"):
                    assert run(["analyze", name, "--gamma", "7/11", *model,
                                "-n", "1990", "--engine", engine,
                                "--threads", threads]) == 0
                    outs.append(capsys.readouterr().out)
                assert outs[0] == outs[1]
                values.append(json.loads(outs[0])["payload"]["value"])
            assert values[0] == values[1] > 0
    with capsys.disabled():
        _verdict(13, "byte-identical JSON across --threads and repeats "
                     "for fifteen seeded commands; loop and auto moments "
                     "equal at n = 1990", started)
