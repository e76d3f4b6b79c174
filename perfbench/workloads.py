"""The three workloads, one per result of the paper.

Each workload turns a seed into a fixed list of operations (`WORKLOADS`).
An operation runs against sidonlab's public API and returns a
plain answer; its check (both in `KINDS[kind]`) compares that answer with
`oracle`'s independent computation and returns None or the reason it is
wrong. Checks never run inside the timed phase.

Every call into a sidonlab layer goes through `Recorder.call`, which times
it when tracing is on and is a plain call otherwise. Calls made only to
attribute time to layers (the direct library twin of each CLI query, the
certificate replays) run only when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

import oracle
from sidonlab import cli
from sidonlab.analysis import (SumSpec, check_lemma_abab, exact_delta_Q,
                               exact_expectation_Q, janson_threshold,
                               monte_carlo_family_mean, sigma, tau)
from sidonlab.curveoracle import (CurveParams, QuadricParams,
                                  curve_point_count, enumerate_quadric,
                                  triple_rep_count, triple_rep_table)
from sidonlab.decomposer import (decompose3_ruzsa, decompose3_zn,
                                 decompose4_ruzsa, lift_to_interval)
from sidonlab.deletionlab import (FamilySpec, b2_2_lift, destruction_audit,
                                  enumerate_family, sidon_lift)
from sidonlab.numbertheory import find_decomposition_prime, primitive_root
from sidonlab.randommodel import (SampleConfig, count_variance,
                                  expected_count, sample_sequence)
from sidonlab.sidoncore import (b2g_bound, convolution_profile_array,
                                erdos_turan_set, is_sidon, ruzsa_set)
from sidonlab.sunflower import find_vectorial_sunflower


class Recorder:
    """Per-call timings and spans around the calls into sidonlab's layers."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []
        self.op = None
        self.last_ms = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.last_ms = (end - start) / 1e6
            self.samples[name].append(self.last_ms)
            self.spans.append({"name": name, "op": self.op,
                               "start_ns": start, "end_ns": end})

    def note(self, name: str, value_ms: float) -> None:
        self.samples[name].append(value_ms)


class Op(NamedTuple):
    kind: str
    args: tuple


# =================================================================== zn-basis
# Theorem 1 as a CLI user meets it: 3- and 4-term decompositions in the
# Ruzsa group, the curve identity behind them, and 3-term decompositions
# over Z_N, plus the constructions and profiles those queries rest on.

RUZSA_PRIMES = (211, 263, 307)
ZN_BASE_PRIMES = (211, 271, 307)       # decomposition primes near these
TARGETS_PER_PRIME = 12
SWEEP_PRIME = 31


def _zn_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    queries, constructions = [], []
    for p, p0 in zip(RUZSA_PRIMES, ZN_BASE_PRIMES):
        N = rng.randrange(4 * p0 * p0 + 1, 5 * p0 * p0)
        q = oracle.decomposition_prime(N)
        targets = [(rng.randrange(p - 1), rng.randrange(p), rng.randrange(N))
                   for _ in range(TARGETS_PER_PRIME)]
        queries += [Op("query", (p, a, b, N, n)) for a, b, n in targets]
        constructions.append(Op("ruzsa_set", (p, tuple((a, b) for a, b, _ in targets))))
        constructions.append(Op("et_set", (q, N, tuple(n for _, _, n in targets))))
    g = rng.choice(oracle.primitive_roots(SWEEP_PRIME))
    return queries + constructions + [Op("sweep", (SWEEP_PRIME, g))]


def _cli(rec: Recorder, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rec.call("cli.run", cli.run, argv)
    return code, out.getvalue()


def _run_query(rec, p, a, b, N, n):
    answers = {}
    for key, argv in (
            ("ruzsa3", ["decompose", "ruzsa3", "-p", str(p), "-a", str(a),
                        "-b", str(b), "--distinct"]),
            ("ruzsa4", ["decompose", "ruzsa4", "-p", str(p), "-a", str(a),
                        "-b", str(b)]),
            ("identity", ["curve", "identity", "-p", str(p), "-a", str(a),
                          "-b", str(b)]),
            ("zn", ["decompose", "zn", "-N", str(N), "-n", str(n)])):
        answers[key] = _cli(rec, argv)
        if rec.enabled:
            rec.note("cli.overhead", rec.last_ms - _direct_query(rec, key, p, a, b, N, n))
    return answers


def _direct_query(rec, key, p, a, b, N, n) -> float:
    """The library calls behind one CLI query, timed per layer; returns
    their total in ms."""
    spent = 0.0
    if key == "ruzsa3":
        d = rec.call("decomposer.decompose3_ruzsa", decompose3_ruzsa, p, a, b,
                     require_distinct=True)
        spent += rec.last_ms
        rec.call("decomposer.replay", d.replay)
    elif key == "ruzsa4":
        d = rec.call("decomposer.decompose4_ruzsa", decompose4_ruzsa, p, a, b)
        spent += rec.last_ms
        rec.call("decomposer.replay", d.replay)
    elif key == "identity":
        g = rec.call("numbertheory.primitive_root", primitive_root, p)
        spent += rec.last_ms
        rec.call("curveoracle.triple_rep_count", triple_rep_count, p, g, a, b)
        spent += rec.last_ms
        rec.call("curveoracle.curve_point_count", curve_point_count,
                 CurveParams(p, b, pow(g, a, p)))
        spent += rec.last_ms
    else:
        q = rec.call("numbertheory.find_decomposition_prime",
                     find_decomposition_prime, N)
        lift = lift_to_interval(n, N, q)
        rec.call("curveoracle.enumerate_quadric", enumerate_quadric,
                 QuadricParams(q, lift.r1 % q, lift.r2 % q))
        try:
            d = rec.call("decomposer.decompose3_zn", decompose3_zn, n, N)
        except LookupError:
            spent += rec.last_ms
        else:
            spent += rec.last_ms
            rec.call("decomposer.replay", d.replay)
    return spent


def _envelope(answer, want_code=0):
    code, text = answer
    if code != want_code:
        raise AssertionError(f"exit code {code}, expected {want_code}")
    env = json.loads(text)
    if env["status"] != ("ok" if want_code == 0 else "error"):
        raise AssertionError(f"status {env['status']!r}")
    return env["payload"]


def _check_ruzsa_parts(payload, p, a, b, count):
    g = oracle.primitive_roots(p)[0]
    if payload["certificate"]["g"] != g:
        raise AssertionError("generator is not the smallest primitive root")
    elements = set(oracle.ruzsa_elements(p, g).values())
    parts = payload["parts"]
    if len(parts) != count or len(set(parts)) != count:
        raise AssertionError(f"want {count} distinct parts, got {parts}")
    if not set(parts) <= elements:
        raise AssertionError("a part is not a Ruzsa element")
    if sum(parts) % (p * (p - 1)) != oracle.crt(a, b, p):
        raise AssertionError("parts do not add up to the target")


def _first_distinct_triple(p, g, a, b):
    pw = [pow(g, x, p) for x in range(p - 1)]
    for x1 in range(p - 1):
        for x2 in range(p - 1):
            x3 = (a - x1 - x2) % (p - 1)
            if len({x1, x2, x3}) == 3 and (pw[x1] + pw[x2] + pw[x3]) % p == b:
                return [x1, x2, x3]
    return None


def _check_query(answer, p, a, b, N, n):
    payload = _envelope(answer["ruzsa3"])
    _check_ruzsa_parts(payload, p, a, b, 3)
    g = payload["certificate"]["g"]
    if payload["certificate"]["logs"] != _first_distinct_triple(p, g, a, b):
        raise AssertionError("ruzsa3 is not the lexicographic first hit")

    _check_ruzsa_parts(_envelope(answer["ruzsa4"]), p, a, b, 4)

    payload = _envelope(answer["identity"])
    points = oracle.curve_points(p, b, pow(g, a, p))
    if payload["curvePoints"] != points or payload["tripleReps"] != points \
            or payload["match"] is not True:
        raise AssertionError(f"curve identity {payload} != {points} points")

    q = oracle.decomposition_prime(N)
    r1, r2 = oracle.zn_lift(n, N, q)
    if answer["zn"][0] == 1:
        payload = _envelope(answer["zn"], want_code=1)
        if payload["error"] != "NoRepresentation":
            raise AssertionError(f"zn error {payload['error']}")
        found = oracle.zn_solution(q, r1, r2)
        if found is not None:
            raise AssertionError(f"zn said none, but {found} solves the lift")
        return
    payload = _envelope(answer["zn"])
    elements = oracle.erdos_turan_elements(q)
    xs, parts = payload["certificate"]["xs"], payload["parts"]
    if payload["p"] != q or len(parts) != 3:
        raise AssertionError("zn used the wrong prime or part count")
    if [elements.get(x) for x in xs] != parts:
        raise AssertionError("zn parts are not the Erdos-Turan elements of xs")
    if sum(parts) % N != n % N:
        raise AssertionError("zn parts do not add up to the target")
    if sum(xs) != r1 or sum(x * x % q for x in xs) != r2:
        raise AssertionError("zn parts miss the integer identities of the lift")


def _profile_answer(prof, at):
    return int(prof.sum()), {t: int(prof[t]) for t in at}


def _run_ruzsa_set(rec, p, targets):
    rs = rec.call("sidoncore.construct", ruzsa_set, p)
    sidon = rec.call("sidoncore.is_sidon_cyclic", is_sidon, rs, mode="cyclic")
    prof = rec.call("sidoncore.profile_dense", convolution_profile_array, rs, 3)
    at = [oracle.crt(a, b, p) for a, b in targets]
    return rs.modulus, rs.elements, sidon.is_sidon, _profile_answer(prof, at)


def _is_sidon_mod(elements, modulus) -> bool:
    sums = {(u + v) % modulus for i, u in enumerate(elements) for v in elements[i:]}
    return len(sums) == len(elements) * (len(elements) + 1) // 2


def _check_ruzsa_set(answer, p, targets):
    modulus, elements, sidon, (total, entries) = answer
    g = oracle.primitive_roots(p)[0]
    if modulus != p * (p - 1) or set(elements) != set(oracle.ruzsa_elements(p, g).values()):
        raise AssertionError("ruzsa_set differs from the CRT graph of g^x")
    if sidon is not True or not _is_sidon_mod(elements, modulus):
        raise AssertionError("Ruzsa set not reported Sidon")
    if total != len(elements) ** 3:
        raise AssertionError(f"profile total {total} != |A|^3")
    for a, b in targets:
        if entries[oracle.crt(a, b, p)] != oracle.curve_points(p, b, pow(g, a, p)):
            raise AssertionError(f"profile at ({a}, {b}) != curve point count")


def _run_et_set(rec, q, N, targets):
    et = rec.call("sidoncore.construct", erdos_turan_set, q)
    sidon = rec.call("sidoncore.is_sidon_cyclic", is_sidon, et.elements,
                     mode="cyclic", modulus=N)
    prof = rec.call("sidoncore.profile_sparse", convolution_profile_array,
                    et.elements, 3, modulus=N)
    return et.elements, sidon.is_sidon, _profile_answer(prof, targets)


def _check_et_set(answer, q, N, targets):
    elements, sidon, (total, entries) = answer
    if set(elements) != set(oracle.erdos_turan_elements(q).values()):
        raise AssertionError("erdos_turan_set differs from x + (x^2 mod p) 2p")
    if sidon is not True or not _is_sidon_mod(elements, N):
        raise AssertionError("Erdos-Turan set not reported Sidon mod N")
    if total != len(elements) ** 3:
        raise AssertionError(f"profile total {total} != |A|^3")
    members = set(elements)
    for n in targets:
        own = sum(1 for u in elements for v in elements if (n - u - v) % N in members)
        if entries[n] != own:
            raise AssertionError(f"profile at {n}: {entries[n]} != {own} triples")


def _run_sweep(rec, p, g):
    return rec.call("curveoracle.triple_rep_table", triple_rep_table, p, g)


def _check_sweep(table, p, g):
    for a in range(p - 1):
        lam = pow(g, a, p)
        for b in range(p):
            if table.get((a, b), 0) != oracle.curve_points(p, b, lam):
                raise AssertionError(f"triple_rep_table at ({a}, {b}) off the curve count")


# ================================================================ random-lift
# Theorems 2 and 3: sample the plain model, lift to B2[2] and Sidon, audit
# what the B2[2] lift destroys, and find sunflowers among the obstructions;
# once per round, one big sample of the mod-156 Ruzsa-residue model.

GAMMA = Fraction(7, 11)
MODEL_M = 100
SMALL_HORIZON = 30_000                 # |A| about 100
SAMPLES_PER_ROUND = 16
BIG_RUZSA_P = 13
BIG_HORIZON = 20_000_000


def _lift_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op("lift", (rng.getrandbits(63),
                       rng.randrange(SMALL_HORIZON // 2, 3 * SMALL_HORIZON // 2)))
           for _ in range(SAMPLES_PER_ROUND)]
    return ops + [Op("big_sample", (rng.getrandbits(63),))]


def _plain(seed):
    return SampleConfig(gamma=GAMMA, m=MODEL_M, modulus=1, residues=(0,), seed=seed)


def _run_lift(rec, seed, target):
    A = rec.call("randommodel.sample_small", sample_sequence, _plain(seed),
                 SMALL_HORIZON).elements
    b22 = rec.call("deletionlab.b2_2_lift", b2_2_lift, A)
    sid = rec.call("deletionlab.sidon_lift", sidon_lift, A)
    verdicts = tuple(rec.call("sidoncore.is_sidon_integer", is_sidon, s).is_sidon
                     for s in (b22, sid))
    bounds = tuple(rec.call("sidoncore.b2g_bound", b2g_bound, s) for s in (b22, sid))
    audit = rec.call("deletionlab.destruction_audit", destruction_audit,
                     A, target, 1, "b22")
    family = rec.call("deletionlab.enumerate_family", enumerate_family,
                      A, FamilySpec("T", target, 1))
    cert = rec.call("sunflower.find_vectorial_sunflower",
                    find_vectorial_sunflower, family, 2)
    if cert is not None:
        cert = (cert.petal_indices, cert.type_set, cert.core_values)
    return A, b22, sid, verdicts, bounds, tuple(audit), family.members, cert


def _check_lift(answer, seed, target):
    A, b22, sid, verdicts, bounds, audit, members, cert = answer
    own = [x for x in range(MODEL_M + 1, SMALL_HORIZON + 1)
           if oracle.includes(seed, x, GAMMA)]
    if list(A) != own:
        raise AssertionError("sample differs from the splitmix64 rule")
    counts = {}
    for name, kept, limit in (("b22", b22, 3), ("sidon", sid, 2)):
        if not set(kept) <= set(A):
            raise AssertionError(f"{name} lift output is not a subset")
        if set(A) - set(kept) != oracle.lift_removals(A, limit):
            raise AssertionError(f"{name} lift removed the wrong elements")
        counts[name] = max(oracle.pair_sum_counts(kept).values(), default=0)
        if counts[name] >= limit:
            raise AssertionError(f"{name} lift leaves a sum with {counts[name]} representations")
    if verdicts != (counts["b22"] <= 1, counts["sidon"] <= 1):
        raise AssertionError(f"is_sidon verdicts {verdicts} are wrong")
    if bounds != (counts["b22"], counts["sidon"]):
        raise AssertionError(f"b2g_bound {bounds} != {counts}")
    q_before, q_after, obstructions, holds = audit
    t_own = oracle.t_count(A, target)
    if (q_before, q_after) != (oracle.q_count(A, target), oracle.q_count(b22, target)):
        raise AssertionError("audit Q counts differ from a direct recount")
    if obstructions != t_own or len(members) != t_own:
        raise AssertionError(f"T family size {obstructions}/{len(members)} != {t_own}")
    if holds is not (q_after >= q_before - obstructions) or not holds:
        raise AssertionError("audit inequality misreported")
    _check_sunflower(members, cert)


def _check_sunflower(members, cert):
    if cert is None:
        for i, t in enumerate(members):
            for u in members[i + 1:]:
                if _sunflower_pair(t, u):
                    raise AssertionError("no sunflower reported, but one exists")
        return
    petals, type_set, core = cert
    if len(petals) != 2 or len(set(petals)) != 2:
        raise AssertionError("a 2-petal sunflower needs two distinct members")
    t, u = (members[i] for i in petals)
    if tuple(type_set) != tuple(i + 1 for i in range(len(t)) if t[i] == u[i]) \
            or tuple(core) != tuple(t[i - 1] for i in type_set):
        raise AssertionError("type or core does not match the petals")
    if not _sunflower_pair(t, u):
        raise AssertionError("petals overlap outside the core")


def _sunflower_pair(t, u) -> bool:
    free = [i for i in range(len(t)) if t[i] != u[i]]
    return not ({t[i] for i in free} & {u[i] for i in free})


def _big_config(seed):
    p = BIG_RUZSA_P
    residues = tuple(oracle.ruzsa_elements(p, oracle.primitive_roots(p)[0]).values())
    return SampleConfig(gamma=GAMMA, m=MODEL_M, modulus=p * (p - 1),
                        residues=residues, seed=seed)


def _run_big_sample(rec, seed):
    cfg = _big_config(seed)
    sample = rec.call("randommodel.sample_big", sample_sequence, cfg, BIG_HORIZON)
    start = time.perf_counter_ns()
    mean = rec.call("randommodel.expected_count", expected_count, cfg, BIG_HORIZON)
    var = rec.call("randommodel.count_variance", count_variance, cfg, BIG_HORIZON)
    if rec.enabled:
        rec.note("randommodel.moments_big", (time.perf_counter_ns() - start) / 1e6)
    return sample.elements, mean, var


def _check_big_sample(answer, seed):
    elements, mean, var = answer
    cfg = _big_config(seed)
    residues = set(cfg.residues)
    if list(elements) != sorted(set(elements)):
        raise AssertionError("big sample not sorted and distinct")
    for x in elements:
        if not (MODEL_M < x <= BIG_HORIZON and x % cfg.modulus in residues
                and oracle.includes(seed, x, GAMMA)):
            raise AssertionError(f"{x} should not be in the sample")
    if not 0 < var <= mean:
        raise AssertionError(f"variance {var} outside (0, mean {mean}]")
    if abs(len(elements) - mean) > 6 * math.sqrt(var):
        raise AssertionError(f"|A| = {len(elements)} is over 6 sd from {mean}")


# ========================================================== certified-moments
# The analysis behind the deletion bounds: certified split and difference
# sums on the lemma-AB grid, the three-factor series with pair entries of
# 10^5, exact first and second moments of the triple family on both sides
# of the engine switch, the Janson comparison and Monte Carlo shadows.

AB_GAMMAS = (Fraction(7, 11), Fraction(19, 27))
AB_NS = (10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000)
AB_MS = (0, 100)
TAIL_TOL = Fraction(1, 10 ** 6)
ABAB_DECADES = (0, 2, 4)               # second entries in [10^d, 2 10^d)
ENGINE_SWITCH = 4096
MC_TARGET = 10_000
MC_TRIALS = 40
# Fixed master seeds: a 3-sigma check fails by chance on about 0.3% of
# seeds, and a run's failed share must not depend on its seed.
MC_MASTER_SEEDS = (20260801, 20261801, 20262801, 20263801)


def _moment_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op(kind, (g, n, m)) for g in AB_GAMMAS for n in AB_NS
           for m in AB_MS for kind in ("sigma", "tau")]
    ops += [Op("abab", (AB_GAMMAS[0], 10 ** 5, rng.randrange(10 ** d, 2 * 10 ** d)))
            for d in ABAB_DECADES]
    small = rng.randrange(3 * MODEL_M + 10, 700)
    low = rng.randrange(ENGINE_SWITCH // 2, ENGINE_SWITCH + 1)
    high = rng.randrange(ENGINE_SWITCH + 1, 3 * ENGINE_SWITCH // 2)
    ops += [Op("moments", (n,)) for n in (small, low, high)]
    ops.append(Op("janson", ((small, low, high, MC_TARGET),)))
    ops += [Op("monte_carlo", (s,)) for s in MC_MASTER_SEEDS]
    return ops


def _run_sigma(rec, g, n, m):
    return rec.call("analysis.sigma", sigma, SumSpec(g, g, n, m))


def _check_sigma(value, g, n, m):
    ref = oracle.sigma_reference(g, g, n, m)
    if abs(value - ref) > TAIL_TOL:
        raise AssertionError(f"sigma {value} vs reference {ref}")


def _run_tau(rec, g, n, m):
    r = rec.call("analysis.tau", tau, SumSpec(g, g, n, m, TAIL_TOL))
    return r.value, r.error_bound, r.cutoff


def _check_tau(answer, g, n, m):
    value, error, _ = answer
    ref = oracle.tau_reference(g, g, n, m)
    if not (0 <= error <= TAIL_TOL and abs(value - ref) <= error):
        raise AssertionError(f"tau {value} +- {error} misses reference {ref}")


def _run_abab(rec, g, a, b):
    return rec.call("analysis.abab", check_lemma_abab, g, [(a, b)],
                    tail_tolerance=TAIL_TOL).rows


def _check_abab(rows, g, a, b):
    if [r[0] for r in rows] != [f"a={a} b={b}", f"a={b} b={a}"]:
        raise AssertionError(f"unexpected rows {[r[0] for r in rows]}")
    for (_, value, norm), (u, v) in zip(rows, ((a, b), (b, a))):
        ref = oracle.abab_reference(g, u, v)
        if abs(value - ref) > TAIL_TOL:
            raise AssertionError(f"abab ({u}, {v}) {value} vs reference {ref}")
        if not math.isclose(norm, value * (u * v) ** (2 * float(g) - 1), rel_tol=1e-12):
            raise AssertionError("abab normalized ratio is off")


def _run_moments(rec, n):
    cfg = _plain(0)
    return tuple(rec.call(f"analysis.{name}_{engine}", fn, n, cfg, engine)
                 for name, fn in (("expectation", exact_expectation_Q),
                                  ("delta", exact_delta_Q))
                 for engine in ("loop", "transform"))


def _check_moments(answer, n):
    e_loop, e_fft, d_loop, d_fft = answer
    for name, one, two in (("E", e_loop, e_fft), ("Delta", d_loop, d_fft)):
        if not math.isclose(one, two, rel_tol=1e-9, abs_tol=1e-15):
            raise AssertionError(f"{name} engines disagree at n={n}: {one} vs {two}")
    if n < 1000:
        e_ref, d_ref = oracle.triple_moments(n, GAMMA, MODEL_M)
        if not (math.isclose(e_loop, e_ref, rel_tol=1e-9, abs_tol=1e-15)
                and math.isclose(d_loop, d_ref, rel_tol=1e-9, abs_tol=1e-15)):
            raise AssertionError(f"moments at n={n} differ from the brute sum")


def _run_janson(rec, targets):
    return rec.call("analysis.janson_threshold", janson_threshold, _plain(0), targets)


def _check_janson(answer, targets):
    threshold, rows = answer
    if [r[0] for r in rows] != list(targets):
        raise AssertionError("janson rows do not follow the targets")
    cfg = _plain(0)
    for n, mu, delta, ok in rows:
        engine = "loop" if n <= ENGINE_SWITCH else "transform"
        if ok is not (delta < mu) or mu != exact_expectation_Q(n, cfg, engine) \
                or delta != exact_delta_Q(n, cfg, engine):
            raise AssertionError(f"janson row at n={n} is inconsistent")
    own = None
    for n, _, _, ok in reversed(rows):
        if not ok:
            break
        own = n
    if threshold != own:
        raise AssertionError(f"threshold {threshold} != {own}")


def _run_monte_carlo(rec, master):
    return rec.call("analysis.monte_carlo", monte_carlo_family_mean, "Q",
                    [MC_TARGET], _plain(0), MC_TARGET, trials=MC_TRIALS,
                    master_seed=master)


def _check_monte_carlo(table, master):
    ((target, mean, stderr),) = table
    cfg = _plain(0)
    mu = exact_expectation_Q(target, cfg, "transform")
    delta = exact_delta_Q(target, cfg, "transform")
    width = 3 * max(stderr, math.sqrt((mu + delta) / MC_TRIALS))
    if target != MC_TARGET or abs(mean - mu) > width:
        raise AssertionError(f"Monte Carlo mean {mean} is over {width} from {mu}")


# kind -> (run against sidonlab, check against oracle)
KINDS = {
    "query": (_run_query, _check_query),
    "ruzsa_set": (_run_ruzsa_set, _check_ruzsa_set),
    "et_set": (_run_et_set, _check_et_set),
    "sweep": (_run_sweep, _check_sweep),
    "lift": (_run_lift, _check_lift),
    "big_sample": (_run_big_sample, _check_big_sample),
    "sigma": (_run_sigma, _check_sigma),
    "tau": (_run_tau, _check_tau),
    "abab": (_run_abab, _check_abab),
    "moments": (_run_moments, _check_moments),
    "janson": (_run_janson, _check_janson),
    "monte_carlo": (_run_monte_carlo, _check_monte_carlo),
}


WORKLOADS = {
    "zn-basis": _zn_ops,
    "random-lift": _lift_ops,
    "certified-moments": _moment_ops,
}


def run_op(rec: Recorder, op: Op):
    return KINDS[op.kind][0](rec, *op.args)


def check_op(op: Op, answer) -> str | None:
    """None when the answer passes its independent check, else why not."""
    try:
        KINDS[op.kind][1](answer, *op.args)
    except Exception as exc:   # a wrong answer, or one too malformed to read
        return f"{op.kind}{op.args}: {type(exc).__name__}: {exc}"
    return None


COUNT_NAMES = {
    "zn-basis": ("decomposer.zn_found", "decomposer.zn_none"),
    "random-lift": ("deletionlab.input_size", "deletionlab.b22_kept",
                    "deletionlab.sidon_kept", "deletionlab.obstructions"),
    "certified-moments": ("analysis.tau_cutoff_total",),
}


def layer_counts(workload: str, answered) -> dict[str, int]:
    """Exact work counts of one round, read off its (op, answer) pairs."""
    counts = dict.fromkeys(COUNT_NAMES[workload], 0)
    for op, answer in answered:
        if op.kind == "query":
            key = "zn_found" if answer["zn"][0] == 0 else "zn_none"
            counts["decomposer." + key] += 1
        elif op.kind == "lift":
            A, b22, sid, _, _, audit, _, _ = answer
            counts["deletionlab.input_size"] += len(A)
            counts["deletionlab.b22_kept"] += len(b22)
            counts["deletionlab.sidon_kept"] += len(sid)
            counts["deletionlab.obstructions"] += audit[2]
        elif op.kind == "tau":
            counts["analysis.tau_cutoff_total"] += answer[2]
    return counts
