"""Each answer check accepts the program's answer and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

REC = wl.Recorder(False)


def answer(op):
    return wl.run_op(REC, op)


def rejects(op, bad) -> bool:
    return wl.check_op(op, bad) is not None


def accepts(op, good) -> bool:
    return wl.check_op(op, good) is None


def edit_payload(cli_answer, edit):
    """Apply `edit` to the payload of a (code, envelope text) CLI answer."""
    code, text = cli_answer
    env = json.loads(text)
    edit(env["payload"])
    return code, json.dumps(env)


# ------------------------------------------------------------------ zn-basis

P, N = 31, 4500                 # decomposition prime of 4500 is 31


def _query_with_zn(found: bool):
    for n in range(N):
        op = wl.Op("query", (P, 5, 7, N, n))
        got = answer(op)
        if (got["zn"][0] == 0) == found:
            return op, got
    raise AssertionError("no such target")


@pytest.fixture(scope="module")
def query():
    return _query_with_zn(found=True)


def test_query_accepts_the_program(query):
    op, got = query
    assert accepts(op, got)
    op_none, got_none = _query_with_zn(found=False)
    assert accepts(op_none, got_none)


def test_query_rejects_a_wrong_part(query):
    op, got = query
    bad = dict(got, ruzsa3=edit_payload(got["ruzsa3"],
                                        lambda p: p["parts"].__setitem__(0, p["parts"][0] + 1)))
    assert rejects(op, bad)


def test_query_rejects_a_later_hit(query):
    op, got = query

    def swap(payload):
        cert = payload["certificate"]
        cert["logs"][0], cert["logs"][1] = cert["logs"][1], cert["logs"][0]
        payload["parts"][0], payload["parts"][1] = payload["parts"][1], payload["parts"][0]

    assert rejects(op, dict(got, ruzsa3=edit_payload(got["ruzsa3"], swap)))


def test_query_rejects_repeated_parts(query):
    op, got = query
    bad = edit_payload(got["ruzsa4"], lambda p: p["parts"].__setitem__(1, p["parts"][0]))
    assert rejects(op, dict(got, ruzsa4=bad))


def test_query_rejects_a_wrong_point_count(query):
    op, got = query
    bad = edit_payload(got["identity"],
                       lambda p: p.update(curvePoints=p["curvePoints"] + 1,
                                          tripleReps=p["tripleReps"] + 1))
    assert rejects(op, dict(got, identity=bad))


def test_query_rejects_a_false_none(query):
    op, got = query
    env = {"status": "error", "configHash": "",
           "payload": {"error": "NoRepresentation", "message": ""}}
    assert rejects(op, dict(got, zn=(1, json.dumps(env))))


def test_query_rejects_a_wrong_zn_part(query):
    op, got = query
    bad = edit_payload(got["zn"], lambda p: p["parts"].__setitem__(2, p["parts"][2] + 2 * P))
    assert rejects(op, dict(got, zn=bad))


def test_constructions_reject_corrupt_profiles():
    op = wl.Op("ruzsa_set", (P, ((5, 7), (0, 0))))
    modulus, elements, sidon, (total, entries) = got = answer(op)
    assert accepts(op, got)
    key = oracle.crt(5, 7, P)
    assert rejects(op, (modulus, elements, sidon, (total, {**entries, key: entries[key] + 1})))
    assert rejects(op, (modulus, elements, sidon, (total - 1, entries)))
    assert rejects(op, (modulus, elements, False, (total, entries)))
    assert rejects(op, (modulus, elements[:-1] + (elements[-1] + 1,), sidon, (total, entries)))

    op = wl.Op("et_set", (P, N, (17, 400)))
    elements, sidon, (total, entries) = got = answer(op)
    assert accepts(op, got)
    assert rejects(op, (elements, sidon, (total, {**entries, 400: entries[400] + 1})))


def test_sweep_rejects_one_wrong_count():
    op = wl.Op("sweep", (13, 2))
    table = answer(op)
    assert accepts(op, table)
    key = next(iter(table))
    assert rejects(op, {**table, key: table[key] + 1})


# --------------------------------------------------------------- random-lift


@pytest.fixture(scope="module")
def lift():
    op = wl.Op("lift", (7, 20_000))
    return op, answer(op)


def _with(answer_tuple, index, value):
    out = list(answer_tuple)
    out[index] = value
    return tuple(out)


def test_lift_accepts_the_program(lift):
    op, got = lift
    assert accepts(op, got)


def test_lift_rejects_a_third_representation(lift):
    op, got = lift
    A = got[0]
    assert rejects(op, _with(got, 1, tuple(A)))          # B2[2] lift kept all


def test_lift_rejects_removal_without_witness(lift):
    op, got = lift
    assert rejects(op, _with(got, 1, got[1][1:]))
    assert rejects(op, _with(got, 0, got[0][1:]))         # sample lost an element


def test_lift_rejects_wrong_audit_counts(lift):
    op, got = lift
    q_before, q_after, obstructions, holds = got[5]
    assert rejects(op, _with(got, 5, (q_before + 1, q_after, obstructions, holds)))
    assert rejects(op, _with(got, 5, (q_before, q_after, obstructions + 1, holds)))


def test_lift_rejects_overlapping_petals(lift):
    op, got = lift
    members = got[6]
    t = members[0]
    u = next(u for u in members[1:] if not wl._sunflower_pair(t, u))
    i = members.index(u)
    same = tuple(k + 1 for k in range(len(t)) if t[k] == u[k])
    bad = ((0, i), same, tuple(t[k - 1] for k in same))
    assert rejects(op, _with(got, 7, bad))


def test_big_sample(monkeypatch):
    monkeypatch.setattr(wl, "BIG_HORIZON", 10 ** 6)
    op = wl.Op("big_sample", (3,))
    elements, mean, var = got = answer(op)
    assert accepts(op, got)
    missing = next(x for x in range(wl.MODEL_M + 1, 10 ** 6) if x not in elements)
    assert rejects(op, (tuple(sorted(elements + (missing,))), mean, var))
    assert rejects(op, (elements, mean * 3, var))


# --------------------------------------------------------- certified-moments

G = Fraction(7, 11)


def test_sigma_and_tau_reject_values_outside_their_bounds():
    op = wl.Op("sigma", (G, 316, 100))
    value = answer(op)
    assert accepts(op, value)
    assert rejects(op, value + 2 * float(wl.TAIL_TOL))

    op = wl.Op("tau", (G, 316, 100))
    value, error, cutoff = answer(op)
    assert accepts(op, (value, error, cutoff))
    assert rejects(op, (value + 3 * error, error, cutoff))
    assert rejects(op, (value, 2 * float(wl.TAIL_TOL), cutoff))


def test_abab_rejects_a_value_outside_the_tolerance():
    op = wl.Op("abab", (G, 2000, 30))
    rows = answer(op)
    assert accepts(op, rows)
    label, value, norm = rows[1]
    assert rejects(op, (rows[0], (label, value + 2 * float(wl.TAIL_TOL), norm)))


def test_moments_reject_engine_or_brute_disagreement():
    op = wl.Op("moments", (450,))
    got = answer(op)
    assert accepts(op, got)
    e_loop, e_fft, d_loop, d_fft = got
    assert rejects(op, (e_loop, e_fft * (1 + 1e-6), d_loop, d_fft))
    assert rejects(op, (e_loop * 1.001, e_fft * 1.001, d_loop, d_fft))


def test_janson_rejects_a_wrong_threshold():
    op = wl.Op("janson", ((450, 3000, 10_000),))
    threshold, rows = got = answer(op)
    assert accepts(op, got)
    assert rejects(op, (-1, rows))
    flipped = copy.deepcopy(list(rows))
    n, mu, delta, ok = flipped[-1]
    flipped[-1] = (n, mu, delta, not ok)
    assert rejects(op, (threshold, tuple(flipped)))


def test_monte_carlo_rejects_a_mean_far_from_mu():
    op = wl.Op("monte_carlo", (wl.MC_MASTER_SEEDS[0],))
    ((target, mean, stderr),) = got = answer(op)
    assert accepts(op, got)
    assert rejects(op, ((target, mean + 10, stderr),))
