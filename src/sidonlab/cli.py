"""Batch command-line front door.

Every library capability is reachable as a subcommand that parses flags,
calls exactly one library entry point, and prints a JSON envelope

    {"status": "ok"|"error", "payload": ..., "configHash": ...}

on stdout (or to ``--out``). The configHash is a SHA-256 over the fully
resolved parameters, so identical invocations hash identically and the
payload can be replayed from the library with the same config. Numeric
rate parameters (gamma, epsilon, alpha, beta, tolerances) are exact
"p/q" rationals on the command line for the same reason.

Exit codes: 0 on success, 1 when the library rejects the inputs on
mathematical grounds (no decomposition, divergent series, composite
where a prime is needed, ...), 2 for bad flags or unreadable input.
``--threads`` is accepted everywhere and deliberately ignored: results
never depend on it. ``--format csv`` renders the payload as a table;
commands without a natural table fall back to key,value rows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import (NonConvergent, SumSpec, check_lemma_ab,
                       check_lemma_abab, exact_delta_Q, exact_expectation_Q,
                       monte_carlo_family_mean, sigma, tau)
from .curveoracle import (CurveParams, QuadricParams, curve_point_count,
                          dyadic_box_coverage, enumerate_quadric, hasse_slack,
                          torus_points, triple_rep_count, triple_rep_table)
from .decomposer import (NoRepresentation, decompose3_ruzsa, decompose3_zn,
                         decompose4_ruzsa)
from .deletionlab import (FamilySpec, UnsupportedKind, b2_2_lift,
                          destruction_audit, enumerate_family, sidon_lift)
from .numbertheory import (NotGenerator, NotPrime, PrimeNotFound, RangeError,
                           primitive_root)
from .randommodel import SampleConfig, sample_sequence
from .sidoncore import (ModSet, NotOddPrime, b2g_bound, basis_order_check,
                        erdos_turan_set, is_sidon, ruzsa_set)
from .sunflower import SunflowerCert, find_vectorial_sunflower

__all__ = ["run", "main"]

# the library's own exception types only: anything else is a bug and propagates
_DOMAIN_ERRORS = (RangeError, NotPrime, NotGenerator, PrimeNotFound,
                  NotOddPrime, NoRepresentation, UnsupportedKind,
                  NonConvergent)

_PLUMBING = frozenset({"out", "format", "threads", "src", "cert_src"})


class _UsageError(Exception):
    """Bad flag combination or unreadable input file; exits with 2."""


# ---------------------------------------------------------------- flag types

def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a p/q rational") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated integer list") from exc
    if not items:
        raise argparse.ArgumentTypeError("empty integer list")
    return items


def _pair_list(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"{chunk!r} is not of the form a:b")
        try:
            pairs.append((int(left), int(right)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"{chunk!r} is not of the form a:b") from exc
    return tuple(pairs)


# ------------------------------------------------------- envelope machinery

def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return value


def _resolved(args, **extra) -> dict:
    found = {"command": args._cmd}
    for key, val in vars(args).items():
        if key.startswith("_") or key in _PLUMBING:
            continue
        found[key] = _jsonable(val)
    for key, val in extra.items():
        found[key] = _jsonable(val)
    args._resolved = found
    return found


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _rows_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _payload_csv(payload: dict) -> str:
    rows = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, (dict, list)) or isinstance(val, bool) or val is None:
            val = json.dumps(val, sort_keys=True)
        rows.append((key, val))
    return _rows_csv(("key", "value"), rows)


def _deliver(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _ok(args, payload: dict, csv_text: str | None = None) -> int:
    if args.format == "csv":
        text = csv_text if csv_text is not None else _payload_csv(payload)
    else:
        envelope = {"status": "ok", "payload": payload,
                    "configHash": _config_hash(args._resolved)}
        text = json.dumps(envelope, sort_keys=True) + "\n"
    _deliver(args, text)
    return 0


# ------------------------------------------------------------- input files

def _load_json(path: str, flag: str = "--in"):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"{flag}: cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{flag}: {path} is not valid JSON: {exc}")


def _coerce_elements(data, flag: str = "--in"):
    """Accept a bare list, an object with "elements", or a whole ok-envelope
    from an earlier run (so commands pipe into each other via --out)."""
    if isinstance(data, dict) and "payload" in data:
        data = data["payload"]
    if isinstance(data, dict) and "elements" in data:
        try:
            return [int(x) for x in data["elements"]], data.get("modulus")
        except (TypeError, ValueError):
            raise _UsageError(f"{flag}: \"elements\" must be integers")
    if isinstance(data, list):
        try:
            return [int(x) for x in data], None
        except (TypeError, ValueError):
            raise _UsageError(f"{flag}: list entries must be integers")
    raise _UsageError(
        f"{flag}: expected a JSON list or an object with \"elements\"")


def _read_elements(args, flag: str = "--in"):
    if args.src is None:
        raise _UsageError(f"{flag} is required")
    return _coerce_elements(_load_json(args.src, flag), flag)


def _model_config(args) -> SampleConfig:
    if args.gamma is None:
        raise _UsageError("--gamma is required")
    if args.ruzsa_p is not None:
        if args.residues is not None or args.modulus != 1:
            raise _UsageError(
                "--ruzsa-p replaces --modulus/--residues; give one or the other")
        base = ruzsa_set(args.ruzsa_p)
        modulus, residues = base.modulus, tuple(base.elements)
    else:
        modulus = args.modulus
        if args.residues is not None:
            residues = args.residues
        elif modulus == 1:
            residues = (0,)
        else:
            raise _UsageError("--residues is required when --modulus exceeds 1")
    return SampleConfig(gamma=args.gamma, m=args.m, modulus=modulus,
                        residues=residues, seed=args.seed)


# ------------------------------------------------------------------ handlers

def _cmd_construct(args) -> int:
    _resolved(args)
    made = (ruzsa_set(args.p, args.g) if args._cmd == "construct.ruzsa"
            else erdos_turan_set(args.p))
    payload = json.loads(made.to_json())
    return _ok(args, payload,
               _rows_csv(("element",), [(x,) for x in made.elements]))


def _read_set(args, cyclic_only: bool = True):
    """--in elements and the modulus, from --modulus or else the file."""
    elements, file_modulus = _read_elements(args)
    modulus = args.modulus if args.modulus is not None else file_modulus
    if modulus is None and (args.mode == "cyclic" or not cyclic_only):
        raise _UsageError("--modulus is required"
                          + (" in cyclic mode" if cyclic_only else "")
                          + " (or supply a file that carries one)")
    _resolved(args, elements=elements, modulus=modulus)
    return elements, modulus


def _cmd_verify_sidon(args) -> int:
    elements, modulus = _read_set(args)
    witness = is_sidon(elements, mode=args.mode, modulus=modulus)
    payload = {"sidon": witness.is_sidon,
               "witness": list(witness.collision) if witness.collision else None}
    return _ok(args, payload)


def _cmd_verify_b2g(args) -> int:
    elements, modulus = _read_set(args)
    bound = b2g_bound(elements, mode=args.mode, modulus=modulus)
    return _ok(args, {"b2g": bound})


def _cmd_verify_basis(args) -> int:
    elements, modulus = _read_set(args, cyclic_only=False)
    covered, missing = basis_order_check(ModSet(modulus, tuple(elements)),
                                         args.order,
                                         repetition=args.repetition)
    return _ok(args, {"basis": covered, "missing": missing})


def _cmd_curve_count(args) -> int:
    _resolved(args)
    points = curve_point_count(CurveParams(args.p, args.b, args.lam))
    payload = {"p": args.p, "b": args.b, "lam": args.lam, "points": points,
               "gap": points - args.p, "slack": hasse_slack(args.p)}
    return _ok(args, payload)


def _cmd_curve_identity(args) -> int:
    if (args.a is None) != (args.b is None):
        raise _UsageError("give both -a and -b, or neither for a full sweep")
    gen = args.g if args.g is not None else primitive_root(args.p)
    _resolved(args, g=gen)
    p = args.p
    if args.a is not None:
        reps = triple_rep_count(p, gen, args.a, args.b)
        points = curve_point_count(CurveParams(p, args.b % p, pow(gen, args.a, p)))
        payload = {"a": args.a, "b": args.b, "tripleReps": reps,
                   "curvePoints": points, "match": reps == points}
        return _ok(args, payload)
    # the Ruzsa set's 3-fold sum counts against the curve, target by target
    table = triple_rep_table(p, gen)
    mismatches = []
    checked = 0
    for a in range(p - 1):
        lam = pow(gen, a, p)
        for b in range(p):
            reps = table.get((a, b), 0)
            points = curve_point_count(CurveParams(p, b, lam))
            checked += 1
            if reps != points:
                mismatches.append({"a": a, "b": b, "tripleReps": reps,
                                   "curvePoints": points})
    payload = {"p": p, "g": gen, "checked": checked,
               "mismatches": mismatches, "ok": not mismatches}
    return _ok(args, payload)


def _cmd_curve_quadric(args) -> int:
    _resolved(args)
    sols = enumerate_quadric(QuadricParams(args.p, args.r1, args.r2))
    payload = {"p": args.p, "r1": args.r1, "r2": args.r2,
               "reducible": sols.reducible, "count": len(sols),
               "solutions": [list(pt) for pt in sols]}
    return _ok(args, payload, _rows_csv(("u", "v"), list(sols)))


def _cmd_curve_coverage(args) -> int:
    _resolved(args)
    cloud = torus_points(QuadricParams(args.p, args.r1, args.r2))
    covered, total = dyadic_box_coverage(cloud, args.k)
    payload = {"p": args.p, "r1": args.r1, "r2": args.r2, "k": args.k,
               "covered": covered, "total": total,
               "fraction": covered / total}
    return _ok(args, payload)


def _cmd_decompose_ruzsa3(args) -> int:
    _resolved(args)
    found = decompose3_ruzsa(args.p, args.a, args.b, g=args.g,
                             require_distinct=args.distinct)
    return _ok(args, json.loads(found.to_json()))


def _cmd_decompose_ruzsa4(args) -> int:
    _resolved(args)
    found = decompose4_ruzsa(args.p, args.a, args.b, g=args.g)
    return _ok(args, json.loads(found.to_json()))


def _cmd_decompose_zn(args) -> int:
    _resolved(args)
    found = decompose3_zn(args.n, args.N, mode=args.search)
    return _ok(args, json.loads(found.to_json()))


def _cmd_sample(args) -> int:
    config = _model_config(args)
    _resolved(args, config=json.loads(config.to_json()))
    seq = sample_sequence(config, args.horizon)
    payload = {"config": json.loads(config.to_json()),
               "horizon": args.horizon, "count": len(seq.elements),
               "elements": list(seq.elements)}
    return _ok(args, payload,
               _rows_csv(("element",), [(x,) for x in seq.elements]))


def _cmd_lift(args) -> int:
    elements, _ = _read_elements(args)
    _resolved(args, elements=elements)
    lifter = sidon_lift if args._cmd == "lift.sidon" else b2_2_lift
    kept = lifter(elements)
    payload = {"inputSize": len(elements), "outputSize": len(kept),
               "removedCount": len(elements) - len(kept),
               "elements": list(kept)}
    return _ok(args, payload,
               _rows_csv(("element",), [(x,) for x in kept]))


def _cmd_family_enumerate(args) -> int:
    elements, _ = _read_elements(args)
    _resolved(args, elements=elements)
    spec = FamilySpec(kind=args.kind, target=args.target,
                      modulus=args.modulus, epsilon=args.epsilon)
    fam = enumerate_family(elements, spec)
    members = [list(member) for member in fam.members]
    payload = {"kind": spec.kind, "target": spec.target,
               "modulus": spec.modulus,
               "epsilon": str(spec.epsilon) if spec.epsilon is not None else None,
               "count": len(members), "members": members}
    header = tuple(f"x{i}" for i in range(1, fam.arity + 1)) or ("x1",)
    return _ok(args, payload, _rows_csv(header, fam.members))


def _read_members(args):
    data = _load_json(args.src)
    if not isinstance(data, list):
        raise _UsageError("--in: expected a JSON list of coordinate tuples")
    try:
        return [tuple(int(x) for x in row) for row in data]
    except (TypeError, ValueError):
        raise _UsageError("--in: rows must be integer tuples")


def _cmd_sunflower_find(args) -> int:
    members = _read_members(args)
    _resolved(args, members=members)
    cert = find_vectorial_sunflower(members, args.k)
    payload = {"k": args.k, "found": cert is not None,
               "certificate": json.loads(cert.to_json()) if cert else None}
    return _ok(args, payload)


def _cmd_sunflower_check(args) -> int:
    members = _read_members(args)
    raw = _load_json(args.cert_src, "--cert")
    if isinstance(raw, dict) and "payload" in raw:
        raw = raw["payload"]
    if isinstance(raw, dict) and "certificate" in raw:
        raw = raw["certificate"]
    try:
        cert = SunflowerCert(tuple(raw["petalIndices"]),
                             tuple(raw["typeSet"]),
                             tuple(raw["coreValues"]))
    except (TypeError, KeyError):
        raise _UsageError("--cert: expected petalIndices/typeSet/coreValues")
    _resolved(args, members=members, certificate=_jsonable(dict(raw)))
    return _ok(args, {"valid": cert.verify(members)})


def _cmd_analyze_sigma(args) -> int:
    _resolved(args)
    spec = SumSpec(args.alpha, args.beta, args.n, args.m)
    value = sigma(spec)
    payload = {"alpha": str(spec.alpha), "beta": str(spec.beta),
               "n": args.n, "m": args.m, "value": value}
    return _ok(args, payload)


def _cmd_analyze_tau(args) -> int:
    _resolved(args)
    spec = SumSpec(args.alpha, args.beta, args.n, args.m,
                   tail_tolerance=args.tol)
    result = tau(spec)
    payload = {"alpha": str(spec.alpha), "beta": str(spec.beta),
               "n": args.n, "m": args.m, "value": result.value,
               "errorBound": result.error_bound,
               "majorantBound": result.majorant_bound,
               "cutoff": result.cutoff}
    return _ok(args, payload)


def _cmd_analyze_lemma_ab(args) -> int:
    _resolved(args)
    report = check_lemma_ab(args.alpha, args.beta, args.grid,
                            tail_tolerance=args.tol)
    return _ok(args, json.loads(report.to_json()), report.to_csv())


def _cmd_analyze_lemma_abab(args) -> int:
    _resolved(args)
    report = check_lemma_abab(args.gamma, args.pairs,
                              tail_tolerance=args.tol)
    return _ok(args, json.loads(report.to_json()), report.to_csv())


def _cmd_analyze_moment(args) -> int:
    config = _model_config(args)
    _resolved(args, config=json.loads(config.to_json()))
    moment = (exact_delta_Q if args._cmd == "analyze.delta"
              else exact_expectation_Q)
    value = moment(args.n, config, args.engine)
    payload = {"config": json.loads(config.to_json()), "n": args.n,
               "engine": args.engine, "value": value}
    return _ok(args, payload)


def _cmd_analyze_montecarlo(args) -> int:
    config = _model_config(args)
    _resolved(args, config=json.loads(config.to_json()))
    table = monte_carlo_family_mean(args.kind, args.targets, config,
                                    args.horizon, trials=args.trials,
                                    master_seed=args.master_seed,
                                    epsilon=args.epsilon)
    rows = [{"target": t, "mean": mean, "stderr": err}
            for t, mean, err in table]
    payload = {"kind": args.kind.upper(), "horizon": args.horizon,
               "trials": args.trials, "rows": rows}
    return _ok(args, payload,
               _rows_csv(("target", "mean", "stderr"), list(table)))


def _cmd_audit_destruction(args) -> int:
    elements, _ = _read_elements(args)
    _resolved(args, elements=elements)
    result = destruction_audit(elements, args.n, N=args.N, mode=args.mode,
                               epsilon=args.epsilon)
    payload = {"n": args.n, "N": args.N, "mode": args.mode,
               "qBefore": result.q_before, "qAfter": result.q_after,
               "obstructions": result.obstructions, "holds": result.holds}
    return _ok(args, payload)


# -------------------------------------------------------------- parser tree

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser tree, built once per process: run() only parses."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--threads", type=int, default=1, metavar="K",
                        help="accepted for interface stability; "
                             "results never depend on it")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--gamma", type=_rational, metavar="P/Q",
                       help="decay exponent of the inclusion probability")
    model.add_argument("--m", type=int, default=0, metavar="M",
                       help="integers up to M are never included")
    model.add_argument("--modulus", type=int, default=1, metavar="N")
    model.add_argument("--residues", type=_int_list, metavar="R1,R2,...")
    model.add_argument("--ruzsa-p", type=int, metavar="P",
                       help="use the modulus and residues of the Ruzsa set "
                            "for the prime P")
    model.add_argument("--seed", type=int, default=0)

    setfile = argparse.ArgumentParser(add_help=False)
    setfile.add_argument("--in", dest="src", metavar="PATH",
                         help="JSON input: a list of integers, an object "
                              "with \"elements\", or a previous ok-envelope")
    setfile.add_argument("--mode", choices=("integer", "cyclic"),
                         default="integer")
    setfile.add_argument("--modulus", type=int, default=None, metavar="N")

    top = argparse.ArgumentParser(
        prog="sidonlab", allow_abbrev=False,
        description="Sidon sets, order-3 bases, and the deletion machinery: "
                    "constructions, certificates, exact counts, audits.")
    groups = top.add_subparsers(metavar="COMMAND")

    def leaf(sub, name, handler, cmd, parents=(), **kwargs):
        parser = sub.add_parser(name, parents=[*parents, common],
                                allow_abbrev=False, **kwargs)
        parser.set_defaults(_func=handler, _cmd=cmd)
        return parser

    construct = groups.add_parser(
        "construct", allow_abbrev=False,
        help="build the two explicit Sidon sets").add_subparsers(
        metavar="KIND")
    par = leaf(construct, "erdos-turan", _cmd_construct,
               "construct.erdos-turan",
               help="p-element integer Sidon set below 2p^2")
    par.add_argument("-p", type=int, required=True, help="odd prime")
    par = leaf(construct, "ruzsa", _cmd_construct, "construct.ruzsa",
               help="(p-1)-element cyclic Sidon set mod (p-1)p")
    par.add_argument("-p", type=int, required=True, help="prime")
    par.add_argument("-g", type=int, default=None,
                     help="primitive root mod p (default: smallest)")

    verify = groups.add_parser(
        "verify", allow_abbrev=False,
        help="check Sidon/B2[g]/basis properties of a set").add_subparsers(
        metavar="PROPERTY")
    leaf(verify, "sidon", _cmd_verify_sidon, "verify.sidon",
         parents=[setfile], help="all pairwise sums distinct")
    leaf(verify, "b2g", _cmd_verify_b2g, "verify.b2g", parents=[setfile],
         help="smallest g with at most g representations per sum")
    par = leaf(verify, "basis", _cmd_verify_basis, "verify.basis",
               parents=[setfile],
               help="does every residue split into a sum of given order")
    par.add_argument("--order", type=int, required=True)
    par.add_argument("--repetition", choices=("allowed", "forbidden"),
                     default="allowed")

    curve = groups.add_parser(
        "curve", allow_abbrev=False,
        help="point counts on y^2 = quartic, and quadric clouds").add_subparsers(
        metavar="TASK")
    par = leaf(curve, "count", _cmd_curve_count, "curve.count",
               help="points with V != 0 on the counting curve")
    par.add_argument("-p", type=int, required=True)
    par.add_argument("-b", type=int, required=True)
    par.add_argument("--lam", type=int, required=True)
    par = leaf(curve, "identity", _cmd_curve_identity, "curve.identity",
               help="triple representation count vs curve point count")
    par.add_argument("-p", type=int, required=True)
    par.add_argument("-g", type=int, default=None)
    par.add_argument("-a", type=int, default=None)
    par.add_argument("-b", type=int, default=None)
    par = leaf(curve, "quadric", _cmd_curve_quadric, "curve.quadric",
               help="solutions of the two-residue quadric")
    par.add_argument("-p", type=int, required=True)
    par.add_argument("--r1", type=int, required=True)
    par.add_argument("--r2", type=int, required=True)
    par = leaf(curve, "coverage", _cmd_curve_coverage, "curve.coverage",
               help="dyadic box coverage of the scaled solution cloud")
    par.add_argument("-p", type=int, required=True)
    par.add_argument("--r1", type=int, required=True)
    par.add_argument("--r2", type=int, required=True)
    par.add_argument("-k", type=int, required=True,
                     help="boxes per axis: 2^k")

    decompose = groups.add_parser(
        "decompose", allow_abbrev=False,
        help="write targets as short sums over the constructions").add_subparsers(
        metavar="SCHEME")
    par = leaf(decompose, "ruzsa3", _cmd_decompose_ruzsa3, "decompose.ruzsa3",
               help="three Ruzsa elements hitting (a, b)")
    par.add_argument("-p", type=int, required=True)
    par.add_argument("-a", type=int, required=True)
    par.add_argument("-b", type=int, required=True)
    par.add_argument("-g", type=int, default=None)
    par.add_argument("--distinct", action="store_true",
                     help="require pairwise distinct parts")
    par = leaf(decompose, "ruzsa4", _cmd_decompose_ruzsa4, "decompose.ruzsa4",
               help="four Ruzsa elements, one below the epsilon threshold")
    par.add_argument("-p", type=int, required=True)
    par.add_argument("-a", type=int, required=True)
    par.add_argument("-b", type=int, required=True)
    par.add_argument("-g", type=int, default=None)
    par = leaf(decompose, "zn", _cmd_decompose_zn, "decompose.zn",
               help="three Erdos-Turan elements mod N")
    par.add_argument("-N", type=int, required=True)
    par.add_argument("-n", type=int, required=True)
    par.add_argument("--search", choices=("exhaustive", "box"),
                     default="exhaustive")

    par = leaf(groups, "sample", _cmd_sample, "sample", parents=[model],
               help="draw one sequence from the counter-based random model")
    par.add_argument("--horizon", type=int, required=True)

    lift = groups.add_parser(
        "lift", allow_abbrev=False,
        help="delete collisions to reach a Sidon or B2[2] subsequence").add_subparsers(
        metavar="TARGET")
    for name in ("sidon", "b22"):
        par = leaf(lift, name, _cmd_lift, f"lift.{name}")
        par.add_argument("--in", dest="src", metavar="PATH", required=True)

    family = groups.add_parser(
        "family", allow_abbrev=False,
        help="representation and obstruction families").add_subparsers(
        metavar="TASK")
    par = leaf(family, "enumerate", _cmd_family_enumerate, "family.enumerate")
    par.add_argument("--in", dest="src", metavar="PATH", required=True)
    par.add_argument("--kind", required=True,
                     choices=("Q", "R", "T", "B", "U2", "U3", "V2", "V3", "W"))
    par.add_argument("--target", type=int, required=True)
    par.add_argument("--modulus", type=int, default=1)
    par.add_argument("--epsilon", type=_rational, default=None, metavar="P/Q")

    sunflower = groups.add_parser(
        "sunflower", allow_abbrev=False,
        help="vectorial sunflower certificates").add_subparsers(
        metavar="TASK")
    par = leaf(sunflower, "find", _cmd_sunflower_find, "sunflower.find")
    par.add_argument("--in", dest="src", metavar="PATH", required=True,
                     help="JSON list of coordinate tuples")
    par.add_argument("-k", type=int, required=True, help="petal count")
    par = leaf(sunflower, "check", _cmd_sunflower_check, "sunflower.check")
    par.add_argument("--in", dest="src", metavar="PATH", required=True)
    par.add_argument("--cert", dest="cert_src", metavar="PATH", required=True)

    analyze = groups.add_parser(
        "analyze", allow_abbrev=False,
        help="certified sums, ratio reports, exact and sampled moments").add_subparsers(
        metavar="TASK")
    par = leaf(analyze, "sigma", _cmd_analyze_sigma, "analyze.sigma",
               help="finite two-power sum along x + y = n")
    par.add_argument("--alpha", type=_rational, required=True, metavar="P/Q")
    par.add_argument("--beta", type=_rational, required=True, metavar="P/Q")
    par.add_argument("-n", type=int, required=True)
    par.add_argument("--m", type=int, default=0)
    par = leaf(analyze, "tau", _cmd_analyze_tau, "analyze.tau",
               help="certified infinite sum along x - y = n")
    par.add_argument("--alpha", type=_rational, required=True, metavar="P/Q")
    par.add_argument("--beta", type=_rational, required=True, metavar="P/Q")
    par.add_argument("-n", type=int, required=True)
    par.add_argument("--m", type=int, default=0)
    par.add_argument("--tol", type=_rational, default=None, metavar="P/Q")
    par = leaf(analyze, "lemma-ab", _cmd_analyze_lemma_ab, "analyze.lemma-ab",
               help="sigma and tau against the (n+m)^(1-alpha-beta) envelope")
    par.add_argument("--alpha", type=_rational, required=True, metavar="P/Q")
    par.add_argument("--beta", type=_rational, required=True, metavar="P/Q")
    par.add_argument("--grid", type=_pair_list, required=True,
                     metavar="N:M,N:M,...")
    par.add_argument("--tol", type=_rational, default=Fraction(1, 10 ** 6),
                     metavar="P/Q")
    par = leaf(analyze, "lemma-abab", _cmd_analyze_lemma_abab,
               "analyze.lemma-abab",
               help="shifted-square series against the (ab)^(1-2gamma) envelope")
    par.add_argument("--gamma", type=_rational, required=True, metavar="P/Q")
    par.add_argument("--pairs", type=_pair_list, required=True,
                     metavar="A:B,A:B,...")
    par.add_argument("--tol", type=_rational, default=Fraction(1, 10 ** 6),
                     metavar="P/Q")
    for name in ("expectation", "delta"):
        par = leaf(analyze, name, _cmd_analyze_moment, f"analyze.{name}",
                   parents=[model],
                   help=f"exact {name} of the triple family under the model")
        par.add_argument("-n", type=int, required=True)
        par.add_argument("--engine", choices=("auto", "loop", "transform"),
                         default="auto")
    par = leaf(analyze, "montecarlo", _cmd_analyze_montecarlo,
               "analyze.montecarlo", parents=[model],
               help="seeded family-count means across sampled sequences")
    par.add_argument("--kind", required=True,
                     choices=("Q", "R", "T", "B", "U2", "U3", "V2", "V3", "W"))
    par.add_argument("--targets", type=_int_list, required=True,
                     metavar="N1,N2,...")
    par.add_argument("--horizon", type=int, required=True)
    par.add_argument("--trials", type=int, default=50)
    par.add_argument("--master-seed", type=int, default=None)
    par.add_argument("--epsilon", type=_rational, default=None, metavar="P/Q")

    audit = groups.add_parser(
        "audit", allow_abbrev=False,
        help="inequalities tying lifts to obstruction counts").add_subparsers(
        metavar="TASK")
    par = leaf(audit, "destruction", _cmd_audit_destruction,
               "audit.destruction",
               help="representations destroyed by a lift vs obstructions")
    par.add_argument("--in", dest="src", metavar="PATH", required=True)
    par.add_argument("-n", type=int, required=True)
    par.add_argument("-N", type=int, default=1)
    par.add_argument("--mode", choices=("b22", "sidon"), default="b22")
    par.add_argument("--epsilon", type=_rational, default=None, metavar="P/Q")

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = getattr(args, "_func", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        resolved = getattr(args, "_resolved", None) or _resolved(args)
        envelope = {"status": "error",
                    "payload": {"error": type(exc).__name__,
                                "message": str(exc)},
                    "configHash": _config_hash(resolved)}
        _deliver(args, json.dumps(envelope, sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
