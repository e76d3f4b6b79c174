"""Batch command-line front door.

Every library capability is reachable as a subcommand that parses flags,
calls exactly one library entry point, and prints a JSON envelope

    {"status": "ok"|"error", "payload": ..., "configHash": ...}

on stdout (or to ``--out``). The envelope is the one file format: every
``--in`` reads back what ``--out`` wrote, and the library's data classes
carry no serializers of their own. Handlers only read inputs and build
payloads as dicts; `run` alone renders and delivers every envelope, ok
and error alike. The
configHash is a SHA-256 over the fully resolved parameters: the parsed
flags plus what the input readers resolved (elements, modulus, members,
certificate, model config, generator), each recorded on the namespace as
soon as it is known. So identical invocations hash identically and the
payload can be replayed from the library with the same config. Numeric
rate parameters (gamma, epsilon, alpha, beta, tolerances) are exact
"p/q" rationals on the command line for the same reason.

Input files hold JSON integers only: a float, a string or a boolean where
an integer belongs is a usage error, never truncated or read as 0/1.

Exit codes: 0 on success, 1 when the library rejects the inputs on
mathematical grounds (no decomposition, divergent series, composite
where a prime is needed, ...), 2 for bad flags, unreadable input or an
unwritable ``--out``. ``--threads`` is accepted everywhere and
deliberately ignored: results never depend on it. ``--format csv``
renders an ok payload as a table; commands without a natural table fall
back to key,value rows, and error envelopes stay JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from dataclasses import asdict, astuple
from fractions import Fraction
from pathlib import Path

from .analysis import (NonConvergent, SumSpec, check_lemma_ab,
                       check_lemma_abab, exact_delta_Q, exact_expectation_Q,
                       monte_carlo_family_mean, sigma, tau)
from .curveoracle import (CurveParams, QuadricParams, curve_point_count,
                          curve_point_table, dyadic_box_coverage,
                          enumerate_quadric, hasse_slack, torus_points,
                          triple_rep_count, triple_rep_table)
from .decomposer import (NoRepresentation, decompose3_ruzsa, decompose3_zn,
                         decompose4_ruzsa)
from .deletionlab import (_FAMILIES, FamilySpec, b2_2_lift, destruction_audit,
                          enumerate_family, sidon_lift)
from .numbertheory import (NotGenerator, NotPrime, PrimeNotFound, RangeError,
                           _check_odd_prime, primitive_root)
from .randommodel import SampleConfig, sample_sequence
from .sidoncore import (ModSet, b2g_bound, basis_order_check, erdos_turan_set,
                        is_sidon, ruzsa_set)
from .sunflower import SunflowerCert, find_vectorial_sunflower

__all__ = ["run", "main"]

# the library's own exception types only: anything else is a bug and propagates
_DOMAIN_ERRORS = (RangeError, NotPrime, NotGenerator, PrimeNotFound,
                  NoRepresentation, NonConvergent)

_PLUMBING = frozenset({"out", "format", "threads", "src", "cert_src"})

# the fields of a sunflower certificate, in SunflowerCert's order
_CERT_KEYS = ("petalIndices", "typeSet", "coreValues")


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


# ------------------------------------------------------------------ envelope

def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return value


def _config_hash(args) -> str:
    resolved = {key: _jsonable(val) for key, val in vars(args).items()
                if not key.startswith("_") and key not in _PLUMBING}
    resolved["command"] = args._cmd
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _rows_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _elements_csv(elements) -> str:
    return _rows_csv(("element",), [(x,) for x in elements])


def _payload_csv(payload: dict) -> str:
    rows = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, (dict, list)) or isinstance(val, bool) or val is None:
            val = json.dumps(val, sort_keys=True)
        rows.append((key, val))
    return _rows_csv(("key", "value"), rows)


# ------------------------------------------------------------- input files
# Readers record what they resolve on the namespace (args.elements,
# args.modulus, args.members, args.certificate, args.config), where the
# configHash finds it, even if the library call then fails.

def _load_json(path: str, flag: str = "--in"):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"{flag}: cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{flag}: {path} is not valid JSON: {exc}")


def _json_ints(values, message: str) -> list:
    """A JSON list of integers as it is: int() would truncate 2.9 and read
    true as 1, so anything but an int is a usage error."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise _UsageError(message)
    return values


def _read_elements(args):
    """Set args.elements from --in: a bare list, an object with "elements",
    or a whole ok-envelope from an earlier run (so commands pipe into each
    other via --out). Returns the modulus the file carries, or None."""
    data = _load_json(args.src)
    if isinstance(data, dict) and "payload" in data:
        data = data["payload"]
    if isinstance(data, dict) and "elements" in data:
        modulus = data.get("modulus")
        if modulus is not None:
            _json_ints([modulus], "--in: \"modulus\" must be an integer")
        args.elements = _json_ints(data["elements"],
                                   "--in: \"elements\" must be integers")
        return modulus
    if isinstance(data, list):
        args.elements = _json_ints(data, "--in: list entries must be integers")
        return None
    raise _UsageError(
        "--in: expected a JSON list or an object with \"elements\"")


def _read_set(args, cyclic_only: bool = True) -> None:
    """--in elements and the modulus, from --modulus or else the file."""
    file_modulus = _read_elements(args)
    if args.modulus is None:
        args.modulus = file_modulus
    if args.modulus is None and (args.mode == "cyclic" or not cyclic_only):
        raise _UsageError("--modulus is required"
                          + (" in cyclic mode" if cyclic_only else "")
                          + " (or supply a file that carries one)")


def _descend(data, key: str):
    """The value under key of an object, or of an ok-envelope's payload;
    anything else as it is."""
    if isinstance(data, dict) and "payload" in data:
        data = data["payload"]
    if isinstance(data, dict) and key in data:
        return data[key]
    return data


def _read_members(args) -> None:
    """Set args.members from --in: a bare list of tuples, an object with
    "members", or a whole envelope (a `family enumerate --out` file)."""
    data = _descend(_load_json(args.src), "members")
    if not isinstance(data, list):
        raise _UsageError("--in: expected a JSON list of coordinate tuples")
    args.members = [tuple(_json_ints(row, "--in: rows must be integer tuples"))
                    for row in data]


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
    config = SampleConfig(gamma=args.gamma, m=args.m, modulus=modulus,
                          residues=residues, seed=args.seed)
    args.config = _jsonable(asdict(config))
    return config


# ------------------------------------------------------------------ handlers
# Each returns its payload, or (payload, csv_text) where a table exists.

def _cmd_construct(args):
    made = (ruzsa_set(args.p, args.g) if args._cmd == "construct.ruzsa"
            else erdos_turan_set(args.p))
    return _jsonable(asdict(made)), _elements_csv(made.elements)


def _cmd_verify_sidon(args):
    _read_set(args)
    witness = is_sidon(args.elements, mode=args.mode, modulus=args.modulus)
    return {"sidon": witness.is_sidon,
            "witness": list(witness.collision) if witness.collision else None}


def _cmd_verify_b2g(args):
    _read_set(args)
    return {"b2g": b2g_bound(args.elements, mode=args.mode,
                             modulus=args.modulus)}


def _cmd_verify_basis(args):
    _read_set(args, cyclic_only=False)
    covered, missing = basis_order_check(
        ModSet(args.modulus, tuple(args.elements)), args.order,
        repetition=args.repetition)
    return {"basis": covered, "missing": missing}


def _cmd_curve_count(args):
    points = curve_point_count(CurveParams(args.p, args.b, args.lam))
    return {"p": args.p, "b": args.b, "lam": args.lam, "points": points,
            "gap": points - args.p, "slack": hasse_slack(args.p)}


def _cmd_curve_identity(args):
    if (args.a is None) != (args.b is None):
        raise _UsageError("give both -a and -b, or neither for a full sweep")
    _check_odd_prime(args.p)
    if args.g is None:
        args.g = primitive_root(args.p)
    p, gen = args.p, args.g
    if args.a is not None:
        reps = triple_rep_count(p, gen, args.a, args.b)
        points = curve_point_count(CurveParams(p, args.b % p, pow(gen, args.a, p)))
        return {"a": args.a, "b": args.b, "tripleReps": reps,
                "curvePoints": points, "match": reps == points}
    # the Ruzsa set's 3-fold sum counts against the curve, target by target
    reps, points = triple_rep_table(p, gen), curve_point_table(p, gen)
    differ = sorted({key for key, _ in reps.items() ^ points.items()})
    mismatches = [{"a": a, "b": b, "tripleReps": reps.get((a, b), 0),
                   "curvePoints": points.get((a, b), 0)} for a, b in differ]
    return {"p": p, "g": gen, "checked": (p - 1) * p,
            "mismatches": mismatches, "ok": not mismatches}


def _cmd_curve_quadric(args):
    params = QuadricParams(args.p, args.r1, args.r2)
    sols = enumerate_quadric(params)
    payload = {"p": args.p, "r1": args.r1, "r2": args.r2,
               "reducible": params.splits_into_lines, "count": len(sols),
               "solutions": [list(pt) for pt in sols]}
    return payload, _rows_csv(("u", "v"), sols)


def _cmd_curve_coverage(args):
    points = torus_points(QuadricParams(args.p, args.r1, args.r2))
    empty, total = dyadic_box_coverage(points, args.k)
    covered = total - empty
    return {"p": args.p, "r1": args.r1, "r2": args.r2, "k": args.k,
            "covered": covered, "total": total, "fraction": covered / total}


def _cmd_decompose_ruzsa3(args):
    return asdict(decompose3_ruzsa(args.p, args.a, args.b, g=args.g,
                                   require_distinct=args.distinct))


def _cmd_decompose_ruzsa4(args):
    return asdict(decompose4_ruzsa(args.p, args.a, args.b, g=args.g))


def _cmd_decompose_zn(args):
    return asdict(decompose3_zn(args.n, args.N, mode=args.search))


def _cmd_sample(args):
    seq = sample_sequence(_model_config(args), args.horizon)
    payload = {"config": args.config, "horizon": args.horizon,
               "count": len(seq.elements), "elements": list(seq.elements)}
    return payload, _elements_csv(seq.elements)


def _cmd_lift(args):
    _read_elements(args)
    lifter = sidon_lift if args._cmd == "lift.sidon" else b2_2_lift
    kept = lifter(args.elements)
    # the lifts read the input as a set: duplicates are not removals
    size = len(set(args.elements))
    payload = {"inputSize": size, "outputSize": len(kept),
               "removedCount": size - len(kept), "elements": list(kept)}
    return payload, _elements_csv(kept)


def _cmd_family_enumerate(args):
    _read_elements(args)
    spec = FamilySpec(kind=args.kind, target=args.target,
                      modulus=args.modulus, epsilon=args.epsilon)
    fam = enumerate_family(args.elements, spec)
    members = [list(member) for member in fam.members]
    payload = {"kind": spec.kind, "target": spec.target,
               "modulus": spec.modulus,
               "epsilon": str(spec.epsilon) if spec.epsilon is not None else None,
               "count": len(members), "members": members}
    header = tuple(f"x{i}" for i in range(1, fam.arity + 1))
    return payload, _rows_csv(header, fam.members)


def _cmd_sunflower_find(args):
    _read_members(args)
    cert = find_vectorial_sunflower(args.members, args.k)
    return {"k": args.k, "found": cert is not None,
            "certificate": (dict(zip(_CERT_KEYS, map(list, astuple(cert))))
                            if cert else None)}


def _cmd_sunflower_check(args):
    _read_members(args)
    raw = _descend(_load_json(args.cert_src, "--cert"), "certificate")
    message = "--cert: expected integer lists petalIndices/typeSet/coreValues"
    try:
        lists = [tuple(_json_ints(raw[key], message)) for key in _CERT_KEYS]
    except (TypeError, KeyError):
        raise _UsageError(message)
    args.certificate = raw
    return {"valid": SunflowerCert(*lists).verify(args.members)}


def _cmd_analyze_sigma(args):
    spec = SumSpec(args.alpha, args.beta, args.n, args.m)
    return {"alpha": str(spec.alpha), "beta": str(spec.beta),
            "n": args.n, "m": args.m, "value": sigma(spec)}


def _cmd_analyze_tau(args):
    spec = SumSpec(args.alpha, args.beta, args.n, args.m,
                   tail_tolerance=args.tol)
    result = tau(spec)
    return {"alpha": str(spec.alpha), "beta": str(spec.beta),
            "n": args.n, "m": args.m, "value": result.value,
            "errorBound": result.error_bound,
            "majorantBound": result.majorant_bound, "cutoff": result.cutoff}


def _ratio_report(report):
    payload = {"exponent": report.exponent,
               "rows": [list(row) for row in report.rows],
               "supRatio": report.sup_ratio, "pinned": report.pinned}
    return payload, _rows_csv(("target", "value", "normalized"), report.rows)


def _cmd_analyze_lemma_ab(args):
    return _ratio_report(check_lemma_ab(args.alpha, args.beta, args.grid,
                                        tail_tolerance=args.tol))


def _cmd_analyze_lemma_abab(args):
    return _ratio_report(check_lemma_abab(args.gamma, args.pairs,
                                          tail_tolerance=args.tol))


def _cmd_analyze_moment(args):
    moment = (exact_delta_Q if args._cmd == "analyze.delta"
              else exact_expectation_Q)
    value = moment(args.n, _model_config(args), args.engine)
    return {"config": args.config, "n": args.n, "engine": args.engine,
            "value": value}


def _cmd_analyze_montecarlo(args):
    table = monte_carlo_family_mean(args.kind, args.targets,
                                    _model_config(args), args.horizon,
                                    trials=args.trials,
                                    master_seed=args.master_seed,
                                    epsilon=args.epsilon)
    rows = [{"target": t, "mean": mean, "stderr": err}
            for t, mean, err in table]
    payload = {"kind": args.kind.upper(), "horizon": args.horizon,
               "trials": args.trials, "rows": rows}
    return payload, _rows_csv(("target", "mean", "stderr"), list(table))


def _cmd_audit_destruction(args):
    _read_elements(args)
    result = destruction_audit(args.elements, args.n, N=args.N,
                               mode=args.mode, epsilon=args.epsilon)
    return {"n": args.n, "N": args.N, "mode": args.mode,
            "qBefore": result.q_before, "qAfter": result.q_after,
            "obstructions": result.obstructions, "holds": result.holds}


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
    setfile.add_argument("--in", dest="src", metavar="PATH", required=True,
                         help="JSON input: a list of integers, an object "
                              "with \"elements\", or a previous ok-envelope")
    setfile.add_argument("--mode", choices=("integer", "cyclic"),
                         default="integer")
    setfile.add_argument("--modulus", type=int, default=None, metavar="N")

    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="src", metavar="PATH", required=True,
                        help="JSON input file")

    quadric = argparse.ArgumentParser(add_help=False)
    quadric.add_argument("-p", type=int, required=True)
    quadric.add_argument("--r1", type=int, required=True)
    quadric.add_argument("--r2", type=int, required=True)

    ruzsa_target = argparse.ArgumentParser(add_help=False)
    ruzsa_target.add_argument("-p", type=int, required=True)
    ruzsa_target.add_argument("-a", type=int, required=True)
    ruzsa_target.add_argument("-b", type=int, required=True)
    ruzsa_target.add_argument("-g", type=int, default=None)

    sums = argparse.ArgumentParser(add_help=False)
    sums.add_argument("--alpha", type=_rational, required=True, metavar="P/Q")
    sums.add_argument("--beta", type=_rational, required=True, metavar="P/Q")
    sums.add_argument("-n", type=int, required=True)
    sums.add_argument("--m", type=int, default=0)

    top = argparse.ArgumentParser(
        prog="sidonlab", allow_abbrev=False,
        description="Sidon sets, order-3 bases, and the deletion machinery: "
                    "constructions, certificates, exact counts, audits.")
    groups = top.add_subparsers(metavar="COMMAND")

    def group(name, metavar, help):
        return groups.add_parser(name, allow_abbrev=False,
                                 help=help).add_subparsers(metavar=metavar)

    def leaf(sub, name, handler, cmd, parents=(), **kwargs):
        parser = sub.add_parser(name, parents=[*parents, common],
                                allow_abbrev=False, **kwargs)
        parser.set_defaults(_func=handler, _cmd=cmd)
        return parser

    construct = group("construct", "KIND", "build the two explicit Sidon sets")
    par = leaf(construct, "erdos-turan", _cmd_construct,
               "construct.erdos-turan",
               help="p-element integer Sidon set below 2p^2")
    par.add_argument("-p", type=int, required=True, help="odd prime")
    par = leaf(construct, "ruzsa", _cmd_construct, "construct.ruzsa",
               help="(p-1)-element cyclic Sidon set mod (p-1)p")
    par.add_argument("-p", type=int, required=True, help="prime")
    par.add_argument("-g", type=int, default=None,
                     help="primitive root mod p (default: smallest)")

    verify = group("verify", "PROPERTY",
                     "check Sidon/B2[g]/basis properties of a set")
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

    curve = group("curve", "TASK",
                    "point counts on y^2 = quartic, and quadric clouds")
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
    leaf(curve, "quadric", _cmd_curve_quadric, "curve.quadric",
         parents=[quadric], help="solutions of the two-residue quadric")
    par = leaf(curve, "coverage", _cmd_curve_coverage, "curve.coverage",
               parents=[quadric],
               help="dyadic box coverage of the scaled solution cloud")
    par.add_argument("-k", type=int, required=True,
                     help="boxes per axis: 2^k")

    decompose = group("decompose", "SCHEME",
                        "write targets as short sums over the constructions")
    par = leaf(decompose, "ruzsa3", _cmd_decompose_ruzsa3, "decompose.ruzsa3",
               parents=[ruzsa_target],
               help="three Ruzsa elements hitting (a, b)")
    par.add_argument("--distinct", action="store_true",
                     help="require pairwise distinct parts")
    leaf(decompose, "ruzsa4", _cmd_decompose_ruzsa4, "decompose.ruzsa4",
         parents=[ruzsa_target],
         help="four Ruzsa elements, one below the epsilon threshold")
    par = leaf(decompose, "zn", _cmd_decompose_zn, "decompose.zn",
               help="three Erdos-Turan elements mod N")
    par.add_argument("-N", type=int, required=True)
    par.add_argument("-n", type=int, required=True)
    par.add_argument("--search", choices=("exhaustive", "box"),
                     default="exhaustive")

    par = leaf(groups, "sample", _cmd_sample, "sample", parents=[model],
               help="draw one sequence from the counter-based random model")
    par.add_argument("--horizon", type=int, required=True)

    lift = group("lift", "TARGET",
                   "delete collisions to reach a Sidon or B2[2] subsequence")
    for name in ("sidon", "b22"):
        leaf(lift, name, _cmd_lift, f"lift.{name}", parents=[infile])

    family = group("family", "TASK", "representation and obstruction families")
    par = leaf(family, "enumerate", _cmd_family_enumerate, "family.enumerate",
               parents=[infile])
    par.add_argument("--kind", required=True, choices=tuple(_FAMILIES))
    par.add_argument("--target", type=int, required=True)
    par.add_argument("--modulus", type=int, default=1)
    par.add_argument("--epsilon", type=_rational, default=None, metavar="P/Q")

    sunflower = group("sunflower", "TASK", "vectorial sunflower certificates")
    par = leaf(sunflower, "find", _cmd_sunflower_find, "sunflower.find",
               parents=[infile])
    par.add_argument("-k", type=int, required=True, help="petal count")
    par = leaf(sunflower, "check", _cmd_sunflower_check, "sunflower.check",
               parents=[infile])
    par.add_argument("--cert", dest="cert_src", metavar="PATH", required=True)

    analyze = group("analyze", "TASK",
                      "certified sums, ratio reports, exact and sampled moments")
    leaf(analyze, "sigma", _cmd_analyze_sigma, "analyze.sigma",
         parents=[sums], help="finite two-power sum along x + y = n")
    par = leaf(analyze, "tau", _cmd_analyze_tau, "analyze.tau",
               parents=[sums], help="certified infinite sum along x - y = n")
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
    par.add_argument("--kind", required=True, choices=tuple(_FAMILIES))
    par.add_argument("--targets", type=_int_list, required=True,
                     metavar="N1,N2,...")
    par.add_argument("--horizon", type=int, required=True)
    par.add_argument("--trials", type=int, default=50)
    par.add_argument("--master-seed", type=int, default=None)
    par.add_argument("--epsilon", type=_rational, default=None, metavar="P/Q")

    audit = group("audit", "TASK",
                    "inequalities tying lifts to obstruction counts")
    par = leaf(audit, "destruction", _cmd_audit_destruction,
               "audit.destruction",
               parents=[infile],
               help="representations destroyed by a lift vs obstructions")
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
    code, csv_text = 0, None
    try:
        payload = handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        code, payload = 1, {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(payload, tuple):
        payload, csv_text = payload
    if code == 0 and args.format == "csv":
        text = csv_text if csv_text is not None else _payload_csv(payload)
    else:
        envelope = {"status": "error" if code else "ok", "payload": payload,
                    "configHash": _config_hash(args)}
        text = json.dumps(envelope, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: --out: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
