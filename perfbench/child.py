"""One workload in one fresh interpreter; started by run.py, never by hand.

Modes:
  setup       import sidonlab, build the inputs, report when they were ready
  run         setup, a warm-up of the first operation of each kind, whole
              rounds of the workload's operations for --seconds, then the
              answer checks
  trace       setup, warm-up, one traced round, then the answer checks;
              spans go to --spans as JSON lines
  big_sample  setup, then only random-lift's big sample, for its peak RSS

Prints one JSON object on stdout. Timestamps are time.monotonic(), which
run.py reads from the same system-wide clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Raised(tuple):
    """Answer slot of an operation that raised instead of answering."""


def _round(workloads, rec, ops):
    gc.collect()
    answers = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        rec.op = index
        try:
            answers.append(workloads.run_op(rec, op))
        except Exception as exc:   # an operation's failure, checked below
            answers.append(Raised((type(exc).__name__, str(exc))))
    return time.perf_counter() - start, answers


def _check(workloads, ops, rounds_answers):
    """Reasons for every failed operation of every round; the first round
    is checked against the oracle, later rounds must repeat it exactly."""
    first = rounds_answers[0]
    reasons = []
    for op, answer in zip(ops, first):
        if isinstance(answer, Raised):
            reasons.append(f"{op.kind}{op.args} raised {answer[0]}: {answer[1]}")
        else:
            reasons.append(workloads.check_op(op, answer))
    failures = [r for r in reasons if r is not None]
    for answers in rounds_answers[1:]:
        for op, reason, answer, again in zip(ops, reasons, first, answers):
            if reason is not None:
                failures.append(reason)
            elif again != answer:
                failures.append(f"{op.kind}{op.args}: answer changed between rounds")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "big_sample"),
                    required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    begin = time.monotonic()
    import sidonlab
    import_s = time.monotonic() - begin
    if Path(sidonlab.__file__).resolve().parent != Path(args.src).resolve() / "sidonlab":
        print(f"sidonlab imported from {sidonlab.__file__}, not {args.src}",
              file=sys.stderr)
        return 3
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    out = {"import_s": import_s, "ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    if args.mode == "big_sample":
        (big,) = [op for op in ops if op.kind == "big_sample"]
        workloads.run_op(workloads.Recorder(False), big)
        out["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(out))
        return 0

    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op)
    _round(workloads, workloads.Recorder(False), list(first_of_kind.values()))
    rec = workloads.Recorder(args.mode == "trace")
    rounds, rounds_answers = [], []
    start = time.perf_counter()
    while True:
        seconds, answers = _round(workloads, rec, ops)
        rounds.append(seconds)
        rounds_answers.append(answers)
        if rec.enabled or time.perf_counter() - start >= args.seconds:
            break
    out["peak_rss_mb"] = _peak_rss_mb()
    out["rounds"] = rounds

    failures = _check(workloads, ops, rounds_answers)
    out["attempted"] = len(ops) * len(rounds)
    out["failed"] = len(failures)
    out["failures"] = failures[:20]
    if rec.enabled:
        out["samples"] = rec.samples
        out["counts"] = workloads.layer_counts(
            args.workload, [(op, answer) for op, answer in zip(ops, rounds_answers[0])
                            if not isinstance(answer, Raised)])
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in rec.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
