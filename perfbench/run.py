#!/usr/bin/env python3
"""sidonlab benchmark: one workload per result of the paper.

    python3 perfbench/run.py --workload zn-basis --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 the run prints the end-to-end metrics of the named workload:
wall_s (the run's total time over its whole rounds of operations, per
round), peak_rss_mb and
setup_s (median over fresh interpreters of the time from start to inputs
ready). With --trace 1 it runs one traced round of every workload and
prints the per-layer metrics. The last line of stdout is one JSON object
with correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("zn-basis", "random-lift", "certified-moments")
SETUPS = 7
BUDGET_S = 170.0

CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# layers timed per call, reported as the median call: "<name>_ms", or
# "<name>_s" for the steps that take seconds
LAYERS_MS = (
    "cli.run", "cli.overhead",
    "curveoracle.triple_rep_count", "curveoracle.curve_point_count",
    "curveoracle.enumerate_quadric", "curveoracle.triple_rep_table",
    "decomposer.decompose3_ruzsa", "decomposer.decompose4_ruzsa",
    "decomposer.decompose3_zn", "decomposer.replay",
    "numbertheory.find_decomposition_prime",
    "sidoncore.construct", "sidoncore.is_sidon_cyclic",
    "sidoncore.profile_dense", "sidoncore.profile_sparse",
    "randommodel.sample_small",
    "deletionlab.b2_2_lift", "deletionlab.sidon_lift",
    "deletionlab.destruction_audit", "deletionlab.enumerate_family",
    "sidoncore.is_sidon_integer", "sidoncore.b2g_bound",
    "sunflower.find_vectorial_sunflower",
    "analysis.sigma", "analysis.tau", "analysis.abab",
    "analysis.expectation_loop", "analysis.expectation_transform",
    "analysis.delta_loop", "analysis.delta_transform",
    "analysis.janson_threshold", "analysis.monte_carlo",
)
LAYERS_S = ("randommodel.sample_big", "randommodel.moments_big")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts children one at a time and keeps the run inside its budget."""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {**os.environ, **CHILD_ENV}

    def child(self, mode: str, workload: str, **extra) -> tuple[dict, float]:
        argv = [sys.executable, str(HERE / "child.py"), "--mode", mode,
                "--workload", workload, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--src", str(SRC)]
        for key, value in extra.items():
            argv += [f"--{key}", str(value)]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget spent before the run finished")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child for {workload} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child for {workload} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1]), spawned


def end_to_end(runner: Runner, workload: str) -> dict:
    setups = []
    for _ in range(SETUPS):
        out, spawned = runner.child("setup", workload)
        setups.append(out["ready"] - spawned)
    out, _ = runner.child("run", workload)
    rounds = out["rounds"]
    print(f"{workload} seed {runner.seed}: {len(rounds)} rounds of "
          f"{out['attempted'] // len(rounds)} operations, "
          f"round times {', '.join(f'{r:.3f}' for r in rounds)} s")
    metrics = {
        "wall_s": (statistics.fmean(rounds), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"attempted": out["attempted"], "failed": out["failed"],
            "failures": out["failures"], "metrics": metrics,
            "detail": {**out, "setups": setups}}


def per_layer(runner: Runner, workload: str) -> dict:
    OUT.mkdir(exist_ok=True)
    samples, counts, imports = {}, {}, []
    attempted = failed = 0
    failures = []
    for name in (workload, *(w for w in WORKLOADS if w != workload)):
        spans = OUT / f"spans-{name}-seed{runner.seed}.jsonl"
        out, _ = runner.child("trace", name, spans=spans)
        samples.update(out["samples"])
        counts.update(out["counts"])
        imports.append(out["import_s"])
        attempted += out["attempted"]
        failed += out["failed"]
        failures += out["failures"]
        print(f"traced {name}: one round in {out['rounds'][0]:.3f} s")
    big, _ = runner.child("big_sample", "random-lift")

    metrics = {}
    for name in LAYERS_MS:
        metrics[name + "_ms"] = (statistics.median(samples[name]), "ms")
    for name in LAYERS_S:
        metrics[name + "_s"] = (statistics.median(samples[name]) / 1000, "s")
    metrics["randommodel.sample_big_rss_mb"] = (big["peak_rss_mb"], "MB")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["deletionlab.b22_keep_ratio"] = (
        counts["deletionlab.b22_kept"] / counts["deletionlab.input_size"], "ratio")
    metrics["import.sidonlab_s"] = (statistics.median(imports), "s")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "sidonlab" / "__init__.py").is_file():
        print(f"error: no sidonlab sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.seed, args.seconds)
    try:
        result = (per_layer if args.trace else end_to_end)(runner, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**summary, "detail": result.get("detail")},
                                 indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
