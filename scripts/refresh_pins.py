#!/usr/bin/env python3
"""Measure the pinned regression constants and write src/sidonlab/pins.json.

Each pin is an empirically measured stand-in for the unspecified constant
in an asymptotic inequality, or a success fraction of a search procedure.
The test suite asserts that later runs stay within 1% of the stored ratio
pins and reproduce the fractions exactly, so refreshing this file is only
legitimate after an intentional algorithm change; review the diff.

The sweep definitions below are the single source of truth: the
acceptance tests import this module for them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sidonlab.analysis import (check_lemma_ab, check_lemma_abab,
                               exact_delta_Q, exact_expectation_Q,
                               monte_carlo_family_mean)
from sidonlab.decomposer import NoRepresentation, decompose3_zn
from sidonlab.randommodel import SampleConfig
from sidonlab.sidoncore import ruzsa_set

PINS_PATH = Path(__file__).resolve().parent.parent / "src" / "sidonlab" / "pins.json"

GAMMA = Fraction(7, 11)
GAMMA_EPS_HALF = Fraction(19, 27)

ZN_MODULUS = 700

# sigma/tau envelope: half-decade n grid, with and without a floor
AB_NS = (10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000)
AB_MS = (0, 100)
AB_GRID = tuple((n, m) for n in AB_NS for m in AB_MS)

ABAB_PAIRS = ((1, 1), (1, 10), (1, 100), (1, 1000), (1, 10000),
              (1, 100000), (10, 100), (10, 10000), (100, 1000),
              (100, 100000), (1000, 10000), (10000, 100000),
              (100000, 100000))

# exact first/second moments of the triple family, plain model
MOMENT_NS = (1000, 3162, 10000, 31623, 100000)
MOMENT_M = 100
EXPECTATION_EXPONENT = 3 * GAMMA - 2          # -1/11
DELTA_EXPONENT = Fraction(2, 11)

# Monte Carlo shadows live in the mod-156 Ruzsa-residue model
MC_RUZSA_P = 13
MC_M = 100
MC_HORIZON = 10 ** 6
MC_TRIALS = 50
MC_MASTER_SEED = 20260801
# targets sit in residue classes reachable by admissible sums mod 156
T_TARGETS = (1000, 3162, 10000, 31623, 100000)
T_EXPONENT = Fraction(1, 11)
U2_TARGETS = (1004, 10000, 100000)            # each is 2r with r+m below
U2_EXPONENT = Fraction(3, 11)


def plain_model() -> SampleConfig:
    return SampleConfig(gamma=GAMMA, m=MOMENT_M, modulus=1, residues=(0,),
                        seed=0)


def mc_model() -> SampleConfig:
    return SampleConfig.from_modset(ruzsa_set(MC_RUZSA_P), gamma=GAMMA,
                                    m=MC_M, seed=0)


def zn_success_fraction(mode: str) -> float:
    wins = 0
    for n in range(ZN_MODULUS):
        try:
            decompose3_zn(n, ZN_MODULUS, mode=mode)
            wins += 1
        except NoRepresentation:
            pass
    return wins / ZN_MODULUS


def moment_norm_sup(kind: str) -> float:
    cfg = plain_model()
    best = 0.0
    for n in MOMENT_NS:
        if kind == "expectation":
            value = exact_expectation_Q(n, cfg)
            expo = EXPECTATION_EXPONENT
        else:
            value = exact_delta_Q(n, cfg)
            expo = DELTA_EXPONENT
        best = max(best, value * float(n) ** float(expo))
    return best


def mc_norm_sup(kind: str, targets, exponent: Fraction) -> float:
    cfg = mc_model()
    table = monte_carlo_family_mean(kind, targets, cfg, MC_HORIZON,
                                    trials=MC_TRIALS,
                                    master_seed=MC_MASTER_SEED)
    best = 0.0
    for target, mean, _ in table:
        scale = target // 2 + MC_M if kind == "U2" else target + MC_M
        best = max(best, mean * float(scale) ** float(exponent))
    return best


def measure() -> dict:
    pins = {}
    pins["zn700_success_fraction_exhaustive"] = zn_success_fraction("exhaustive")
    pins["zn700_success_fraction_box"] = zn_success_fraction("box")
    pins["lemma_ab_sup_gamma_7_11"] = check_lemma_ab(
        GAMMA, GAMMA, AB_GRID).sup_ratio
    pins["lemma_ab_sup_gamma_19_27"] = check_lemma_ab(
        GAMMA_EPS_HALF, GAMMA_EPS_HALF, AB_GRID).sup_ratio
    pins["lemma_abab_sup_gamma_7_11"] = check_lemma_abab(
        GAMMA, ABAB_PAIRS).sup_ratio
    pins["expectation_q_norm_sup"] = moment_norm_sup("expectation")
    pins["delta_q_norm_sup"] = moment_norm_sup("delta")
    pins["tn_norm_sup"] = mc_norm_sup("T", T_TARGETS, T_EXPONENT)
    pins["u2r_norm_sup"] = mc_norm_sup("U2", U2_TARGETS, U2_EXPONENT)
    return pins


def main(argv=None) -> int:
    # no options; parsing gives --help and rejects unknown flags (exit 2)
    # before anything is measured or written
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    pins = measure()
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    width = max(len(name) for name in pins)
    for name in sorted(pins):
        print(f"{name:<{width}}  {pins[name]!r}")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
