"""Analysis module: certified sums, ratio reports, exact expectations vs
brute-force and Monte Carlo oracles."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from pathlib import Path

import mpmath
import numpy as np
import pytest

import brute_scans as brute
import series_reference
from sidonlab import analysis, cli, deletionlab
from sidonlab.analysis import (
    NonConvergent,
    RatioReport,
    SumSpec,
    _abab_series,
    _hurwitz_zetas,
    _power_sums,
    _power_sum_rel_error,
    _tau_tail_integral,
    _tau_tails,
    check_lemma_ab,
    check_lemma_abab,
    exact_delta_Q,
    exact_expectation_Q,
    gamma_from_epsilon,
    janson_threshold,
    monte_carlo_family_mean,
    sigma,
    tau,
)
from sidonlab.deletionlab import FamilySpec, enumerate_family
from sidonlab.numbertheory import RangeError
from sidonlab.randommodel import (SampleConfig, _accept,
                                  inclusion_probability, sample_sequence)
from sidonlab.sidoncore import ruzsa_set

G = Fraction(7, 11)

CFG5 = SampleConfig(gamma=G, m=2, modulus=5, residues=(1, 2, 3), seed=11)
CFG1 = SampleConfig(gamma=G, m=3, modulus=1, residues=(0,), seed=7)
CFG156 = SampleConfig.from_modset(ruzsa_set(13), gamma=G, m=100, seed=5)
PLAIN100 = SampleConfig(gamma=G, m=100, modulus=1, residues=(0,))
FAR = SampleConfig(gamma=G, m=0, modulus=1000, residues=(900, 950, 999))


class TestSumSpec:
    def test_coercion(self):
        spec = SumSpec("7/11", (7, 11), 100, 3)
        assert spec.alpha == G and spec.beta == G

    def test_validation(self):
        with pytest.raises(RangeError):
            SumSpec(G, G, 0)
        with pytest.raises(RangeError):
            SumSpec(G, G, 5, -1)
        with pytest.raises(RangeError):
            SumSpec(G, G, 5, 0, Fraction(0))

    def test_reads_integers_only(self):
        # tau at n = 10.5 used to return 2.5308
        for n, m in ((10.5, 0), (10, 0.5)):
            with pytest.raises(RangeError):
                SumSpec(G, G, n, m)
        spec = SumSpec(G, G, np.int64(10), np.int64(2))
        assert spec == SumSpec(G, G, 10, 2)
        assert type(spec.n) is int and type(spec.m) is int


class TestSigma:
    def test_three_term_example(self):
        val = sigma(SumSpec(Fraction(1, 2), Fraction(1, 2), 4))
        assert val == pytest.approx(2 / math.sqrt(3) + 0.5, abs=1e-14)

    def test_empty_range(self):
        assert sigma(SumSpec(G, G, 9, 4)) == 0.0
        assert sigma(SumSpec(G, G, 300, 150)) == 0.0

    def test_single_term_boundary(self):
        val = sigma(SumSpec(G, G, 10, 4))
        assert val == pytest.approx(5.0 ** (-14 / 11), rel=1e-14)

    def test_symmetry(self):
        a, b = Fraction(1, 3), Fraction(5, 6)
        one = sigma(SumSpec(a, b, 57, 2))
        other = sigma(SumSpec(b, a, 57, 2))
        assert one == pytest.approx(other, rel=1e-13)

    def test_precision_agreement(self):
        spec = SumSpec(G, G, 500, 3)
        ref = series_reference.sigma(G, G, 500, 3)
        assert sigma(spec) == pytest.approx(ref, rel=1e-12)

    def test_memory_bounded_by_block(self):
        # whole-range arrays of the terms would take 61 MB here
        tracemalloc.start()
        try:
            sigma(SumSpec(G, G, 10 ** 6, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    @pytest.mark.parametrize("g", [G, Fraction(19, 27)])
    @pytest.mark.parametrize("n,m", [(316, 100), (3162, 100), (31623, 0)])
    def test_matches_scalar_loop(self, g, n, m):
        # the NumPy power pass may differ from libm pow by a few ulps per
        # term; fsum keeps the totals within that
        a = float(g)
        loop = math.fsum(x ** -a * (n - x) ** -a
                         for x in range(m + 1, n - m))
        assert sigma(SumSpec(g, g, n, m)) == pytest.approx(loop, rel=1e-14)

    @pytest.mark.parametrize("alpha,beta", [
        (G, G), (Fraction(1, 2), Fraction(1, 2)), (G, Fraction(19, 27)),
        (Fraction(1, 3), Fraction(5, 6))])
    @pytest.mark.parametrize("n,m", [
        (9, 4), (11, 5),                 # empty
        (10, 4), (3, 0),                 # one term at n/2; two terms
        (11, 4), (57, 2), (58, 2),
        (100001, 0), (100202, 100)])     # 10^5 and 10^5 + 1 terms
    def test_equals_full_range_oracle(self, alpha, beta, n, m):
        assert sigma(SumSpec(alpha, beta, n, m)) \
            == brute.sigma(alpha, beta, n, m)


class TestExactParts:
    def test_fsum_of_parts_is_fsum_of_terms(self):
        """Bit for bit, on blocks like sigma's and on arrays that span the
        whole float range, with signs, subnormals and exact cancellation;
        terms that are not finite or not below 2^960 pass through."""
        rng = np.random.default_rng(2026)
        cases = [np.zeros(0), np.zeros(4), np.array([-0.0]),
                 np.array([5e-324, 5e-324, -1e-310]),
                 np.array([1e300, 1.0, -1e300]), np.array([2.0 ** 1000, 1.0]),
                 # a tie broken only by the last term, two passes down
                 np.array([1.0, 2.0 ** -53, 2.0 ** -200]),
                 np.array([np.inf, 1.0]), np.array([np.nan, 1.0]),
                 np.power(np.arange(1.0, 4097.0), -float(G))
                 * np.power(10 ** 5 - np.arange(1.0, 4097.0), -float(G))]
        for size in rng.integers(1, 5000, 120).tolist():
            cases.append(rng.standard_normal(size)
                         * np.exp(rng.standard_normal(size) * 40))
            cases.append(rng.random(size) * 10.0 ** -rng.integers(0, 320))
        for terms in cases:
            parts = analysis._exact_parts(terms)
            got, want = math.fsum(parts), math.fsum(terms.tolist())
            assert (got.hex() == want.hex()
                    or math.isnan(got) and math.isnan(want))
        assert len(analysis._exact_parts(cases[9])) <= 3


class TestTau:
    def test_divergent(self):
        with pytest.raises(NonConvergent):
            tau(SumSpec(Fraction(1, 2), Fraction(1, 2), 5))

    def test_exponent_range(self):
        with pytest.raises(RangeError):
            tau(SumSpec(Fraction(6, 5), Fraction(1, 2), 5))

    def test_two_tolerances_agree(self):
        loose = tau(SumSpec(G, G, 10, 0, Fraction(1, 10 ** 6)))
        tight = tau(SumSpec(G, G, 10, 0, Fraction(1, 10 ** 9)))
        assert loose.error_bound <= 1e-6
        assert tight.error_bound <= 1e-9
        assert abs(loose.value - tight.value) <= (loose.error_bound
                                                  + tight.error_bound)

    def test_precision_agreement(self):
        # a tolerance near the rounding floor, so the certified value is
        # held to the reference at rel 1e-12
        spec = SumSpec(G, G, 10, 0, Fraction(1, 10 ** 11))
        ref = series_reference.tau(G, G, 10, 0)
        assert tau(spec).value == pytest.approx(ref, rel=1e-12)

    def test_tail_integral_against_quadrature(self):
        # Default precision quadrature only reaches ~1e-5 on this slow
        # tail; 40 digits brings the oracle well below the tolerance.
        a = b = float(G)
        n, cut = 10, 1000
        with mpmath.workdps(40):
            direct = mpmath.quad(
                lambda t: t ** -b * (t + n) ** -a,
                [cut, 10 * cut, 100 * cut, 10000 * cut, mpmath.inf])
        p = float(2 * G - 1)
        assert _tau_tail_integral(n, p, b, cut) == pytest.approx(
            float(direct), rel=1e-8)

    def test_monotone_in_floor(self):
        vals = [tau(SumSpec(G, G, 25, m, Fraction(1, 10 ** 8))).value
                for m in (0, 5, 50)]
        assert vals[0] > vals[1] > vals[2]

    def test_reported_fields(self):
        res = tau(SumSpec(G, G, 40, 7, Fraction(1, 10 ** 6)))
        assert res.cutoff >= 1024
        assert res.majorant_bound > 0
        assert res.value > 0

    @pytest.mark.parametrize("n,m", [(10, 0), (316, 100), (100000, 0)])
    @pytest.mark.parametrize("tol", [Fraction(1, 10 ** 6),
                                     Fraction(1, 10 ** 10)])
    def test_bound_covers_reference(self, n, m, tol):
        res = tau(SumSpec(G, G, n, m, tol))
        ref = series_reference.tau(G, G, n, m)
        assert abs(res.value - ref) <= res.error_bound <= tol

    @pytest.mark.parametrize("n,cut", [(3162, 1024), (31623, 1024),
                                       (100000, 1024),
                                       # tails from 1024.5 would start
                                       # between n/3 and n: cut at n
                                       (2000, 2000)])
    @pytest.mark.parametrize("m", [0, 100])
    def test_cut_starts_at_1024_for_every_n(self, n, cut, m):
        # the partial sum stops at 1024 however large n is, and the tails
        # from below n keep the bound
        res = tau(SumSpec(G, G, n, m, Fraction(1, 10 ** 6)))
        ref = series_reference.tau(G, G, n, m)
        assert res.cutoff == cut
        assert abs(res.value - ref) <= res.error_bound <= 1e-6

    def test_tolerance_below_rounding_raises(self):
        # the bracket width alone cancels to 0.0 here; the rounding of
        # the partial sum does not
        with pytest.raises(RangeError):
            tau(SumSpec(G, G, 10, 0, Fraction(1, 10 ** 18)))

    def test_makes_no_mpmath_call(self, monkeypatch):
        # every attribute of None raises, so any mpmath call would fail
        monkeypatch.setattr(analysis, "mpmath", None, raising=False)
        res = tau(SumSpec(G, G, 316, 100, Fraction(1, 10 ** 10)))
        ref = series_reference.tau(G, G, 316, 100)
        assert abs(res.value - ref) <= res.error_bound <= 1e-10


def _rounded(alpha, beta):
    """alpha + beta - 1, beta, 1 - beta and 2 - alpha - beta, each rounded
    once from its exact value, as tau passes them to `_tau_tails`."""
    return (float(alpha + beta - 1), float(beta), float(1 - beta),
            float(2 - alpha - beta))


class TestTauTail:
    # from n on: n + 1/2 and n + 1 are the slowest series (s just below
    # 1/2), 2n a faster one; below n, the starts of tau's first cut and
    # the last start the series in t / (t + n) takes, n/3
    STARTS = [(n, c) for n in (1, 10, 1000, 31623, 10 ** 6)
              for c in (Fraction(2 * n + 1, 2), n + 1, 2 * n,
                        Fraction(2049, 2), 1025, n // 3)
              if c >= n or 1 <= c <= Fraction(n, 3)]
    ALPHA_BETA = [(G, G), (Fraction(19, 27), Fraction(19, 27)),
                  (Fraction(51, 100), Fraction(99, 100)),
                  (Fraction(99, 100), Fraction(51, 100))]

    @pytest.mark.parametrize("alpha,beta", ALPHA_BETA)
    def test_within_proved_bound(self, alpha, beta):
        assert sum(c < n for n, c in self.STARTS) == 8
        for n, c in self.STARTS:
            got, rho = _tau_tails(n, *_rounded(alpha, beta))(float(c))
            ref = series_reference.tau_tail_integral(alpha, beta, n, c)
            assert 0 < rho < 100 * analysis._U
            assert abs(got - ref) <= rho * ref, (n, c)

    @pytest.mark.parametrize("alpha,beta", ALPHA_BETA)
    def test_head_within_its_own_bound(self, alpha, beta):
        # the integral from c to n alone, n^-p times the series in
        # t / (t + n), against the difference of two quadratures
        p, _, x0, rise = _rounded(alpha, beta)
        for n, c in self.STARTS:
            if c >= n:
                continue
            got = n ** -p * analysis._tau_head_series(n, x0, rise, float(c))
            ref = (series_reference.tau_tail_integral(alpha, beta, n, c)
                   - series_reference.tau_tail_integral(alpha, beta, n, n))
            rho = analysis._tau_head_rel_error(n, p, x0, float(c))
            assert 0 < rho < 100 * analysis._U
            assert abs(got - ref) <= rho * ref, (n, c)

    def test_tau_reads_exponents_and_the_tail_from_n_once(self,
                                                          monkeypatch):
        # three cuts (1024, 2048, 4096), each with both sides of the
        # sandwich starting below n/3: six heads and one tail from n
        spec = SumSpec(G, G, 10 ** 6, 0, Fraction(1, 10 ** 11))
        want = tau(spec)
        starts = []

        def spy(n, p, b, c):
            starts.append(c)
            return _tau_tail_integral(n, p, b, c)

        monkeypatch.setattr(analysis, "_tau_tail_integral", spy)
        monkeypatch.setattr(analysis, "_as_fraction", None)
        assert tau(spec) == want
        assert want.cutoff == 4096 and starts == [10 ** 6]

    def test_start_below_n_raises(self):
        # below 1, between n/3 and n (neither series is proved there), and
        # where c + n passes 2^52
        for c in (0.5, 3.5, 9.5, 2 ** 52):
            with pytest.raises(RangeError):
                _tau_tails(10, *_rounded(G, G))(c)


class TestPowerSum:
    FACTORS = ((0, -G), (3, -G), (7, 1 - 2 * G))

    def test_rounding_bound_holds(self):
        lo, hi = 5, 9000
        got, = _power_sums((self.FACTORS,), lo, hi)
        with mpmath.workdps(40):
            exact = mpmath.fsum(
                series_reference._power_product(
                    [(c, -series_reference._mp(e)) for c, e in self.FACTORS],
                    x) for x in range(lo, hi + 1))
        rho = _power_sum_rel_error(self.FACTORS, hi)
        assert 0 < rho < 1e-11
        assert abs(got - float(exact)) <= rho * float(exact)

    def test_range_beyond_exact_integers(self):
        with pytest.raises(RangeError):
            _power_sums((self.FACTORS,), 2 ** 53 - 3, 2 ** 53 - 2)


class TestLemmaAb:
    def test_single_point(self):
        report = check_lemma_ab(G, G, [(100, 0)])
        assert len(report.rows) == 2
        assert report.sup_ratio > 0
        assert report.exponent == pytest.approx(-3 / 11)

    def test_grid_superset_monotone(self):
        small = check_lemma_ab(G, G, [(50, 0), (500, 10)])
        big = check_lemma_ab(G, G, [(50, 0), (500, 10), (5000, 100)])
        assert big.sup_ratio >= small.sup_ratio

    def test_hypotheses(self):
        with pytest.raises(NonConvergent):
            check_lemma_ab(Fraction(1, 2), Fraction(1, 2), [(10, 0)])
        with pytest.raises(RangeError):
            check_lemma_ab(Fraction(3, 2), Fraction(1, 2), [(10, 0)])

    def test_pinning(self):
        report = check_lemma_ab(G, G, [(64, 0), (4096, 10)])
        assert report.with_pin(report.sup_ratio).holds()
        assert not report.with_pin(report.sup_ratio / 2).holds()
        assert not report.holds()

    def test_export(self, capsys):
        # the report is written by the CLI's lemma-ab, as a table or JSON
        argv = ["analyze", "lemma-ab", "--alpha", "7/11", "--beta", "7/11",
                "--grid", "64:0"]
        assert cli.run(argv + ["--format", "csv"]) == 0
        csv = capsys.readouterr().out
        assert csv.splitlines()[0] == "target,value,normalized"
        assert len(csv.splitlines()) == 3
        assert cli.run(argv) == 0
        assert "supRatio" in capsys.readouterr().out


class TestLemmaAbab:
    def test_reads_integers_only(self):
        # the pair (2.7, 3) used to be labelled "a=2 b=3"
        with pytest.raises(RangeError):
            check_lemma_abab(G, [(2.7, 3)])
        report = check_lemma_abab(G, [np.array([2, 3])])
        assert report == check_lemma_abab(G, [(2, 3)])
        assert [r[0] for r in report.rows] == ["a=2 b=3", "a=3 b=2"]

    def test_unit_pair_ratio_is_value(self):
        report = check_lemma_abab(G, [(1, 1)])
        assert len(report.rows) == 1
        label, value, ratio = report.rows[0]
        assert ratio == value

    def test_series_against_nsum(self):
        # Default nsum acceleration misconverges on this power-law
        # decay (off by 4% with no warning); Euler-Maclaurin is exact
        # for smooth monotone terms.
        report = check_lemma_abab(G, [(1, 1)], tail_tolerance=Fraction(1, 10 ** 8))
        g = float(G)
        with mpmath.workdps(30):
            oracle = mpmath.nsum(
                lambda x: x ** -g * (x + 1) ** (1 - 3 * g), [1, mpmath.inf],
                method="euler-maclaurin")
        assert report.rows[0][1] == pytest.approx(float(oracle), rel=1e-6)

    def test_both_orientations_reported(self):
        report = check_lemma_abab(G, [(2, 5)])
        labels = [r[0] for r in report.rows]
        assert labels == ["a=2 b=5", "a=5 b=2"]
        assert all(r[2] > 0 for r in report.rows)

    def test_divergent_gamma(self):
        with pytest.raises(NonConvergent):
            check_lemma_abab(Fraction(1, 2), [(1, 1)])

    def test_gamma_range(self):
        with pytest.raises(RangeError):
            check_lemma_abab(Fraction(3, 2), [(1, 1)])

    def test_grid(self):
        pairs = [(a, b) for a in (1, 10, 100) for b in (1, 10, 100)]
        report = check_lemma_abab(G, pairs)
        assert len(report.rows) == 9
        assert report.sup_ratio == max(r[2] for r in report.rows)

    @pytest.mark.parametrize("tol", [0, -1, Fraction(-1, 10 ** 6)])
    def test_nonpositive_tolerance(self, tol):
        with pytest.raises(RangeError):
            check_lemma_abab(G, [(1, 1)], tail_tolerance=tol)


@lru_cache(maxsize=None)
def _abab_reference(a, b):
    return series_reference.abab(G, a, b)


class TestAbabSeries:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 5), (10, 10 ** 4),
                                     (10 ** 5, 1), (1, 10 ** 5),
                                     (10 ** 5, 10 ** 5),
                                     # next to the 1024 cut
                                     (500, 500), (512, 300), (300, 512),
                                     (512, 512), (512, 1)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_against_reference(self, a, b, tol):
        (value, bound), _, cutoff = _abab_series(G, a, b, tol)
        assert abs(value - _abab_reference(a, b)) <= bound <= tol
        assert cutoff <= max(2 * max(a, b), 1024)

    @pytest.mark.parametrize("a,b", [(819, 1), (1, 819), (10 ** 5, 10 ** 5)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_against_reference_at_largest_ratio(self, a, b, tol):
        # the cut is max(ceil(5 max(a, b) / 4), 1024), so max(a, b) / (cut + 1)
        # is just below 4/5 at these pairs: the tail needs its most terms
        (value, bound), _, cutoff = _abab_series(G, a, b, tol)
        assert cutoff == max(-(-5 * max(a, b) // 4), 1024)
        assert max(a, b) / (cutoff + 1) > 0.799
        assert abs(value - _abab_reference(a, b)) <= bound <= tol

    @pytest.mark.parametrize("a,b", [(2, 5), (512, 1), (10 ** 5, 119)])
    def test_one_call_gives_both_orientations(self, a, b):
        # the second orientation shares the first one's powers, degree and
        # zeta values, and is the same float as a call that takes it first
        ab, ba, cutoff = _abab_series(G, a, b, 1e-9)
        assert _abab_series(G, b, a, 1e-9) == (ba, ab, cutoff)
        assert abs(ba[0] - _abab_reference(b, a)) <= ba[1] <= 1e-9

    def test_makes_no_mpmath_call(self, monkeypatch):
        # every attribute of None raises, and a None in sys.modules makes
        # any import of mpmath fail
        ref = _abab_reference(10 ** 5, 1)
        monkeypatch.setattr(analysis, "mpmath", None, raising=False)
        monkeypatch.setitem(sys.modules, "mpmath", None)
        (value, bound), _, _ = _abab_series(G, 10 ** 5, 1, 1e-9)
        assert abs(value - ref) <= bound <= 1e-9

    def test_degree_past_the_euler_maclaurin_bound_raises(self):
        # at r just below 4/5 a tolerance of 1e-120 needs a degree near
        # 1150, past the 1025 - s - 23 values that the zeta pass covers
        with pytest.raises(RangeError, match="Euler-Maclaurin"):
            _abab_series(G, 819, 1, 1e-120)

    def test_memory_bounded_by_block(self):
        # a whole-cutoff array of 2*10^5 floats alone would take 1.6 MB
        tracemalloc.start()
        try:
            _abab_series(G, 10 ** 5, 10 ** 5, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_validation(self):
        with pytest.raises(RangeError):
            _abab_series(G, 1, 1, 0.0)
        with pytest.raises(RangeError):
            _abab_series(Fraction(1, 2), 1, 1, 1e-6)
        with pytest.raises(RangeError):
            _abab_series(G, 1, 1, 1e-16)


# 40/53: float(4g - 1) is off by nearly half an ulp, so the rounding of the
# exponent is most of the error and the bound is held close
ZETA_GAMMAS = (G, Fraction(19, 27), Fraction(51, 100), Fraction(99, 100),
               Fraction(40, 53))
ZETA_STARTS = (1025, 2049, 200001)


def _zeta_pass(g, start, count=40):
    zetas, rho = _hurwitz_zetas(4 * g - 1, start, count)
    # the proved bound stays a small multiple of u, so it cannot be inflated
    assert 0 < rho < 64 * analysis._U
    return zetas, rho


def _scaled(zeta, start, k):
    """start^k zeta, the value that the pass returns, at the caller's
    precision."""
    return zeta * mpmath.mpf(start) ** k


class TestHurwitzZetas:
    @pytest.mark.parametrize("g", ZETA_GAMMAS)
    @pytest.mark.parametrize("start", ZETA_STARTS)
    def test_matches_reference(self, g, start):
        zetas, rho = _zeta_pass(g, start)
        with mpmath.workdps(30):
            s = 4 * series_reference._mp(g) - 1
            for k, z in enumerate(zetas):
                ref = _scaled(series_reference.hurwitz_zeta(s + k, start),
                              start, k)
                assert abs(z / ref - 1) <= rho, k

    @pytest.mark.parametrize("g", ZETA_GAMMAS)
    def test_matches_mpmath_zeta_at_200_digits(self, g):
        # at 50 digits mpmath.zeta is off by up to 3e-10 relative here (at
        # 18 digits, as the series once used it, by 5e-11 at start 1025,
        # k = 17)
        for start in ZETA_STARTS:
            zetas, rho = _zeta_pass(g, start)
            with mpmath.workdps(200):
                s = 4 * series_reference._mp(g) - 1
                for k in (0, 1, 5, 17, 39):
                    ref = _scaled(mpmath.zeta(s + k, start), start, k)
                    assert abs(zetas[k] / ref - 1) <= rho, (start, k)

    def test_count_past_the_bound_raises(self):
        # sigma + 24 <= start at every k: 1025 - 17/11 - 23 = 1000.45
        s = 4 * G - 1
        assert len(_hurwitz_zetas(s, 1025, 1000)[0]) == 1000
        with pytest.raises(RangeError):
            _hurwitz_zetas(s, 1025, 1001)

    def test_bernoulli_ratios_are_exact(self):
        ratios = list(islice(analysis._bernoulli_ratios(), 15))
        assert ratios == [Fraction(*mpmath.bernfrac(2 * j))
                          / math.factorial(2 * j) for j in range(1, 16)]


class TestGammaFromEpsilon:
    def test_values(self):
        assert gamma_from_epsilon(Fraction(1, 2)) == Fraction(19, 27)
        assert gamma_from_epsilon(Fraction(1, 3)) == Fraction(25, 36)

    def test_range(self):
        for bad in (0, 1, Fraction(3, 2)):
            with pytest.raises(RangeError):
                gamma_from_epsilon(bad)


def _brute_expectation(n, cfg):
    fam = enumerate_family(
        range(1, n), FamilySpec(kind="Q", target=n, modulus=cfg.modulus))
    return math.fsum(
        math.prod(inclusion_probability(cfg, x) for x in triple)
        for triple in fam.members)


def _brute_delta(n, cfg):
    fam = enumerate_family(
        range(1, n), FamilySpec(kind="Q", target=n, modulus=cfg.modulus))
    sets = [frozenset(t) for t in fam.members]
    parts = []
    for i, first in enumerate(sets):
        for j, second in enumerate(sets):
            if i == j or not (first & second):
                continue
            parts.append(math.prod(inclusion_probability(cfg, x)
                                   for x in first | second))
    return math.fsum(parts)


class TestExpectationQ:
    def test_reads_integers_only(self):
        # janson_threshold used int() on its targets, and a float n below
        # 3m + 6 gave an exact 0
        for f in (exact_expectation_Q, exact_delta_Q):
            with pytest.raises(RangeError):
                f(5.5, CFG5)
        with pytest.raises(RangeError):
            janson_threshold(CFG5, (20.5,))
        _, rows = janson_threshold(CFG5, np.array([20]))
        assert type(rows[0][0]) is int

    def test_zero_below_floor(self):
        assert exact_expectation_Q(300, CFG156) == 0.0
        assert exact_expectation_Q(5, CFG5) == 0.0

    @pytest.mark.parametrize("cfg,targets", [
        (CFG5, (30, 45, 61)),
        (CFG1, (25, 40)),
    ])
    def test_engines_match_brute(self, cfg, targets):
        for n in targets:
            want = _brute_expectation(n, cfg)
            assert exact_expectation_Q(n, cfg, "loop") == pytest.approx(
                want, rel=1e-12, abs=1e-15)
            assert exact_expectation_Q(n, cfg, "transform") == pytest.approx(
                want, rel=1e-9, abs=1e-12)

    def test_engines_match_at_scale(self):
        # 1990 % 156 == 118 is a sum of three distinct admissible
        # residues; 2000 % 156 == 128 is not reachable at all.
        loop = exact_expectation_Q(1990, CFG156, "loop")
        fast = exact_expectation_Q(1990, CFG156, "transform")
        assert loop > 0
        assert fast == pytest.approx(loop, rel=1e-9)
        assert exact_expectation_Q(2000, CFG156) == 0.0

    def test_engine_validation(self):
        with pytest.raises(RangeError):
            exact_expectation_Q(100, CFG5, "guess")

    def test_monte_carlo_agreement(self):
        n, trials = 60, 300
        mu = exact_expectation_Q(n, CFG5)
        delta = exact_delta_Q(n, CFG5)
        table = monte_carlo_family_mean("Q", [n], CFG5, horizon=n,
                                        trials=trials, master_seed=901)
        _, mean, stderr = table[0]
        floor = math.sqrt((mu + delta) / trials)
        assert abs(mean - mu) <= 3 * max(stderr, floor)


class TestDeltaQ:
    def test_zero_below_floor(self):
        assert exact_delta_Q(300, CFG156) == 0.0
        assert exact_delta_Q(5, CFG1) == 0.0

    @pytest.mark.parametrize("cfg,targets", [
        (CFG5, (30, 45)),
        (CFG1, (30,)),
    ])
    def test_engines_match_brute(self, cfg, targets):
        for n in targets:
            want = _brute_delta(n, cfg)
            assert exact_delta_Q(n, cfg, "loop") == pytest.approx(
                want, rel=1e-12, abs=1e-15)
            assert exact_delta_Q(n, cfg, "transform") == pytest.approx(
                want, rel=1e-9, abs=1e-12)

    def test_transform_where_q_squared_underflows(self):
        # q(120) = 120^-80, about 1e-167, squares to 0, yet the row x1 = 120
        # carries both pairs of n - 120 = 5: {1, 4} and {2, 3}; Delta is
        # 2 q1 q2 q3 q4 q120, up to the cancellation in (S/2)^2 - S2/2
        cfg = SampleConfig(gamma=80, m=0, modulus=200,
                           residues=(1, 2, 3, 4, 120))
        want = 2 * math.prod(inclusion_probability(cfg, x)
                             for x in cfg.residues)
        loop = exact_delta_Q(125, cfg, "loop")
        assert loop == pytest.approx(want, rel=1e-2, abs=0)
        assert exact_delta_Q(125, cfg, "transform") == pytest.approx(
            loop, rel=1e-12, abs=0)

    def test_engines_match_at_scale(self):
        loop = exact_delta_Q(1990, CFG156, "loop")
        fast = exact_delta_Q(1990, CFG156, "transform")
        assert loop > 0
        assert fast == pytest.approx(loop, rel=1e-9)

    def test_janson_rows(self):
        threshold, rows = janson_threshold(CFG5, (20, 45, 80, 120))
        assert [r[0] for r in rows] == [20, 45, 80, 120]
        for n, mu, delta, ok in rows:
            assert ok == (delta < mu)
        if threshold is not None:
            tail = [r for r in rows if r[0] >= threshold]
            assert tail and all(r[3] for r in tail)
            earlier = [r for r in rows if r[0] < threshold]
            if earlier:
                assert not earlier[-1][3]


def _loop_grid():
    """(cfg, n): the plain model at small n for three floors and three
    exponents, two small moduli, the mod-156 Ruzsa-residue model from
    n = 300 up, with seeded targets beside fixed ones (1990 and 2000 on
    either side of reachability, 4184 and 4340 unreachable), and three
    moduli with many residues: 50 (all of them), 60 (40 seeded ones) and
    1000 (500 seeded ones), at targets that the engines sum by class (50
    at n = 900, with more class pairs than class length) and by exclusion
    (the others)."""
    rng = random.Random(2026)
    for g in (G, Fraction(1, 2), Fraction(1, 10 ** 6)):
        for m in (0, 1, 3):
            cfg = SampleConfig(gamma=g, m=m, modulus=1, residues=(0,))
            for n in list(range(6, 31)) + rng.sample(range(31, 300), 4):
                yield cfg, n
    mod3 = SampleConfig(gamma=G, m=0, modulus=3, residues=(0, 1, 2))
    for cfg in (mod3, CFG5):
        for n in list(range(6, 40)) + rng.sample(range(40, 600), 6):
            yield cfg, n
    for n in [300, 1990, 2000, 4184, 4340] + rng.sample(range(301, 4500), 12):
        yield CFG156, n
    for modulus, count, targets in ((50, 50, (500, 900)), (60, 40, (700,)),
                                    (1000, 500, (1200,))):
        cfg = SampleConfig(gamma=G, m=10, modulus=modulus,
                           residues=rng.sample(range(modulus), count))
        for n in targets:
            yield cfg, n


class TestLoopEngines:
    def test_match_the_per_x1_scan(self):
        """Both engines' rows against the scan the loop replaced, finished
        as the moments finish them. The loop: the scan's zero pattern,
        nothing negative and relative error at most 1e-14. The transform:
        the scan's zero pattern for Delta (its count rule), nothing
        negative there, and both moments within 1e-9 relative or 1e-12
        absolute (an E with no triple at all is rounding noise; the
        public call returns 0 there first)."""
        worst = {analysis._loop_rows: 0.0, analysis._transform_rows: 0.0}
        for cfg, n in _loop_grid():
            q = analysis._prob_array(cfg, n)
            want = brute.triple_moments(n, cfg.modulus, q)
            for rows in worst:
                got = (analysis._expectation(rows, n, cfg.modulus, q),
                       analysis._delta(rows, n, cfg.modulus, q))
                for name, w, v in zip(("E", "Delta"), want, got):
                    if rows is analysis._loop_rows or name == "Delta":
                        assert (v == 0.0) == (w == 0.0), (name, cfg, n, w, v)
                        assert v >= 0.0, (name, cfg, n, v)
                    assert v == pytest.approx(w, rel=1e-9, abs=1e-12)
                    if w:
                        worst[rows] = max(worst[rows], abs(v - w) / w)
        assert worst[analysis._loop_rows] <= 1e-14
        assert worst[analysis._transform_rows] <= 1e-9

    def test_class_and_exclusion_sums_agree(self):
        """The two ways of summing the kept pairs, whichever the moment
        engines pick: counts equal, the same zeros, rows within 1e-13."""
        for cfg, n in _loop_grid():
            if cfg.modulus == 1:
                continue
            q = analysis._prob_array(cfg, n)
            x1s = np.flatnonzero(q[1:n - 2]) + 1
            ws = np.array([(q > 0).astype(float), q, q * q])
            by_class = analysis._pair_sums_by_class(n, cfg.modulus, ws, x1s)
            by_exclusion = analysis._pair_sums_by_exclusion(n, cfg.modulus,
                                                            ws, x1s)
            assert np.array_equal(by_class[0], by_exclusion[0]), (cfg, n)
            assert np.array_equal(by_class == 0, by_exclusion == 0)
            np.testing.assert_allclose(by_exclusion, by_class, rtol=1e-13,
                                       atol=0)

    @pytest.mark.parametrize("cfg", [PLAIN100, CFG5, CFG156])
    def test_exclusion_counts_are_exact(self, cfg):
        # the 0/1 support's counts come from a rounded FFT at this length:
        # they must be the integers of a direct count, and never -0.0
        n = 2000
        q = analysis._prob_array(cfg, n)
        x1s = np.flatnonzero(q[1:n - 2]) + 1
        support = (q > 0).astype(np.float64)[None]
        counts = analysis._pair_sums_by_exclusion(n, cfg.modulus, support,
                                                  x1s)[0]
        want = [np.count_nonzero(mask & (prod > 0))
                for _, prod, mask in brute._loop_scan(n, cfg.modulus, q)]
        assert counts.tolist() == want
        assert not np.signbit(counts).any()

    @pytest.mark.parametrize("g", [Fraction(10), Fraction(50)])
    def test_cancelling_rows_are_summed_directly(self, g):
        # at x1 = 1 the dropped pair (1, n - 2) outweighs the kept ones by
        # about 2^gamma; E stays within 1e-14 of the scan, and Delta, whose
        # own (S/2)^2 - S2/2 cancels as much in the scan, keeps its zeros
        cfg = SampleConfig(gamma=g, m=0, modulus=1, residues=(0,))
        for n in range(6, 60):
            q = analysis._prob_array(cfg, n)
            want_e, want_d = brute.triple_moments(n, 1, q)
            got_e = analysis._expectation(analysis._loop_rows, n, 1, q)
            got_d = analysis._delta(analysis._loop_rows, n, 1, q)
            assert got_e == pytest.approx(want_e, rel=1e-14, abs=0)
            assert (got_d == 0.0) == (want_d == 0.0) and got_d >= 0.0

    def test_moments_leave_numpy_ma_unimported(self):
        # np.unique would import numpy.ma, about 20 ms of every process;
        # mpmath is a test dependency only, the sampler's logarithm branch
        # included
        code = (
            "import sys\n"
            "def no_mpmath():\n"
            "    return not [m for m in sys.modules\n"
            "                if m.split('.')[0] == 'mpmath']\n"
            "import sidonlab\n"
            "assert no_mpmath()\n"
            "from fractions import Fraction\n"
            "from sidonlab.analysis import check_lemma_abab\n"
            "from sidonlab.analysis import exact_delta_Q, exact_expectation_Q\n"
            "from sidonlab.randommodel import SampleConfig\n"
            "from sidonlab.sidoncore import ruzsa_set\n"
            "g = Fraction(7, 11)\n"
            "for cfg in (SampleConfig(gamma=g, m=100, modulus=1, residues=(0,)),\n"
            "            SampleConfig.from_modset(ruzsa_set(13), gamma=g, m=100)):\n"
            "    for engine in ('auto', 'loop', 'transform'):\n"
            "        for n in (1990, 5000):\n"
            "            exact_expectation_Q(n, cfg, engine)\n"
            "            exact_delta_Q(n, cfg, engine)\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "check_lemma_abab(Fraction(7, 11), [(10 ** 5, 1)])\n"
            "assert no_mpmath()\n"
            "from sidonlab.randommodel import _exact_accept\n"
            "_exact_accept(2 ** 52 - 1, 3, Fraction(1, 10 ** 6))\n"
            "assert no_mpmath()\n")
        src = str(Path(analysis.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr


class TestHeadSelfConvolution:
    @pytest.mark.parametrize("g", [G, Fraction(5)])
    @pytest.mark.parametrize("blocks", [1, 2, 9])
    def test_equals_np_convolve_within_rounding(self, g, blocks):
        """Every entry u up to top against np.convolve(w, w): both sum the
        same u + 1 products of one sign, each within gamma_(u+1) of the
        exact sum, so they differ by at most 2 gamma_(u+2) of the larger;
        bit for bit when the window fits in one block. w is nonzero past
        the window, where no entry up to top reads it."""
        size = analysis._CONV_BLOCK
        rng = np.random.default_rng(blocks)
        for lo in (1, 37):
            window = blocks * size - int(rng.integers(0, size // 2))
            top = window - 1 + 2 * lo
            w = np.zeros(top + 300)
            x = np.arange(lo, len(w))
            w[x] = rng.random(len(x)) * x ** -float(g)
            got = analysis._head_self_convolution(w, top)
            want = np.convolve(w, w)[:top + 1]
            bound = 2 * np.array([analysis._gamma(u + 2)
                                  for u in range(top + 1)])
            assert len(got) == top + 1
            assert (np.abs(got - want) <= bound * np.maximum(got, want)).all()
            assert np.array_equal(got == 0, want == 0)
            if blocks == 1:
                assert np.array_equal(got, want)

    def test_all_zero_weights(self):
        got = analysis._head_self_convolution(np.zeros(3000), 2500)
        assert np.array_equal(got, np.zeros(2501))

    @pytest.mark.parametrize("cfg", [
        SampleConfig(gamma=G, m=0, modulus=1, residues=(0,)),
        SampleConfig(gamma=G, m=10, modulus=1000,
                     residues=random.Random(7).sample(range(1000), 500))])
    def test_rows_over_several_blocks_match_the_scan(self, cfg):
        # at n = 2000 both moments take the exclusion path, whose window
        # spans four blocks
        n = 2000
        q = analysis._prob_array(cfg, n)
        x1s = analysis._first_elements(n, q)
        assert not any(analysis._by_class(n, cfg.modulus, x1s, arrays)
                       for arrays in (1, 3))
        window = n - int(x1s.min()) - 2 * int(np.argmax(q > 0)) + 1
        assert window > 3 * analysis._CONV_BLOCK
        want = brute.triple_moments(n, cfg.modulus, q)
        got = (analysis._expectation(analysis._loop_rows, n, cfg.modulus, q),
               analysis._delta(analysis._loop_rows, n, cfg.modulus, q))
        for w, v in zip(want, got):
            assert w > 0 and v == pytest.approx(w, rel=1e-14, abs=0)


class TestJansonOnePass:
    @pytest.mark.parametrize("cfg,targets", [
        (PLAIN100, (250, 400, 1990, 5000)),
        (CFG5, (5, 31, 61, 201)),
        # 1035: the loop sums one weight array by exclusion, three by
        # class, and the two ways differ in the last bit of E
        (CFG156, (300, 1035, 1990, 2000))])
    @pytest.mark.parametrize("engine", ["auto", "loop", "transform"])
    def test_rows_equal_separate_calls(self, cfg, targets, engine):
        _, rows = janson_threshold(cfg, targets, engine)
        for n, mu, delta, _ in rows:
            assert mu.hex() == exact_expectation_Q(n, cfg, engine).hex()
            assert delta.hex() == exact_delta_Q(n, cfg, engine).hex()
        assert sum(mu > 0 for _, mu, _, _ in rows) >= 2

    def test_cost_rule_differs_at_the_probe(self):
        n = 1035
        q = analysis._prob_array(CFG156, n)
        x1s = analysis._first_elements(n, q)
        assert not analysis._by_class(n, CFG156.modulus, x1s, 1)
        assert analysis._by_class(n, CFG156.modulus, x1s, 3)


class TestUnreachableResidues:
    def test_matches_residue_triples(self):
        sums = {sum(t) % CFG156.modulus
                for t in combinations(CFG156.residues, 3)}
        assert 0 < len(sums) < CFG156.modulus
        # every residue above m; the smallest members of any three
        # classes lie in (100, 256] and sum to less than 845
        q = analysis._prob_array(CFG156, 1000)
        for n in range(1000 - CFG156.modulus + 1, 1001):
            assert analysis._residues_reach(n, 156, q) == (n % 156 in sums)
        assert analysis._residues_reach(7, 1, analysis._prob_array(CFG1, 7))
        two = SampleConfig(gamma=G, m=0, modulus=2, residues=(0, 1))
        assert not analysis._residues_reach(101, 2,
                                            analysis._prob_array(two, 101))

    def test_only_classes_that_meet_the_support_count(self):
        # 1 + 100 + 959 = 60 mod 1000, but no x <= 60 lies in 100 or 959
        cfg = SampleConfig(gamma=G, m=0, modulus=1000,
                           residues=(1, 100, 959))
        assert not analysis._residues_reach(60, 1000,
                                            analysis._prob_array(cfg, 60))
        assert analysis._residues_reach(1060, 1000,
                                        analysis._prob_array(cfg, 1060))

    def test_smallest_members_must_fit(self):
        # 1849 = 900 + 950 + 999 mod 1000, but those classes start at
        # 900, 950 and 999, which sum to 2849
        q = analysis._prob_array(FAR, 2849)
        assert not analysis._residues_reach(1849, 1000, q)
        assert analysis._residues_reach(2849, 1000, q)

    @pytest.mark.parametrize("n", [2000, 4184, 4340])
    def test_both_engines_give_exact_zero(self, n):
        # n = 128 mod 156: no three distinct Ruzsa residues sum to it
        for engine in ("auto", "loop", "transform"):
            assert exact_expectation_Q(n, CFG156, engine) == 0.0
            assert exact_delta_Q(n, CFG156, engine) == 0.0

    @pytest.mark.parametrize("cfg,n", [
        *((PLAIN100, n) for n in range(301, 306)),
        (CFG1, 14),
        (FAR, 1849),
    ])
    def test_no_admissible_triple_is_exact_zero(self, cfg, n):
        # below 3m + 6 no three distinct x exceed m; at 1849 the classes
        # reach n mod 1000 but their smallest members do not fit
        for engine in ("auto", "loop", "transform"):
            assert exact_expectation_Q(n, cfg, engine) == 0.0
            assert exact_delta_Q(n, cfg, engine) == 0.0

    @pytest.mark.parametrize("cfg,n", [
        (SampleConfig(gamma=G, m=0, modulus=1, residues=(0,)), 6),
        (SampleConfig(gamma=G, m=0, modulus=1, residues=(0,)), 7),
        (SampleConfig(gamma=G, m=0, modulus=10 ** 6,
                      residues=(1, 2, 4, 8, 16, 1000, 3000)), 4001),
    ])
    def test_single_pair_rows_are_exact_zero(self, cfg, n):
        # triples exist, but no first element has two pairs
        for engine in ("auto", "loop", "transform"):
            assert exact_expectation_Q(n, cfg, engine) > 0.0
            assert exact_delta_Q(n, cfg, engine) == 0.0

    def test_janson_row(self):
        threshold, rows = janson_threshold(CFG156, (4184, 4340))
        assert rows == ((4184, 0.0, 0.0, False), (4340, 0.0, 0.0, False))
        assert threshold is None


def _exact_u2_mean(r, cfg):
    parts = []
    for x in range(1, r):
        y = r - x
        if x == y:
            continue
        parts.append(inclusion_probability(cfg, x)
                     * inclusion_probability(cfg, y))
    return math.fsum(parts)


def _monte_carlo_oracle(kind, targets, cfg, horizon, trials, master_seed):
    """The table from one sample_sequence per trial and one
    enumerate_family per trial and target."""
    modulus = cfg.modulus if kind in ("Q", "T") else 1
    specs = [FamilySpec(kind=kind, target=t, modulus=modulus) for t in targets]
    counts = np.zeros((trials, len(specs)))
    for i in range(trials):
        conf = replace(cfg, seed=(master_seed + i) % 2 ** 64)
        sample = sample_sequence(conf, horizon)
        for j, spec in enumerate(specs):
            counts[i, j] = len(enumerate_family(sample, spec))
    errs = counts.std(axis=0, ddof=1) / math.sqrt(trials)
    return tuple((t, float(mu), float(se))
                 for t, mu, se in zip(targets, counts.mean(axis=0), errs))


class TestMonteCarlo:
    @pytest.mark.parametrize("kind", ["Q", "U2", "T"])
    @pytest.mark.parametrize("cfg,targets,horizon", [
        (CFG5, [60, 91], 91), (CFG156, [400, 600], 600),
        (PLAIN100, [400, 500], 500), (CFG156, [50, 80], 100)])
    def test_equals_per_trial_oracle(self, kind, cfg, targets, horizon):
        # the last case has horizon <= m: every sample is empty
        for master in (0, 2026, 2 ** 64 - 3):
            table = monte_carlo_family_mean(kind, targets, cfg, horizon,
                                            trials=6, master_seed=master)
            assert table == _monte_carlo_oracle(kind, targets, cfg, horizon,
                                                6, master)

    # the mod-156 Ruzsa model at gamma = 1/5 and m = 0 keeps about 70 of
    # [1, 3000], so that every table below has a nonzero mean
    DENSE156 = SampleConfig.from_modset(ruzsa_set(13), gamma="1/5", m=0)

    @pytest.mark.parametrize("kind,cfg,targets,horizon", [
        ("Q", PLAIN100, [2000, 3000], 3000),
        ("Q", DENSE156, [2423, 2579], 3000),
        ("T", DENSE156, [863, 1019], 1000),
        ("U2", DENSE156, [2000, 2500], 3000)])
    def test_counts_samples_without_coerce(self, monkeypatch, kind, cfg,
                                           targets, horizon):
        # each trial's sample is ascending, distinct and positive as the
        # blocks make it, so it goes to the kind's counter unread
        calls = []
        monkeypatch.setattr(deletionlab, "_coerce", calls.append)
        table = monte_carlo_family_mean(kind, targets, cfg, horizon,
                                        trials=6, master_seed=2026)
        assert calls == []
        monkeypatch.undo()
        assert table == _monte_carlo_oracle(kind, targets, cfg, horizon, 6,
                                            2026)
        assert any(mean > 0 for _, mean, _ in table)

    def test_reads_integers_only(self):
        # target 30.9 used to be read as 30 and master seed 7.8 as 7
        kw = dict(cfg=CFG5, horizon=40, trials=3)
        with pytest.raises(RangeError):
            monte_carlo_family_mean("U2", [30.9], master_seed=7, **kw)
        with pytest.raises(RangeError):
            monte_carlo_family_mean("U2", [30], master_seed=7.8, **kw)
        # trials = 3.0 used to raise TypeError
        with pytest.raises(RangeError):
            monte_carlo_family_mean("U2", [30], CFG5, 40, trials=3.0)
        assert monte_carlo_family_mean("U2", [30], CFG5, 40,
                                       trials=np.int64(3)) \
            == monte_carlo_family_mean("U2", [30], CFG5, 40, trials=3)
        table = monte_carlo_family_mean("U2", np.array([30]),
                                        master_seed=np.int64(7), **kw)
        assert table == monte_carlo_family_mean("U2", [30], master_seed=7,
                                                **kw)
        assert type(table[0][0]) is int

    def test_empty_model_is_zero(self):
        cfg = replace(CFG156, m=200)
        table = monte_carlo_family_mean("U2", [10, 20], cfg, horizon=150,
                                        trials=5)
        assert all(mean == 0.0 and se == 0.0 for _, mean, se in table)

    def test_reproducible(self):
        kw = dict(targets=[40, 60], cfg=CFG5, horizon=70, trials=12,
                  master_seed=2026)
        assert (monte_carlo_family_mean("U2", **kw)
                == monte_carlo_family_mean("U2", **kw))

    def test_u2_matches_exact_expectation(self):
        trials = 400
        for r in (30, 41):
            mu = _exact_u2_mean(r, CFG5)
            table = monte_carlo_family_mean("U2", [r], CFG5, horizon=r,
                                            trials=trials, master_seed=77)
            _, mean, stderr = table[0]
            floor = math.sqrt((mu + mu) / trials)
            assert abs(mean - mu) <= 3 * max(stderr, floor)

    def test_trials_validation(self):
        with pytest.raises(RangeError):
            monte_carlo_family_mean("U2", [10], CFG5, horizon=20, trials=1)

    @pytest.mark.parametrize("kind,error", [("R", RangeError),
                                            ("CUSTOM", RangeError)])
    def test_bad_spec_fails_before_sampling(self, monkeypatch, kind, error):
        # the trials share one pass of blocks, and each trial's sample is
        # drawn by the accept rule on every block with every trial seed: it
        # is the probe
        calls = []

        def counting(gamma, seeds, xs, t):
            calls.extend(seeds)
            return _accept(gamma, seeds, xs, t)

        monkeypatch.setattr(analysis, "_accept", counting)
        with pytest.raises(error):
            monte_carlo_family_mean(kind, [10, 20], CFG5, horizon=30, trials=3)
        assert calls == []
        monte_carlo_family_mean("U2", [10, 20], CFG5, horizon=30, trials=3)
        assert calls == [11, 12, 13]

    def test_t_kind_runs(self):
        table = monte_carlo_family_mean("T", [500], CFG156, horizon=3000,
                                        trials=8, master_seed=4)
        target, mean, stderr = table[0]
        assert target == 500 and mean >= 0.0 and stderr >= 0.0

    def test_r_kind_needs_epsilon(self):
        table = monte_carlo_family_mean("R", [200], CFG156, horizon=800,
                                        trials=4, epsilon=Fraction(1, 2))
        assert table[0][1] >= 0.0


class TestRatioReportType:
    def test_json_round(self, capsys):
        report = RatioReport(exponent=-0.3, rows=(("x", 1.0, 0.5),),
                             sup_ratio=0.5)
        assert report.pinned is None
        assert cli.run(["analyze", "lemma-abab", "--gamma", "7/11",
                        "--pairs", "2:5"]) == 0
        assert '"pinned": null' in capsys.readouterr().out
