"""Analysis module: certified sums, ratio reports, exact expectations vs
brute-force and Monte Carlo oracles."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath
import pytest

import series_reference
from sidonlab import analysis
from sidonlab.analysis import (
    NonConvergent,
    RatioReport,
    SumSpec,
    _abab_series,
    _power_sum,
    _power_sum_rel_error,
    _tau_tail_integral,
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
from sidonlab.deletionlab import FamilySpec, UnsupportedKind, enumerate_family
from sidonlab.numbertheory import RangeError
from sidonlab.randommodel import (SampleConfig, inclusion_probability,
                                  sample_sequence)
from sidonlab.sidoncore import ruzsa_set

G = Fraction(7, 11)

CFG5 = SampleConfig(gamma=G, m=2, modulus=5, residues=(1, 2, 3), seed=11)
CFG1 = SampleConfig(gamma=G, m=3, modulus=1, residues=(0,), seed=7)
CFG156 = SampleConfig.from_modset(ruzsa_set(13), gamma=G, m=100, seed=5)


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
        assert _tau_tail_integral(n, a, b, cut) == pytest.approx(
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

    def test_tolerance_below_rounding_raises(self):
        # the bracket width alone cancels to 0.0 here; the rounding of
        # the partial sum does not
        with pytest.raises(RangeError):
            tau(SumSpec(G, G, 10, 0, Fraction(1, 10 ** 18)))


class TestPowerSum:
    FACTORS = ((0, -G), (3, -G), (7, 1 - 2 * G))

    def test_rounding_bound_holds(self):
        lo, hi = 5, 9000
        got = _power_sum(self.FACTORS, lo, hi)
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
            _power_sum(self.FACTORS, 2 ** 53 - 3, 2 ** 53 - 2)


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

    def test_export(self):
        report = check_lemma_ab(G, G, [(64, 0)])
        csv = report.to_csv()
        assert csv.splitlines()[0] == "target,value,normalized"
        assert len(csv.splitlines()) == 3
        assert "supRatio" in report.to_json()


class TestLemmaAbab:
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
                                     (10 ** 5, 10 ** 5)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_against_reference(self, a, b, tol):
        value, bound, cutoff = _abab_series(G, a, b, tol)
        assert abs(value - _abab_reference(a, b)) <= bound <= tol
        assert cutoff <= max(2 * max(a, b), 1024)

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


def _exact_u2_mean(r, cfg):
    parts = []
    for x in range(1, r):
        y = r - x
        if x == y:
            continue
        parts.append(inclusion_probability(cfg, x)
                     * inclusion_probability(cfg, y))
    return math.fsum(parts)


class TestMonteCarlo:
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
                                            ("CUSTOM", UnsupportedKind)])
    def test_bad_spec_fails_before_sampling(self, monkeypatch, kind, error):
        calls = []

        def counting(cfg, horizon):
            calls.append(horizon)
            return sample_sequence(cfg, horizon)

        monkeypatch.setattr(analysis, "sample_sequence", counting)
        with pytest.raises(error):
            monte_carlo_family_mean(kind, [10, 20], CFG5, horizon=30, trials=3)
        assert calls == []
        monte_carlo_family_mean("U2", [10, 20], CFG5, horizon=30, trials=3)
        assert calls == [30, 30, 30]

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
    def test_json_round(self):
        report = RatioReport(exponent=-0.3, rows=(("x", 1.0, 0.5),),
                             sup_ratio=0.5)
        assert '"pinned": null' in report.to_json()
