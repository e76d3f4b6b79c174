import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import brute_scans as brute
from sidonlab import cli, randommodel
from sidonlab.analysis import _prob_array
from sidonlab.numbertheory import RangeError
from sidonlab.randommodel import (
    IntSeq,
    SampleConfig,
    contains,
    count_variance,
    expected_count,
    inclusion_probability,
    sample_sequence,
)
from sidonlab.randommodel import (_GOLDEN, _blocks, _exact_accept, _margin,
                                  _uniform_array)
from sidonlab.sidoncore import ruzsa_set


def _ruzsa_config(seed=0, gamma="7/11", m=100):
    S = ruzsa_set(13)
    return SampleConfig(gamma=gamma, m=m, modulus=S.modulus,
                        residues=tuple(S.elements), seed=seed)


class TestCounter:
    def test_mix64_reference_stream(self):
        # splitmix64 seeded with 0 emits these as its first three outputs
        golden = 0x9E3779B97F4A7C15
        assert brute.mix64(1 * golden) == 0xE220A8397B1DCDAF
        assert brute.mix64(2 * golden) == 0x6E789E6AA1B965F4
        assert brute.mix64(3 * golden) == 0x06C45D188009454F

    def test_uniform_unit_range(self):
        for seed in (0, 7, 2**63):
            xs = np.array([1, 2, 10**9, 10**15], dtype=np.uint64)
            u = _uniform_array(seed, xs * np.uint64(_GOLDEN))
            assert ((0.0 <= u) & (u < 1.0)).all()
            assert np.array_equal(_uniform_array(seed, xs * np.uint64(_GOLDEN)),
                                  u)

    def test_uniform_unit_distribution(self):
        xs = np.arange(1, 100001, dtype=np.uint64)
        us = _uniform_array(42, xs * np.uint64(_GOLDEN))
        assert abs(us.mean() - 0.5) < 0.005
        assert abs(us.var() - 1 / 12) < 0.003

    def test_vector_path_bitwise_equal(self):
        xs = np.arange(1, 2001, dtype=np.uint64)
        vec = _uniform_array(12345, xs * np.uint64(_GOLDEN))
        scl = np.array([brute.uniform_unit(12345, int(x)) for x in xs])
        assert np.array_equal(vec, scl)


class TestModel:
    def test_inclusion_probability(self):
        cfg = _ruzsa_config()
        assert inclusion_probability(cfg, 100) == 0.0  # at the cutoff
        assert inclusion_probability(cfg, 101) == 0.0  # 101 mod 156 not in S
        x = 166  # 166 = 10 mod 156, and 10 is a flattened Ruzsa element
        assert 10 in cfg.residues
        xs, q = next(_blocks(cfg, x))  # the sampler's probabilities to x
        assert xs[-1] == x and inclusion_probability(cfg, x) == q[-1]
        free = SampleConfig(gamma=1, m=0, modulus=1, residues=(0,))
        assert inclusion_probability(free, 1) == 1.0

    def test_inclusion_probability_is_the_samplers(self):
        # the same float the sampler and the moments use, to the last bit;
        # libm's float(x) ** -gamma can differ from np.power in that bit
        plain = [SampleConfig(gamma="7/11", m=m, modulus=1, residues=(0,))
                 for m in (0, 100)]
        for cfg in plain + [_ruzsa_config()]:
            q = _prob_array(cfg, 20_000)
            got = [inclusion_probability(cfg, x) for x in range(20_001)]
            assert np.array_equal(got, q)

    def test_always_include_probability_one(self):
        free = SampleConfig(gamma="1/1000000", m=0, modulus=1, residues=(0,),
                            seed=9)
        seq = sample_sequence(free, 50)
        # q(x) = x^(-1e-6) is within a rounding error of 1; x = 1 is certain
        assert 1 in seq.elements
        assert len(seq) >= 45

    def test_scalar_vector_agreement(self):
        for seed in (0, 1, 99991):
            cfg = _ruzsa_config(seed=seed)
            vec = sample_sequence(cfg, 5000).elements
            scl = tuple(x for x in range(1, 5001) if contains(cfg, x))
            assert vec == scl
            assert vec == tuple(x for x in range(1, 5001)
                                if brute.contains(cfg, x))

    def test_restriction_is_a_filter(self):
        # same seed: restricting the residue set must subset, not reshuffle
        S = ruzsa_set(13)
        full = SampleConfig(gamma="7/11", m=100, modulus=1, residues=(0,),
                            seed=77)
        restricted = SampleConfig(gamma="7/11", m=100, modulus=156,
                                  residues=tuple(S.elements), seed=77)
        a_full = sample_sequence(full, 20000).elements
        a_res = sample_sequence(restricted, 20000).elements
        assert a_res == tuple(x for x in a_full if x % 156 in set(S.elements))

    def test_calibration_200_seeds(self):
        horizon = 2000
        cfg0 = _ruzsa_config(seed=0)
        mu = expected_count(cfg0, horizon)
        var = count_variance(cfg0, horizon)
        counts = [len(sample_sequence(_ruzsa_config(seed=s), horizon))
                  for s in range(200)]
        mean = sum(counts) / len(counts)
        assert abs(mean - mu) <= 3.0 * math.sqrt(var / len(counts))

    def test_expected_count_matches_direct_sum(self):
        cfg = _ruzsa_config()
        direct = sum(inclusion_probability(cfg, x) for x in range(1, 501))
        assert expected_count(cfg, 500) == pytest.approx(direct, rel=1e-12)
        q = [inclusion_probability(cfg, x) for x in range(1, 501)]
        direct_var = sum(p * (1 - p) for p in q)
        assert count_variance(cfg, 500) == pytest.approx(direct_var, rel=1e-12)

    def test_empty_horizons(self):
        cfg = _ruzsa_config()
        assert sample_sequence(cfg, 0).elements == ()
        assert sample_sequence(cfg, 100).elements == ()  # all x <= m
        assert expected_count(cfg, 100) == 0.0

    def test_horizon_beyond_64_bits(self):
        top = SampleConfig(gamma="7/11", m=2 ** 64 - 100, modulus=1,
                           residues=(0,), seed=1)
        assert len(sample_sequence(top, 2 ** 64 - 1)) <= 99
        for f in (sample_sequence, expected_count, count_variance):
            with pytest.raises(RangeError):
                f(top, 2 ** 64)
        with pytest.raises(RangeError):
            sample_sequence(top, -1)
        assert contains(top, 2 ** 64 - 1) in (True, False)
        for x in (2 ** 64, 2 ** 64 + 1, 2 ** 70):
            with pytest.raises(RangeError):
                contains(top, x)

    @pytest.mark.parametrize("f", [sample_sequence, expected_count])
    def test_horizon_reads_integers_only(self, f):
        # horizon 50.5 used to end in a TypeError from the shift in _blocks
        cfg = _ruzsa_config(seed=3)
        with pytest.raises(RangeError):
            f(cfg, 50.5)
        assert f(cfg, np.int64(5000)) == f(cfg, 5000)

    def test_membership_reads_integers_only(self):
        cfg = _ruzsa_config(seed=3)
        x = sample_sequence(cfg, 5000).elements[0]
        assert contains(cfg, np.uint64(x)) and contains(cfg, np.int64(x))
        assert inclusion_probability(cfg, np.int64(x)) \
            == inclusion_probability(cfg, x)
        for f in (contains, inclusion_probability):
            with pytest.raises(RangeError):
                f(cfg, float(x))


def _block_cases():
    """(config, horizon): modulus 1 and 156, m and horizon on and off the
    block and residue edges, horizon <= m and horizon 0."""
    ruzsa = ruzsa_set(13).elements
    for seed, m in ((3, 0), (4, 100), (5, 127), (6, 128)):
        cfg = SampleConfig(gamma="7/11", m=m, modulus=1, residues=(0,),
                           seed=seed)
        for horizon in (0, m, max(m - 1, 0), 256, 320, 321, 1000, 2000):
            yield cfg, horizon
    for seed, m in ((7, 0), (8, 100), (9, 155), (10, 156), (11, 157),
                    (12, 779)):
        cfg = SampleConfig(gamma="7/11", m=m, modulus=156, residues=ruzsa,
                           seed=seed)
        for horizon in (0, m, 5 * 156, 5 * 156 - 1, 5 * 156 + ruzsa[0],
                        15 * 156, 15 * 156 + ruzsa[-1], 15 * 156 + 155,
                        20000):
            yield cfg, horizon


class TestBlocks:
    """The streamed sampler against the full-range oracle, with blocks
    small enough that one call spans several of them."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(randommodel, "_BLOCK", 64)

    def test_blocks_match_full_range_admissible(self):
        for cfg, horizon in _block_cases():
            blocks = [xs for xs, _ in _blocks(cfg, horizon)]
            got = np.concatenate(blocks) if blocks else np.zeros(0, np.uint64)
            assert np.array_equal(got, brute.admissible(cfg, horizon))
            assert all(0 < len(b) <= 64 for b in blocks)
        spans = len(list(_blocks(_ruzsa_config(), 15 * 156)))
        assert spans >= 3

    def test_samples_and_moments_match_oracle(self):
        for cfg, horizon in _block_cases():
            assert sample_sequence(cfg, horizon).elements == \
                brute.sample_elements(cfg, horizon)
            mu, var = brute.moments(cfg, horizon)
            assert expected_count(cfg, horizon) == pytest.approx(mu, rel=1e-12)
            assert count_variance(cfg, horizon) == pytest.approx(var, rel=1e-12)

    def test_prob_array_matches_oracle(self):
        for cfg, top in ((_ruzsa_config(), 6144), (_ruzsa_config(m=0), 157),
                         (SampleConfig(gamma="19/27", m=7, modulus=1,
                                       residues=(0,)), 1000)):
            xs = brute.admissible(cfg, top)
            want = np.zeros(top + 1)
            want[xs] = np.power(xs.astype(np.float64), -float(cfg.gamma))
            got = _prob_array(cfg, top)
            assert np.array_equal(got > 0, want > 0)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


class TestExactRule:
    def test_big_sample_memory_bounded(self):
        # a full-range build of 10^8 candidates would take gigabytes
        tracemalloc.start()
        try:
            seq = sample_sequence(_ruzsa_config(seed=12345), 10 ** 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seq) > 0
        assert peak < 64 * 2 ** 20

    def test_margin_covers_pow_error(self):
        # |fl(x^-fl(gamma)) - x^-gamma| is far inside the band
        for gamma in (Fraction(7, 11), Fraction(19, 27), Fraction(1, 10 ** 6),
                      Fraction(5, 2)):
            g = float(gamma)
            for x in (1, 2, 3, 101, 12345, 10 ** 7 + 1, 2 ** 40 + 7):
                t = float(x) ** -g
                with mpmath.workdps(40):
                    exact = mpmath.mpf(x) ** (-mpmath.mpf(gamma.numerator)
                                              / gamma.denominator)
                    err = abs(mpmath.mpf(t) - exact)
                assert err <= (_margin(t, x, g) - 2.0 ** -1000) / 4

    @pytest.mark.parametrize("gamma", ["7/11", "19/27", "1/1000000",
                                       "499999/1000000"])
    def test_exact_branch_decides_on_the_compared_word(self, monkeypatch,
                                                       gamma):
        # with every candidate inside the margin, the masks still equal the
        # scalar oracle, which draws its own words and compares no floats
        seeds = (0, 9, 2 ** 64 - 1)
        monkeypatch.setattr(randommodel, "_margin", lambda t, x, gamma: 1.0)
        for m in (0, 2 ** 62):
            cfg = SampleConfig(gamma=gamma, m=m, modulus=1, residues=(0,))
            (xs, t), = _blocks(cfg, m + 200)
            masks = randommodel._accept(cfg.gamma, seeds, xs, t)
            for seed, keep in zip(seeds, masks):
                conf = SampleConfig(gamma=gamma, m=m, modulus=1,
                                    residues=(0,), seed=seed)
                assert keep.tolist() == [brute.contains(conf, x)
                                         for x in xs.tolist()]

    def test_all_candidates_through_exact_fallback(self, monkeypatch):
        cases = [(_ruzsa_config(seed=s), 20000) for s in (0, 12345)]
        cases.append((SampleConfig(gamma="7/11", m=100, modulus=1,
                                   residues=(0,), seed=5), 5000))
        floats = [sample_sequence(cfg, h).elements for cfg, h in cases]
        calls = []

        def counted(k, x, gamma):
            calls.append(x)
            return _exact_accept(k, x, gamma)

        monkeypatch.setattr(randommodel, "_margin", lambda t, x, gamma: 1.0)
        monkeypatch.setattr(randommodel, "_exact_accept", counted)
        for (cfg, h), want in zip(cases, floats):
            calls.clear()
            assert sample_sequence(cfg, h).elements == want
            assert calls == brute.admissible(cfg, h).tolist()
            assert tuple(x for x in range(1, h + 1) if contains(cfg, x)) == want

    def test_large_denominator_fallback(self, monkeypatch):
        # gamma = 10^-6 keeps every x <= 50; gamma near 1/2 drops most
        frees = [SampleConfig(gamma=g, m=0, modulus=1, residues=(0,), seed=9)
                 for g in ("1/1000000", "499999/1000000")]
        want = [sample_sequence(free, 50).elements for free in frees]
        assert len(want[0]) == 50 and 0 < len(want[1]) < 25
        monkeypatch.setattr(randommodel, "_margin", lambda t, x, gamma: 1.0)
        assert [sample_sequence(free, 50).elements for free in frees] == want
        # the logarithm branch needs no mpmath
        for name in ["mpmath"] + [m for m in sys.modules
                                  if m.startswith("mpmath.")]:
            monkeypatch.setitem(sys.modules, name, None)
        assert [sample_sequence(free, 50).elements for free in frees] == want

    def test_log_comparison_matches_integers(self, monkeypatch):
        cases = [(0, 5, Fraction(7, 11)), (1, 1, Fraction(3)),
                 (2 ** 52, 1, Fraction(1)), (2 ** 52 - 1, 2, Fraction(1)),
                 (2 ** 52, 2, Fraction(1)), (2 ** 51, 4, Fraction(1)),
                 (2 ** 26, 2 ** 54, Fraction(1, 2))]
        # k^q x^p = 2^(53 q) (1 +- 2^-q): the logarithms settle the sign only
        # after doubling their precision
        for k, p, q in ((2 ** 52, 1, 300), (2 ** 52, 1, 2000),
                        (2 ** 51, 2, 1001)):
            e = (54 - k.bit_length()) * q // p
            cases += [(k, 2 ** e + 1, Fraction(p, q)),
                      (k, 2 ** e - 1, Fraction(p, q))]
        # band cases: k within 3 of floor(2^53 x^-gamma), x up to 2^63
        rng = random.Random(17)
        for q in (11, 27, 1000, 3000):
            for _ in range(6):
                p = rng.randrange(1, q)
                while math.gcd(p, q) != 1:
                    p = rng.randrange(1, q)
                x = rng.randrange(2, 1 << rng.randrange(2, 64))
                k0 = int(2.0 ** 53 * float(x) ** (-p / q))
                cases += [(k, x, Fraction(p, q))
                          for k in range(max(0, k0 - 3), min(k0 + 4, 2 ** 53))]
        for gamma in (Fraction(1, 1000), Fraction(3, 1000)):
            for k in (2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 3 * 2 ** 50):
                for e in (998, 999, 1000, 1001):
                    cases.append((k, 2 ** e, gamma))
                    cases.append((k, 2 ** e + 1, gamma))
                    cases.append((k, 2 ** e - 1, gamma))
        want = [k ** g.denominator * x ** g.numerator < 2 ** (53 * g.denominator)
                for k, x, g in cases]
        assert [_exact_accept(k, x, g) for k, x, g in cases] == want
        monkeypatch.setattr(randommodel, "_EXACT_BITS", 0)
        assert [_exact_accept(k, x, g) for k, x, g in cases] == want
        assert True in want and False in want


class TestConfig:
    def test_gamma_forms(self):
        S = ruzsa_set(13)
        kw = dict(m=100, modulus=156, residues=tuple(S.elements))
        assert SampleConfig(gamma="7/11", **kw).gamma == Fraction(7, 11)
        assert SampleConfig(gamma=Fraction(7, 11), **kw).gamma == Fraction(7, 11)
        assert SampleConfig(gamma=(7, 11), **kw).gamma == Fraction(7, 11)
        assert SampleConfig(gamma=1, **kw).gamma == Fraction(1)

    def test_json_roundtrip_and_hash(self, capsys):
        # a config is written as the config of the CLI's sample payload
        def envelope(seed):
            assert cli.run(["sample", "--gamma", "7/11", "--m", "100",
                            "--ruzsa-p", "13", "--horizon", "10",
                            "--seed", str(seed)]) == 0
            return json.loads(capsys.readouterr().out)

        cfg, env = _ruzsa_config(seed=5), envelope(5)
        blob = env["payload"]["config"]
        assert SampleConfig(**blob) == cfg
        assert blob["gamma"] == "7/11"
        assert envelope(5)["configHash"] == env["configHash"]
        assert envelope(6)["configHash"] != env["configHash"]

    def test_from_modset(self):
        S = ruzsa_set(13)
        cfg = SampleConfig.from_modset(S, "7/11", 100, seed=3)
        assert cfg.modulus == 156 and cfg.residues == tuple(S.elements)

    def test_validation(self):
        good = dict(gamma="7/11", m=100, modulus=156, residues=(0, 1))
        SampleConfig(**good)
        for bad in (
            dict(good, gamma=0),
            dict(good, gamma="-1/2"),
            dict(good, m=-1),
            dict(good, modulus=0),
            dict(good, residues=()),
            dict(good, residues=(156,)),
            dict(good, seed=-1),
            dict(good, seed=1 << 64),
        ):
            with pytest.raises(RangeError):
                SampleConfig(**bad)

    def test_reads_integers_only(self):
        good = dict(gamma="7/11", m=100, modulus=156, residues=(0, 1))
        # residue 1.5 mod 2 used to sample every x = 1 (mod 2), while
        # contains rejected each sampled x
        for bad in (dict(good, modulus=2, residues=(1.5,)),
                    dict(good, m=100.5), dict(good, modulus=156.0),
                    dict(good, seed=7.8)):
            with pytest.raises(RangeError):
                SampleConfig(**bad)
        cfg = SampleConfig(gamma="7/11", m=np.int64(100),
                           modulus=np.int64(156),
                           residues=np.array([1, 0]), seed=np.uint64(7))
        assert cfg == SampleConfig(**good, seed=7)
        assert all(type(v) is int
                   for v in (cfg.m, cfg.modulus, cfg.seed, *cfg.residues))


class TestIntSeq:
    def test_reads_integers_only(self):
        # elements (1.5, 2) and horizon 3.5 used to be stored as given
        cfg = _ruzsa_config()
        for elements, horizon in (((1.5, 2), 3), ((1, 2), 3.5)):
            with pytest.raises(RangeError):
                IntSeq(elements=elements, config=cfg, horizon=horizon)
        elements = (1, 2)
        seq = IntSeq(elements=elements, config=cfg, horizon=3)
        assert seq.elements is elements
        seq = IntSeq(elements=[np.int64(1), 2], config=cfg,
                     horizon=np.int64(3))
        assert seq.elements == (1, 2) and type(seq.elements[0]) is int
        assert type(seq.horizon) is int

    def test_save_load_verify(self, capsys, tmp_path):
        # saved as the envelope of `sample --out`, loaded from its payload
        cfg = _ruzsa_config(seed=11)
        path = tmp_path / "seq.json"
        assert cli.run(["sample", "--gamma", "7/11", "--m", "100",
                        "--ruzsa-p", "13", "--horizon", "5000", "--seed", "11",
                        "--out", str(path)]) == 0
        payload = json.loads(path.read_text())["payload"]
        loaded = IntSeq(elements=payload["elements"],
                        config=SampleConfig(**payload["config"]),
                        horizon=payload["horizon"])
        assert loaded == sample_sequence(cfg, 5000)
        assert loaded.verify()

    def test_tampered_elements_fail_verify(self):
        cfg = _ruzsa_config(seed=11)
        seq = sample_sequence(cfg, 5000)
        tampered = IntSeq(elements=seq.elements + (4999,), config=cfg,
                          horizon=5000)
        assert seq.verify() and not tampered.verify()

    def test_container_protocol(self):
        seq = sample_sequence(_ruzsa_config(seed=99991), 5000)
        assert len(seq) == 5
        for x in seq:
            assert x in seq
        assert 4999 not in seq
        assert seq.as_set() == set(seq.elements)

    def test_membership_cache_leaves_equality(self):
        seq = sample_sequence(_ruzsa_config(seed=99991), 5000)
        again = sample_sequence(_ruzsa_config(seed=99991), 5000)
        assert seq.elements[0] in seq and seq._members is seq._members
        assert seq == again and hash(seq) == hash(again)
