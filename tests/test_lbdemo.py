import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mcuq import lbdemo
from mcuq.bench import ExperimentConfig
from mcuq.core import DomainError
from mcuq.lbdemo import (_statistics, h0_dataset, h1_dataset,
                         indistinguishability_experiment, rho_for, sample_h1,
                         separation_check)
from mcuq.synth import child_seed


class TestRhoFor:
    def test_reference_value(self):
        assert rho_for(16, 100, 400, v=1.0) == pytest.approx(1.0, rel=1e-12)

    def test_small_v(self):
        assert rho_for(16, 100, 400, v=0.1) == pytest.approx(0.1, rel=1e-12)

    def test_vanishes_with_v(self):
        assert rho_for(4, 50, 100, v=1e-9) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            rho_for(4, 50, 100, v=0.0)
        with pytest.raises(DomainError):
            rho_for(0, 50, 100, v=0.5)

    @pytest.mark.parametrize("m, n, message", [
        (8, 0, "n must be >= 1, got 0"),  # once a ZeroDivisionError
        (8, -3, "n must be >= 1, got -3"),  # once a ValueError from math.sqrt
        (-8, 32, "m must be >= 1, got -8"),
    ], ids=["n-0", "n-negative", "m-negative"])
    def test_sizes_below_one_fail_closed(self, m, n, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            rho_for(2, m, n, v=0.5)


class TestSampleH1:
    def test_two_point_moments_exact(self):
        draw = sample_h1(12, 4, rho=0.1, seed=0)
        M = draw.M
        # Analytic moments of the matched two-point law, entry by entry.
        p_plus = (1.0 + M) / 2.0
        mean = p_plus * (1.0 - M) + (1.0 - p_plus) * (-1.0 - M)
        var = p_plus * (1.0 - M) ** 2 + (1.0 - p_plus) * (1.0 + M) ** 2
        assert np.max(np.abs(mean)) < 1e-15
        np.testing.assert_allclose(var, 1.0 - 4 * 0.1 ** 2, atol=1e-15)

    def test_entries_and_rank(self):
        draw = sample_h1(12, 3, rho=0.2, seed=1)
        assert np.all(np.abs(draw.M) == draw.u)
        assert draw.u == pytest.approx(0.4)
        s = np.linalg.svd(draw.M, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) <= 3

    def test_noise_support_bounded_by_two(self):
        draw = sample_h1(8, 2, rho=0.15, seed=2)
        support = np.concatenate([1.0 - draw.M.ravel(), -1.0 - draw.M.ravel()])
        assert np.max(np.abs(support)) <= 1.0 + draw.u
        assert 1.0 + draw.u <= 2.0

    def test_homoscedastic_across_entries(self):
        draw = sample_h1(10, 2, rho=0.05, seed=3)
        var = 1.0 - draw.M ** 2
        assert np.max(var) - np.min(var) < 1e-15

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            sample_h1(8, 2, rho=0.5, seed=0)

    def test_trim_when_not_divisible(self):
        draw = sample_h1(10, 3, rho=0.1, seed=4)
        assert draw.M.shape == (10, 9)

    def test_partition_groups_equal(self):
        draw = sample_h1(12, 4, rho=0.1, seed=5)
        _, counts = np.unique(draw.labels, return_counts=True)
        assert set(counts.tolist()) == {3}


class TestSampleH0:
    def test_observed_values_signs(self):
        ds = h0_dataset(10, 50, seed=6)
        assert set(np.unique(ds.values)) <= {-1.0, 0.0, 1.0}
        np.testing.assert_array_equal(ds.values != 0.0, ds.mask)

    def test_second_moment_of_observed(self):
        reps, m, n = 400, 10, 50
        moments = []
        for r in range(reps):
            ds = h0_dataset(m, n, seed=child_seed(7, r))
            obs = ds.values[ds.mask]
            if obs.size:
                moments.append(np.mean(obs ** 2))
        assert abs(np.mean(moments) - 1.0) <= 3 * np.std(moments) / math.sqrt(len(moments))


class TestH1Dataset:
    def test_values_on_exact_support(self):
        draw = sample_h1(12, 3, rho=0.1, seed=8)
        ds = h1_dataset(draw, 60, seed=9)
        assert set(np.unique(ds.values)) <= {-1.0, 0.0, 1.0}

    def test_conditional_mean_matches_signal(self):
        draw = sample_h1(6, 2, rho=0.25, seed=10)
        n_redraws = 4000
        acc = np.zeros_like(draw.M)
        cnt = np.zeros_like(draw.M)
        for r in range(n_redraws):
            ds = h1_dataset(draw, 30, seed=child_seed(11, r))
            acc += ds.values
            cnt += ds.mask
        mean = acc / np.maximum(cnt, 1)
        se = 1.0 / np.sqrt(np.maximum(cnt, 1))
        assert np.all(np.abs(mean - draw.M) <= 4 * se)


class TestSeparationCheck:
    def test_rank_one_is_unit(self):
        draw = sample_h1(9, 1, rho=0.1, seed=12)
        passes, smin = separation_check(draw, 0)
        assert passes
        assert smin == pytest.approx(1.0, rel=1e-12)

    def test_pass_rate_at_scale(self):
        hits = 0
        reps = 500
        for r in range(reps):
            draw = sample_h1(96, 8, rho=0.01, seed=child_seed(13, r))
            passes, _ = separation_check(draw, 1)
            hits += passes
        assert hits / reps >= 0.95

    def test_certificate_against_projection_distance(self):
        # When the check passes, the squared distance to the lower-rank
        # class must be at least m^2 * rho^2.  The Eckart-Young tail is the
        # squared distance to all rank-k0 matrices, entry bound dropped, so
        # it bounds the distance to the class from below.
        m, k, k0, rho = 12, 2, 1, 0.2
        verified = 0
        for r in range(30):
            draw = sample_h1(m, k, rho=rho, seed=child_seed(14, r))
            passes, _ = separation_check(draw, k0)
            if not passes:
                continue
            s = np.linalg.svd(draw.M, compute_uv=False)
            assert float(np.sum(s[k0:] ** 2)) >= m * m * rho * rho - 1e-9
            verified += 1
        assert verified >= 15


def lbdemo_config(m: int, n: int, **settings) -> ExperimentConfig:
    return ExperimentConfig(kind="lbdemo", m1=m, m2=m, n=n, **settings)


class TestIndistinguishability:
    # Each setting below fails to build an lbdemo config, in the words that
    # `uq validate` prints, so the library call never meets one.  It once ran
    # with some of them: without calibration draws it ended in an IndexError
    # from np.quantile; the swapped ranks (24x24, n = 144) and reps = -3 ran
    # to a min_error_sum of 1.0; k above m and an n above the kept columns
    # raised only from inside a mapped job.  When it took the settings one by
    # one, an n above m*m raised the sampler's words from inside the first
    # job, and v = 0 and n = 0 raised rho_for's words.
    @pytest.mark.parametrize("kwargs, message", [
        (dict(cal_reps=0), "cal_reps: lbdemo needs >= 1, got 0"),
        (dict(k0=2, k=1), "k0/k: need 0 <= k0 < k, got 2, 1"),
        (dict(k0=-1), "k0/k: need 0 <= k0 < k, got -1, 2"),
        (dict(reps=-3), "reps: must be >= 0, got -3"),
        (dict(k=12), "k: must lie in [1, 8] for lbdemo, got 12"),
        (dict(n=64, k=3), "n: must be <= 48 for lbdemo, whose alternative keeps 6 of 8 columns "
                          "at k=3"),
        (dict(n=10, v=1.0), "v: gives rho=1.0637 >= 1/2; reduce v or raise n"),
        (dict(n=100), "n: must be <= m1*m2=64 in the bernoulli model"),
        (dict(v=0.0), "v: must be > 0, got 0.0"),
        (dict(n=0), "n: must be >= 1, got 0"),
        (dict(m2=9), "m1/m2: lbdemo needs a square matrix, got 8x9"),
    ], ids=["cal_reps-0", "k0-above-k", "k0-negative", "reps-negative", "k-above-m",
            "n-above-kept-columns", "v-rho-half", "n-above-m-squared", "v-0", "n-0",
            "not-square"])
    def test_bad_test_settings_fail_closed(self, kwargs, message):
        settings = {**dict(m2=8, n=32, k0=1, k=2, v=0.5, reps=2, cal_reps=5, seed=1), **kwargs}
        with pytest.raises(DomainError) as built:
            ExperimentConfig(kind="lbdemo", m1=8, **settings)
        assert str(built.value) == message

    def test_needs_an_lbdemo_config(self):
        # A config of another kind was not checked against lbdemo's rules.
        cfg = ExperimentConfig(kind="coverage", m1=8, m2=8, n=32, k0=1, k=2, v=0.5, reps=2)
        with pytest.raises(DomainError, match="^kind: the experiment needs an lbdemo config, "
                                              "got 'coverage'$"):
            indistinguishability_experiment(cfg)

    def test_thresholds_read_alpha_test_at_each_call(self, monkeypatch):
        # Each threshold is the 1 - ALPHA_TEST quantile of its calibration
        # draws, so a higher level gives thresholds no higher, and lower for
        # a statistic that varies.
        def thresholds():
            return indistinguishability_experiment(lbdemo_config(
                12, 72, k0=1, k=2, v=0.3, reps=2, seed=5, cal_reps=40))["thresholds"]

        at_default = thresholds()
        monkeypatch.setattr(lbdemo, "ALPHA_TEST", 0.5)
        at_half = thresholds()
        assert all(at_half[name] <= at_default[name] for name in at_default)
        assert at_half["rank_energy"] < at_default["rank_energy"]

    def test_zero_reps_gives_empty_report(self):
        # No pairs measure no error: every rate is NaN, not a perfect 0.0.
        res = indistinguishability_experiment(lbdemo_config(12, 36, k0=1, k=2, v=0.05, reps=0))
        assert res["rows"] == [] or all(row["reps"] == 0 for row in res["rows"])
        assert math.isnan(res["min_error_sum"])

    def test_blind_second_moment_statistic_exactly_zero(self):
        # Observed values live on {-1, +1} under both hypotheses, so the
        # unit-variance second-moment statistic is exactly zero.
        draw = sample_h1(12, 3, rho=0.1, seed=15)
        ds1 = h1_dataset(draw, 60, seed=16)
        ds0 = h0_dataset(12, 60, seed=17)
        second_moment = lbdemo._STATISTICS.index("second_moment")
        assert _statistics(ds1, 1.0, 1, 3, seed=0)[second_moment] == 0.0
        assert _statistics(ds0, 1.0, 1, 3, seed=0)[second_moment] == 0.0

    def test_warns_above_cube_root_of_m(self):
        # 96^(1/3) = 4.58: k = 5 lies above the recommended bound although
        # it does not exceed round(4.58) = 5.
        with pytest.warns(RuntimeWarning, match=r"m\^\(1/3\)=4\.58"):
            indistinguishability_experiment(lbdemo_config(96, 2304, k0=1, k=5, v=0.05, reps=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            indistinguishability_experiment(lbdemo_config(96, 2304, k0=1, k=4, v=0.05, reps=0))

    def test_report_rows_structure(self):
        res = indistinguishability_experiment(lbdemo_config(24, 144, k0=1, k=2, v=0.05, reps=8,
                                                            seed=18, cal_reps=12))
        assert [row["test_name"] for row in res["rows"]] == [
            "second_moment", "observed_variance", "infimum_sigma_assumed", "rank_energy"]
        for row in res["rows"]:
            assert set(row) == {"test_name", "type1", "type2", "error_sum",
                                "v", "rho", "m", "n", "k", "reps"}
            assert 0 <= row["type1"] <= 1 and 0 <= row["type2"] <= 1

    def test_revealed_variance_separates(self):
        cfg = lbdemo_config(24, 288, k0=1, k=2, v=0.4, reps=30, seed=19, cal_reps=40)
        blind = indistinguishability_experiment(cfg)
        revealed = indistinguishability_experiment(replace(cfg, reveal_sigma=True))
        assert revealed["min_error_sum"] < blind["min_error_sum"]
        assert revealed["min_error_sum"] <= 0.2

    @pytest.mark.parametrize("reveal_sigma", [False, True], ids=["blind", "revealed"])
    def test_table_scores_match_per_name_loops(self, reveal_sigma):
        # The experiment scores its tests with array operations over one
        # table of statistics.  The reference maps the same jobs and scores
        # each test by name, one pair at a time; the golden lbdemo digest
        # compares only where it was captured, and this holds everywhere.
        cfg = lbdemo_config(12, 72, k0=1, k=2, v=0.4, reps=9, seed=21, cal_reps=23,
                            reveal_sigma=reveal_sigma)
        rho = rho_for(cfg.k, cfg.m1, cfg.n, v=cfg.v)
        done = [[dict(zip(lbdemo._STATISTICS, row)) for row in lbdemo._replicate(
                    cfg.m1, cfg.n, cfg.k0, cfg.k, rho, reveal_sigma, cfg.seed, cfg.reps, j)]
                for j in range(cfg.reps + cfg.cal_reps)]
        pairs, cal = done[:cfg.reps], [rows[0] for rows in done[cfg.reps:]]
        thresholds = {name: float(np.quantile(np.array([c[name] for c in cal]),
                                              1.0 - lbdemo.ALPHA_TEST, method="higher"))
                      for name in lbdemo._STATISTICS}
        rej_h0 = {name: 0 for name in lbdemo._STATISTICS}
        rej_h1 = {name: 0 for name in lbdemo._STATISTICS}
        for stats0, stats1 in pairs:
            for name in lbdemo._STATISTICS:
                rej_h0[name] += stats0[name] > thresholds[name]
                rej_h1[name] += stats1[name] > thresholds[name]
        expected = []
        for name in lbdemo._STATISTICS:
            type1, type2 = rej_h0[name] / cfg.reps, 1.0 - rej_h1[name] / cfg.reps
            expected.append({"test_name": name, "type1": type1, "type2": type2,
                             "error_sum": type1 + type2, "v": cfg.v, "rho": rho,
                             "m": cfg.m1, "n": cfg.n, "k": cfg.k, "reps": cfg.reps})

        res = indistinguishability_experiment(cfg)
        assert res["thresholds"] == thresholds
        assert res["rows"] == expected
        assert res["error_sum"] == {row["test_name"]: row["error_sum"] for row in expected}
        assert res["min_error_sum"] == min(row["error_sum"] for row in expected)
        # Some test rejects some but not all of its pairs' draws, so the counts
        # are not trivial.
        assert any(0 < row[c] < 1 for row in expected for c in ("type1", "type2"))
