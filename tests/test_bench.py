import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mcuq.bench import (ConfigError, ExperimentConfig, rate_se, run,
                        run_coverage, run_diameter, run_lbdemo, run_risk,
                        run_test_power, separated_truth, write_records_csv,
                        write_report_json)
from mcuq.core import DomainError, NoiseSpec
from mcuq import cli

RADEMACHER = NoiseSpec("scaled-rademacher", 0.5, 0.5)


def coverage_config(**overrides):
    base = dict(kind="coverage", model="trace", m1=10, m2=10, n=100,
                k_truth=1, a=1.0, noise=RADEMACHER, alpha=0.1, reps=12,
                seed=5, method="u_ci")
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = coverage_config()
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "coverage", "bogus": 1})

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict({"model": "trace"})

    def test_field_level_messages(self):
        cfg = coverage_config(alpha=2.0, n=0)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert "alpha" in str(exc.value)
        assert "n:" in str(exc.value)

    def test_bad_noise_dict(self):
        with pytest.raises(ConfigError, match="noise"):
            ExperimentConfig.from_dict({
                "kind": "coverage",
                "noise": {"kind": "scaled-rademacher", "sigma": 2.0, "U": 1.0},
            })

    def test_bernoulli_needs_n_within_grid(self):
        cfg = coverage_config(model="bernoulli", method="adaptive_ci",
                              n=200, k0=1, k=3)
        with pytest.raises(ConfigError, match="n:"):
            cfg.validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(lam=0.0), "lam: must be positive or null, got 0.0"),
        (dict(restarts=-3), "restarts: must be >= 0, got -3"),
        (dict(kind="lbdemo", n=50, k0=1, k=2, v=0.1, cal_reps=0),
         "cal_reps: lbdemo needs >= 1, got 0"),
        (dict(kind="diameter", k0=0),
         "k0: must lie in [1, 10] for a diameter run, got 0"),
        (dict(kind="test_power", model="trace"),
         "model: test_power runs in the bernoulli model"),
        (dict(kind="test_power", model="bernoulli", m1=20, m2=20, n=300, a=1.0,
              separation_grid=(0.0, 25.0)),
         "a: separated truth needs entries up to 21; raise the entry bound a=1.0"),
        (dict(kind="test_power", model="bernoulli", a=30.0, separation_grid=(-5.0, 25.0)),
         "separation_grid: must be non-negative, got [-5.0, 25.0]"),
        # The first separated replicate (30) fits inside a=21.2; replicate 58 does not.
        (dict(kind="test_power", model="bernoulli", m1=20, m2=20, n=300, a=21.2,
              separation_grid=(0.0, 25.0), reps=30, seed=7),
         "a: separated truth needs entries up to 26.2; raise the entry bound a=21.2"),
        (dict(kind="test_power", model="bernoulli", a=30.0, cal_reps=99),
         "cal_reps: a calibrated threshold needs >= 100, got 99"),
        (dict(model="bernoulli", method="adaptive_ci", n=100, k0=1, k=3, cal_reps=50),
         "cal_reps: a calibrated threshold needs >= 100, got 50"),
    ], ids=["lam", "restarts", "cal_reps", "diameter-k0", "power-model", "power-a",
            "power-grid", "power-a-late-replicate", "power-cal-reps", "adaptive-cal-reps"])
    def test_fails_closed(self, tmp_path, capsys, overrides, message):
        cfg = coverage_config(**overrides)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(exc.value) == message
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_infeasible_noise_law(self, tmp_path, capsys):
        cfg = coverage_config().to_dict()
        cfg["noise"] = {"kind": "truncated-gaussian", "sigma": 0.5, "U": 0.5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: noise: truncated Gaussian on [-0.5, 0.5] cannot reach "
            "variance 0.25 (supremum 0.0833333)\n")

    def test_lbdemo_requires_square(self):
        cfg = ExperimentConfig(kind="lbdemo", m1=10, m2=12, n=50, k0=1, k=2, v=0.1)
        with pytest.raises(ConfigError, match="square"):
            cfg.validate()


class TestCoverage:
    def test_report_and_audit(self):
        rep = run_coverage(coverage_config())
        assert len(rep.records) == 12
        # every aggregate is recomputable from the records
        assert rep.aggregates["coverage"] == pytest.approx(
            np.mean([r["covered"] for r in rep.records]))
        assert rep.aggregates["radius_sq_median"] == pytest.approx(
            np.median([r["radius_sq"] for r in rep.records]))
        assert rep.aggregates["flagged"] == sum(r["flag"] for r in rep.records)
        assert rep.config == coverage_config().to_dict()

    def test_deterministic_across_threads(self):
        rep1 = run_coverage(coverage_config(), threads=1)
        rep3 = run_coverage(coverage_config(), threads=3)
        assert rep1.records == rep3.records

    def test_noiseless_interpolation_covers_always(self):
        cfg = coverage_config(m1=5, m2=5, n=500, reps=8,
                              noise=NoiseSpec("scaled-rademacher", 0.0, 1.0),
                              lam=1e-10)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = run_coverage(cfg)
        assert rep.aggregates["coverage"] == 1.0

    def test_rss_method(self):
        rep = run_coverage(coverage_config(method="rss_ci", reps=8))
        assert len(rep.records) == 8
        assert rep.aggregates["coverage"] >= 0.9

    def test_adaptive_method(self):
        cfg = coverage_config(model="bernoulli", method="adaptive_ci",
                              m1=12, m2=12, n=100, k0=1, k=3, reps=8)
        rep = run_coverage(cfg)
        assert rep.aggregates["coverage"] >= 0.8


class TestDiameter:
    def test_ratio_at_least_for_higher_rank(self):
        cfg = coverage_config(kind="diameter", k_truth=3, k0=1, reps=20,
                              m1=16, m2=16, n=256)
        rep = run_diameter(cfg)
        assert rep.aggregates["adaptivity_ratio"] >= 1.0
        ks = {r["k_truth"] for r in rep.records}
        assert ks == {1, 3}

    def test_adaptive_bimodal(self):
        cfg = ExperimentConfig(kind="diameter", model="bernoulli", m1=12, m2=12,
                               n=100, k_truth=3, k0=1, a=1.0, noise=RADEMACHER,
                               alpha=0.1, reps=10, seed=2, method="adaptive_ci")
        rep = run_diameter(cfg)
        K = cfg.K
        d = 24
        allowed = {round(K * K * 1 * d / 100, 12), round(K * K * 3 * d / 100, 12)}
        got = {round(r["radius_sq"], 12) for r in rep.records}
        assert got <= allowed


class TestRisk:
    def test_grid_and_slopes(self):
        cfg = ExperimentConfig(kind="risk", model="bernoulli", m1=12, m2=12,
                               n=72, a=1.0,
                               noise=NoiseSpec("scaled-rademacher", 0.1, 0.1),
                               reps=15, seed=3, k_grid=(1, 2), n_grid=(72, 100))
        rep = run_risk(cfg)
        assert len(rep.records) == 15 * 4
        assert set(rep.aggregates["risk_median"]) == {
            "k=1,n=72", "k=1,n=100", "k=2,n=72", "k=2,n=100"}
        assert math.isfinite(rep.aggregates["slope_k"])
        assert math.isfinite(rep.aggregates["slope_inv_n"])

    def test_matrix_lasso_route(self):
        cfg = ExperimentConfig(kind="risk", model="trace", m1=10, m2=10, n=100,
                               k_truth=1, a=1.0, noise=RADEMACHER, reps=6, seed=4)
        rep = run_risk(cfg)
        assert all(r["risk"] >= 0 for r in rep.records)


class TestTestPower:
    def test_zero_separation_is_size(self):
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=10,
                               m2=10, n=60, k0=1, a=9.0, noise=RADEMACHER,
                               alpha=0.1, reps=10, seed=6,
                               separation_grid=(0.0, 4.0))
        rep = run_test_power(cfg)
        assert rep.aggregates["size"] == pytest.approx(
            np.mean([r["reject"] for r in rep.records if r["separation"] == 0.0]))

    def test_rejects_trace_model(self):
        cfg = ExperimentConfig(kind="test_power", model="trace", m1=10, m2=10,
                               n=60, k0=1, a=5.0, noise=RADEMACHER, alpha=0.1,
                               reps=4, seed=6)
        with pytest.raises(ConfigError):
            run_test_power(cfg)


class TestSeparatedTruth:
    def test_exact_separation(self):
        rho = 10.0
        M = separated_truth(16, 16, 1, 10.0, rho, seed=7)
        s = np.linalg.svd(M, compute_uv=False)
        assert math.sqrt(np.sum(s[1:] ** 2)) == pytest.approx(rho, rel=1e-9)

    def test_entry_bound_enforced(self):
        with pytest.raises(DomainError):
            separated_truth(10, 10, 1, 0.05, 40.0, seed=8)


class TestLbdemoKind:
    def test_runs_and_echoes(self):
        cfg = ExperimentConfig(kind="lbdemo", model="bernoulli", m1=24, m2=24,
                               n=144, k=2, k0=1, v=0.1, reps=6, cal_reps=12,
                               seed=9)
        rep = run_lbdemo(cfg)
        assert rep.config["v"] == 0.1
        assert {r["test_name"] for r in rep.records} >= {"second_moment"}
        assert rep.aggregates["min_error_sum"] >= 0.0


class TestRecordsCsv:
    def test_byte_identical_across_threads(self, tmp_path):
        cfg = coverage_config(reps=10)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(run(cfg, threads=1), p1)
        write_records_csv(run(cfg, threads=3), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_json_structure(self, tmp_path):
        rep = run(coverage_config(reps=5))
        path = tmp_path / "report.json"
        write_report_json(rep, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"config", "aggregates", "wall_time_s", "n_records"}
        assert payload["n_records"] == 5

    def test_rate_se(self):
        assert rate_se(0.5, 100) == pytest.approx(0.05)
        assert rate_se(0.0, 0) == 0.0


class TestCli:
    def write_config(self, tmp_path, **overrides):
        cfg = coverage_config(reps=5, **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        return path

    def test_version(self, capsys):
        assert cli.main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "coverage", "alpha": 3.0}))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_run_writes_outputs(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(path), "--out", str(out),
                         "--threads", "2"])
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "report.json").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_records"] == 5

    def test_run_domain_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # A parameter that only the run finds out of range exits 2 with one
        # line.  validate() catches every such config it knows of, so the
        # run is made to raise.
        path = self.write_config(tmp_path)

        def failing_run(config, threads=1):
            raise DomainError("separated truth needs entries up to 21")

        monkeypatch.setattr(cli, "run", failing_run)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: separated truth needs entries up to 21\n")

    def test_run_rejects_small_entry_bound(self, tmp_path, capsys):
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=20, m2=20,
                               n=300, k0=1, a=1.0, noise=RADEMACHER, reps=1,
                               seed=7, separation_grid=(25.0,), cal_reps=100)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a: separated truth needs entries up to")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_run_seed_and_reps_override(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "out2"
        code = cli.main(["run", "--config", str(path), "--out", str(out),
                         "--seed", "99", "--reps", "3"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["seed"] == 99
        assert payload["n_records"] == 3


class TestRiskZeroNoise:
    def test_full_observation_tiny_lambda(self):
        cfg = ExperimentConfig(kind="risk", model="bernoulli", m1=8, m2=8,
                               n=64, k_truth=1, a=1.0,
                               noise=NoiseSpec("scaled-rademacher", 0.0, 1.0),
                               reps=5, seed=11, lam=1e-12)
        rep = run_risk(cfg)
        assert all(r["risk"] < 1e-8 for r in rep.records)


class TestCliNumericalFlag:
    def test_exit_code_three_when_flagged(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(kind="coverage", model="trace", m1=10, m2=10,
                               n=100, k_truth=1, a=1.0, noise=RADEMACHER,
                               alpha=0.1, reps=2, seed=5, method="u_ci")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))

        real_run = cli.run

        def flagging_run(config, threads=1):
            report = real_run(config, threads=threads)
            report.aggregates["flagged"] = 1
            return report

        monkeypatch.setattr(cli, "run", flagging_run)
        out = tmp_path / "out3"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3


class TestMethodModelPairing:
    def test_adaptive_requires_bernoulli(self):
        cfg = coverage_config(method="adaptive_ci", model="trace", k0=1, k=3)
        with pytest.raises(ConfigError, match="adaptive_ci"):
            cfg.validate()

    def test_u_ci_requires_trace(self):
        cfg = coverage_config(method="u_ci", model="bernoulli", n=50)
        with pytest.raises(ConfigError, match="u_ci"):
            cfg.validate()

    def test_lbdemo_parallel_deterministic(self, tmp_path):
        cfg = ExperimentConfig(kind="lbdemo", model="bernoulli", m1=24, m2=24,
                               n=144, k=2, k0=1, v=0.1, reps=6, cal_reps=12,
                               seed=13)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_records_csv(run(cfg, threads=1), p1)
        write_records_csv(run(cfg, threads=2), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestTracerWraps:
    def test_every_wrapped_attribute_resolves(self):
        # perfbench/tracer.py wraps package functions by (module, attribute);
        # a name the package drops makes a traced benchmark run die.  The
        # module is loaded from its file and only read.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.WRAPS
        for modname, attr, _layer, _note in tracer.WRAPS:
            assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
