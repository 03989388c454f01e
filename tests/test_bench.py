import dataclasses
import functools
import importlib.util
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from mcuq.bench import (ExperimentConfig, rate_se, run, separated_truth, write_records_csv,
                        write_report_json)
from mcuq.core import DomainError, NoiseSpec
from mcuq import bench, bernoulli_uq, cli, core, estimate, synth, trace_uq

RADEMACHER = NoiseSpec("scaled-rademacher", 0.5, 0.5)

#: An lbdemo config that sets `k_truth`, which lbdemo never reads, out of range.
LBDEMO_K_TRUTH = {"kind": "lbdemo", "m1": 8, "m2": 8, "n": 32, "k": 2, "k0": 1, "k_truth": 0,
                  "reps": 2, "cal_reps": 5}


def coverage_config(**overrides):
    base = dict(kind="coverage", model="trace", m1=10, m2=10, n=100,
                k_truth=1, a=1.0, noise=RADEMACHER, alpha=0.1, reps=12,
                seed=5, method="u_ci")
    base.update(overrides)
    return ExperimentConfig(**base)


def records_bytes(cfg, path, threads=1) -> bytes:
    """The ``records.csv`` that a run of ``cfg`` writes, as bytes."""
    write_records_csv(run(cfg, threads=threads), path)
    return path.read_bytes()


def _load_perfbench(name="tracer"):
    # A perfbench module is loaded from its file and only read.
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The benchmark's workloads, whose configs `uq run` reads unchanged.
WORKLOADS = _load_perfbench("workloads")


def _schema_row(name: str) -> list[str]:
    """README's schema columns type, bounds, read by and default for a field,
    as its rule and its dataclass default give them."""
    rule, f = bench.RULES[name], bench.ExperimentConfig.__dataclass_fields__[name]
    kind = rule.json + (f" of {rule.entries}s" if rule.entries else "")
    shown = {bench.INTP_MAX: "INTP_MAX"}
    bounds = [f"{op} {shown.get(b, b)}" for op, b in (
        ("≥", rule.ge), (">", rule.gt), ("≤", rule.le), ("<", rule.lt)) if b is not None]
    bounds = (", ".join(f"`{c}`" for c in rule.choices) if rule.choices is not None
              else ("entries " if rule.entries and bounds else "") + ", ".join(bounds) or "—")
    readers = ", ".join(f"`{r}`" for r in rule.readers) if rule.readers else "all"
    default = f.default
    if dataclasses.is_dataclass(default):
        default = dataclasses.asdict(default)
    default = "required" if default is dataclasses.MISSING else f"`{json.dumps(default)}`"
    return [f"`{name}`", kind, bounds, readers, default]


class TestConfig:
    def test_readme_schema_table_follows_the_rules(self):
        # README lists every field once, in declaration order, with the type,
        # bounds, readers and default that the dataclass declares and checks.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
        rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
        assert [row[0].lstrip("| ") for row in rows] == [f"`{name}`" for name in bench.RULES]
        for row in rows:
            name = row[0].strip("|` ")
            assert [row[0].lstrip("| ")] + row[1:5] == _schema_row(name), name

    def test_round_trip(self):
        cfg = coverage_config()
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(DomainError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "coverage", "bogus": 1})

    def test_missing_kind_rejected(self):
        with pytest.raises(DomainError, match="kind"):
            ExperimentConfig.from_dict({"model": "trace"})

    def test_field_level_messages(self):
        with pytest.raises(DomainError) as exc:
            coverage_config(alpha=2.0, n=0)
        assert "alpha" in str(exc.value)
        assert "n:" in str(exc.value)

    def test_bad_noise_dict(self):
        with pytest.raises(DomainError, match="noise"):
            ExperimentConfig.from_dict({
                "kind": "coverage",
                "noise": {"kind": "scaled-rademacher", "sigma": 2.0, "U": 1.0},
            })

    def test_bernoulli_needs_n_within_grid(self):
        with pytest.raises(DomainError, match="n:"):
            coverage_config(model="bernoulli", method="adaptive_ci", n=200, k0=1, k=3)

    @pytest.mark.parametrize("overrides, message", [
        # The center of each confidence set and of a risk run takes its
        # model's one tuning rule, so a config that sets lam fails both
        # commands as unknown, as one that sets z or K does.
        (dict(lam=0.0), "unknown config fields: ['lam']"),
        (dict(restarts=-3), "restarts: must be >= 0, got -3"),
        (dict(kind="lbdemo", n=50, k0=1, k=2, v=0.1, cal_reps=0),
         "cal_reps: lbdemo needs >= 1, got 0"),
        (dict(kind="diameter", k0=0),
         "k0: must lie in [1, 10] for a diameter run, got 0"),
        (dict(kind="test_power", model="bernoulli", m1=20, m2=20, n=300, a=1.0,
              separation_grid=(0.0, 25.0)),
         "a: separated truth needs entries up to 21; raise the entry bound a=1.0"),
        (dict(kind="test_power", model="bernoulli", a=30.0, separation_grid=(-5.0, 25.0)),
         "separation_grid: entries must be >= 0, got [-5.0, 25.0]"),
        # The first separated replicate (30) fits inside a=21.2; replicate 58 does not.
        (dict(kind="test_power", model="bernoulli", m1=20, m2=20, n=300, a=21.2,
              separation_grid=(0.0, 25.0), reps=30, seed=7),
         "a: separated truth needs entries up to 26.2; raise the entry bound a=21.2"),
        (dict(kind="test_power", model="bernoulli", a=30.0, cal_reps=99),
         "cal_reps: a calibrated threshold needs >= 100, got 99"),
        (dict(model="bernoulli", method="adaptive_ci", n=100, k0=1, k=3, cal_reps=50),
         "cal_reps: a calibrated threshold needs >= 100, got 50"),
        # The three lbdemo configs below passed validation and failed at run time.
        (dict(kind="lbdemo", m1=8, m2=8, n=32, k=12),
         "k: must lie in [1, 8] for lbdemo, got 12"),
        (dict(kind="lbdemo", m1=8, m2=8, n=10, v=1.0, k=2),
         "v: gives rho=1.0637 >= 1/2; reduce v or raise n"),
        (dict(kind="lbdemo", m1=8, m2=8, n=100, k=2),
         "n: must be <= m1*m2=64 in the bernoulli model"),
        # Each config below passed validation and then failed under `uq run`:
        # with a traceback, with silent NaN output (z), or with exit 2 only
        # at run time.
        (dict(seed=-1), "seed: must be >= 0, got -1"),
        (dict(reps=2.5), "reps: must be an integer, got 2.5"),
        (dict(m1=4.5), "m1: must be an integer, got 4.5"),
        (dict(m1=True), "m1: must be an integer, got True"),
        (dict(kind="test_power", model="bernoulli", a=30.0, restarts=1.5),
         "restarts: must be an integer, got 1.5"),
        (dict(kind="lbdemo", n=50, k0=1, k=2, v=0.1, reveal_sigma="false"),
         "reveal_sigma: must be true or false, got 'false'"),
        (dict(lam=math.inf), "unknown config fields: ['lam']"),
        (dict(noise={"kind": "scaled-rademacher", "sigma": 0.5, "U": math.inf}),
         "noise: sigma and U must be finite, got sigma=0.5, U=inf"),
        (dict(noise={"kind": "scaled-rademacher", "sigma": math.nan, "U": 0.5}),
         "noise: sigma and U must be finite, got sigma=nan, U=0.5"),
        # rss_ci's z, the adaptive set's K and lbdemo's test level alpha_test
        # are module constants, not fields, so a config that sets any of them
        # fails both commands as unknown.
        (dict(method="rss_ci", z=math.nan), "unknown config fields: ['z']"),
        (dict(K=2.5), "unknown config fields: ['K']"),
        (dict(kind="lbdemo", n=50, k0=1, k=2, v=0.1, alpha_test=2.0),
         "unknown config fields: ['alpha_test']"),
        (dict(kind="lbdemo", n=50, k0=1, k=2, v=0.1, alpha_test=math.nan),
         "unknown config fields: ['alpha_test']"),
        (dict(a=math.nan), "a: must be a finite number, got nan"),
        (dict(a=math.inf), "a: must be a finite number, got inf"),
        (dict(kind="risk", m1=4, m2=4, n=16, k_grid=[1, 9]),
         "k_grid: entries must lie in [1, 4], got [1, 9]"),
        (dict(kind="risk", n_grid=[0]), "n_grid: entries must be >= 1, got [0]"),
        # lbdemo draws its two-point prior itself; no config names that law.
        (dict(noise={"kind": "two-point-skewed", "sigma": 0.5, "U": 2.0}),
         "noise: unknown noise kind 'two-point-skewed', expected one of "
         "('scaled-rademacher', 'uniform', 'truncated-gaussian')"),
        # Found by the property test in test_validate_property.py.
        (dict(n=1), "n: u_ci splits the sample and needs >= 2, got 1"),
        (dict(kind="test_power", model="bernoulli", a=30.0, threshold_mode="theoretical",
              noise={"kind": "scaled-rademacher", "sigma": 0.0, "U": 0.5}),
         "noise: the theoretical test threshold needs sigma > 0"),
        (dict(kind="risk", noise={"kind": "scaled-rademacher", "sigma": 0.0, "U": 0.5}),
         "noise: a risk run in the trace model needs sigma > 0, since its lam is zero at "
         "sigma = 0"),
        (dict(kind="lbdemo", m1=8, m2=8, n=64, k=3, k0=1, v=0.1),
         "n: must be <= 48 for lbdemo, whose alternative keeps 6 of 8 columns at k=3"),
        # These two ran: the first echoed "sigma": true, the second raised a
        # message naming no field.
        (dict(noise={"kind": "uniform", "sigma": True, "U": 2}),
         "noise: sigma and U must be numbers, not booleans, got sigma=True, U=2"),
        (dict(kind="risk", k_grid=5), "k_grid: must be an array, got 5"),
        # The first printed "unhashable type: 'list'"; the other two passed
        # `uq validate`, and `uq run` then ended in a traceback from Path().
        # Since the output directory became `uq run --out`, a config that
        # sets `out` fails both commands as an unknown field.
        (dict(kind=["coverage"]), "kind: must be a string, got ['coverage']"),
        (dict(out=5), "unknown config fields: ['out']"),
        (dict(out=None), "unknown config fields: ['out']"),
        (dict(out="uq_out"), "unknown config fields: ['out']"),
        # Each config below ended `uq validate` in an OverflowError traceback.
        (dict(a=10 ** 400), f"a: must be a finite number, got {10 ** 400}"),
        (dict(noise={"kind": "uniform", "sigma": 10 ** 400, "U": 1}),
         f"noise: sigma and U must be finite, got sigma={10 ** 400}, U=1"),
        (dict(kind="test_power", model="bernoulli", a=30.0, separation_grid=[0.0, 10 ** 400]),
         f"separation_grid: entries must be finite numbers, got [0.0, {10 ** 400}]"),
        # Each config below passed `uq validate`, and `uq run` then ended in
        # "ValueError: Maximum allowed dimension exceeded".
        (dict(m1=10 ** 20, m2=2), f"m1: must be <= {bench.INTP_MAX}, got {10 ** 20}; "
                                  f"m1*m2: must be <= {bench.INTP_MAX}, got {2 * 10 ** 20}"),
        (dict(m1=2 ** 32, m2=2 ** 32),
         f"m1*m2: must be <= {bench.INTP_MAX}, got {2 ** 64}"),
        (dict(n=10 ** 20), f"n: must be <= {bench.INTP_MAX}, got {10 ** 20}"),
        (dict(kind="risk", n_grid=[10 ** 20]),
         f"n_grid: entries must be <= {bench.INTP_MAX}, got [{10 ** 20}]"),
        # The first passed `uq validate`, and `uq run` then ended in
        # "ValueError: Maximum allowed dimension exceeded"; the second ran out
        # of memory building its random starts; the third's dry run of every
        # separated truth did not return; the fourth ended `uq run` in a
        # MemoryError while building its jobs.
        (dict(kind="test_power", model="bernoulli", m1=6, m2=6, n=20, reps=1,
              separation_grid=[0.0], cal_reps=10 ** 20),
         f"cal_reps: must be <= {bench.MAX_REPLICATES}, got {10 ** 20}"),
        (dict(kind="test_power", model="bernoulli", m1=6, m2=6, n=20, reps=1,
              separation_grid=[0.0], restarts=10 ** 20),
         f"restarts: must be <= {bench.MAX_RESTARTS}, got {10 ** 20}"),
        (dict(kind="test_power", model="bernoulli", m1=6, m2=6, n=20, a=30.0, reps=10 ** 20,
              separation_grid=[0.0, 5.0]),
         f"reps: must be <= {bench.MAX_REPLICATES}, got {10 ** 20}"),
        (dict(reps=10 ** 12), f"reps: must be <= {bench.MAX_REPLICATES}, got {10 ** 12}"),
        (dict(kind="diameter", k0=1, k_truth=2, reps=bench.MAX_REPLICATES // 2 + 1),
         f"reps: times the 2 grid cells of diameter must be <= "
         f"{bench.MAX_REPLICATES}, got {bench.MAX_REPLICATES // 2 + 1}"),
        # Its 60 records pooled 40 null ones into the size, while size_se
        # divided by reps = 20.
        (dict(kind="test_power", model="bernoulli", a=30.0, reps=20,
              separation_grid=[0.0, 0.0, 4.0]),
         "separation_grid: entries must be distinct, got [0.0, 0.0, 4.0]"),
        # Its replicates 3-5 were byte copies of 0-2, and its adaptivity
        # ratio read 1.0.
        (dict(kind="diameter", k0=1, k_truth=1, reps=3),
         "k_truth: must differ from k0=1 in a diameter run, got 1"),
        # The first passed `uq validate`, and `uq run` exited 0 with T_n 0.0
        # at both separations: the zero-level floor of the infimum search
        # overflowed to inf.  The other two exited 2 only at run time, with
        # messages that named no field.
        (dict(kind="test_power", m1=4, m2=4, n=8, k0=1, a=1e300, reps=1,
              separation_grid=[0.0, 1.0], cal_reps=100),
         "a: must be <= 1e+100, got 1e+300"),
        (dict(a=1e308), "a: must be <= 1e+100, got 1e+308"),
        (dict(noise={"kind": "scaled-rademacher", "sigma": 1e300, "U": 1e300}),
         "noise: U must be <= 1e+100, got 1e+300"),
        # The one-shot model observes each entry at most once, at every grid cell.
        (dict(kind="risk", model="bernoulli", n_grid=[50, 101]),
         "n_grid: entries must be <= m1*m2=100 in the bernoulli model, got [50, 101]"),
        # It passed `uq validate`, and `uq run` then ended in "OverflowError:
        # int too large to convert to float" at the adaptive set's radius.
        (dict(model="bernoulli", method="adaptive_ci", m1=8, m2=8, n=32, k0=1, k=10 ** 330),
         f"k: must exceed k0=1 and be <= 8 in adaptive_ci, got {10 ** 330}"),
    ], ids=["lam", "restarts", "cal_reps", "diameter-k0", "power-a",
            "power-grid", "power-a-late-replicate", "power-cal-reps", "adaptive-cal-reps",
            "lbdemo-k", "lbdemo-rho", "lbdemo-n", "seed", "reps-float", "m1-float",
            "m1-bool", "power-restarts-float", "lbdemo-reveal_sigma", "lam-inf", "noise-U-inf",
            "noise-sigma-nan", "rss-z-nan", "K", "lbdemo-alpha_test-unknown",
            "lbdemo-alpha_test-nan-unknown", "a-nan", "a-inf", "risk-k_grid", "risk-n_grid",
            "two-point-noise",
            "u_ci-n", "theoretical-sigma0", "risk-sigma0", "lbdemo-trimmed-n",
            "noise-sigma-bool", "risk-k_grid-scalar", "kind-list", "out-int", "out-null",
            "out-string",
            "a-huge-int", "noise-sigma-huge-int", "power-grid-huge-int", "m1-huge",
            "m1*m2-huge", "n-huge", "risk-n_grid-huge", "cal_reps-huge", "restarts-huge",
            "power-reps-huge", "reps-huge", "diameter-reps-times-cells",
            "power-grid-repeated", "diameter-k_truth-is-k0", "power-a-overflows",
            "a-overflows", "noise-U-overflows", "risk-bernoulli-n_grid", "adaptive-k-huge"])
    def test_fails_closed(self, tmp_path, capsys, overrides, message):
        raw = {**coverage_config().to_dict(), **overrides}
        with pytest.raises(DomainError) as exc:
            ExperimentConfig.from_dict(raw)
        assert str(exc.value) == message
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_infeasible_noise_law(self, tmp_path, capsys):
        cfg = coverage_config().to_dict()
        cfg["noise"] = {"kind": "truncated-gaussian", "sigma": 0.5, "U": 0.5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: noise: truncated Gaussian on [-0.5, 0.5] cannot reach "
            "variance 0.25 (supremum 0.0833333)\n")

    def test_unbracketed_noise_scale_fails_validation(self, tmp_path, capsys, monkeypatch):
        # The scale is solved when the spec is built, so `uq validate` sees
        # a failure that used to surface only when a run first drew noise.
        def unbracketed(sigma, U):
            raise DomainError("failed to bracket the truncated Gaussian scale")
        monkeypatch.setattr(core, "_truncated_gaussian_scale", unbracketed)
        cfg = coverage_config().to_dict()
        cfg["noise"] = {"kind": "truncated-gaussian", "sigma": 0.25, "U": 0.5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: noise: failed to bracket the truncated Gaussian scale\n")

    def test_noise_object_runs_as_its_spec(self, tmp_path):
        # Built by keyword, a config turns a noise object into its NoiseSpec
        # as from_dict does; such a run once ended in AttributeError.
        as_object = coverage_config(noise={"kind": "uniform", "sigma": 0.1, "U": 1.0}, reps=4)
        as_spec = coverage_config(noise=NoiseSpec("uniform", 0.1, 1.0), reps=4)
        assert records_bytes(as_object, tmp_path / "object.csv") == records_bytes(
            as_spec, tmp_path / "spec.csv")

    @pytest.mark.parametrize("overrides, message", [
        (dict(noise="x"), "noise: must be an object with kind, sigma and U, got str"),
        (dict(kind="test_power", model="bernoulli", a=30.0,
              noise={"kind": "uniform", "sigma": 0.5, "U": 0.5}),
         "noise: uniform noise with sigma=0.5 needs half-width 0.866025 > U=0.5"),
    ], ids=["string", "power-malformed-object"])
    def test_bad_noise_fails_when_built(self, overrides, message):
        with pytest.raises(DomainError) as exc:
            coverage_config(**overrides)
        assert str(exc.value) == message

    def test_keyword_and_from_dict_build_equal_configs(self):
        raw = {"kind": "test_power", "model": "bernoulli", "a": 30.0, "reps": 2,
               "noise": {"kind": "uniform", "sigma": 0.25, "U": 0.5},
               "separation_grid": [0.0, 5.0], "k_grid": [1, 2], "n_grid": [100, 200]}
        by_keyword = ExperimentConfig(**raw)
        assert by_keyword == ExperimentConfig.from_dict(raw)
        assert by_keyword.noise == NoiseSpec("uniform", 0.25, 0.5)
        assert (by_keyword.separation_grid, by_keyword.k_grid, by_keyword.n_grid) == (
            (0.0, 5.0), (1, 2), (100, 200))

    def test_fields_are_frozen(self):
        cfg = coverage_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.reps = -1
        assert cfg.reps == 12

    def test_lbdemo_requires_square(self):
        with pytest.raises(DomainError, match="square"):
            ExperimentConfig(kind="lbdemo", m1=10, m2=12, n=50, k0=1, k=2, v=0.1)


class TestCoverage:
    def test_report_and_audit(self):
        rep = run(coverage_config())
        assert len(rep.records) == 12
        # every aggregate is recomputable from the records
        assert rep.aggregates["coverage"] == pytest.approx(
            np.mean([r["covered"] for r in rep.records]))
        assert rep.aggregates["radius_sq_median"] == pytest.approx(
            np.median([r["radius_sq"] for r in rep.records]))
        assert rep.aggregates["flagged"] == sum(r["flag"] for r in rep.records)
        assert rep.config == coverage_config().to_dict()

    def test_noiseless_data_covers_always(self):
        cfg = coverage_config(m1=5, m2=5, n=500, reps=8,
                              noise=NoiseSpec("scaled-rademacher", 0.0, 1.0))
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = run(cfg)
        assert rep.aggregates["coverage"] == 1.0

    def test_rss_method(self):
        rep = run(coverage_config(method="rss_ci", reps=8))
        assert len(rep.records) == 8
        assert rep.aggregates["coverage"] >= 0.9

    def test_truncated_gaussian_pool(self):
        # Building the spec solves the noise scale before the pool forks, so
        # the workers inherit it; the records do not depend on where it was solved.
        core._truncated_gaussian_scale.cache_clear()
        cfg = coverage_config(noise=NoiseSpec("truncated-gaussian", 0.25, 0.5), reps=6)
        assert core._truncated_gaussian_scale.cache_info().currsize == 1
        rep2 = run(cfg, threads=2)
        assert core._truncated_gaussian_scale.cache_info().misses == 1
        assert run(cfg, threads=1).records == rep2.records

    @pytest.mark.filterwarnings("ignore:n=9000 outside the recommended range:RuntimeWarning")
    def test_center_beats_the_zero_matrix(self):
        # The radius is nearly all slack at every shape the criteria run, so
        # coverage and the radius ratio pass with a zero center too.  Here,
        # with about 2,000 couples, the center's risk is about a fifth of the
        # zero matrix's.
        cfg = coverage_config(m1=30, m2=30, n=9000, reps=20, seed=111)
        rep = run(cfg)
        zero_risk = np.median([
            estimate.estimator_risk(np.zeros((30, 30)), synth.make_low_rank(
                30, 30, 1, a=1.0, seed=synth.child_seed(cfg.seed, 10, r)))
            for r in range(cfg.reps)])
        assert rep.aggregates["risk_median"] < 0.5 * zero_risk

    def test_adaptive_method(self):
        cfg = coverage_config(model="bernoulli", method="adaptive_ci",
                              m1=12, m2=12, n=100, k0=1, k=3, reps=8)
        rep = run(cfg)
        assert rep.aggregates["coverage"] >= 0.8


class TestDiameter:
    def test_ratio_at_least_for_higher_rank(self):
        cfg = coverage_config(kind="diameter", k_truth=3, k0=1, reps=20,
                              m1=16, m2=16, n=256)
        rep = run(cfg)
        assert rep.aggregates["adaptivity_ratio"] >= 1.0
        ks = {r["k_truth"] for r in rep.records}
        assert ks == {1, 3}

    def test_adaptive_bimodal(self):
        cfg = ExperimentConfig(kind="diameter", model="bernoulli", m1=12, m2=12,
                               n=100, k_truth=3, k0=1, a=1.0, noise=RADEMACHER,
                               alpha=0.1, reps=10, seed=2, method="adaptive_ci")
        rep = run(cfg)
        K = bernoulli_uq.ADAPTIVE_K
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
        rep = run(cfg)
        assert len(rep.records) == 15 * 4
        assert set(rep.aggregates["risk_median"]) == {
            "k=1,n=72", "k=1,n=100", "k=2,n=72", "k=2,n=100"}
        assert math.isfinite(rep.aggregates["slope_k"])
        assert math.isfinite(rep.aggregates["slope_inv_n"])

    def test_matrix_lasso_route(self):
        cfg = ExperimentConfig(kind="risk", model="trace", m1=10, m2=10, n=100,
                               k_truth=1, a=1.0, noise=RADEMACHER, reps=6, seed=4)
        rep = run(cfg)
        assert all(r["risk"] >= 0 for r in rep.records)


class TestTestPower:
    def test_zero_separation_is_size(self):
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=10,
                               m2=10, n=60, k0=1, a=9.0, noise=RADEMACHER,
                               alpha=0.1, reps=10, seed=6,
                               separation_grid=(0.0, 4.0))
        rep = run(cfg)
        assert rep.aggregates["size"] == pytest.approx(
            np.mean([r["reject"] for r in rep.records if r["separation"] == 0.0]))

    def test_no_zero_separation_has_no_size(self):
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", a=30.0, reps=2,
                               separation_grid=(4.0,))
        records = [{"separation": 4.0, "reject": 1}, {"separation": 4.0, "reject": 0}]
        agg = bench._power_aggregates(cfg, records)
        assert math.isnan(agg["size"]) and math.isnan(agg["size_se"])
        assert agg["power_max_separation"] == 0.5

    def test_rank_zero_truths(self):
        # The rank-0 class is {0}: its null truth is the zero matrix, and a
        # separated truth has rank 1 at the asked distance, in rank-1 rate
        # units (the rate at rank 0 is zero).
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=20, m2=20,
                               n=300, k0=0, a=30.0, noise=RADEMACHER, alpha=0.1,
                               reps=30, seed=7, separation_grid=(0.0, 25.0))
        rep = run(cfg)
        assert rep.aggregates["size"] == 0.0
        assert rep.aggregates["power_max_separation"] == 1.0
        assert not np.any(bench._power_truth(cfg, 0.0, 0))
        M = bench._power_truth(cfg, 25.0, 30)
        assert core.numerical_rank(M) == 1
        unit = math.sqrt(core.minimax_rate_sq(20, 20, 1, 300))
        assert np.linalg.norm(M) == pytest.approx(25.0 * unit, rel=1e-12)

    def test_run_builds_each_separated_truth_once(self, tmp_path, monkeypatch):
        # `uq run` of power-small at seed 1: building the config dry-runs the
        # 30 separated truths and the replicates reuse them, serial or in a
        # pool of 2, with the records of a run whose replicates build them again.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(WORKLOADS.config_for("power-small", 1)))
        builds = multiprocessing.get_context("fork").Value("i", 0)  # pool workers count too

        def counting(*args, **kwargs):
            with builds.get_lock():
                builds.value += 1
            return separated_truth(*args, **kwargs)

        def built(*flags) -> tuple:
            monkeypatch.setattr(bench, "_kept_truths", (None, {}))
            builds.value = 0
            out = tmp_path / "out"
            assert cli.main(["run", "--config", str(path), "--out", str(out), *flags]) == 0
            return builds.value, (out / "records.csv").read_bytes()

        monkeypatch.setattr(bench, "separated_truth", counting)
        with monkeypatch.context() as mp:
            mp.setattr(bench, "KEPT_TRUTH_BYTES", 0)
            count, rebuilt = built()
        assert count == 60
        assert built() == (30, rebuilt)
        assert built("--threads", "2") == (30, rebuilt)

    def test_kept_truths_serve_only_an_equal_config(self):
        config = functools.partial(
            ExperimentConfig, kind="test_power", model="bernoulli", m1=10, m2=10, n=60, k0=1,
            a=9.0, noise=RADEMACHER, alpha=0.1, reps=3, separation_grid=(0.0, 4.0))
        other_cfg = config(seed=7)
        cfg = config(seed=6)  # built last, so its dry run's truths are the kept ones
        kept = bench._power_truth(cfg, 4.0, 3)
        assert not kept.flags.writeable  # a replicate cannot change a later one's truth
        # A pool worker unpickles an equal copy, which runs no dry run of its own.
        assert bench._power_truth(pickle.loads(pickle.dumps(cfg)), 4.0, 3) is kept
        other = bench._power_truth(other_cfg, 4.0, 3)
        assert other is not kept and not np.array_equal(other, kept)

    def test_samples_in_the_bernoulli_model_whatever_model_says(self, tmp_path):
        # The low-rank test belongs to the one-shot model; `model` is read by
        # `risk` alone, so a test_power config that names the trace model
        # validates and writes the records of the bernoulli model.
        cfg = ExperimentConfig(kind="test_power", model="trace", m1=10, m2=10,
                               n=60, k0=1, a=9.0, noise=RADEMACHER, alpha=0.1,
                               reps=4, seed=6, separation_grid=(0.0, 4.0), restarts=1)
        assert cfg.sampling_model() == "bernoulli"
        assert records_bytes(cfg, tmp_path / "trace.csv") == records_bytes(
            dataclasses.replace(cfg, model="bernoulli"), tmp_path / "bernoulli.csv")


#: The golden configs of ``golden_records.json``, by name.
GOLDEN_CONFIGS = {
    f"golden-{name}": ExperimentConfig.from_dict(golden["config"]) for name, golden in
    json.loads(Path(__file__).with_name("golden_records.json").read_text())["records"].items()}


class TestEngine:
    # One small config per kind; run() looks each kind up in bench.KINDS.
    CONFIGS = {
        "coverage": coverage_config(reps=3),
        "diameter": coverage_config(kind="diameter", k_truth=2, k0=1, reps=2),
        "risk": ExperimentConfig(kind="risk", model="bernoulli", m1=6, m2=6, n=30,
                                 reps=2, seed=1, k_grid=(1, 2)),
        "test_power": ExperimentConfig(kind="test_power", model="bernoulli", m1=10, m2=10,
                                       n=60, k0=1, a=9.0, noise=RADEMACHER, reps=2, seed=6,
                                       separation_grid=(0.0, 4.0), cal_reps=100, restarts=1),
        "lbdemo": ExperimentConfig(kind="lbdemo", model="bernoulli", m1=12, m2=12, n=36,
                                   k=2, k0=1, v=0.05, reps=2, cal_reps=5, seed=3),
    }

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_records_carry_the_kind_columns(self, kind):
        rep = run(self.CONFIGS[kind])
        assert rep.columns == list(bench.KINDS[kind].columns)
        assert rep.records and all(set(rep.columns) <= set(rec) for rec in rep.records)
        assert rep.aggregates["flagged"] == sum(rec.get("flag", 0) for rec in rep.records)

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_a_run_without_records_reports_no_result(self, kind, monkeypatch):
        # Every aggregate computed from records is NaN, and so is each error
        # rate of an lbdemo row; only the count of flagged records and lbdemo's
        # rho, which the config fixes, are numbers.  No replicate runs the
        # low-rank test, so nothing calibrates its threshold.
        def uncalled(*args, **kwargs):
            raise AssertionError("a run without replicates calibrated a threshold")

        monkeypatch.setattr(bench.bernoulli_uq, "u_alpha_calibrated", uncalled)
        rep = run(dataclasses.replace(self.CONFIGS[kind], reps=0))
        aggregates = {k: v for k, v in rep.aggregates.items() if k not in ("flagged", "rho")}
        values = [x for v in aggregates.values()
                  for x in (v.values() if isinstance(v, dict) else [v])]
        values += [row[c] for row in rep.records for c in ("type1", "type2", "error_sum")]
        assert values and all(math.isnan(x) for x in values)
        assert rep.aggregates["flagged"] == 0

    def test_jobs_run_grid_by_grid_then_replicate(self):
        rep = run(self.CONFIGS["risk"])
        assert [(rec["replicate"], rec["k"], rec["n"]) for rec in rep.records] == [
            (0, 1, 30), (1, 1, 30), (2, 2, 30), (3, 2, 30)]

    # The golden configs run here in every environment; their digests are
    # compared only where they were captured (tests/test_golden.py).
    @pytest.mark.parametrize("name", sorted(CONFIGS) + sorted(GOLDEN_CONFIGS))
    def test_records_byte_identical_across_pool_sizes(self, name, tmp_path):
        # Every job keeps its own seed and results come back in job order,
        # whichever worker ran them.
        cfg = {**self.CONFIGS, **GOLDEN_CONFIGS}[name]
        written = {records_bytes(cfg, tmp_path / f"threads{threads}.csv", threads)
                   for threads in (1, 2, 3)}
        assert len(written) == 1


def _fail_at_three(x):
    if x == 3:
        raise DomainError("job 3 is out of range")
    return x


#: Per-job run counts shared with forked pool workers (see TestPoolMap).
_RUNS = None


def _count_run(i):
    with _RUNS.get_lock():
        _RUNS[i] += 1
    return i


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


class TestPoolMap:
    def test_results_in_job_order_and_the_pool_closes(self):
        map_fn, pool = bench._map_for(2)
        try:
            assert map_fn(abs, range(-9, 0)) == list(range(9, 0, -1))
            # The shared counter starts again at every map.
            assert map_fn(abs, []) == []
            assert map_fn(abs, (-1,)) == [1]
        finally:
            pool.close()
            pool.join()

    def test_jobs_are_handed_out_one_at_a_time(self):
        # While one worker holds the slow first job, the other takes every
        # job after it; a chunked map would have sent job 1 with job 0.
        map_fn, pool = bench._map_for(2)
        try:
            pids = map_fn(_pid_after, [0.5] + [0.0] * 8)
        finally:
            pool.close()
            pool.join()
        assert pids[0] not in pids[1:] and len(set(pids[1:])) == 1

    def test_every_job_runs_once_with_more_workers_than_cores(self, monkeypatch):
        # A lost update of the shared counter would hand one index to two
        # workers; the forked workers count every run in shared memory.
        jobs = 2000
        monkeypatch.setattr(sys.modules[__name__], "_RUNS",
                            multiprocessing.get_context("fork").Array("i", jobs))
        map_fn, pool = bench._map_for(min((os.cpu_count() or 1) + 1, 9))
        got = []
        try:
            mapper = threading.Thread(target=lambda: got.append(map_fn(_count_run, range(jobs))))
            mapper.start()
            mapper.join(timeout=60)
            assert not mapper.is_alive()
        finally:
            pool.close()
            pool.join()
        assert got == [list(range(jobs))]
        assert list(_RUNS) == [1] * jobs

    def test_worker_error_reaches_the_caller(self):
        map_fn, pool = bench._map_for(2)
        try:
            with pytest.raises(DomainError, match="job 3 is out of range"):
                map_fn(_fail_at_three, range(40))
            assert map_fn(_fail_at_three, range(3)) == [0, 1, 2]
        finally:
            pool.close()
            pool.join()



class TestSeparatedTruth:
    def test_exact_separation(self):
        rho = 10.0
        M = separated_truth(16, 16, 1, a=10.0, rho=rho, seed=7)
        s = np.linalg.svd(M, compute_uv=False)
        assert math.sqrt(np.sum(s[1:] ** 2)) == pytest.approx(rho, rel=1e-9)

    def test_entry_bound_enforced(self):
        with pytest.raises(DomainError):
            separated_truth(10, 10, 1, a=0.05, rho=40.0, seed=8)


class TestLbdemoKind:
    def test_runs_and_echoes(self):
        cfg = ExperimentConfig(kind="lbdemo", model="bernoulli", m1=24, m2=24,
                               n=144, k=2, k0=1, v=0.1, reps=6, cal_reps=12,
                               seed=9)
        rep = run(cfg)
        assert rep.config["v"] == 0.1
        assert {r["test_name"] for r in rep.records} >= {"second_moment"}
        assert rep.aggregates["min_error_sum"] >= 0.0


class TestRecordsCsv:
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

    @pytest.mark.parametrize("raw, line", [
        (WORKLOADS.config_for("lbdemo-large", 1),
         "ignored by kind=lbdemo: noise, alpha"),
        # The confidence set and the low-rank test fix the sampling model.
        (WORKLOADS.config_for("uci-small", 1),
         "ignored by kind=coverage method=u_ci: model"),
        (WORKLOADS.config_for("power-small", 1),
         "ignored by kind=test_power: model"),
        ({"kind": "coverage", "method": "u_ci", "m1": 8, "m2": 8, "n": 64, "restarts": 2},
         "ignored by kind=coverage method=u_ci: restarts"),
        # Once rejected over k0 and k, which only the adaptive set and the
        # low-rank test read.
        ({"kind": "risk", "m1": 4, "m2": 4, "n": 16, "method": "adaptive_ci", "k0": 4, "k": 2,
          "reps": 2}, "ignored by kind=risk: method, k0, k"),
        # Once rejected over k_truth's range, which only coverage, diameter
        # and risk read.
        (LBDEMO_K_TRUTH, "ignored by kind=lbdemo: k_truth"),
        ({"kind": "test_power", "model": "bernoulli", "m1": 8, "m2": 8, "n": 32, "k0": 1,
          "k_truth": 0, "reps": 2, "separation_grid": [0.0]},
         "ignored by kind=test_power: model, k_truth"),
    ], ids=["lbdemo-large", "uci-small", "power-small", "u_ci-restarts",
            "risk-k0-k", "lbdemo-k_truth", "power-k_truth"])
    def test_validate_names_the_fields_a_run_ignores(self, tmp_path, capsys, raw, line):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 0
        ok, *rest = capsys.readouterr().out.splitlines()
        assert ok.startswith("config ok: kind=")
        assert rest == ([line] if line else [])
        if raw.get("reps") == 2:  # each config once rejected runs, too
            assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
    def test_every_benchmark_config_builds(self, tmp_path, capsys, name):
        # The benchmark builds each workload's config with from_dict and runs
        # it with `uq run`, so a schema change that would break one fails here.
        raw = WORKLOADS.config_for(name, 1)
        assert ExperimentConfig.from_dict(raw).kind == raw["kind"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"config ok: kind={raw['kind']} ")

    def test_validate_prints_the_sampling_model(self, tmp_path, capsys):
        # The confidence set, the low-rank test and lbdemo fix the model a
        # run samples in, whatever `model` says; only `risk` reads `model`.
        lines = []
        for raw in (LBDEMO_K_TRUTH,
                    {"kind": "coverage", "m1": 8, "m2": 8, "n": 64, "reps": 2},
                    {"kind": "coverage", "model": "trace", "method": "adaptive_ci", "m1": 8,
                     "m2": 8, "n": 64, "reps": 2},
                    {"kind": "test_power", "model": "trace", "m1": 8, "m2": 8, "n": 32,
                     "reps": 2, "separation_grid": [0.0]},
                    {"kind": "risk", "model": "bernoulli", "m1": 8, "m2": 8, "n": 64, "reps": 2}):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(raw))
            assert cli.main(["validate", "--config", str(path)]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines == ["config ok: kind=lbdemo model=bernoulli 8x8 n=32 reps=2 seed=0",
                         "config ok: kind=coverage model=trace 8x8 n=64 reps=2 seed=0",
                         "config ok: kind=coverage model=bernoulli 8x8 n=64 reps=2 seed=0",
                         "config ok: kind=test_power model=bernoulli 8x8 n=32 reps=2 seed=0",
                         "config ok: kind=risk model=bernoulli 8x8 n=64 reps=2 seed=0"]

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
        # line.  Building the config catches every such config it knows of,
        # so the run is made to raise.
        path = self.write_config(tmp_path)

        def failing_run(config, threads=1):
            raise DomainError("separated truth needs entries up to 21")

        monkeypatch.setattr(cli, "run", failing_run)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: separated truth needs entries up to 21\n")

    def test_worker_domain_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # A replicate that raises inside a pool worker ends the run as a
        # serial one would: exit 2 with one line, and no output written.
        path = self.write_config(tmp_path)
        real = bench.make_low_rank

        def failing(m1, m2, k, *, a, seed):
            if seed == synth.child_seed(5, 10, 3):
                raise DomainError("replicate 3 cannot draw its truth")
            return real(m1, m2, k, a=a, seed=seed)

        monkeypatch.setattr(bench, "make_low_rank", failing)  # inherited by the fork
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--threads", "2"])
        assert code == 2
        assert capsys.readouterr().err == "config error: replicate 3 cannot draw its truth\n"
        assert not (tmp_path / "out").exists()

    def test_run_rejects_small_entry_bound(self, tmp_path, capsys):
        raw = {"kind": "test_power", "model": "bernoulli", "m1": 20, "m2": 20, "n": 300,
               "k0": 1, "a": 1.0, "reps": 1, "seed": 7, "separation_grid": [25.0],
               "cal_reps": 100}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a: separated truth needs entries up to")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_run_builds_its_config_once_after_overrides(self, tmp_path, monkeypatch):
        # The overrides are set on the JSON object, so the config is built,
        # and its rules between fields checked, once and with them.
        path = self.write_config(tmp_path)
        built, checked = [], []
        real_build, real_errors = ExperimentConfig.__post_init__, ExperimentConfig._errors

        def counting_build(config):
            real_build(config)
            built.append(config.reps)

        def counting_errors(config):
            checked.append(config.reps)
            return real_errors(config)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting_build)
        monkeypatch.setattr(ExperimentConfig, "_errors", counting_errors)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--reps", "3"])
        assert code == 0
        assert built == checked == [3]

    @pytest.mark.parametrize("field, value, message", [
        ("reps", -1, "reps: must be >= 0, got -1"),
        ("m1", "10", "m1: must be an integer, got '10'"),
    ], ids=["range", "type"])
    def test_run_rejects_bad_field(self, tmp_path, capsys, field, value, message):
        cfg = coverage_config(reps=5).to_dict()
        cfg[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape, message", [
        ("top-level-string", "config must be a JSON object, got str"),
        ("noise-list", "noise: must be an object with kind, sigma and U, got list"),
        ("noise-string", "noise: must be an object with kind, sigma and U, got str"),
    ])
    def test_rejects_config_of_wrong_shape(self, tmp_path, capsys, shape, message):
        # Each of these once ended in a traceback: the string config at both
        # commands, the two noise values only at `uq run`.
        if shape == "top-level-string":
            raw = "abc"
        else:
            raw = coverage_config(reps=5).to_dict()
            raw["noise"] = [1, 2] if shape == "noise-list" else "x"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*argv, "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_pool_without_fork_exits_two(self, tmp_path, capsys, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        calibrations = []

        def calibrated(*args, **kwargs):
            calibrations.append(args)
            return 1.0

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(bernoulli_uq, "u_alpha_calibrated", calibrated)
        cfg = ExperimentConfig(kind="test_power", model="bernoulli", m1=10, m2=10,
                               n=60, k0=1, a=9.0, noise=RADEMACHER, alpha=0.1,
                               reps=2, seed=6, separation_grid=(0.0,))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--threads", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --threads 2 needs the 'fork' start method")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        # The run stops before its threshold calibration.
        assert calibrations == []
        # A serial run never asks for a pool.
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(calibrations) == 1

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exits_two(self, tmp_path, capsys, monkeypatch, threads):
        # Such a run once ran serially and exited 0.
        stages = []
        monkeypatch.setattr(bench, "_threshold", lambda cfg: stages.append(cfg))
        path = self.write_config(tmp_path)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--threads", threads])
        assert code == 2
        assert capsys.readouterr().err == f"config error: --threads: must be >= 1, got {threads}\n"
        assert not (tmp_path / "out").exists()
        assert stages == []

    @pytest.mark.parametrize("threads", [bench.MAX_THREADS + 1, 100000])
    def test_threads_above_the_cap_exit_two_before_any_fork(self, tmp_path, capsys,
                                                             monkeypatch, threads):
        # Such a count once forked that many workers.  The cap admits the
        # pools that the acceptance run (8) and TestPoolMap (up to 9) start.
        def no_process(method=None):
            raise AssertionError("a pool above the cap asked for a start method")

        stages = []
        monkeypatch.setattr(multiprocessing, "get_context", no_process)
        monkeypatch.setattr(bench, "_threshold", lambda cfg: stages.append(cfg))
        assert bench.MAX_THREADS >= 9
        with pytest.raises(DomainError, match=f"^--threads: must be <= {bench.MAX_THREADS}, "
                                              f"got {threads}$"):
            bench._map_for(threads)
        path = self.write_config(tmp_path)
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--threads", str(threads)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --threads: must be <= {bench.MAX_THREADS}, got {threads}\n")
        assert not (tmp_path / "out").exists()
        assert stages == []

    @pytest.mark.parametrize("out", ["afile/sub", "afile"])
    def test_unusable_out_exits_two_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        # With a regular file in the path, the run once went to its end and
        # then ended in a traceback from the mkdir.
        def uncalled(config, threads=1):
            raise AssertionError("the run started before its output directory was made")

        monkeypatch.setattr(cli, "run", uncalled)
        path = self.write_config(tmp_path)
        (tmp_path / "afile").write_text("not a directory\n")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write to {tmp_path / out}: ")
        assert err.count("\n") == 1
        assert (tmp_path / "afile").read_text() == "not a directory\n"

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys):
        # The output directory is made before the run; a run that fails
        # takes away what was made for it, and leaves what was there.
        path = self.write_config(tmp_path)
        (tmp_path / "there").mkdir()
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "there/a/b"),
                         "--threads", "0"])
        assert code == 2
        assert capsys.readouterr().err == "config error: --threads: must be >= 1, got 0\n"
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["there"]
        assert list((tmp_path / "there").iterdir()) == []

    def test_run_seed_and_reps_override(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "out2"
        code = cli.main(["run", "--config", str(path), "--out", str(out),
                         "--seed", "99", "--reps", "3"])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["seed"] == 99
        assert payload["n_records"] == 3


class TestBlasThreads:
    def test_records_do_not_depend_on_openblas_threads(self, tmp_path):
        # A run sets both bundled OpenBLAS copies to one thread.  Left at
        # two, or unset, which is one per core, a multithreaded reduction sums
        # in another order, and the risk of two of these replicates moves in
        # the last digit.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kind": "coverage", "m1": 200, "m2": 200, "n": 20000,
                                    "k_truth": 3, "reps": 6, "seed": 3}))
        src = Path(cli.__file__).resolve().parents[1]
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        written = []
        for threads in ("2", "1", None):
            out = tmp_path / f"blas{threads}"
            env = {**unset, "PYTHONPATH": str(src)}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run([sys.executable, "-m", "mcuq.cli", "run", "--config", str(path),
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=300)
            written.append((out / "records.csv").read_bytes())
        assert written[0] == written[1] == written[2]
        # A library run pins the BLAS threads of its own process and of the
        # pool it forks, so serially and at two workers it writes uq run's
        # bytes at two BLAS threads.
        library = [tmp_path / "serial.csv", tmp_path / "pool.csv"]
        subprocess.run([sys.executable, "-c", f"""
import json
from mcuq.bench import ExperimentConfig, run, write_records_csv
cfg = ExperimentConfig.from_dict(json.loads(open({str(path)!r}).read()))
write_records_csv(run(cfg), {str(library[0])!r})
write_records_csv(run(cfg, threads=2), {str(library[1])!r})
"""], env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(src)}, check=True,
                       capture_output=True, timeout=300)
        assert [csv.read_bytes() for csv in library] == [written[1]] * 2

    def test_run_gives_the_caller_its_blas_threads_back(self):
        # The counts of both bundled OpenBLAS copies, read through their own
        # getters, before and after each run, and inside the runs that raise.
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", """
from mcuq import trace_uq
from mcuq.bench import ExperimentConfig, _openblas, run
from mcuq.core import DomainError

getters = [get for _, (get,) in _openblas("get_num_threads")]
counts = lambda: [get() for get in getters]

def raising(*args, **kwargs):
    raise DomainError(f"inside {counts()}")

cfg = ExperimentConfig(kind="coverage", m1=20, m2=20, n=200, reps=4, seed=1)
print("before", counts())
for threads in (1, 2):
    run(cfg, threads=threads)
    print("after", counts())
trace_uq.u_ci = raising
for threads in (1, 2):
    try:
        run(cfg, threads=threads)
    except DomainError as e:
        print(e)
    print("after", counts())
"""], env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(src)}, check=True,
                              capture_output=True, text=True, timeout=300)
        assert done.stdout.splitlines() == [
            "before [2, 2]", "after [2, 2]", "after [2, 2]",
            "inside [1, 1]", "after [2, 2]", "inside [1, 1]", "after [2, 2]"]


class TestZeroObservedData:
    # Each config passes `uq validate`, and one of its replicates observes
    # only zeros, so the data-driven lam sees no energy.  Such a run once
    # exited 2 with "lam must be positive, got 0.0".
    @pytest.mark.parametrize("raw", [
        {"kind": "risk", "model": "bernoulli", "m1": 2, "m2": 3, "n": 1,
         "noise": {"kind": "scaled-rademacher", "sigma": 0, "U": 0.5}, "reps": 3, "seed": 0},
        {"kind": "coverage", "model": "bernoulli", "method": "adaptive_ci", "m1": 1, "m2": 1,
         "n": 1, "k_truth": 1, "k0": 0, "k": 1, "a": 0.5, "cal_reps": 100,
         "noise": {"kind": "scaled-rademacher", "sigma": 0.5, "U": 0.5}, "reps": 1, "seed": 0},
    ], ids=["risk", "adaptive_ci"])
    def test_run_completes_with_zero_fit(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) in (0, 3)
        with open(out / "records.csv") as f:
            assert len(f.read().splitlines()) == 1 + raw["reps"]


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


class TestFlagsReachRecords:
    # Numerical trouble inside a replicate ends up in its record's flag
    # column, in the flagged count and in the exit code.
    @pytest.fixture
    def unconverged_lasso(self, monkeypatch):
        real = trace_uq.matrix_lasso

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(trace_uq, "matrix_lasso", unconverged)

    @pytest.fixture
    def gapped_search(self, monkeypatch):
        real = bernoulli_uq.infimum_stat

        def gapped(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), gap_flag=True)

        monkeypatch.setattr(bernoulli_uq, "infimum_stat", gapped)

    @pytest.mark.parametrize("method", ["u_ci", "rss_ci"])
    def test_unconverged_center(self, unconverged_lasso, method):
        M = synth.make_low_rank(10, 10, 1, a=1.0, seed=90)
        data = synth.sample_trace(M, 100, noise=RADEMACHER, seed=91)
        ball = (trace_uq.u_ci(data, 0.1, a=1.0, U=0.5) if method == "u_ci"
                else trace_uq.rss_ci(data, 0.1, a=1.0, sigma=0.5, U=0.5))
        assert ball.flags == ("center_not_converged",)
        rep = run(coverage_config(method=method, reps=3))
        assert [rec["flag"] for rec in rep.records] == [1, 1, 1]
        assert rep.aggregates["flagged"] == 3

    def test_unconverged_center_exits_three(self, unconverged_lasso, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(coverage_config(reps=2).to_dict()))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_search_gap(self, gapped_search):
        M = synth.make_low_rank(10, 10, 1, a=2.0, seed=92)
        data = synth.sample_bernoulli(M, 60, noise=RADEMACHER, seed=93)
        ball = bernoulli_uq.adaptive_ci(data, 1, 3, a=2.0, sigma=0.5, threshold=0.0)
        assert ball.flags == ("search_gap",)
        rep = run(ExperimentConfig(kind="diameter", model="bernoulli", method="adaptive_ci",
                                   m1=10, m2=10, n=60, k0=1, k=3, k_truth=3, a=2.0,
                                   noise=RADEMACHER, reps=2, restarts=2, cal_reps=100,
                                   seed=10))
        assert [rec["flag"] for rec in rep.records] == [1] * 4
        rep = run(TestEngine.CONFIGS["test_power"])
        assert [rec["flag"] for rec in rep.records] == [1] * 4
        assert rep.aggregates["flagged"] == 4


class TestMethodModelPairing:
    # Each confidence set belongs to one sampling model, and a coverage or
    # diameter run samples in it whatever `model` says.
    def test_adaptive_requires_bernoulli(self, tmp_path):
        cfg = coverage_config(method="adaptive_ci", model="trace", n=60, k0=1, k=3, reps=4)
        assert cfg.sampling_model() == "bernoulli"
        assert records_bytes(cfg, tmp_path / "trace.csv") == records_bytes(
            dataclasses.replace(cfg, model="bernoulli"), tmp_path / "bernoulli.csv")

    @pytest.mark.filterwarnings("ignore:n=150 outside the recommended range:RuntimeWarning")
    def test_u_ci_requires_trace(self, tmp_path):
        # More samples than entries: only the one-shot model bounds n by m1*m2.
        cfg = coverage_config(kind="diameter", method="u_ci", model="bernoulli", n=150,
                              k_truth=2, k0=1, reps=3)
        assert cfg.sampling_model() == "trace"
        assert records_bytes(cfg, tmp_path / "bernoulli.csv") == records_bytes(
            dataclasses.replace(cfg, model="trace"), tmp_path / "trace.csv")
        with pytest.raises(DomainError, match="n: must be <= m1[*]m2=100 in the bernoulli"):
            dataclasses.replace(cfg, method="adaptive_ci", k=3)


class TestTracerWraps:
    def test_every_wrapped_attribute_resolves(self):
        # perfbench/tracer.py wraps package functions by (module, attribute);
        # a name the package drops makes a traced benchmark run die.
        tracer = _load_perfbench()
        assert tracer.WRAPS
        for modname, attr, _layer, _note in tracer.WRAPS:
            assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)

    def test_notes_read_real_results(self):
        # The note functions read result attributes (LassoFit.n_iter and
        # .converged, PairedSet.n_pairs, InfimumResult.bracketed_zero and
        # .gap_flag); a renamed attribute would break only a traced run.
        tracer = _load_perfbench()
        M = synth.make_low_rank(10, 10, 1, a=1.0, seed=94)
        trace_data = synth.sample_trace(M, 100, noise=RADEMACHER, seed=95)
        fit = estimate.matrix_lasso(trace_data, 0.05, a=1.0)
        assert tracer._lasso_note((), {}, fit) == (fit.n_iter, fit.converged)
        pairs = trace_uq.pair_repeats(trace_data)
        assert tracer._pairs_note((), {}, pairs) == pairs.n_pairs > 0
        data = synth.sample_bernoulli(M, 60, noise=RADEMACHER, seed=96)
        res = bernoulli_uq.infimum_stat(data, 1, a=1.0, sigma=0.5, restarts=2, seed=97)
        assert tracer._infimum_note((), {}, res) == (res.bracketed_zero, res.gap_flag)

    def test_benchmark_entry_points(self):
        # perfbench/worker.py times bench.run on a config built by
        # ExperimentConfig.from_dict, starts and stops a fork pool of 2
        # through bench._map_for, and drives cli.main.
        assert callable(bench.run) and callable(bench.ExperimentConfig.from_dict)
        assert callable(cli.main)
        map_fn, pool = bench._map_for(2)
        try:
            assert list(map_fn(abs, [-1, 2, -3])) == [1, 2, 3]
        finally:
            pool.close()
            pool.join()
        assert bench._map_for(1) == (map, None)

    def test_sees_every_search_projection(self, monkeypatch):
        # The benchmark counts the infimum search's projections as the spans
        # of bernoulli_uq.truncate_rank.  A search that reached the
        # eigensolve another way would read fewer spans than the top-k
        # eigensolves counted here at LAPACK.
        tracer = _load_perfbench()
        eigensolves = []
        real_dsyevr = core.dsyevr

        def counting_dsyevr(G, **kwargs):
            if kwargs.get("range") == "I":
                eigensolves.append(G.shape[0])
            return real_dsyevr(G, **kwargs)

        M = synth.make_low_rank(20, 20, 3, a=3.0, seed=80)
        data = synth.sample_bernoulli(M, 300, noise=RADEMACHER, seed=81)
        monkeypatch.setattr(core, "dsyevr", counting_dsyevr)
        t = tracer.Tracer()
        t.install()
        try:
            bernoulli_uq.infimum_stat(data, 1, a=3.0, sigma=0.5, restarts=2, seed=82)
        finally:
            leftover = t.restore()
        assert leftover == []
        metrics = tracer.layer_metrics(t.spans)
        assert metrics["core.truncate_rank.calls"] == len(eigensolves) > 10
        assert metrics["bernoulli_uq.infimum_stat.projections_per_call"] == len(eigensolves)
