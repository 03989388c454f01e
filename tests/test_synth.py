import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

import mcuq
from mcuq import core, synth
from mcuq.core import DomainError, NoiseSpec
from mcuq.synth import (BernoulliDataset, bernoulli_mask, child_seed, make_low_rank, rng_for,
                        sample_bernoulli, sample_trace)


RADEMACHER = NoiseSpec("scaled-rademacher", 0.5, 0.5)


class TestMakeLowRank:
    def test_rank_one_and_entry_bound(self):
        M = make_low_rank(8, 5, 1, a=2.0, seed=3)
        assert np.linalg.matrix_rank(M) == 1
        assert np.max(np.abs(M)) == 2.0

    def test_exact_singular_count(self):
        M = make_low_rank(6, 6, 3, a=1.0, seed=9)
        s = np.linalg.svd(M, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == 3

    def test_deterministic(self):
        A = make_low_rank(7, 7, 2, a=1.0, seed=11)
        B = make_low_rank(7, 7, 2, a=1.0, seed=11)
        np.testing.assert_array_equal(A, B)

    def test_seed_changes_draw(self):
        A = make_low_rank(7, 7, 2, a=1.0, seed=11)
        B = make_low_rank(7, 7, 2, a=1.0, seed=12)
        assert not np.array_equal(A, B)

    def test_invalid_rank(self):
        with pytest.raises(DomainError):
            make_low_rank(4, 4, 5, a=1.0, seed=0)
        with pytest.raises(DomainError):
            make_low_rank(4, 4, 0, a=1.0, seed=0)

    @staticmethod
    def _stub_draws(monkeypatch, draws):
        """Make ``make_low_rank``'s generator hand out ``draws`` in turn."""
        it = iter(draws)
        stub = types.SimpleNamespace(standard_normal=lambda shape: next(it))
        monkeypatch.setattr(synth, "rng_for", lambda seed, *stream: stub)

    @staticmethod
    def _deficient_pair(rng):
        """Rank-1 factors for k=2: the left factor has two equal columns."""
        column = rng.standard_normal((9, 1))
        return [np.hstack([column, column]), rng.standard_normal((7, 2))]

    def test_redraws_a_rank_deficient_draw(self, monkeypatch):
        rng = rng_for(4)
        first = self._deficient_pair(rng)
        L, R = rng.standard_normal((9, 2)), rng.standard_normal((7, 2))
        self._stub_draws(monkeypatch, [*first, L, R])
        M = make_low_rank(9, 7, 2, a=1.5, seed=0)
        assert np.linalg.matrix_rank(M) == 2
        assert np.max(np.abs(M)) == 1.5
        want = L @ R.T
        np.testing.assert_allclose(M, want * (1.5 / np.max(np.abs(want))), rtol=1e-12)

    def test_ten_deficient_draws_raise(self, monkeypatch):
        rng = rng_for(4)
        # Exactly ten: an eleventh draw would end the stub with StopIteration.
        self._stub_draws(monkeypatch, [f for _ in range(10) for f in self._deficient_pair(rng)])
        with pytest.raises(synth.GenerationError):
            make_low_rank(9, 7, 2, a=1.5, seed=0)


class TestDrawNoise:
    def test_rademacher_support(self):
        draws = NoiseSpec("scaled-rademacher", 1.0, 2.0).draw(1000, rng_for(0))
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_mean_near_zero(self):
        draws = RADEMACHER.draw(10 ** 6, rng_for(1))
        assert abs(np.mean(draws)) <= 4 * 0.5 / 10 ** 3

    def test_uniform_moments_and_bound(self):
        spec = NoiseSpec("uniform", 0.5, 1.0)
        draws = spec.draw(10 ** 6, rng_for(2))
        assert np.max(np.abs(draws)) <= spec.U
        assert np.var(draws) == pytest.approx(0.25, rel=0.01)

    def test_uniform_needs_room(self):
        with pytest.raises(DomainError):
            NoiseSpec("uniform", 0.9, 1.0)

    def test_truncated_gaussian_variance(self):
        spec = NoiseSpec("truncated-gaussian", 1.0, 2.0)
        draws = spec.draw(10 ** 6, rng_for(3))
        assert np.max(np.abs(draws)) <= 2.0
        assert np.var(draws) == pytest.approx(1.0, rel=0.01)
        assert abs(np.mean(draws)) < 0.005

    def test_truncated_gaussian_unreachable_variance(self):
        # The family's variance supremum on [-U, U] is U^2/3.
        with pytest.raises(DomainError):
            NoiseSpec("truncated-gaussian", 0.99, 1.0)

    def test_zero_count_draws_nothing(self):
        # A calibration replicate may observe nothing.
        assert RADEMACHER.draw(0, rng_for(5)).shape == (0,)

    def test_sigma_above_bound_rejected(self):
        with pytest.raises(DomainError):
            NoiseSpec("scaled-rademacher", 2.0, 1.0)


def _truncated_gaussian_scale_reference(sigma, U):
    """The scale solve as it was with module-level ``brentq``/``norm`` and no memo."""

    def trunc_var(s):
        alpha = U / s
        z = 2 * norm.cdf(alpha) - 1
        return s * s * (1 - 2 * alpha * norm.pdf(alpha) / z)

    lo = sigma
    hi = sigma
    while trunc_var(hi) < sigma ** 2:
        hi *= 2.0
        if hi > 1e6 * U:
            raise DomainError("failed to bracket the truncated Gaussian scale")
    if trunc_var(lo) >= sigma ** 2:
        return lo
    return brentq(lambda s: trunc_var(s) - sigma ** 2, lo, hi, xtol=1e-14, rtol=1e-14)


class TestTruncatedGaussianScale:
    SPEC = NoiseSpec("truncated-gaussian", 0.5, 1.0)

    @pytest.mark.parametrize("seed", [3, 40])
    def test_draws_bit_identical_to_unmemoised_solve(self, monkeypatch, seed):
        M = make_low_rank(10, 12, 2, a=1.0, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(core, "_truncated_gaussian_scale",
                      _truncated_gaussian_scale_reference)
            spec = NoiseSpec("truncated-gaussian", 0.5, 1.0)
            ref_noise = spec.draw(5000, rng_for(seed))
            ref_data = sample_trace(M, 500, noise=spec, seed=seed + 1)
        np.testing.assert_array_equal(self.SPEC.draw(5000, rng_for(seed)), ref_noise)
        data = sample_trace(M, 500, noise=self.SPEC, seed=seed + 1)
        np.testing.assert_array_equal(data.rows, ref_data.rows)
        np.testing.assert_array_equal(data.cols, ref_data.cols)
        np.testing.assert_array_equal(data.y, ref_data.y)

    def test_building_the_spec_solves_its_scale(self):
        core._truncated_gaussian_scale.cache_clear()
        spec = NoiseSpec("truncated-gaussian", 0.5, 1.0)
        assert core._truncated_gaussian_scale.cache_info().misses == 1
        for seed in range(5):
            spec.draw(10, rng_for(seed))
        assert core._truncated_gaussian_scale.cache_info().misses == 1
        assert (core._truncated_gaussian_scale(0.5, 1.0)
                == _truncated_gaussian_scale_reference(0.5, 1.0))

    @pytest.mark.parametrize("kind, sigma", [("scaled-rademacher", 0.5),
                                             ("uniform", 0.5), ("truncated-gaussian", 0.0)])
    def test_other_specs_solve_nothing(self, kind, sigma):
        core._truncated_gaussian_scale.cache_clear()
        NoiseSpec(kind, sigma, 1.0).draw(10, rng_for(0))
        assert core._truncated_gaussian_scale.cache_info().misses == 0


def run_fresh(script: str) -> list:
    """Run ``script`` in a fresh interpreter that imports this checkout's
    ``mcuq`` and return the JSON value of its last stdout line."""
    src = str(Path(mcuq.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})\n"
                          + script], capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestImportFootprint:
    # Fresh interpreters: this one has imported scipy.stats and scipy.linalg above.
    def test_scipy_stats_and_optimize_load_only_for_truncated_gaussian(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "coverage", "model": "trace", "method": "u_ci", "m1": 10,
            "m2": 10, "n": 100, "reps": 2, "seed": 1,
            "noise": {"kind": "scaled-rademacher", "sigma": 0.5, "U": 0.5}}))
        codes, before, linalg, after = run_fresh(f"""
import contextlib, io, json
import numpy as np
import mcuq
from mcuq import cli
from mcuq.core import NoiseSpec
lazy = ("scipy.stats", "scipy.optimize")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["validate", "--config", {str(config)!r}]),
             cli.main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}])]
before = [name for name in lazy if name in sys.modules]
linalg = [name for name in sys.modules if name.split(".")[:2] == ["scipy", "linalg"]]
NoiseSpec("truncated-gaussian", 0.5, 1.0)
after = [name for name in lazy if name in sys.modules]
print(json.dumps([codes, before, linalg, after]))
""")
        assert codes == [0, 0]
        assert before == []
        # gram_eigh's dsyevr comes from scipy's compiled LAPACK module, loaded
        # without running scipy/linalg/__init__.py.
        assert linalg == []
        assert after == ["scipy.stats", "scipy.optimize"]

    def test_multiprocessing_loads_only_for_a_pool(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "lbdemo", "m1": 8, "m2": 8, "n": 32, "k": 2,
                                      "reps": 2, "cal_reps": 3}))
        assert run_fresh(f"""
import contextlib, io, json
from mcuq import bench, cli
loaded = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["validate"], ["run", "--out", {str(tmp_path / "out")!r}]):
        assert cli.main([*argv, "--config", {str(config)!r}]) == 0
        loaded.append("multiprocessing" in sys.modules)
bench.run(bench.ExperimentConfig.from_dict(json.load(open({str(config)!r}))), threads=2)
loaded.append("multiprocessing" in sys.modules)
print(json.dumps(loaded))
""") == [False, False, True]

    def test_gram_eigh_matches_scipy_linalg_imported_after_mcuq(self):
        # scipy.linalg, imported after mcuq, loads its own copy of the LAPACK
        # module; both must run the same dsyevr, bit for bit.
        assert run_fresh("""
import json
import numpy as np
from mcuq.core import gram_eigh
import scipy.linalg
equal = []
for n in (20, 96, 200):
    A = np.random.default_rng(n).standard_normal((n + 3, n))
    G = A.T @ A
    above = float(np.median(np.linalg.eigvalsh(G)))
    pairs = [(gram_eigh(A, k=2), scipy.linalg.eigh(G, subset_by_index=(n - 2, n - 1),
                                                    driver="evr")),
             (gram_eigh(A, above=above), scipy.linalg.eigh(G, subset_by_value=(above, np.inf),
                                                           driver="evr"))]
    equal += [got.tobytes() == want.tobytes() for ours, theirs in pairs
              for got, want in zip(ours, theirs)]
print(json.dumps(equal))
""") == [True] * 12


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestRunKeepsFreedHeap:
    @pytest.mark.skipif(not _glibc(), reason="uq run tunes the allocator on glibc only")
    def test_second_large_u_ci_run_barely_faults(self, tmp_path):
        # Each 200x200 matrix_lasso step frees and reallocates 320 KiB arrays.
        # Once cli.main has set glibc's thresholds, a repeated run reuses the
        # heap instead of faulting fresh zeroed pages in: about 4,000 faults
        # per run with glibc's dynamic thresholds, about 140 with fixed ones.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "coverage", "model": "trace", "method": "u_ci", "m1": 200,
            "m2": 200, "n": 20000, "k_truth": 3, "reps": 2, "seed": 1,
            "noise": {"kind": "scaled-rademacher", "sigma": 0.5, "U": 0.5}}))
        faults = run_fresh(f"""
import contextlib, io, json, resource
from mcuq import cli
argv = ["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}]
faults = []
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
""")
        assert faults[1] < 1000, faults


class TestSampleTrace:
    def test_noiseless_values_exact(self):
        M = make_low_rank(5, 5, 2, a=1.0, seed=5)
        data = sample_trace(M, 50, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=6)
        np.testing.assert_array_equal(data.y, M[data.rows, data.cols])

    def test_uniform_position_frequencies(self):
        M = np.zeros((5, 5))
        data = sample_trace(M, 10 ** 5, noise=RADEMACHER, seed=7)
        counts = np.zeros(25)
        np.add.at(counts, data.rows * 5 + data.cols, 1)
        freq = counts / data.n
        se = math.sqrt(0.04 * 0.96 / data.n)
        assert np.all(np.abs(freq - 0.04) <= 3 * se)

    def test_deterministic(self):
        M = make_low_rank(4, 4, 1, a=1.0, seed=8)
        d1 = sample_trace(M, 30, noise=RADEMACHER, seed=9)
        d2 = sample_trace(M, 30, noise=RADEMACHER, seed=9)
        np.testing.assert_array_equal(d1.rows, d2.rows)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_repeats_happen(self):
        M = np.zeros((3, 3))
        data = sample_trace(M, 40, noise=RADEMACHER, seed=10)
        positions = list(zip(data.rows.tolist(), data.cols.tolist()))
        assert len(set(positions)) < len(positions)

    def test_noise_bound_holds(self):
        M = make_low_rank(6, 6, 2, a=1.0, seed=11)
        data = sample_trace(M, 500, noise=NoiseSpec("uniform", 0.4, 1.0), seed=12)
        assert np.max(np.abs(data.y - M[data.rows, data.cols])) <= 1.0


class TestSampleBernoulli:
    def test_full_observation(self):
        M = make_low_rank(4, 4, 1, a=1.0, seed=15)
        data = sample_bernoulli(M, 16, noise=RADEMACHER, seed=16)
        assert data.n_hat == 16
        assert data.mask.all()

    def test_noiseless_values(self):
        M = make_low_rank(5, 5, 2, a=1.0, seed=17)
        data = sample_bernoulli(M, 12, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=18)
        np.testing.assert_array_equal(data.values, np.where(data.mask, M, 0.0))

    def test_each_entry_at_most_once(self):
        M = np.zeros((4, 4))
        data = sample_bernoulli(M, 8, noise=RADEMACHER, seed=19)
        assert data.mask.dtype == bool  # the mask cannot double-count

    def test_expected_count_binomial(self):
        M = np.zeros((10, 10))
        n, reps = 40, 10 ** 4
        hats = np.array([
            sample_bernoulli(M, n, noise=RADEMACHER, seed=child_seed(20, r)).n_hat
            for r in range(reps)
        ])
        p = n / 100
        assert abs(np.mean(hats) - n) <= 3 * math.sqrt(n * (1 - p)) / 100

    def test_n_out_of_range(self):
        with pytest.raises(DomainError):
            sample_bernoulli(np.zeros((3, 3)), 10, noise=RADEMACHER, seed=0)

    @pytest.mark.parametrize("n", [0, 10])
    def test_mask_and_dataset_check_n(self, n):
        with pytest.raises(DomainError, match=rf"n must lie in \[1, 9\], got {n}"):
            bernoulli_mask(3, 3, n, rng_for(0))
        with pytest.raises(DomainError, match=rf"n must lie in \[1, 9\], got {n}"):
            BernoulliDataset(np.ones((3, 3), dtype=bool), np.zeros((3, 3)), n)


class TestSeedStreams:
    def test_child_seeds_distinct(self):
        seeds = {child_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_rng_streams_independent(self):
        a = rng_for(0, 1).standard_normal(5)
        b = rng_for(0, 2).standard_normal(5)
        assert not np.array_equal(a, b)
