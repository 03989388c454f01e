import dataclasses
import math

import numpy as np
import pytest

from mcuq import trace_uq
from mcuq.core import DomainError, NoiseSpec
from mcuq.estimate import LassoFit
from mcuq.synth import TraceDataset, child_seed, make_low_rank, rng_for, sample_trace
from mcuq.trace_uq import (PairedSet, pair_repeats, rss_ci,
                           rss_radius_sq, rss_statistic, split_sample, u_ci,
                           u_quantile, u_statistic)

RADEMACHER = NoiseSpec("scaled-rademacher", 0.5, 0.5)


def dataset_from_positions(m1, m2, positions, values):
    rows = np.array([p[0] for p in positions], dtype=np.int64)
    cols = np.array([p[1] for p in positions], dtype=np.int64)
    return TraceDataset(m1, m2, rows, cols, np.asarray(values, dtype=float))


class TestSplitSample:
    def test_even_split(self):
        data = sample_trace(np.zeros((4, 4)), 10, noise=RADEMACHER, seed=0)
        first, second = split_sample(data)
        assert first.n == 5 and second.n == 5

    def test_odd_drops_one(self):
        data = sample_trace(np.zeros((4, 4)), 11, noise=RADEMACHER, seed=1)
        first, second = split_sample(data)
        assert first.n == 5 and second.n == 5

    def test_concatenation_is_prefix(self):
        data = sample_trace(np.zeros((4, 4)), 12, noise=RADEMACHER, seed=2)
        first, second = split_sample(data)
        np.testing.assert_array_equal(np.concatenate([first.y, second.y]), data.y[:12])

    def test_too_small(self):
        data = sample_trace(np.zeros((4, 4)), 1, noise=RADEMACHER, seed=3)
        with pytest.raises(DomainError):
            split_sample(data)


class TestPairRepeats:
    def test_three_observations_give_one_couple(self):
        # indices 0, 3, 7 observe (1, 1); the couple must use the first two
        positions = [(1, 1), (0, 0), (0, 1), (1, 1), (2, 2), (0, 2), (2, 0), (1, 1)]
        values = [10.0, 1.0, 2.0, 20.0, 3.0, 4.0, 5.0, 30.0]
        pairs = pair_repeats(dataset_from_positions(3, 3, positions, values))
        assert pairs.n_pairs == 1
        assert pairs.z[0] == 10.0 and pairs.z2[0] == 20.0

    def test_all_distinct_gives_none(self):
        positions = [(0, 0), (0, 1), (1, 0), (1, 1)]
        pairs = pair_repeats(dataset_from_positions(2, 2, positions, [1, 2, 3, 4]))
        assert pairs.n_pairs == 0

    def test_six_observations_give_three_couples(self):
        positions = [(0, 0)] * 6
        pairs = pair_repeats(dataset_from_positions(1, 1, positions, range(6)))
        assert pairs.n_pairs == 3

    def test_each_raw_sample_used_at_most_once(self):
        data = sample_trace(np.zeros((3, 3)), 40, noise=RADEMACHER, seed=4)
        pairs = pair_repeats(data)
        assert len(set(pairs.used.tolist())) == len(pairs.used)


def _pair_repeats_loop(half):
    # The dict loop pair_repeats replaced; its couple order is the dict's
    # insertion order, i.e. positions by first observation.
    by_pos = {}
    for t in range(half.n):
        by_pos.setdefault((int(half.rows[t]), int(half.cols[t])), []).append(t)
    rows, cols, z, z2, used = [], [], [], [], []
    for (i, j), idxs in by_pos.items():
        for s in range(0, len(idxs) - 1, 2):
            rows.append(i)
            cols.append(j)
            z.append(half.y[idxs[s]])
            z2.append(half.y[idxs[s + 1]])
            used.extend((idxs[s], idxs[s + 1]))
    return PairedSet(np.asarray(rows, dtype=np.int64),
                     np.asarray(cols, dtype=np.int64),
                     np.asarray(z, dtype=float),
                     np.asarray(z2, dtype=float),
                     np.asarray(used, dtype=np.int64))


class TestPairRepeatsAgainstLoop:
    @pytest.mark.parametrize("half", [
        dataset_from_positions(3, 3, [], []),
        dataset_from_positions(2, 3, [(1, 2)] * 7, np.arange(7.0)),
        dataset_from_positions(3, 3, [(2, 1), (0, 0), (2, 1), (0, 0), (2, 1),
                                      (1, 1), (0, 0), (2, 1), (2, 1)],
                               np.arange(9.0) * 1.5),
        dataset_from_positions(3, 4, [(2, 3), (0, 1), (2, 3), (1, 0), (0, 1),
                                      (1, 0), (0, 0), (0, 0)],
                               np.arange(8.0) - 3.0),
        sample_trace(np.zeros((200, 200)), 20000, noise=RADEMACHER, seed=64).subset(0, 10000),
    ], ids=["empty", "one-position", "odd-counts", "unsorted-first-seen", "200x200"])
    def test_bitwise_equal(self, half):
        got, want = pair_repeats(half), _pair_repeats_loop(half)
        for name in ("rows", "cols", "z", "z2", "used"):
            g, w = getattr(got, name), getattr(want, name)
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype and g.shape == w.shape


class TestUStatistic:
    def test_zero_when_center_is_truth_noiseless(self):
        M = make_low_rank(4, 4, 1, a=1.0, seed=5)
        data = sample_trace(M, 60, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=6)
        pairs = pair_repeats(data)
        assert pairs.n_pairs > 0
        assert u_statistic(pairs, M) == 0.0

    def test_constant_shift_squares(self):
        M = make_low_rank(4, 4, 1, a=1.0, seed=7)
        data = sample_trace(M, 60, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=8)
        pairs = pair_repeats(data)
        assert u_statistic(pairs, M + 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_empty_pairs_give_zero(self):
        positions = [(0, 0), (0, 1)]
        pairs = pair_repeats(dataset_from_positions(1, 2, positions, [1.0, 2.0]))
        assert u_statistic(pairs, np.zeros((1, 2))) == 0.0

    def test_unbiased_for_position_weighted_error(self):
        # Conditional on the pair positions, the mean over noise redraws
        # equals the average squared center error at those positions.
        m, sigma = 5, 0.7
        M = make_low_rank(m, m, 2, a=1.0, seed=9)
        M_hat = make_low_rank(m, m, 2, a=1.0, seed=10)
        base = sample_trace(M, 80, noise=NoiseSpec("scaled-rademacher", sigma, sigma), seed=11)
        pairs = pair_repeats(base)
        N = pairs.n_pairs
        assert N > 0
        target = float(np.mean((M - M_hat)[pairs.rows, pairs.cols] ** 2))
        reps = 10 ** 4
        rng = rng_for(12)
        vals = np.empty(reps)
        for r in range(reps):
            eps1 = sigma * (rng.integers(0, 2, N) * 2 - 1)
            eps2 = sigma * (rng.integers(0, 2, N) * 2 - 1)
            truth = M[pairs.rows, pairs.cols]
            center = M_hat[pairs.rows, pairs.cols]
            vals[r] = np.mean((truth + eps1 - center) * (truth + eps2 - center))
        se = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - target) <= 3 * se


class TestUQuantile:
    def test_reference_value(self):
        assert u_quantile(0.04, 25, a=0.5, U=1.0) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_no_pairs(self):
        assert u_quantile(0.3, 0, a=0.5, U=7.0) == 1.0

    def test_quadrupling_pairs_halves(self):
        assert u_quantile(0.1, 64, a=1.0, U=1.0) == pytest.approx(
            u_quantile(0.1, 16, a=1.0, U=1.0) / 2, rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            u_quantile(1.5, 10, a=1.0, U=1.0)


class TestUCi:
    def test_no_pairs_falls_back_to_global_bound(self):
        # Two distinct positions only: N = 0, so the radius is 4a^2, which
        # always contains the truth because center entries are clipped to a.
        M = make_low_rank(4, 4, 1, a=1.0, seed=13)
        positions = [(0, 0), (1, 1), (2, 2), (3, 3)]
        data = dataset_from_positions(4, 4, positions, M[([0, 1, 2, 3], [0, 1, 2, 3])])
        with pytest.warns(RuntimeWarning):
            ball = u_ci(data, alpha=0.1, a=1.0, U=1.0)
        assert ball.n_aux == 0
        assert ball.radius_sq == 4.0
        assert ball.contains(M)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_noiseless_perfect_center_radius_is_quantile(self, monkeypatch):
        # A center equal to the truth leaves noiseless couples no residual,
        # so the paired statistic is zero and the radius is the slack alone.
        M = make_low_rank(5, 5, 1, a=1.0, seed=14)
        data = sample_trace(M, 400, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=15)
        monkeypatch.setattr(trace_uq, "matrix_lasso",
                            lambda *args, **kwargs: LassoFit(M, np.zeros(1), True))
        ball = u_ci(data, alpha=0.1, a=1.0, U=1.0)
        assert ball.center is M and not ball.flags
        assert ball.n_aux > 0
        assert ball.radius_sq == u_quantile(0.1, ball.n_aux, a=1.0, U=1.0)

    def test_membership_respects_entry_bound(self):
        M = make_low_rank(6, 6, 1, a=1.0, seed=16)
        data = sample_trace(M, 36, noise=RADEMACHER, seed=17)
        ball = u_ci(data, alpha=0.1, a=1.0, U=0.5)
        too_big = np.full((6, 6), 1.5)
        assert not ball.contains(too_big)

    def test_monotone_membership_in_radius(self):
        M = make_low_rank(6, 6, 1, a=1.0, seed=18)
        data = sample_trace(M, 36, noise=RADEMACHER, seed=19)
        ball = u_ci(data, alpha=0.1, a=1.0, U=0.5)
        bigger = dataclasses.replace(ball, radius_sq=ball.radius_sq * 2)
        for trial in range(10):
            A = make_low_rank(6, 6, 1, a=1.0, seed=100 + trial)
            if ball.contains(A):
                assert bigger.contains(A)


class TestRssStatistic:
    def test_zero_noiseless_perfect(self):
        M = make_low_rank(4, 4, 1, a=1.0, seed=20)
        data = sample_trace(M, 40, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=21)
        assert rss_statistic(data, M, sigma=0.0) == 0.0

    def test_constant_shift(self):
        M = make_low_rank(4, 4, 1, a=1.0, seed=22)
        data = sample_trace(M, 40, noise=NoiseSpec("scaled-rademacher", 0.0, 1.0), seed=23)
        assert rss_statistic(data, M + 0.4, sigma=0.0) == pytest.approx(0.16, rel=1e-12)

    def test_unbiased_for_position_weighted_error(self):
        m, sigma = 5, 0.6
        M = make_low_rank(m, m, 2, a=1.0, seed=24)
        M_hat = make_low_rank(m, m, 1, a=1.0, seed=25)
        base = sample_trace(M, 60, noise=NoiseSpec("scaled-rademacher", sigma, sigma), seed=26)
        target = float(np.mean((M - M_hat)[base.rows, base.cols] ** 2))
        reps = 10 ** 4
        rng = rng_for(27)
        truth = M[base.rows, base.cols]
        center = M_hat[base.rows, base.cols]
        vals = np.empty(reps)
        for r in range(reps):
            eps = sigma * (rng.integers(0, 2, base.n) * 2 - 1)
            vals[r] = np.mean((truth + eps - center) ** 2) - sigma ** 2
        se = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - target) <= 3 * se


def rss_radius_bisection(R_hat, n, d, sigma, z, z_alpha, xi, tol=1e-12):
    """Independent oracle: scan down from a safe cap, then bisect."""
    sqrt_n = math.sqrt(n)
    B = 2.0 * (R_hat + z * d / n + xi / sqrt_n)

    def rhs(t):
        # Elementwise, so one call covers the whole grid.
        zbar = np.sqrt(z_alpha * sigma * sigma * np.maximum(3.0 * t, 4.0 * z * d / n))
        return B + 2.0 * zbar / sqrt_n

    b = 2.0 * sigma * math.sqrt(3.0 * z_alpha) / sqrt_n
    cap = max((b + math.sqrt(max(b * b + 4.0 * abs(B), 0.0))) ** 2, 4.0 * z * d / n) + 1.0
    grid = np.linspace(0.0, cap, 200001)
    feasible = grid[grid <= rhs(grid)]
    if feasible.size == 0:
        return 0.0
    lo = float(feasible[-1])
    hi = min(lo + cap / 200000, cap)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= rhs(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return lo


class TestRssCi:
    def test_degenerate_constants(self):
        # z_alpha = xi = 0 and R_hat = 0 leave radius 2*z*d/n.
        assert rss_radius_sq(0.0, 100, 40, sigma=1.0, z=1.0, z_alpha=0.0, xi=0.0) == pytest.approx(
            2 * 1.0 * 40 / 100, rel=1e-12)

    def test_branch_boundary_continuity(self):
        # The two closed-form branches meet at t = 4zd/(3n); radii computed
        # just either side of parameters that place the answer there agree.
        n, d, sigma, z, z_alpha = 200, 40, 0.5, 1.0, math.log(30.0)
        for xi in (0.0, 0.1):
            for eps in (-1e-9, 1e-9):
                r1 = rss_radius_sq(0.05 + eps, n, d, sigma=sigma, z=z, z_alpha=z_alpha, xi=xi)
                r2 = rss_radius_bisection(0.05 + eps, n, d, sigma, z, z_alpha, xi)
                assert r1 == pytest.approx(r2, abs=1e-9)

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(28)
        for trial in range(30):
            R_hat = float(rng.uniform(-0.5, 2.0))
            n = int(rng.integers(20, 2000))
            d = int(rng.integers(10, 100))
            sigma = float(rng.uniform(0.05, 2.0))
            z = float(rng.uniform(0.1, 3.0))
            alpha = float(rng.uniform(0.01, 0.5))
            z_alpha = math.log(3.0 / alpha)
            xi = math.sqrt(2.0) * sigma * 1.0 * z_alpha
            closed = rss_radius_sq(R_hat, n, d, sigma=sigma, z=z, z_alpha=z_alpha, xi=xi)
            oracle = rss_radius_bisection(R_hat, n, d, sigma, z, z_alpha, xi)
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_ball_contains_truth_smoke(self):
        M = make_low_rank(8, 8, 1, a=1.0, seed=29)
        data = sample_trace(M, 128, noise=RADEMACHER, seed=30)
        ball = rss_ci(data, alpha=0.1, a=1.0, sigma=0.5, U=0.5)
        assert ball.contains(M)

    def test_radius_reads_rss_z_at_each_call(self, monkeypatch):
        data = sample_trace(make_low_rank(8, 8, 1, a=1.0, seed=29), 128, noise=RADEMACHER, seed=30)
        ball = rss_ci(data, alpha=0.1, a=1.0, sigma=0.5, U=0.5)
        monkeypatch.setattr(trace_uq, "RSS_Z", 3.0)
        assert rss_ci(data, alpha=0.1, a=1.0, sigma=0.5, U=0.5).radius_sq > ball.radius_sq

    def test_invalid_params(self):
        data = sample_trace(np.zeros((4, 4)), 16, noise=RADEMACHER, seed=31)
        with pytest.raises(DomainError):
            rss_ci(data, alpha=0.0, a=1.0, sigma=0.5, U=0.5)


class TestUCiCoverageOtherNoise:
    @pytest.mark.parametrize("kind,sigma,U", [
        ("uniform", 0.5, 1.0),
        ("truncated-gaussian", 0.5, 1.0),
    ])
    def test_coverage_floor(self, kind, sigma, U):
        noise = NoiseSpec(kind, sigma, U)
        reps, alpha = 60, 0.1
        covered = 0
        for r in range(reps):
            M = make_low_rank(12, 12, 1, a=1.0, seed=child_seed(62, r))
            data = sample_trace(M, 144, noise=noise, seed=child_seed(63, r))
            ball = u_ci(data, alpha=alpha, a=1.0, U=U)
            covered += ball.contains(M)
        floor = 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / reps)
        assert covered / reps >= floor


class TestBoundsRefutedByData:
    # Entries in [-a, a] and noise in [-U, U] give every observation
    # |y| <= a + U.  Told a smaller bound, u_ci once built a set that looked
    # valid: in the cell below, with U/2, U/4 and U/10 its coverage read
    # 0.957, 0.857 and 0.820 over 300 replicates, and the data refuted the
    # bound in each of them.
    def cell_data(self, noise):
        M = make_low_rank(30, 30, 1, a=0.25, seed=child_seed(101, 10, 0))
        return sample_trace(M, 900, noise=noise, seed=child_seed(101, 11, 0))

    @pytest.mark.parametrize("noise", [
        NoiseSpec("scaled-rademacher", 1.0, 1.0),
        NoiseSpec("uniform", 1.0 / math.sqrt(3.0), 1.0),
        NoiseSpec("truncated-gaussian", 0.5, 1.5),
    ], ids=["scaled-rademacher", "uniform", "truncated-gaussian"])
    @pytest.mark.parametrize("divisor", [2, 4, 10])
    def test_understated_noise_bound_is_refused(self, noise, divisor):
        data = self.cell_data(noise)
        U = noise.U / divisor
        top = float(np.max(np.abs(data.y)))
        message = (f"^the data refute the bounds: max[|]y[|] = {top:.6g} exceeds "
                   f"a [+] U = {0.25 + U:.6g} [(]a=0.25, U={U}[)]$")
        with pytest.raises(DomainError, match=message):
            u_ci(data, 0.1, a=0.25, U=U)
        with pytest.raises(DomainError, match=message):
            rss_ci(data, 0.1, a=0.25, sigma=min(noise.sigma, U), U=U)

    def test_understated_entry_bound_is_refused(self):
        # At criterion 01's a = 1 and sigma = U = 0.5, a = 0.2 and U = 0.1
        # once gave a set that missed the truth.
        M = make_low_rank(30, 30, 1, a=1.0, seed=child_seed(101, 10, 0))
        data = sample_trace(M, 900, noise=RADEMACHER, seed=child_seed(101, 11, 0))
        with pytest.raises(DomainError, match=r"exceeds a \+ U = 0\.3 \(a=0\.2, U=0\.1\)$"):
            u_ci(data, 0.1, a=0.2, U=0.1)
        ball = u_ci(data, 0.1, a=1.0, U=0.5)
        assert ball.contains(M)

    def test_rss_ci_refuses_sigma_above_U(self):
        # Bounded noise cannot have sigma > U; the set once came back with
        # radius_sq 0.0.
        data = sample_trace(make_low_rank(8, 8, 1, a=1.0, seed=29), 128, noise=RADEMACHER,
                            seed=30)
        with pytest.raises(DomainError, match=r"^need 0 <= sigma <= U, got sigma=2\.0, U=0\.5$"):
            rss_ci(data, 0.1, a=1.0, sigma=2.0, U=0.5)
        noiseless = sample_trace(make_low_rank(8, 8, 1, a=1.0, seed=29), 128,
                                 noise=NoiseSpec("scaled-rademacher", 0.0, 0.5), seed=30)
        assert rss_ci(noiseless, 0.1, a=1.0, sigma=0.0, U=0.5).radius_sq > 0.0

    def test_bound_allows_the_noise_laws_own_slack(self):
        # NoiseSpec admits a uniform half-width up to U * (1 + 1e-12), so an
        # observation that far above a + U does not refute the bounds.
        a, U = 1.0, 0.5
        top = a + U * (1.0 + 1e-12)
        data = dataset_from_positions(2, 2, [(0, 0), (0, 0), (1, 1), (1, 1)],
                                      [top, top, -top, -top])
        u_ci(data, 0.1, a=a, U=U)
        rss_ci(data, 0.1, a=a, sigma=U, U=U)
