"""Generator, Hurst estimator and volatility rescaling."""
import mpmath
import numpy as np
import pytest

from fractalport.errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)
from fractalport.fbm import (
    cover_amplitudes,
    estimate_hurst,
    fit_hurst,
    generate_fbm,
    rescale_volatility,
    window_ladder,
)


def loglog_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


def reference_cover(x, window_sizes):
    """Per-window loop over complete windows: the oracle for cover_amplitudes."""
    sums, counts = [], []
    for d in window_sizes:
        n_windows = (len(x) - 1) // d
        total = 0.0
        for w in range(n_windows):
            a = w * d
            samples = (x[a], x[a + d // 2], x[a + d])
            total += max(samples) - min(samples)
        sums.append(total)
        counts.append(n_windows)
    return np.array(sums), np.array(counts)


class TestGenerateFbm:
    def test_h_half_increments_uncorrelated(self):
        # H=0.5 degenerates to a standard random walk
        n = 4096
        path = generate_fbm(0.5, n, 1.0, 11)
        inc = np.diff(path)
        rho1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(rho1) < 3.0 / np.sqrt(n)

    def test_kstep_variance_scaling_h07(self):
        # var of k-step increments grows like k^1.4; oracle is the scaling
        # law itself, fitted over a lag ladder
        path = generate_fbm(0.7, 1024, 1.0, 3)
        lags = [1, 2, 4, 8, 16, 32, 64]
        var_k = [np.var(path[k:] - path[:-k]) for k in lags]
        assert loglog_slope(lags, var_k) == pytest.approx(1.4, abs=0.15)

    def test_exact_increment_covariance(self):
        # empirical autocovariance over many seeds matches the fGn law
        h, m, n_seeds = 0.3, 64, 800
        incs = np.array([np.diff(generate_fbm(h, m + 1, 1.0, s)) for s in range(n_seeds)])
        k = np.arange(4, dtype=np.float64)
        theo = 0.5 * ((k + 1) ** (2 * h) - 2 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))
        emp = [np.mean(incs[:, : m - i] * incs[:, i:]) if i else np.mean(incs**2) for i in range(4)]
        np.testing.assert_allclose(emp, theo, atol=0.03)

    def test_step_sigma_scales_path(self):
        a = generate_fbm(0.4, 256, 1.0, 5)
        b = generate_fbm(0.4, 256, 2.5, 5)
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12)

    def test_deterministic_per_seed(self):
        assert np.array_equal(generate_fbm(0.6, 512, 1.0, 9), generate_fbm(0.6, 512, 1.0, 9))
        assert not np.array_equal(generate_fbm(0.6, 512, 1.0, 9), generate_fbm(0.6, 512, 1.0, 10))

    def test_short_paths_use_exact_cholesky(self):
        path = generate_fbm(0.3, 4, 1.0, 2)
        assert path.shape == (4,)
        assert path[0] == 0.0

    @pytest.mark.parametrize(
        "h,n,sigma",
        [(0.0, 100, 1.0), (1.0, 100, 1.0), (-0.2, 100, 1.0), (0.5, 1, 1.0), (0.5, 100, 0.0), (0.5, 100, -1.0)],
    )
    def test_parameter_errors(self, h, n, sigma):
        with pytest.raises(ParameterError):
            generate_fbm(h, n, sigma, 0)


class TestCoverAmplitudes:
    def test_hand_computed_single_scale(self):
        # x spans 4 increments; d=2 -> windows {x0,x1,x2} and {x2,x3,x4}
        x = np.array([0.0, 3.0, 1.0, -2.0, 5.0])
        sums, counts = cover_amplitudes(x, np.array([2], dtype=np.int64))
        assert counts.tolist() == [2]
        # window 1: max 3, min 0 -> 3; window 2: max 5, min -2 -> 7
        assert sums[0] == pytest.approx(10.0)

    def test_partial_tail_excluded(self):
        x = np.array([0.0, 1.0, 0.0, 10.0])  # 3 increments, d=2 -> 1 complete window
        sums, counts = cover_amplitudes(x, np.array([2], dtype=np.int64))
        assert counts.tolist() == [1]
        assert sums[0] == pytest.approx(1.0)

    def test_midpoint_seen(self):
        # interior spike at the window midpoint must count
        x = np.array([0.0, 0.0, 9.0, 0.0, 0.0])
        sums, _ = cover_amplitudes(x, np.array([4], dtype=np.int64))
        assert sums[0] == pytest.approx(9.0)

    def test_multiple_scales_counts(self):
        x = np.zeros(65)
        sums, counts = cover_amplitudes(x, np.array([16, 8, 4, 2], dtype=np.int64))
        assert counts.tolist() == [4, 8, 16, 32]
        assert np.all(sums == 0.0)

    def test_matches_per_window_loop(self):
        rng = np.random.default_rng(7)
        # fixed lengths cover exact fits (65, 1025) and partial tails
        lengths = [64, 65, 100, 127, 513, 1000, 1025] + rng.integers(64, 1026, 13).tolist()
        for n in lengths:
            x = np.cumsum(rng.standard_normal(n)) * rng.uniform(0.01, 100.0)
            # the estimator's ladder, odd sizes for the d // 2 midpoint,
            # random sizes, and one size too large for a complete window
            sizes = np.concatenate(
                [window_ladder(n), [3, 5, 7], rng.integers(2, n // 2, 3), [n]]
            ).astype(np.int64)
            sums, counts = cover_amplitudes(x, sizes)
            ref_sums, ref_counts = reference_cover(x, sizes)
            assert np.array_equal(counts, ref_counts), n
            np.testing.assert_allclose(sums, ref_sums, rtol=1e-12)
            # a matrix is one series per row, each with the bits it has alone
            matrix = np.stack([-x, x, 3.0 * x])
            row_sums, row_counts = cover_amplitudes(matrix, sizes)
            np.testing.assert_array_equal(row_counts, counts)
            for row, got in zip(matrix, row_sums):
                np.testing.assert_array_equal(got, cover_amplitudes(row, sizes)[0])


class TestFitHurst:
    def test_rows_match_one_row_calls(self):
        # scalar and batched fits share one code path, so the bits agree
        rng = np.random.default_rng(9)
        paths = np.cumsum(rng.standard_normal((40, 257)), axis=1)
        paths[3] = 1.5  # flat: degenerate
        paths[4, :] = 0.0
        paths[4, 129] = 1.0  # odd-index spike: only d = 2 samples it
        paths[5] = np.arange(257.0)  # ramp: clamped at the top
        h, h_err, n_scales, clamped = fit_hurst(paths)
        for k, path in enumerate(paths):
            one = fit_hurst(path[np.newaxis])
            for batched, alone in zip((h, h_err, n_scales, clamped), one):
                np.testing.assert_array_equal(batched[k], alone[0])
            if n_scales[k] >= 3:
                est = estimate_hurst(path)
                assert (est.h, est.h_err, est.n_scales, est.clamped) == (
                    h[k], h_err[k], n_scales[k], clamped[k]
                )
            else:
                with pytest.raises(DegenerateSeriesError):
                    estimate_hurst(path)
        assert n_scales[3] == 0 and np.isnan(h[3]) and np.isnan(h_err[3])
        assert n_scales[4] == 1 and np.isnan(h[4])
        assert clamped[5] and h[5] == 0.99
        assert not clamped[n_scales >= 3].all()


class TestEstimateHurst:
    def test_linear_ramp_maximally_persistent(self):
        est = estimate_hurst(np.arange(1024, dtype=np.float64))
        assert est.h >= 0.95
        assert est.h_err == pytest.approx(0.0, abs=1e-12)
        assert est.clamped  # raw fit is exactly 1, outside (0, 1)

    def test_fbm_h03_monte_carlo(self):
        hits = sum(
            0.22 <= estimate_hurst(generate_fbm(0.3, 1024, 1.0, seed)).h <= 0.38
            for seed in range(100)
        )
        assert hits >= 90

    def test_gaussian_walk_monte_carlo(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            walk = np.cumsum(rng.standard_normal(1024))
            hits += 0.42 <= estimate_hurst(walk).h <= 0.58
        assert hits >= 90

    def test_shift_and_scale_invariance(self):
        path = generate_fbm(0.45, 512, 1.0, 21)
        base = estimate_hurst(path)
        for a, b in [(2.0, 0.0), (0.003, 17.5), (1234.5, -3.0)]:
            other = estimate_hurst(a * path + b)
            assert other.h == pytest.approx(base.h, abs=1e-10)
            assert other.h_err == pytest.approx(base.h_err, abs=1e-10)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            estimate_hurst(np.full(128, 3.25))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            estimate_hurst(np.arange(63, dtype=np.float64))

    def test_non_finite_rejected(self):
        x = np.arange(128, dtype=np.float64)
        x[64] = np.nan
        with pytest.raises(ValidationError):
            estimate_hurst(x)

    def test_n_scales_matches_ladder(self):
        est = estimate_hurst(generate_fbm(0.5, 1024, 1.0, 0))
        assert est.n_scales == len(window_ladder(1024)) == 8
        est_min = estimate_hurst(generate_fbm(0.5, 64, 1.0, 0))
        assert est_min.n_scales == len(window_ladder(64)) == 4
        assert est_min.n_scales >= 3


class TestRescaleVolatility:
    def test_sqrt_scaling_random_walk(self):
        assert rescale_volatility(0.01, 0.5, 4) == pytest.approx(0.02, rel=1e-12)

    def test_identity_at_one_day(self):
        for h in (0.1, 0.5, 0.9):
            assert rescale_volatility(0.01, h, 1) == pytest.approx(0.01, rel=1e-12)

    def test_general_power_high_precision(self):
        # oracle: independent high-precision arithmetic
        expected = float(mpmath.mpf("0.02") * mpmath.power(126, mpmath.mpf("0.4")))
        assert rescale_volatility(0.02, 0.4, 126) == pytest.approx(expected, rel=1e-12)

    def test_multiplicative_in_horizon(self):
        theta, h = 0.013, 0.37
        direct = rescale_volatility(theta, h, 6 * 21)
        staged = rescale_volatility(rescale_volatility(theta, h, 6), h, 21)
        assert staged == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("theta,h,n", [(-0.1, 0.5, 1), (0.1, 0.0, 1), (0.1, 1.0, 1), (0.1, 0.5, 0)])
    def test_range_checks(self, theta, h, n):
        with pytest.raises(ParameterError):
            rescale_volatility(theta, h, n)


def test_scaling_law_slope_n4096():
    # Invariants: mean squared increment vs lag fits L^(2h) within +-0.15
    for h in (0.3, 0.5, 0.7):
        path = generate_fbm(h, 4096, 1.0, 101)
        lags = [1, 2, 4, 8, 16, 32, 64]
        msq = [np.mean((path[k:] - path[:-k]) ** 2) for k in lags]
        assert loglog_slope(lags, msq) == pytest.approx(2 * h, abs=0.15)
