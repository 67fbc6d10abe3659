"""Covariance rescaling, weight solving, leverage and leg decomposition."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalport.errors import (
    EmptyPortfolioError,
    ParameterError,
    SingularMatrixError,
)
from fractalport.optimizer import (
    RIDGE_LAMBDA,
    apply_leverage,
    compose_legs,
    covariance_matrix,
    rescale_covariance,
    solve_weights,
)

EPS = np.finfo(np.float64).eps


class TestCovarianceMatrix:
    def test_single_spread_variance(self):
        rng = np.random.default_rng(0)
        d = 0.01 * rng.standard_normal(300)
        c = covariance_matrix(d[None, :])
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(np.var(d), rel=1e-12)

    def test_identical_spreads_rank_one(self):
        rng = np.random.default_rng(1)
        d = 0.01 * rng.standard_normal(300)
        c = covariance_matrix(np.vstack([d, d]))
        assert c[0, 1] == pytest.approx(c[0, 0], rel=1e-12)
        assert c[1, 0] == pytest.approx(c[0, 0], rel=1e-12)

    def test_independent_spreads_near_zero_offdiag(self):
        n = 10_000
        rng = np.random.default_rng(2)
        v = 1e-4  # daily variance of each spread
        c = covariance_matrix(
            np.vstack(
                [
                    np.sqrt(v) * rng.standard_normal(n),
                    np.sqrt(v) * rng.standard_normal(n),
                ]
            )
        )
        assert abs(c[0, 1]) < 3.0 * v / np.sqrt(n)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        c = covariance_matrix(0.01 * rng.standard_normal((4, 200)))
        np.testing.assert_array_equal(c, c.T)


    def test_needs_spread_matrix(self):
        for bad in (np.zeros((0, 50)), np.zeros(50)):
            with pytest.raises(ParameterError):
                covariance_matrix(bad)


class TestRescaleCovariance:
    def test_one_day_identity(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = rescale_covariance(c, [0.3, 0.6], 1)
        np.testing.assert_array_equal(out, c)

    def test_uniform_h_half_four_days(self):
        # exponent H+1 = 1.5: every element times 4^1.5 = 8
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = rescale_covariance(c, [0.5, 0.5], 4)
        np.testing.assert_allclose(out, 8.0 * c, rtol=1e-12)

    def test_mixed_h_symmetrized_exponent(self):
        # off-diagonal exponent (0.3+0.5)/2 + 1 = 1.4 at N=100
        c = np.array([[1.0, 0.2], [0.2, 1.0]])
        out = rescale_covariance(c, [0.3, 0.5], 100)
        factor = float(mpmath.power(100, mpmath.mpf("1.4")))
        assert out[0, 1] == pytest.approx(0.2 * factor, rel=1e-12)
        assert out[1, 0] == pytest.approx(0.2 * factor, rel=1e-12)
        np.testing.assert_array_equal(out, out.T)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            rescale_covariance(np.eye(2), [0.5], 10)

    def test_h_range_validated(self):
        with pytest.raises(ParameterError):
            rescale_covariance(np.eye(2), [0.5, 1.0], 10)

    @pytest.mark.parametrize(
        "c, n_days, message",
        [
            (np.ones((2, 3)), 10, r"covariance must be square, got shape \(2, 3\)"),
            (np.ones(2), 10, r"covariance must be square, got shape \(2,\)"),
            (np.eye(2), 0, "horizon must be at least 1 day, got 0"),
        ],
        ids=["not_square", "one_dimensional", "no_horizon"],
    )
    def test_refuses_a_matrix_that_is_not_square_or_no_horizon(self, c, n_days, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            rescale_covariance(c, [0.5, 0.5], n_days)


class TestSolveWeights:
    def test_diagonal_reduces_to_independent_kelly(self):
        variances = np.array([1e-4, 4e-4, 2.5e-4])
        mu = np.array([1e-3, 2e-3, -5e-4])
        w = solve_weights(np.diag(variances), [0.5] * 3, mu, 1)
        np.testing.assert_allclose(w, mu / variances, rtol=1e-6)

    def test_two_by_two_closed_form(self):
        # hand-derived adjugate inverse of the (ridge-regularized) matrix
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, d = rng.uniform(1e-4, 1e-3, 2)
            b = rng.uniform(-0.5, 0.5) * np.sqrt(a * d)
            c = np.array([[a, b], [b, d]])
            mu = rng.uniform(-1e-3, 2e-3, 2)
            n_days = 126
            scaled = rescale_covariance(c, [0.4, 0.4], n_days)
            m = scaled + RIDGE_LAMBDA * np.trace(scaled) / 2.0 * np.eye(2)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
            expected = inv @ mu * n_days
            got = solve_weights(c, [0.4, 0.4], mu, n_days)
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_uniform_h_direction_invariant_in_horizon(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 400)) * 0.01
        c = np.cov(x, bias=True)
        mu = np.array([1e-3, 5e-4, 8e-4])
        w1 = solve_weights(c, [0.4] * 3, mu, 1)
        w126 = solve_weights(c, [0.4] * 3, mu, 126)
        np.testing.assert_allclose(w1 / w1.sum(), w126 / w126.sum(), atol=1e-10)

    def test_exact_duplicates_rescued_by_ridge(self):
        # the always-on ridge keeps duplicated spreads solvable: the
        # duplicated pair shares the weight instead of blowing up
        d = 0.01 * np.random.default_rng(6).standard_normal(100)
        c = covariance_matrix(np.vstack([d, d]))
        w = solve_weights(c, [0.5] * 2, [1e-3, 1e-3], 126)
        assert np.all(np.isfinite(w))
        assert w[0] == pytest.approx(w[1], rel=1e-6)

    def test_mean_shape_checked(self):
        message = r"^mean returns of shape \(1,\) for a covariance of shape \(2, 2\)$"
        with pytest.raises(ParameterError, match=message):
            solve_weights(np.eye(2), [0.5, 0.5], [1e-3], 126)

    @pytest.mark.parametrize(
        "c,named",
        [
            # a zero matrix has no ridge: its first spread is named
            (np.zeros((3, 3)), r"A/B \(ridge 0\)"),
            # a finite covariance whose rescaling at N = 126 overflows:
            # 1e306 * 126^1.5 is 1.4e309
            (np.diag([1e-4, 1e306, 1e-4]), r"C/D \(ridge inf\)"),
        ],
        ids=["zero", "overflow"],
    )
    def test_refuses_a_zero_or_overflowing_matrix(self, c, named):
        message = f"^rescaled covariance is singular or not finite at spread {named}$"
        with pytest.raises(SingularMatrixError, match=message):
            solve_weights(c, [0.5] * 3, [1e-3, 1e-3, 1e-3], 126, labels=["A/B", "C/D", "E/F"])


class TestApplyLeverage:
    def test_equal_weights(self):
        w, k = apply_leverage([1.0, 1.0], 2.0)
        np.testing.assert_allclose(w, [1.0, 1.0])
        assert k == pytest.approx(1.0)

    def test_proportional_scaling(self):
        w, k = apply_leverage([3.0, 1.0], 2.0)
        np.testing.assert_allclose(w, [1.5, 0.5])
        assert k == pytest.approx(0.5)

    def test_negative_clamped(self):
        w, k = apply_leverage([2.0, -1.0], 2.0)
        np.testing.assert_allclose(w, [2.0, 0.0])
        assert k == pytest.approx(1.0)

    def test_sum_equals_leverage(self):
        rng = np.random.default_rng(7)
        for lev in (1.0, 2.0, 2.7):
            raw = rng.uniform(-1, 3, 5)
            w, _ = apply_leverage(raw, lev)
            assert w.sum() == pytest.approx(lev, rel=1e-12)

    def test_all_nonpositive_rejected(self):
        with pytest.raises(EmptyPortfolioError):
            apply_leverage([-1.0, 0.0], 2.0)
        with pytest.raises(EmptyPortfolioError):
            apply_leverage([[1.0, 0.0], [-1.0, 0.0]], 2.0)

    def test_leverage_positive(self):
        with pytest.raises(ParameterError):
            apply_leverage([1.0], 0.0)


class TestComposeLegs:
    def test_equal_notional_pair(self):
        w, _ = apply_leverage([1.0], 1.0)
        held, legs = compose_legs(w, [0], [1], np.array([1.0]))
        assert held.tolist() == [0, 1]
        assert legs[0] == pytest.approx(0.5)
        assert legs[1] == pytest.approx(-0.5)

    def test_one_to_chi_ratio(self):
        w, _ = apply_leverage([2.0], 2.0)
        held, legs = compose_legs(w, [0], [1], np.array([3.0]))
        assert legs[0] == pytest.approx(0.5)
        assert legs[1] == pytest.approx(-1.5)

    def test_disjoint_union(self):
        # assets A, B, C, D are 0-3; the spreads C/D and A/B come in that order
        w, _ = apply_leverage([1.0, 1.0], 2.0)
        held, legs = compose_legs(w, [2, 0], [3, 1], np.array([2.0, 1.0]))
        assert held.tolist() == [0, 1, 2, 3]
        assert legs[0] == pytest.approx(0.5)
        assert legs[1] == pytest.approx(-0.5)
        assert legs[2] == pytest.approx(1.0 / 3.0)
        assert legs[3] == pytest.approx(-2.0 / 3.0)

    def test_gross_notional_equals_leverage(self):
        rng = np.random.default_rng(8)
        chi = rng.uniform(0.5, 3, 4)
        w, _ = apply_leverage(rng.uniform(0.1, 2, 4), 2.0)
        _, legs = compose_legs(w, np.arange(4), np.arange(4, 8), chi)
        assert sum(abs(v) for v in legs.tolist()) == pytest.approx(2.0, rel=1e-12)

    def test_weight_count_checked(self):
        w, _ = apply_leverage([1.0, 1.0], 2.0)
        with pytest.raises(ParameterError):
            compose_legs(w, [0], [1], np.array([1.0]))

    def test_asset_in_two_spreads_rejected(self):
        # selection makes the legs disjoint; legs of one asset are not added
        w, _ = apply_leverage([1.0, 1.0], 2.0)
        with pytest.raises(ParameterError, match="asset 1 is a leg of two spreads"):
            compose_legs(w, [0, 1], [1, 2], np.array([1.0, 1.0]))


def test_portfolio_weights_immutable():
    w, _ = apply_leverage([1.0], 2.0)
    with pytest.raises(ValueError):
        w[0] = 3.0


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
def test_stack_gives_each_matrix_its_bits_alone(m):
    # the optimizer over a stack of windows: each matrix, weight vector and
    # leg has the bits of the call on that window alone
    rng = np.random.default_rng(m)
    deltas = 0.01 * rng.standard_normal((6, m, 125))
    hursts = rng.uniform(0.05, 0.45, (6, m))
    means = rng.uniform(1e-4, 2e-3, (6, m))
    assets = np.array([rng.permutation(2 * m + 3)[: 2 * m] for _ in range(6)])
    long, short, chi = assets[:, :m], assets[:, m:], rng.uniform(0.5, 2.0, (6, m))
    cov = covariance_matrix(deltas)
    scaled = rescale_covariance(cov, hursts, 21)
    raw = solve_weights(cov, hursts, means, 21)
    raw[:, 0] = np.abs(raw[:, 0])  # every row invested
    weights, scale_k = apply_leverage(raw, 2.0)
    held, legs = compose_legs(weights, long, short, chi)
    assert cov.shape == scaled.shape == (6, m, m) and raw.shape == weights.shape == (6, m)
    assert scale_k.shape == (6,) and held.shape == legs.shape == (6, 2 * m)
    for k in range(6):
        alone = covariance_matrix(deltas[k])
        assert cov[k].tobytes() == alone.tobytes()
        assert scaled[k].tobytes() == rescale_covariance(alone, hursts[k], 21).tobytes()
        alone_raw = solve_weights(alone, hursts[k], means[k], 21)
        alone_raw[0] = abs(alone_raw[0])
        assert raw[k].tobytes() == alone_raw.tobytes()
        alone_weights, alone_k = apply_leverage(alone_raw, 2.0)
        assert weights[k].tobytes() == alone_weights.tobytes() and scale_k[k] == alone_k
        alone_held, alone_legs = compose_legs(alone_weights, long[k], short[k], chi[k])
        assert held[k].tolist() == alone_held.tolist()
        assert legs[k].tobytes() == alone_legs.tobytes()


def test_stack_errors_per_matrix():
    # the first refused matrix of a stack is named by its own labels: a
    # zero matrix by its first spread, a matrix with a value that is not
    # finite by its first spread whose row is not
    zero, overflow, nan = np.zeros((3, 3)), np.diag([1e-4, 1e-4, 1e306]), np.diag([1.0, np.nan, 1.0])
    labels = [["A/B", "C/D", "E/F"], ["G/H", "I/J", "K/L"], ["M/N", "O/P", "Q/R"]]
    for bad, named in ((zero, r"G/H \(ridge 0\)"), (overflow, r"K/L \(ridge inf\)"), (nan, r"I/J \(ridge nan\)")):
        for last in (zero, overflow, nan):
            stack = np.stack([np.eye(3), bad, last])
            with pytest.raises(SingularMatrixError, match=f"at spread {named}$"):
                solve_weights(stack, np.full((3, 3), 0.5), np.full((3, 3), 1e-3), 126, labels)


@st.composite
def psd_stacks(draw, min_days=1):
    """A stack of sample covariances over ``min_days`` to 40 days,
    rank-deficient when the days are fewer than the spreads, with one Hurst
    exponent in (0, 1) per spread."""
    k, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(min_days, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((k, m, n)) * 10.0 ** draw(st.integers(-4, 0))
    h = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=k * m, max_size=k * m))
    return covariance_matrix(x), np.reshape(h, (k, m))


@settings(max_examples=200, deadline=None)
@given(psd_stacks(), st.integers(1, 252))
def test_rescaling_is_a_congruence(drawn, n_days):
    # N^((H_l+H_r)/2+1) = d_l d_r with d = N^((H+1)/2): the rescaling is
    # D C D with a positive diagonal D, so by Sylvester's law of inertia it
    # leaves a PSD matrix PSD. The two forms differ by their roundings:
    # each exponent's error, times ln N, and one ulp per power or product.
    c, h = drawn
    got = rescale_covariance(c, h, n_days)
    d = float(n_days) ** ((h + 1.0) / 2.0)
    congruence = d[..., :, None] * c * d[..., None, :]
    np.testing.assert_allclose(got, congruence, rtol=(3.0 * math.log(n_days) + 9.0) * EPS / 2.0, atol=0.0)
    eigs = np.linalg.eigvalsh(got)
    assert np.all(eigs[..., 0] >= -1e-12 * eigs[..., -1])


@settings(max_examples=200, deadline=None)
@given(psd_stacks(min_days=2), st.integers(1, 252), st.integers(-4, 4))
def test_ridge_bounds_the_condition(drawn, n_days, scale):
    # a PSD matrix's largest eigenvalue is at most its trace, so the ridge
    # lambda * trace / m is at least lambda / m of it and the condition is
    # at most 1 + m / lambda, whatever the scale or rank: so every draw, at
    # scales 1e-8 to 1e8, solves to finite weights
    c, h = drawn
    c = c * 10.0 ** (2 * scale)
    m = c.shape[-1]
    a = rescale_covariance(c, h, n_days)
    ridge = RIDGE_LAMBDA * np.trace(a, axis1=-2, axis2=-1) / m
    cond = np.linalg.cond(a + ridge[..., None, None] * np.eye(m))
    assert np.all(cond <= (1.0 + m / RIDGE_LAMBDA) * (1.0 + 1e-6)), cond
    assert np.isfinite(solve_weights(c, h, np.ones(h.shape), n_days)).all()
