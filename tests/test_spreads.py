"""Normalized returns, hedge ratios and spread construction."""
from datetime import date, timedelta

import numpy as np
import pytest

from fractalport.errors import (
    AlignmentError,
    DegeneratePairError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)
from fractalport.spreads import (
    PriceSeries,
    ReturnSeries,
    build_spread,
    compute_returns,
    flip_spread,
    hedge_ratio,
)


def dates(n, start=0):
    base = date(2020, 1, 1)
    return tuple((base + timedelta(days=start + i)).isoformat() for i in range(n))


def make_returns(symbol, values, entry_price=100.0):
    values = np.asarray(values, dtype=np.float64)
    return ReturnSeries(
        symbol=symbol, entry_price=entry_price, returns=values, dates=dates(values.size)
    )


class TestPriceSeries:
    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValidationError):
            PriceSeries(symbol="X", dates=dates(2), prices=np.array([100.0, 0.0]))

    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValidationError):
            PriceSeries(
                symbol="X",
                dates=("2020-01-02", "2020-01-01"),
                prices=np.array([1.0, 2.0]),
            )

    def test_prices_immutable(self):
        p = PriceSeries(symbol="X", dates=dates(2), prices=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            p.prices[0] = 5.0


class TestComputeReturns:
    def test_basic_arithmetic(self):
        p = PriceSeries(symbol="X", dates=dates(3), prices=np.array([100.0, 101.0, 100.0]))
        r = compute_returns(p, entry_index=0)
        np.testing.assert_allclose(r.returns, [0.01, -0.01])
        assert r.entry_price == 100.0
        assert r.dates == p.dates[1:]

    def test_constant_prices_zero_returns(self):
        p = PriceSeries(symbol="X", dates=dates(5), prices=np.full(5, 42.0))
        assert np.all(compute_returns(p).returns == 0.0)

    def test_entry_price_in_denominator(self):
        # p0 from a different segment: 10-point move on entry price 200
        p = PriceSeries(symbol="X", dates=dates(3), prices=np.array([200.0, 100.0, 110.0]))
        r = compute_returns(p, entry_index=0)
        assert r.returns[1] == pytest.approx(0.05)

    def test_entry_index_out_of_range(self):
        p = PriceSeries(symbol="X", dates=dates(2), prices=np.array([1.0, 2.0]))
        with pytest.raises(ParameterError):
            compute_returns(p, entry_index=2)

    def test_linearity_in_prices(self):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(40))
        p1 = PriceSeries(symbol="X", dates=dates(40), prices=prices)
        p2 = PriceSeries(symbol="X", dates=dates(40), prices=3.0 * prices)
        np.testing.assert_allclose(
            compute_returns(p1).returns, compute_returns(p2).returns, rtol=1e-11, atol=1e-15
        )


class TestHedgeRatio:
    def test_identical_series_unity(self):
        rng = np.random.default_rng(0)
        r = make_returns("A", 0.01 * rng.standard_normal(100))
        assert hedge_ratio(r, r) == pytest.approx(1.0, rel=1e-12)

    def test_exact_linear_relation(self):
        rng = np.random.default_rng(1)
        base = 0.01 * rng.standard_normal(100)
        ri = make_returns("A", base)
        rj = make_returns("B", 2.0 * base)
        assert hedge_ratio(ri, rj) == pytest.approx(0.5, rel=1e-12)

    def test_monte_carlo_beta_ratio(self):
        # known beta ratio 1.2/0.8 = 1.5, small idiosyncratic noise
        hits = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            market = 0.01 * rng.standard_normal(2000)
            ri = make_returns("A", 1.2 * market + 0.001 * rng.standard_normal(2000))
            rj = make_returns("B", 0.8 * market + 0.001 * rng.standard_normal(2000))
            hits.append(hedge_ratio(ri, rj))
        assert np.median(hits) == pytest.approx(1.5, abs=0.1)

    def test_degenerate_regressor(self):
        rng = np.random.default_rng(2)
        ri = make_returns("A", 0.01 * rng.standard_normal(64))
        rj = make_returns("B", np.zeros(64))
        with pytest.raises(DegeneratePairError):
            hedge_ratio(ri, rj)

    def test_nonpositive_slope_is_signal_not_error(self):
        rng = np.random.default_rng(3)
        base = 0.01 * rng.standard_normal(100)
        chi = hedge_ratio(make_returns("A", base), make_returns("B", -base))
        assert chi < 0

    def test_too_short(self):
        r1 = make_returns("A", np.linspace(0, 0.01, 10))
        r2 = make_returns("B", np.linspace(0, 0.02, 10))
        with pytest.raises(InsufficientDataError):
            hedge_ratio(r1, r2)


class TestBuildSpread:
    def test_perfect_hedge(self):
        ri = make_returns("A", np.full(40, 0.02))
        rj = make_returns("B", np.full(40, 0.01))
        s = build_spread(ri, rj, 2.0)
        assert np.all(s.deltas == 0.0)
        assert s.mean_delta == 0.0 and s.theta == 0.0

    def test_unit_hedge(self):
        ri = make_returns("A", np.full(40, 0.02))
        rj = make_returns("B", np.full(40, 0.01))
        s = build_spread(ri, rj, 1.0)
        np.testing.assert_allclose(s.deltas, 0.01)

    def test_market_term_cancels_with_true_chi(self):
        # beta_i/beta_j = chi and independent drifts: corr(delta, market) ~ 0
        n, chi_true = 4000, 1.5
        rng = np.random.default_rng(8)
        market = 0.01 * rng.standard_normal(n)
        ri = make_returns("A", 1.2 * market + 0.0005 + 0.002 * rng.standard_normal(n))
        rj = make_returns("B", 0.8 * market + 0.0002 + 0.002 * rng.standard_normal(n))
        s = build_spread(ri, rj, chi_true)
        rho = np.corrcoef(s.deltas, market)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(n)

    def test_residual_increment_slope_vanishes_with_ols_chi(self):
        rng = np.random.default_rng(9)
        market = 0.01 * rng.standard_normal(500)
        ri = make_returns("A", 1.1 * market + 0.003 * rng.standard_normal(500))
        rj = make_returns("B", 0.9 * market + 0.003 * rng.standard_normal(500))
        chi = hedge_ratio(ri, rj)
        s = build_spread(ri, rj, chi)
        dd = np.diff(s.deltas)
        dj = np.diff(rj.returns)
        slope = np.mean((dd - dd.mean()) * (dj - dj.mean())) / np.var(dj)
        assert abs(slope) < 1e-9

    def test_alignment_required(self):
        ri = make_returns("A", np.full(40, 0.01))
        rj = ReturnSeries(
            symbol="B", entry_price=100.0, returns=np.full(40, 0.01), dates=dates(40, start=2)
        )
        with pytest.raises(AlignmentError):
            build_spread(ri, rj, 1.0)

    def test_nonpositive_chi_rejected(self):
        ri = make_returns("A", np.full(40, 0.01))
        rj = make_returns("B", np.full(40, 0.01))
        with pytest.raises(ParameterError):
            build_spread(ri, rj, -1.0)


class TestFlipSpread:
    def test_power_of_two_algebra_exact(self):
        ri = make_returns("A", np.array([0.04, 0.01]))
        rj = make_returns("B", np.array([0.01, 0.01]))
        s = build_spread(ri, rj, 2.0)  # deltas [0.02, -0.01]
        np.testing.assert_array_equal(s.deltas, [0.02, -0.01])
        f = flip_spread(s)
        assert f.chi == 0.5
        np.testing.assert_array_equal(f.deltas, [-0.01, 0.005])
        assert (f.long_symbol, f.short_symbol) == ("B", "A")

    def test_involution(self):
        ri = make_returns("A", np.array([0.04, 0.01, -0.02, 0.03]))
        rj = make_returns("B", np.array([0.01, 0.02, 0.01, -0.01]))
        s = build_spread(ri, rj, 2.0)
        back = flip_spread(flip_spread(s))
        np.testing.assert_array_equal(back.deltas, s.deltas)
        assert back.chi == s.chi
        assert back.pair() == s.pair()

    def test_involution_general_chi(self):
        rng = np.random.default_rng(12)
        ri = make_returns("A", 0.01 * rng.standard_normal(50))
        rj = make_returns("B", 0.01 * rng.standard_normal(50))
        s = build_spread(ri, rj, 1.7)
        back = flip_spread(flip_spread(s))
        np.testing.assert_allclose(back.deltas, s.deltas, rtol=1e-14)
        assert back.chi == pytest.approx(s.chi, rel=1e-15)

    def test_negative_mean_becomes_positive(self):
        rng = np.random.default_rng(13)
        deltas = 0.01 * rng.standard_normal(60) - 0.005
        ri = make_returns("A", deltas)
        rj = make_returns("B", np.zeros(60))
        s = build_spread(ri, rj, 1.0)
        assert s.mean_delta < 0
        assert flip_spread(s).mean_delta > 0

    def test_preserves_t_statistic(self):
        rng = np.random.default_rng(14)
        ri = make_returns("A", 0.01 * rng.standard_normal(80) + 0.001)
        rj = make_returns("B", 0.005 * rng.standard_normal(80))
        s = build_spread(ri, rj, 2.5)
        f = flip_spread(s)
        t_s = abs(s.mean_delta) / (s.theta / np.sqrt(s.deltas.size))
        t_f = abs(f.mean_delta) / (f.theta / np.sqrt(f.deltas.size))
        assert t_f == pytest.approx(t_s, rel=1e-12)
