"""Walk-forward engine: sizing, costs, metrics, lookahead and accounting."""
from datetime import date, timedelta

import numpy as np
import pytest

from fractalport.backtest import (
    BacktestConfig,
    WindowResult,
    _mark_window,
    compute_metrics,
    max_drawdown,
    position_sizing,
    run_walk_forward,
)
from fractalport.errors import ParameterError
from fractalport.spreads import PriceSeries, price_panel
from fractalport.synthetic import make_synthetic_universe


def dates(n, start=0):
    base = date(2018, 1, 1)
    return tuple((base + timedelta(days=start + i)).isoformat() for i in range(n))


def small_universe(n_days=630, seed=1):
    return make_synthetic_universe(n_assets=6, n_days=n_days, seed=seed, n_pairs=2)


@pytest.fixture(scope="module")
def small_run():
    u = small_universe()
    cfg = BacktestConfig(benchmark_symbol="MKT")
    return u, cfg, run_walk_forward(price_panel(u.prices + [u.benchmark]), cfg)


class TestMaxDrawdown:
    def test_monotone_increasing_zero(self):
        assert max_drawdown([100.0, 101.0, 105.0, 120.0]) == 0.0

    def test_peak_to_trough(self):
        assert max_drawdown([100.0, 120.0, 90.0, 130.0]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            max_drawdown([])


class TestPositionSizing:
    def test_long(self):
        shares = position_sizing({"X": 0.5}, {"X": 250.0}, 100_000.0)
        assert shares["X"] == 200

    def test_short_truncated_toward_zero(self):
        shares = position_sizing({"X": -0.5}, {"X": 333.0}, 100_000.0)
        assert shares["X"] == -150

    def test_zero_exposure(self):
        assert position_sizing({"X": 0.0}, {"X": 10.0}, 100_000.0)["X"] == 0

    def test_bad_price(self):
        with pytest.raises(ParameterError):
            position_sizing({"X": 0.5}, {"X": 0.0}, 100_000.0)

    def test_bad_capital(self):
        with pytest.raises(ParameterError):
            position_sizing({"X": 0.5}, {"X": 10.0}, 0.0)


class TestAccrueCosts:
    def test_commission_per_side(self):
        # 200 shares in and out at $0.005/share: $1 + $1
        cfg = BacktestConfig(benchmark_symbol="SPY", overnight_rate_annual=0.0)
        prices = np.full((6, 1), 100.0)
        _, costs = _mark_window(np.array([200.0]), prices, cfg, 100_000.0)
        assert costs[0] == pytest.approx(1.0)
        assert costs[-1] == pytest.approx(1.0)
        assert costs.sum() == pytest.approx(2.0)

    def test_zero_positions_zero_costs(self):
        cfg = BacktestConfig(benchmark_symbol="SPY")
        _, costs = _mark_window(np.zeros(0), np.zeros((6, 0)), cfg, 100_000.0)
        assert np.all(costs == 0.0)

    def test_financing_hand_accrual(self):
        # equity 100k, gross 200k at leverage 2, flat prices, 252 days:
        # financed base = short value + borrowing above equity
        cfg = BacktestConfig(benchmark_symbol="SPY", commission_per_share=0.0)
        n_days = 252
        prices = np.full((n_days + 1, 2), 100.0)
        positions = np.array([1000.0, -1000.0])
        _, costs = _mark_window(positions, prices, cfg, 100_000.0)
        # independent accrual loop
        equity, expected = 100_000.0, []
        for _ in range(n_days):
            gross, short_mv = 200_000.0, 100_000.0
            fin = (max(0.0, gross - equity) + short_mv) * 0.01 / 252
            expected.append(fin)
            equity -= fin
        np.testing.assert_allclose(costs, expected, rtol=1e-12)
        # roughly 1% on the ~200k financed base over the year
        assert costs.sum() == pytest.approx(2000.0, rel=0.02)


class TestConfigValidation:
    def test_train_days_below_hurst_minimum(self):
        with pytest.raises(ParameterError):
            BacktestConfig(train_days=10)

    def test_hurst_cap_range(self):
        with pytest.raises(ParameterError):
            BacktestConfig(hurst_cap=0.7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"test_days": 0},
            {"leverage": 0.0},
            {"initial_capital": -1.0},
            {"commission_per_share": -0.1},
            {"overnight_rate_annual": -0.1},
            {"benchmark_symbol": ""},
        ],
    )
    def test_other_ranges(self, kwargs):
        with pytest.raises(ParameterError):
            BacktestConfig(**kwargs)


class TestRunWalkForward:
    def test_five_years_gives_nine_windows(self, small_run):
        u, cfg, rep = small_run
        # 630 trading days with 126/126 -> (630-126)//126 = 4 windows;
        # five years of 1260 days gives 9
        assert len(rep.windows) == 4
        u2 = small_universe(n_days=1260)
        rep2 = run_walk_forward(price_panel(u2.prices + [u2.benchmark]), cfg)
        assert len(rep2.windows) == 9

    def test_constant_prices_flat(self):
        series = [
            PriceSeries(symbol=s, dates=dates(300), prices=np.full(300, 50.0 + i))
            for i, s in enumerate(["A", "B", "C"])
        ]
        bench = PriceSeries(symbol="SPY", dates=dates(300), prices=np.full(300, 100.0))
        rep = run_walk_forward(
            price_panel(series + [bench]), BacktestConfig(benchmark_symbol="SPY")
        )
        assert rep.cumulative_return == 0.0
        assert all(not w.shares for w in rep.windows)
        assert all(w.costs_paid == 0.0 for w in rep.windows)

    def test_insufficient_history(self):
        series = [
            PriceSeries(symbol=s, dates=dates(200), prices=np.full(200, 50.0))
            for s in ("A", "B")
        ]
        bench = PriceSeries(symbol="SPY", dates=dates(200), prices=np.full(200, 100.0))
        with pytest.raises(ParameterError):
            run_walk_forward(
                price_panel(series + [bench]), BacktestConfig(benchmark_symbol="SPY")
            )

    def test_deterministic(self, small_run):
        u, cfg, rep = small_run
        rep2 = run_walk_forward(price_panel(u.prices + [u.benchmark]), cfg)
        assert rep.single_returns == rep2.single_returns
        for w1, w2 in zip(rep.windows, rep2.windows):
            assert np.array_equal(w1.daily_equity, w2.daily_equity)
            assert w1.shares == w2.shares

    def test_no_lookahead_inside_test_window(self, small_run):
        u, cfg, rep = small_run
        target = rep.windows[1]
        held = sorted(s for s, v in target.shares.items() if v < 0)
        assert held, "window 1 should hold short positions"
        sym = held[0]
        mutate_date = target.dates[len(target.dates) // 2]
        mutated = []
        for p in u.prices:
            if p.symbol == sym:
                idx = p.dates.index(mutate_date)
                prices = p.prices.copy()
                prices[idx] *= 1.5
                mutated.append(PriceSeries(symbol=sym, dates=p.dates, prices=prices))
            else:
                mutated.append(p)
        rep2 = run_walk_forward(price_panel(mutated + [u.benchmark]), cfg)
        w1, w2 = rep.windows[1], rep2.windows[1]
        assert w1.shares == w2.shares
        assert np.array_equal(w1.weights.spread_weights, w2.weights.spread_weights)
        assert w1.weights.asset_legs == w2.weights.asset_legs
        assert w1.window_return != w2.window_return

    def test_accounting_identity(self, small_run):
        u, cfg, rep = small_run
        lookup = {p.symbol: dict(zip(p.dates, p.prices)) for p in u.prices}
        for w in rep.windows:
            for t in range(1, len(w.dates)):
                pnl = sum(
                    sh * (lookup[s][w.dates[t]] - lookup[s][w.dates[t - 1]])
                    for s, sh in w.shares.items()
                )
                lhs = w.daily_equity[t]
                rhs = w.daily_equity[t - 1] + pnl - w.daily_costs[t - 1]
                assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_reinvest_compounds(self, small_run):
        u, cfg, rep = small_run
        expected = np.prod([1.0 + r for r in rep.single_returns]) - 1.0
        assert rep.cumulative_return == pytest.approx(expected, abs=1e-12)
        for prev, cur in zip(rep.windows, rep.windows[1:]):
            assert cur.daily_equity[0] == pytest.approx(prev.daily_equity[-1], abs=1e-9)

    def test_no_reinvest_resets_capital(self):
        u = small_universe()
        cfg = BacktestConfig(benchmark_symbol="MKT", reinvest=False)
        rep = run_walk_forward(price_panel(u.prices + [u.benchmark]), cfg)
        for w in rep.windows:
            assert w.daily_equity[0] == pytest.approx(100_000.0)

    def test_window_return_matches_equity(self, small_run):
        _, _, rep = small_run
        for w in rep.windows:
            assert w.window_return == pytest.approx(
                w.daily_equity[-1] / w.daily_equity[0] - 1.0, abs=1e-12
            )


def fabricate_window(idx, window_return, benchmark_return, start=100_000.0):
    equity = np.array([start, start * (1.0 + window_return)])
    return WindowResult(
        window_index=idx,
        weights=None,
        daily_equity=equity,
        window_return=window_return,
        benchmark_return=benchmark_return,
        costs_paid=0.0,
        selected=(),
        shares={},
        daily_costs=np.zeros(1),
        dates=dates(2, start=idx * 2),
    )


class TestComputeMetrics:
    def test_lo_sqrt2_annualization(self):
        # stdev of half-year returns 0.05 -> annual volatility 0.05*sqrt(2)
        returns = [0.10, 0.00]  # sample stdev exactly 0.0707.. /sqrt(2)=0.05
        windows = [fabricate_window(i, r, 0.01) for i, r in enumerate(returns)]
        rep = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))
        sd = np.std(returns, ddof=1)
        assert sd == pytest.approx(0.07071067811865477)
        assert rep.annual_volatility == pytest.approx(np.sqrt(2) * sd, abs=1e-15)
        assert rep.annual_return_single == pytest.approx(2 * np.mean(returns), abs=1e-15)

    def test_neutrality_identity(self):
        windows = [
            fabricate_window(0, 0.02, 0.01),
            fabricate_window(1, -0.01, 0.03),
            fabricate_window(2, 0.03, -0.02),
        ]
        rep = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))
        assert rep.market_neutrality == 1.0 - abs(rep.benchmark_correlation)

    def test_identical_to_benchmark(self):
        windows = [fabricate_window(i, r, r) for i, r in enumerate([0.02, -0.01, 0.05])]
        rep = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))
        assert rep.benchmark_correlation == pytest.approx(1.0)
        assert rep.market_neutrality == pytest.approx(0.0)

    def test_drawdown_of_chained_curve(self):
        windows = [fabricate_window(0, 0.20, 0.0), fabricate_window(1, -0.25, 0.0)]
        rep = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))
        assert rep.max_drawdown == pytest.approx(0.25)

    def test_single_window_degenerate_stats(self):
        rep = compute_metrics([fabricate_window(0, 0.02, 0.01)], BacktestConfig(benchmark_symbol="SPY"))
        assert rep.annual_volatility is None
        assert rep.sharpe is None
        assert rep.benchmark_correlation is None
        assert rep.market_neutrality is None

    def test_zero_mean_normalized_vol_undefined(self):
        windows = [fabricate_window(0, 0.02, 0.0), fabricate_window(1, -0.02, 0.01)]
        rep = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))
        assert rep.normalized_volatility is None

    def test_no_windows_rejected(self):
        with pytest.raises(ParameterError):
            compute_metrics([], BacktestConfig(benchmark_symbol="SPY"))
