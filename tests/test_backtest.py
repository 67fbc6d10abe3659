"""Walk-forward engine: sizing, costs, metrics, lookahead and accounting."""
import functools
import json
import math
import sys
from dataclasses import fields, replace
from datetime import date
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport import backtest
from fractalport.backtest import (
    BacktestConfig,
    WindowResult,
    _mark_window,
    compute_metrics,
    max_drawdown,
    position_sizing,
    run_walk_forward,
)
from fractalport.errors import NumericalError, ParameterError, SingularMatrixError
from fractalport.io import report_to_dict
from fractalport.optimizer import (
    apply_leverage,
    compose_legs,
    covariance_matrix,
    solve_weights,
)
from fractalport.selection import PAIR_BLOCK, SelectionConfig, build_generating_matrix, select_spreads
from fractalport.spreads import PriceSeries, build_panel, spread_returns, window_returns
from fractalport.synthetic import make_synthetic_universe
import panels
from json_text import json_text
from panels import panel_of
from walk_reference import reference_drawdown, reference_legs_and_shares, reference_mark


dates = functools.partial(panels.dates, base=date(2018, 1, 1))


def small_universe(n_days=630, seed=1):
    return make_synthetic_universe(n_assets=6, n_days=n_days, seed=seed, n_pairs=2)


@pytest.fixture(scope="module")
def small_run():
    u = small_universe()
    cfg = BacktestConfig(benchmark_symbol="MKT")
    return u, cfg, run_walk_forward(panel_of(u.prices + [u.benchmark]), cfg)


class TestMaxDrawdown:
    def test_monotone_increasing_zero(self):
        assert max_drawdown([100.0, 101.0, 105.0, 120.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            max_drawdown([])


class TestPositionSizing:
    def test_long(self):
        counts = position_sizing(np.array([0.5]), np.array([250.0]), 100_000.0, ["X"])
        assert counts.tolist() == [200.0]

    def test_short_truncated_toward_zero(self):
        counts = position_sizing(np.array([-0.5]), np.array([333.0]), 100_000.0, ["X"])
        assert counts.tolist() == [-150.0]

    def test_zero_exposure(self):
        assert position_sizing(np.array([0.0]), np.array([10.0]), 100_000.0, ["X"])[0] == 0

    def test_bad_price(self):
        with pytest.raises(ParameterError, match="X: entry price must be positive, got 0.0"):
            position_sizing(np.array([0.1, 0.5]), np.array([5.0, 0.0]), 100_000.0, ["W", "X"])

    def test_bad_capital(self):
        with pytest.raises(ParameterError):
            position_sizing(np.array([0.5]), np.array([10.0]), 0.0, ["X"])

    def test_lengths_checked(self):
        with pytest.raises(ParameterError):
            position_sizing(np.array([0.5]), np.array([10.0, 20.0]), 100.0, ["X"])

    def test_overflow_names_symbol(self):
        with pytest.raises(NumericalError, match="X: share count inf is not finite"):
            position_sizing(np.array([0.5, 1e308]), np.array([10.0, 0.5]), 100.0, ["W", "X"])


@st.composite
def disjoint_selections(draw):
    """Spreads on disjoint assets of a sorted universe, with weights that
    include exact zeros and sizes whose legs or counts overflow."""
    n_assets = draw(st.integers(2, 40))
    symbols = [f"S{k:02d}" for k in range(n_assets)]
    assets = draw(st.permutations(range(n_assets)))
    n = draw(st.integers(1, n_assets // 2))
    weight = st.one_of(
        st.just(0.0), st.floats(1e-6, 10.0), st.floats(1e15, 1e25), st.floats(1e290, 1e308)
    )
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    chi = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    prices = draw(st.lists(st.floats(0.01, 1e4), min_size=n_assets, max_size=n_assets))
    capital = draw(st.floats(1e3, 1e12))
    return symbols, assets[:n], assets[n : 2 * n], weights, chi, prices, capital


@settings(max_examples=300, deadline=None)
@given(disjoint_selections())
@example((["A", "B", "C", "D"], [2, 0], [3, 1], [0.0, 1.0], [2.0, 1.0], [10.0] * 4, 1e5))
@example((["A", "B"], [1], [0], [1e308], [10.0], [1.0, 1.0], 1e3))
def test_legs_and_shares_match_symbol_keyed_reference(selection):
    symbols, long, short, weights, chi, prices, capital = selection
    try:
        want = reference_legs_and_shares(
            weights,
            [symbols[k] for k in long],
            [symbols[k] for k in short],
            chi,
            dict(zip(symbols, prices)),
            capital,
        )
    except NumericalError as exc:
        want = str(exc)
    held, legs = compose_legs(np.array(weights), long, short, np.array(chi))
    names = [symbols[k] for k in held.tolist()]
    try:
        counts = position_sizing(legs, np.array(prices)[held], capital, names)
    except NumericalError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    with np.errstate(over="ignore", invalid="ignore"):  # the numpy formula, signed zeros too
        assert counts.tobytes() == np.trunc(legs * capital / np.array(prices)[held]).tobytes()
    got_legs = dict(zip(names, legs.tolist()))
    got_shares = dict(zip(names, map(int, counts.tolist())))
    want_legs, want_shares = want
    assert sorted(got_legs) == sorted(want_legs) == names
    assert [got_legs[s].hex() for s in names] == [want_legs[s].hex() for s in names]
    assert got_shares == want_shares
    assert all(type(v) is int for v in got_shares.values())
    assert all(math.copysign(1.0, v) > 0 for v in got_legs.values() if v == 0.0)


class TestAccrueCosts:
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


@st.composite
def held_windows(draw):
    """Share counts and a C-contiguous (days+1 x held) price block: all-long,
    all-short or mixed holdings, some counts zero."""
    n_held = draw(st.integers(0, 300))
    t_days = draw(st.integers(1, 130))
    side = draw(st.sampled_from(["long", "short", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = rng.integers(0, 10**draw(st.integers(1, 6)), n_held).astype(np.float64)
    shares[rng.random(n_held) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    if side == "short":
        shares = -shares
    elif side == "mixed":
        shares *= rng.choice([-1.0, 1.0], n_held)
    steps = rng.normal(0.0, draw(st.sampled_from([0.001, 0.02, 0.1])), (t_days + 1, n_held))
    prices = rng.uniform(1.0, 500.0, n_held) * np.exp(np.cumsum(steps, axis=0))
    cfg = BacktestConfig(
        commission_per_share=draw(st.sampled_from([0.0, 0.005, 0.1])),
        overnight_rate_annual=draw(st.sampled_from([0.0, 0.01, 0.25])),
    )
    start = draw(st.floats(1e3, 1e8))
    return shares, np.ascontiguousarray(prices), cfg, start


@settings(max_examples=300, deadline=None)
@given(held_windows())
@example((np.array([0.0]), np.full((2, 1), 10.0), BacktestConfig(), 1e5))
@example((np.zeros(0), np.zeros((6, 0)), BacktestConfig(), 1e5))  # nothing held
@example(
    (
        np.arange(-143.0, 143.0) * 1000.0,  # 286 held, one of them zero
        np.ascontiguousarray(np.linspace(5.0, 400.0, 286 * 22).reshape(22, 286)),
        BacktestConfig(),
        1e6,
    )
)
def test_mark_window_matches_per_day_reference(window):
    shares, prices, cfg, start = window
    equity, costs = _mark_window(shares, prices, cfg, start)
    want_equity, want_costs = reference_mark(shares, prices, cfg, start)
    for got, want in ((equity, want_equity), (costs, want_costs)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    # accounting: each day's equity change is its P&L less its cost
    t_days = prices.shape[0] - 1
    for t in range(t_days):
        pnl = float(shares @ (prices[t + 1] - prices[t]))
        assert equity[t + 1] == equity[t] + pnl - costs[t]
    assert (costs >= 0.0).all()
    # entry and exit commission on the first and last day, both on a 1-day window
    commission = cfg.commission_per_share * float(np.abs(shares).sum())
    _, commissions = _mark_window(shares, prices, replace(cfg, overnight_rate_annual=0.0), start)
    expected = np.zeros(t_days)
    expected[0] += commission
    expected[-1] += commission
    assert commissions.tobytes() == expected.tobytes()


class TestConfigValidation:
    def test_train_days_below_hurst_minimum(self):
        with pytest.raises(ParameterError):
            BacktestConfig(train_days=10)

    def test_hurst_cap_range(self):
        with pytest.raises(ParameterError, match=r"hurst cap must lie in \(0, 0.5\], got 0.7"):
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
        rep2 = run_walk_forward(panel_of(u2.prices + [u2.benchmark]), cfg)
        assert len(rep2.windows) == 9

    def test_constant_prices_flat(self):
        series = [
            PriceSeries(symbol=s, dates=dates(300), prices=np.full(300, 50.0 + i))
            for i, s in enumerate(["A", "B", "C"])
        ]
        bench = PriceSeries(symbol="SPY", dates=dates(300), prices=np.full(300, 100.0))
        rep = run_walk_forward(
            panel_of(series + [bench]), BacktestConfig(benchmark_symbol="SPY")
        )
        assert rep.cumulative_return == 0.0
        assert all(not w.shares for w in rep.windows)
        assert all(w.costs_paid == 0.0 for w in rep.windows)

    def test_one_traded_symbol(self):
        series = [
            PriceSeries(symbol=s, dates=dates(300), prices=np.full(300, 50.0))
            for s in ("A", "SPY")
        ]
        with pytest.raises(ParameterError, match="universe needs at least 2 assets, got 1"):
            run_walk_forward(panel_of(series), BacktestConfig(benchmark_symbol="SPY"))

    def test_insufficient_history(self):
        series = [
            PriceSeries(symbol=s, dates=dates(200), prices=np.full(200, 50.0))
            for s in ("A", "B")
        ]
        bench = PriceSeries(symbol="SPY", dates=dates(200), prices=np.full(200, 100.0))
        with pytest.raises(ParameterError):
            run_walk_forward(
                panel_of(series + [bench]), BacktestConfig(benchmark_symbol="SPY")
            )

    def test_deterministic(self, small_run):
        u, cfg, rep = small_run
        rep2 = run_walk_forward(panel_of(u.prices + [u.benchmark]), cfg)
        assert rep.single_returns == rep2.single_returns
        for w1, w2 in zip(rep.windows, rep2.windows):
            assert np.array_equal(w1.daily_equity, w2.daily_equity)
            assert w1.shares == w2.shares

    def test_reinvest_compounds(self, small_run):
        u, cfg, rep = small_run
        expected = np.prod([1.0 + r for r in rep.single_returns]) - 1.0
        assert rep.cumulative_return == pytest.approx(expected, abs=1e-12)
        for prev, cur in zip(rep.windows, rep.windows[1:]):
            assert cur.daily_equity[0] == pytest.approx(prev.daily_equity[-1], abs=1e-9)

    def test_no_reinvest_resets_capital(self):
        u = small_universe()
        cfg = BacktestConfig(benchmark_symbol="MKT", reinvest=False)
        rep = run_walk_forward(panel_of(u.prices + [u.benchmark]), cfg)
        for w in rep.windows:
            assert w.daily_equity[0] == pytest.approx(100_000.0)

    def test_each_window_selects_from_its_own_candidates(self, universe, backtest_cfg):
        # 21-day tests put several training windows of 45 pairs in one
        # candidate stack, selected in one pass; each window's candidates
        # must be its table built alone, and its selected rows that
        # table's selection alone
        cfg = replace(backtest_cfg, test_days=21)
        group = backtest.GROUP_ROWS // 45
        assert group > 1
        panel = panel_of(universe.prices + [universe.benchmark])
        seen = []
        select = backtest.select_spreads

        def recording(cands, sel_cfg):
            seen.append((cands, select(cands, sel_cfg)))
            return seen[-1][1]

        with mock.patch.object(backtest, "select_spreads", recording):
            rep = run_walk_forward(panel, cfg)
        traded = np.array([s != "MKT" for s in panel.symbols])
        prices = panel.prices[traded]
        n_windows = (prices.shape[1] - cfg.train_days) // 21
        assert len(rep.windows) == n_windows and len(seen) == -(-n_windows // group)
        sel_cfg = SelectionConfig(21)
        for w in range(n_windows):
            cands, picked = seen[w // group]
            returns = window_returns(prices[:, w * 21 : w * 21 + cfg.train_days])
            alone = build_generating_matrix(returns, cands.symbols, sel_cfg)
            mine = cands.take(cands.window == w % group)
            for f in fields(alone)[2:]:
                assert np.array_equal(getattr(mine, f.name), getattr(alone, f.name)), (w, f.name)
            want = select_spreads(alone, sel_cfg)
            got = picked.take(picked.window == w % group)
            for f in fields(want)[2:]:
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (w, f.name)
            assert [{k: v for k, v in r.items() if k != "weight"} for r in rep.windows[w].selected] == want.rows()

    def test_each_window_optimizes_its_own_deltas(self, universe, backtest_cfg):
        # a group's windows are optimized as stacks, one per number of
        # selected spreads; each window's weights, scale and legs must be
        # the 2-D optimizer's on that window's spread returns built alone
        cfg = replace(backtest_cfg, test_days=21)
        panel = panel_of(universe.prices + [universe.benchmark])
        rep = run_walk_forward(panel, cfg)
        traded = np.array([s != "MKT" for s in panel.symbols])
        prices = panel.prices[traded]
        symbols = list(compress(panel.symbols, traded))
        assert len(rep.windows) == 114
        assert sum(len(w.selected) > 1 for w in rep.windows) > 50
        assert len({len(w.selected) for w in rep.windows}) > 2
        sel_cfg = SelectionConfig(21)
        for w, got in enumerate(rep.windows):
            returns = window_returns(prices[:, w * 21 : w * 21 + cfg.train_days])
            sel = select_spreads(build_generating_matrix(returns, symbols, sel_cfg), sel_cfg)
            if not sel:
                assert got.scale_k is None and not got.selected, w
                continue
            cov = covariance_matrix(spread_returns(returns, sel.long, sel.short, sel.chi))
            raw = solve_weights(cov, sel.h, sel.mean, 21)
            weights, scale_k = apply_leverage(raw, cfg.leverage)
            held, legs = compose_legs(weights, sel.long, sel.short, sel.chi)
            assert [r["weight"] for r in got.selected] == weights.tolist(), w
            assert got.scale_k == scale_k, w
            assert got.asset_legs == dict(zip([symbols[i] for i in held.tolist()], legs.tolist())), w

    def test_shares_exact_above_int64(self):
        # each count is the exact integer of its truncated float, past 2**63 too
        u = small_universe()
        cfg = BacktestConfig(benchmark_symbol="MKT", initial_capital=1e22, reinvest=False)
        rep = run_walk_forward(panel_of(u.prices + [u.benchmark]), cfg)
        price_on = {p.symbol: dict(zip(p.dates, p.prices.tolist())) for p in u.prices}
        held = [w for w in rep.windows if w.shares]
        assert held and max(abs(v) for w in held for v in w.shares.values()) > 2**63
        for w in held:
            assert w.shares == {
                s: math.trunc(leg * cfg.initial_capital / price_on[s][w.dates[0]])
                for s, leg in w.asset_legs.items()
            }

    def test_window_return_matches_equity(self, small_run):
        _, _, rep = small_run
        for w in rep.windows:
            assert w.window_return == pytest.approx(
                w.daily_equity[-1] / w.daily_equity[0] - 1.0, abs=1e-12
            )



def same_window(a: WindowResult, b: WindowResult) -> bool:
    """Every field equal, arrays bit for bit."""
    for f in fields(WindowResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


def with_prices(panel, prices):
    """The panel with a copy of ``prices``: ``build_panel`` freezes its matrix."""
    return build_panel(panel.symbols, panel.dates, prices.copy())


@pytest.mark.parametrize("test_days", [126, 21])
def test_delisted_symbol_marked_at_last_close(test_days):
    # A1 stops pricing halfway through a test window that holds it: up to
    # and including that window, the report is the one in which A1 stays
    # at its last close, and the later windows, which train over the
    # missing days, do not hold it
    u = small_universe()
    panel = panel_of(u.prices + [u.benchmark])
    cfg = BacktestConfig(benchmark_symbol="MKT", test_days=test_days)
    w = 2
    stop = w * test_days + cfg.train_days + test_days // 2  # A1's first day without a close
    k = panel.symbols.index("A1")
    prices = panel.prices.copy()
    prices[k, stop:] = np.nan
    delisted = run_walk_forward(with_prices(panel, prices), cfg)
    prices[k, stop:] = panel.prices[k, stop - 1]
    flat = run_walk_forward(with_prices(panel, prices), cfg)
    assert delisted.windows[w].shares["A1"] != 0
    assert len(delisted.windows) == len(flat.windows) > w + 1
    for a, b in zip(delisted.windows[: w + 1], flat.windows[: w + 1]):
        assert same_window(a, b), a.window_index
    assert not any("A1" in x.asset_legs for x in delisted.windows[w + 1 :])


@functools.cache
def lookahead_base(test_days):
    u = small_universe()
    panel = panel_of(u.prices + [u.benchmark])
    cfg = BacktestConfig(benchmark_symbol="MKT", test_days=test_days)
    return panel, cfg, run_walk_forward(panel, cfg)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_no_lookahead_after_entry_close(data):
    # perturbing or blanking any prices after window w's entry close leaves
    # the selections, legs and shares of windows 0..w as they were
    panel, cfg, rep = lookahead_base(data.draw(st.sampled_from([126, 21])))
    w = data.draw(st.integers(0, len(rep.windows) - 1))
    entry = w * cfg.test_days + cfg.train_days - 1
    start = data.draw(st.integers(entry + 1, len(panel.dates) - 1))
    stop = data.draw(st.integers(start + 1, len(panel.dates)))
    traded = [k for k, s in enumerate(panel.symbols) if s != "MKT"]
    blank = data.draw(st.booleans())
    rows = data.draw(st.lists(
        st.sampled_from(traded if blank else range(len(panel.symbols))), min_size=1, unique=True
    ))
    prices = panel.prices.copy()
    if blank:
        prices[rows, start:stop] = np.nan
    else:
        prices[rows, start:stop] *= data.draw(st.floats(0.8, 1.25))
    changed = run_walk_forward(with_prices(panel, prices), cfg)
    for a, b in zip(rep.windows[: w + 1], changed.windows[: w + 1]):
        assert (a.selected, a.asset_legs, a.shares) == (b.selected, b.asset_legs, b.shares)


def test_uninvested_windows_in_report():
    # no planted pair and a Hurst cap no spread passes: every window holds
    # nothing, and its report entry says so with null scalars and empty maps
    u = make_synthetic_universe(n_assets=4, n_days=400, seed=1, n_pairs=0)
    cfg = BacktestConfig(benchmark_symbol="MKT", hurst_cap=0.01)
    rep = run_walk_forward(panel_of(u.prices + [u.benchmark]), cfg)
    doc = json.loads(json_text(report_to_dict(rep, cfg)))
    assert len(doc["windows"]) == 2
    for w in doc["windows"]:
        assert w["leverage"] is None and w["scale_k"] is None
        assert w["asset_legs"] == w["shares"] == {}
        assert w["selected"] == []
        assert w["costs_paid"] == 0.0
        assert w["daily_equity"] == [w["daily_equity"][0]] * len(w["dates"])
    assert doc["metrics"]["avg_max_weight"] is None
    assert doc["metrics"]["asset_count_min"] == doc["metrics"]["asset_count_max"] == 0


def test_no_positive_weight_leaves_windows_uninvested(small_run, monkeypatch):
    # every window selects spreads, but the optimizer gives none a positive
    # weight: the portfolio is empty, and each window holds nothing, as in
    # a window that selects nothing
    u, cfg, rep = small_run
    assert all(w.selected for w in rep.windows)
    solved = []

    def solve_weights(cov, hursts, mean, n_days, labels=None):
        solved.append(np.shape(mean))
        return -np.ones(np.shape(mean))

    monkeypatch.setattr(backtest, "solve_weights", solve_weights)
    empty = run_walk_forward(panel_of(u.prices + [u.benchmark]), cfg)
    assert sum(shape[0] for shape in solved) == len(empty.windows) == len(rep.windows)
    doc = json.loads(json_text(report_to_dict(empty, cfg)))
    for w in doc["windows"]:
        assert w["leverage"] is None and w["scale_k"] is None
        assert w["asset_legs"] == w["shares"] == {}
        assert w["selected"] == []
        assert w["daily_equity"] == [w["daily_equity"][0]] * len(w["dates"])
    assert doc["metrics"]["asset_count_min"] == doc["metrics"]["asset_count_max"] == 0


def test_group_errors_keep_window_order(monkeypatch):
    # 6 assets on 21-day tests: windows 0-23 are one group (of up to 68),
    # optimized as stacks. Of two singular windows in one stack the first
    # one's error names its own spreads
    u = small_universe()
    panel = panel_of(u.prices + [u.benchmark])
    cfg = BacktestConfig(benchmark_symbol="MKT", test_days=21)
    rep = run_walk_forward(panel, cfg)
    assert len(rep.windows) == 24 and len(rep.windows[1].selected) == len(rep.windows[3].selected)
    solve = backtest.solve_weights

    def singular_at(*windows):
        targets = [[s["hurst"] for s in rep.windows[w].selected] for w in windows]

        def solve_weights(cov, hursts, mean, n_days, labels=None):
            cov = np.array(cov)
            h = np.asarray(hursts)
            for k in np.ndindex(h.shape[:-1]):  # () for one window alone
                if h[k].tolist() in targets:
                    cov[k] = 0.0
            return solve(cov, hursts, mean, n_days, labels)

        monkeypatch.setattr(backtest, "solve_weights", solve_weights)

    def named(w):
        first = rep.windows[w].selected[0]
        pair = f"{first['long_symbol']}/{first['short_symbol']}"
        return rf"singular or not finite at spread {pair} \(ridge 0\)$"

    singular_at(3, 1)
    with pytest.raises(SingularMatrixError, match=named(1)):
        run_walk_forward(panel, cfg)
    singular_at(3)
    with pytest.raises(SingularMatrixError, match=named(3)):
        run_walk_forward(panel, cfg)


@pytest.fixture(scope="module")
def long_history():
    # the shape of the history_long benchmark: 6 traded assets (15 pairs)
    # on 21-day tests, over 140 windows
    u = small_universe(n_days=126 + 140 * 21)
    return panel_of(u.prices + [u.benchmark]), BacktestConfig(benchmark_symbol="MKT", test_days=21)


def test_fifteen_pairs_walk_in_groups_of_68(long_history, monkeypatch):
    # GROUP_ROWS fills a group with 68 windows of 15 pairs: one candidate
    # build and one selection per 68 windows
    panel, cfg = long_history
    select = backtest.select_spreads
    calls = []

    def counting(cands, sel_cfg):
        calls.append(len(cands))
        return select(cands, sel_cfg)

    monkeypatch.setattr(backtest, "select_spreads", counting)
    rep = run_walk_forward(panel, cfg)
    assert len(rep.windows) == 140 and len(calls) == -(-140 // 68)


def test_report_bytes_do_not_depend_on_group_size(long_history, monkeypatch):
    # one window per group, one PAIR_BLOCK's worth and the default group
    # give one report, byte for byte
    panel, cfg = long_history
    reports = []
    for rows in (1, PAIR_BLOCK, backtest.GROUP_ROWS):
        monkeypatch.setattr(backtest, "GROUP_ROWS", rows)
        reports.append(json_text(report_to_dict(run_walk_forward(panel, cfg), cfg)))
    assert reports[0] == reports[1] == reports[2]


def fabricate_window(idx, window_return, benchmark_return, start=100_000.0):
    equity = np.array([start, start * (1.0 + window_return)])
    return WindowResult(
        window_index=idx,
        leverage=None,
        scale_k=None,
        asset_legs={},
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

    @pytest.mark.parametrize(
        "returns,message",
        [
            # the product overflows, then meets a total loss
            ([1e300, 1e300, -1.0], "cumulative return is not finite: nan"),
            # a total loss floors the reinvested return; the mean of daily
            # windows, annualized, overflows
            ([1e307, -1.0], "single annual return is not finite: inf"),
        ],
    )
    def test_non_finite_return_raises(self, returns, message):
        windows = [fabricate_window(i, r, 0.0) for i, r in enumerate(returns)]
        with pytest.raises(NumericalError, match=message):
            compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY", test_days=1))

    def test_overflowing_volatility_raises(self):
        # every return is finite, but their squared deviations overflow:
        # the volatility is not finite, and no Sharpe ratio is made of it
        windows = [fabricate_window(0, 1e160, 0.0), fabricate_window(1, -0.5, 0.01)]
        with pytest.raises(NumericalError, match="^annual volatility is not finite: inf$"):
            compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))

    def test_overflowing_drawdown_curve_raises(self):
        # every return is finite, but the curve chained from the initial
        # capital passes the float range in the second window
        windows = [fabricate_window(i, 1e5, 0.0) for i in range(2)]
        cfg = BacktestConfig(benchmark_symbol="SPY", initial_capital=1e300)
        with pytest.raises(NumericalError, match="^window 1: compounded equity is not finite$"):
            compute_metrics(windows, cfg)

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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.floats(1e2, 1e8), min_size=2, max_size=8), min_size=1, max_size=12),
    st.sampled_from([1e5, 1e290, 1e300, 1e306, sys.float_info.max]),
)
# the second window's entry, 3 * (max / 3), is the first value that overflows
@example([[1.0, 1.0], [3.0, 1.0]], sys.float_info.max)
# the second window's entry, 1.33 * (4.43e5 / 1.33), rounds off the first one's end
@example([[1.0, 4.428571428571429], [1.3333333333333333, 1.0]], 1e5)
def test_compounded_curve_matches_window_chain(curves, capital):
    windows = []
    for k, curve in enumerate(curves):
        w = fabricate_window(k, curve[-1] / curve[0] - 1.0, 0.0)
        windows.append(replace(w, daily_equity=np.array(curve), dates=dates(len(curve), start=k * 10)))
    want = reference_drawdown(windows, capital)
    try:
        got = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY", initial_capital=capital))
    except NumericalError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    assert got.max_drawdown.hex() == want.hex()
