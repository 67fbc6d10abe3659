"""Fractal Kelly weights, the generating matrix and greedy selection."""
import itertools
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport import selection
from fractalport.backtest import BacktestConfig
from fractalport.errors import DegenerateVolatilityError, ParameterError
from fractalport.selection import (
    Candidates,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
    select_spreads,
)
from fractalport.spreads import window_returns
from fractalport.synthetic import make_synthetic_universe
from pair_reference import pairs
from panels import panel_of


def make_candidates(rows, symbols=None):
    """A candidate table from (long, short, kelly, h, h_err[, mean]) rows.

    Every row has chi 1 and theta 0.0005, and mean 0.001 unless given.
    ``symbols`` defaults to the symbols in order of first appearance.
    """
    if symbols is None:
        symbols = tuple(dict.fromkeys(sym for r in rows for sym in r[:2]))
    index = {sym: k for k, sym in enumerate(symbols)}
    long = np.array([index[r[0]] for r in rows], dtype=np.intp)
    short = np.array([index[r[1]] for r in rows], dtype=np.intp)
    n = len(rows)
    return Candidates(
        symbols=tuple(symbols),
        window=np.zeros(n, dtype=np.intp),
        long=long,
        short=short,
        chi=np.ones(n),
        mean=np.array([r[5] if len(r) > 5 else 0.001 for r in rows], dtype=np.float64),
        theta=np.full(n, 0.0005),
        h=np.array([r[3] for r in rows], dtype=np.float64),
        h_err=np.array([r[4] for r in rows], dtype=np.float64),
        kelly=np.array([r[2] for r in rows], dtype=np.float64),
    )


def seeded_windows(seed):
    """Five windows of every pair of seven symbols, Kelly weights of three
    levels, rows shuffled."""
    rng = np.random.default_rng(seed)
    symbols = [f"S{i}" for i in range(7)]
    rows = [
        (a, b, float(rng.choice([1.0, 2.0, 3.0])), float(rng.uniform(0.1, 0.5)), 0.05)
        for _ in range(5) for i, a in enumerate(symbols) for b in symbols[i + 1:]
    ]
    one = make_candidates(rows, symbols)
    cands = Candidates(**{**vars(one), "window": np.repeat(np.arange(5), len(rows) // 5)})
    return cands.take(rng.permutation(len(cands)))


@st.composite
def window_tables(draw):
    """One to six windows, each on its own subset of one symbol set, so
    windows share assets; Kelly weights and Hurst fits from a few levels,
    so weights tie and some rows fail the screen; rows shuffled."""
    symbols = [f"S{i}" for i in range(draw(st.integers(2, 7)))]
    rows, window = [], []
    for w in range(draw(st.integers(1, 6))):
        members = sorted(draw(st.sets(st.sampled_from(symbols))), key=symbols.index)
        for a, b in itertools.combinations(members, 2):
            if draw(st.booleans()):
                a, b = b, a
            kelly = draw(st.sampled_from([1.0, 2.0, 3.0]))
            rows.append((a, b, kelly, draw(st.sampled_from([0.1, 0.3, 0.45])), 0.05))
            window.append(w)
    one = make_candidates(rows, symbols)
    cands = Candidates(**{**vars(one), "window": np.array(window, dtype=np.intp)})
    return cands.take(draw(st.permutations(range(len(cands)))))


def build(universe, cfg):
    """Candidates of a {symbol: returns row} universe."""
    return build_generating_matrix(np.stack(list(universe.values())), list(universe), cfg)


class TestFractalKellyWeight:
    def test_h_half_reduces_to_plain_kelly(self):
        for n in (1, 10, 126, 1000):
            assert fractal_kelly_weight(0.001, 0.01, 0.5, n) == pytest.approx(10.0, rel=1e-12)

    def test_zero_mean_zero_weight(self):
        assert fractal_kelly_weight(0.0, 0.01, 0.3, 126) == 0.0

    def test_high_precision_oracle(self):
        # 10 * 100^0.2 evaluated in 50-digit decimal arithmetic
        with localcontext() as ctx:
            ctx.prec = 50
            expected = float(10 * Decimal(100) ** Decimal("0.2"))
        assert fractal_kelly_weight(0.001, 0.01, 0.4, 100) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(25.12, abs=0.005)

    def test_identity_at_one_day(self):
        for h in (0.1, 0.9):
            assert fractal_kelly_weight(0.001, 0.01, h, 1) == pytest.approx(10.0, rel=1e-12)

    def test_multiplicative_in_horizon(self):
        # N^(2h) is multiplicative in N: w(N1 N2) mu = w(N1) w(N2) theta^2
        mu, theta, h = 0.001, 0.013, 0.37
        direct = fractal_kelly_weight(mu, theta, h, 6 * 21) * mu
        staged = fractal_kelly_weight(mu, theta, h, 6) * fractal_kelly_weight(mu, theta, h, 21) * theta**2
        assert staged == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("theta,h,n", [(-0.1, 0.5, 1), (0.1, 0.0, 1), (0.1, 1.0, 1), (0.1, 0.5, 0)])
    def test_range_checks(self, theta, h, n):
        error = DegenerateVolatilityError if theta < 0 else ParameterError
        with pytest.raises(error):
            fractal_kelly_weight(0.001, theta, h, n)

    def test_monotone_decreasing_in_h(self):
        weights = [fractal_kelly_weight(0.001, 0.01, h, 126) for h in (0.2, 0.35, 0.5, 0.65, 0.8)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zero_theta_degenerate(self):
        with pytest.raises(DegenerateVolatilityError):
            fractal_kelly_weight(0.001, 0.0, 0.5, 126)


class TestBuildGeneratingMatrix:
    def _universe(self, n_assets, seed=0, n_days=200):
        rng = np.random.default_rng(seed)
        market = 0.01 * rng.standard_normal(n_days)
        out = {}
        for k in range(n_assets):
            beta = 0.8 + 0.1 * k
            idio = 0.003 * rng.standard_normal(n_days)
            out[f"S{k}"] = beta * market + idio
        return out

    def test_universe_too_small(self):
        with pytest.raises(ParameterError):
            build(self._universe(1), SelectionConfig())

    def test_hedge_floor_is_inclusive(self, monkeypatch):
        # S1's increments alternate +-2^-20 about a mean of exactly 0, so
        # their variance is exactly 2^-40: with the floor there, S0 is
        # hedged on S1, and with the floor one ulp above it, not
        step = 2.0**-20
        s1 = np.tile([0.0, step], 64)[:127]
        s0 = s1 + 0.5 * step * np.random.default_rng(0).standard_normal(127)
        for floor, rows in ((step * step, 1), (np.nextafter(step * step, 1.0), 0)):
            monkeypatch.setattr(selection, "HEDGE_VARIANCE_EPS", floor)
            assert len(build({"S0": s0, "S1": s1}, SelectionConfig())) == rows

    def test_price_scale_free(self):
        # returns are normalized by the entry price, so HEDGE_VARIANCE_EPS
        # and the variance floor see the same numbers, to rounding, however
        # an asset's prices are scaled: multiplying one asset's prices by
        # 1e6 moves none of its candidate rows by more than rounding (at
        # most 5.3e-14 relative over seeds 8-19 of this universe)
        returns = np.stack(list(self._universe(6, seed=8).values()))
        prices = 100.0 * np.cumprod(np.hstack([np.ones((6, 1)), 1.0 + returns]), axis=1)
        scaled = prices.copy()
        scaled[2] *= 1e6
        cfg = SelectionConfig()
        symbols = [f"S{k}" for k in range(6)]
        base = build_generating_matrix(window_returns(prices), symbols, cfg)
        got = build_generating_matrix(window_returns(scaled), symbols, cfg)
        assert pairs(got) == pairs(base)
        assert sum(2 in (a, b) for a, b in zip(base.long, base.short)) >= 3
        for name in ("chi", "mean", "theta", "h", "h_err", "kelly"):
            np.testing.assert_allclose(
                getattr(got, name), getattr(base, name), rtol=1e-12, err_msg=name
            )

    def test_price_scale_free_on_every_window_of_the_fixture(self, universe):
        # the seed-3 fixture's 19 training windows stacked as the backtest
        # stacks them, each of its 11 symbols scaled by 1e6 in turn: the
        # same rows every time, at most 5.5e-12 relative apart
        panel = panel_of(universe.prices + [universe.benchmark])
        cfg = SelectionConfig()
        train, test = BacktestConfig.train_days, BacktestConfig.test_days

        def stacked(prices):
            starts = range(0, (prices.shape[1] - train) // test * test, test)
            stack = np.stack([window_returns(prices[:, s : s + train]) for s in starts])
            return build_generating_matrix(stack, panel.symbols, cfg)

        base = stacked(panel.prices)
        assert len(np.unique(base.window)) == 19 and len(panel.symbols) == 11
        for k in range(len(panel.symbols)):
            assert k in base.long or k in base.short
            scaled = panel.prices.copy()
            scaled[k] *= 1e6
            got = stacked(scaled)
            for name in ("window", "long", "short"):
                np.testing.assert_array_equal(getattr(got, name), getattr(base, name), err_msg=name)
            for name in ("chi", "mean", "theta", "h", "h_err", "kelly"):
                np.testing.assert_allclose(
                    getattr(got, name), getattr(base, name), rtol=1e-9, err_msg=f"{name}, {k}"
                )

    def test_overflowing_kelly_denominator_is_not_selectable(self):
        # A1's first close times 1e-154 scales its returns to about 1e152:
        # chi^2 S_jj and theta^2 N^(2h) overflow without a warning, and the
        # pairs left with a finite theta of about 1e153 get a Kelly weight of
        # 0.0, which the screen rejects whatever their Hurst fit
        u = make_synthetic_universe(6, 600, seed=3)
        panel = panel_of(u.prices)
        prices = panel.prices.copy()
        prices[panel.symbols.index("A1"), 0] *= 1e-154
        cands = build_generating_matrix(window_returns(prices[:, :126]), panel.symbols, SelectionConfig())
        zero = np.flatnonzero(cands.kelly == 0.0)
        assert len(zero) == 4 and np.all(cands.mean[zero] > 0.0)
        assert all("A1" in pair for pair in pairs(cands.take(zero)))
        stable = replace(cands.take(zero), h=np.full(4, 0.3), h_err=np.full(4, 0.01))
        assert len(select_spreads(stable, SelectionConfig())) == 0


class TestSelectSpreads:
    def test_single_candidate_accepted(self):
        cands = make_candidates([("A", "B", 5.0, 0.3, 0.1)])
        assert len(select_spreads(cands, SelectionConfig())) == 1

    def test_empty_table(self):
        cands = make_candidates([], symbols=("A", "B"))
        picked = select_spreads(cands, SelectionConfig())
        assert len(picked) == 0 and picked.symbols == ("A", "B")

    def test_single_candidate_rejected_cap(self):
        # h + h_err over the cap of 0.5, then exactly on it: the bound is strict
        for h, h_err in ((0.45, 0.1), (0.375, 0.125)):
            cands = make_candidates([("A", "B", 5.0, h, h_err)])
            assert len(select_spreads(cands, SelectionConfig())) == 0

    def test_error_must_be_below_h(self):
        cands = make_candidates([("A", "B", 5.0, 0.1, 0.2)])  # 0.3 < 0.5 but err > h
        assert len(select_spreads(cands, SelectionConfig())) == 0

    def test_mean_must_be_positive(self):
        # a zero mean gives a zero Kelly weight, which the screen rejects
        cands = make_candidates([("A", "B", 0.0, 0.3, 0.05, 0.0), ("A", "C", 1.0, 0.3, 0.05)])
        assert pairs(select_spreads(cands, SelectionConfig())) == [("A", "C")]

    def test_asset_exclusion(self):
        cands = make_candidates(
            [
                ("A", "B", 9.0, 0.3, 0.05),
                ("A", "C", 8.0, 0.3, 0.05),
                ("C", "D", 7.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked) == [("A", "B"), ("C", "D")]

    def test_rejection_does_not_block(self):
        # top-weight candidate fails the screen; next one still considered
        cands = make_candidates(
            [
                ("A", "B", 9.0, 0.6, 0.05),
                ("A", "C", 8.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked) == [("A", "C")]

    def test_acceptance_order_by_weight(self):
        cands = make_candidates(
            [
                ("A", "B", 1.0, 0.3, 0.05),
                ("C", "D", 3.0, 0.3, 0.05),
                ("E", "F", 2.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert picked.kelly.tolist() == [3.0, 2.0, 1.0]

    def test_tie_break_lexicographic(self):
        cands = make_candidates(
            [
                ("X", "Y", 2.0, 0.3, 0.05),
                ("A", "B", 2.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked)[0][0] == "A"
        # universe order is not symbol order: ties follow the symbols,
        # first on the long leg, then on the short leg
        cands = make_candidates(
            [
                ("Z", "A", 2.0, 0.3, 0.05),
                ("M", "B", 2.0, 0.3, 0.05),
                ("M", "A", 2.0, 0.3, 0.05),
                ("B", "Z", 2.0, 0.3, 0.05),
            ],
            symbols=("Z", "A", "M", "B"),
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked) == [("B", "Z"), ("M", "A")]
        picked = select_spreads(cands.take([0, 1, 2]), SelectionConfig())
        assert pairs(picked) == [("M", "A")]

    def test_disjoint_symbols_property(self):
        rng = np.random.default_rng(0)
        symbols = [f"S{i}" for i in range(8)]
        rows = []
        for i in range(len(symbols)):
            for j in range(i + 1, len(symbols)):
                rows.append(
                    (
                        symbols[i],
                        symbols[j],
                        float(rng.uniform(0, 10)),
                        float(rng.uniform(0.1, 0.6)),
                        float(rng.uniform(0.01, 0.15)),
                    )
                )
        picked = select_spreads(make_candidates(rows), SelectionConfig())
        seen = [s for pair in pairs(picked) for s in pair]
        assert len(seen) == len(set(seen))
        assert np.all(picked.h + picked.h_err < 0.5)
        assert np.all(picked.h_err < picked.h)
        assert np.all(picked.mean > 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_windows_select_alone(self, seed):
        # a table of five windows, rows shuffled, selects in each window
        # the rows that window's table selects alone, window by window
        cands = seeded_windows(seed)
        cfg = SelectionConfig()
        got = select_spreads(cands, cfg)
        want = [select_spreads(cands.take(cands.window == w), cfg) for w in range(5)]
        assert got.window.tolist() == [w for w, sel in enumerate(want) for _ in range(len(sel))]
        assert pairs(got) == [p for sel in want for p in pairs(sel)]
        assert got.kelly.tolist() == [k for sel in want for k in sel.kelly.tolist()]
        assert len(got) >= 5

    @settings(max_examples=300, deadline=None)
    @given(window_tables())
    @example(seeded_windows(0))
    def test_drawn_windows_select_alone(self, cands):
        # the same for drawn tables: any number of windows sharing assets,
        # tied weights, rows failing the screen
        cfg = SelectionConfig()
        got = select_spreads(cands, cfg)
        want = [select_spreads(cands.take(cands.window == w), cfg) for w in np.unique(cands.window)]
        assert got.window.tolist() == [w for sel in want for w in sel.window.tolist()]
        assert pairs(got) == [p for sel in want for p in pairs(sel)]
        assert got.kelly.tolist() == [k for sel in want for k in sel.kelly.tolist()]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        cands = make_candidates(
            [(f"A{i}", f"B{i}", float(rng.uniform(0, 5)), 0.3, 0.05) for i in range(6)]
        )
        a = select_spreads(cands, SelectionConfig())
        b = select_spreads(cands.take(np.arange(len(cands))[::-1]), SelectionConfig())
        assert pairs(a) == pairs(b)

    def test_hurst_cap_validated(self):
        with pytest.raises(ParameterError):
            SelectionConfig(hurst_cap=0.7)
        with pytest.raises(ParameterError):
            SelectionConfig(horizon_days=0)
