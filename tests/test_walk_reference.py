"""The engine's walk against the plain per-window reference walk."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.spreads import build_panel
from fractalport.synthetic import make_synthetic_universe
from panels import panel_of
from walk_reference import walk


@st.composite
def universes(draw):
    """A synthetic universe of 4-12 assets over 300-700 days, with up to
    two symbols listed late, and a walk of 64-130 training and 5-60 test
    days, reinvested or not."""
    n_assets = draw(st.integers(4, 12))
    n_days = draw(st.integers(300, 700))
    u = make_synthetic_universe(
        n_assets=n_assets,
        n_days=n_days,
        seed=draw(st.integers(0, 2**32 - 1)),
        n_pairs=draw(st.integers(0, min(3, n_assets // 2))),
    )
    panel = panel_of(u.prices + [u.benchmark])
    prices = panel.prices.copy()
    traded = [k for k, s in enumerate(panel.symbols) if s != "MKT"]
    for k in draw(st.lists(st.sampled_from(traded), max_size=2, unique=True)):
        prices[k, : draw(st.integers(1, n_days // 2))] = np.nan
    cfg = BacktestConfig(
        benchmark_symbol="MKT",
        train_days=draw(st.integers(64, 130)),
        test_days=draw(st.integers(5, 60)),
        reinvest=draw(st.booleans()),
    )
    return build_panel(panel.symbols, panel.dates, prices), cfg


@settings(max_examples=20, deadline=None)
@given(universes())
def test_walk_matches_reference(case):
    """Each window selects the reference's (long, short) pairs, and its
    weights, legs and daily equity, its shares exactly, and the report's
    metrics are the reference's to 1e-9.

    The reference builds candidates pair by pair, so they agree with the
    engine's to rounding, not bit for bit: a draw where any decision of the
    reference walk has a relative margin below 1e-9 is discarded. In 1,200
    draws none was; the smallest margin was 1.0e-8. A pair the reference
    drops at the hedge, fit or variance floor by less than rounding would
    show as a different selection.
    """
    panel, cfg = case
    want_windows, want_metrics, margin = walk(panel, cfg)
    assume(margin >= 1e-9)
    rep = run_walk_forward(panel, cfg)
    assert len(rep.windows) == len(want_windows)
    for got, want in zip(rep.windows, want_windows):
        assert [(s["long_symbol"], s["short_symbol"]) for s in got.selected] == want.pairs, got.window_index
        np.testing.assert_allclose([s["weight"] for s in got.selected], want.weights, rtol=1e-9)
        assert got.shares == want.shares
        assert got.asset_legs.keys() == want.legs.keys()
        np.testing.assert_allclose([got.asset_legs[s] for s in want.legs], list(want.legs.values()), rtol=1e-9)
        np.testing.assert_allclose(got.daily_equity, want.daily_equity, rtol=1e-9)
        assert got.benchmark_return == want.benchmark_return
    for name, value in want_metrics.items():
        got = getattr(rep, name)
        if value is None:
            assert got is None, name
        else:
            assert got == pytest.approx(value, rel=1e-9), name
