"""The candidate engine against the plain per-pair reference.

``pair_reference.candidates`` is the one-pair-at-a-time chain the engine
replaces: hedge ratio, spread, orientation flip, Hurst fit and Kelly
weight, pair by pair in ``itertools.combinations`` order. The engine
builds its columns from per-asset moments, so the two agree to rounding
scaled by the legs (``leg_tolerances``); a row's independence of the
other rows and of the stack, and the spread returns the optimizer forms
from a row, are checked bit for bit.
"""
import functools
import itertools
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields
from datetime import date
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport import backtest, selection
from fractalport.backtest import BacktestConfig, _invest_group, run_walk_forward
from fractalport.errors import InsufficientDataError
from fractalport.fbm import MIN_HURST_LENGTH, fit_hurst
from fractalport.optimizer import (
    apply_leverage,
    compose_legs,
    covariance_matrix,
    solve_weights,
)
from fractalport.selection import (
    PAIR_BLOCK,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
    select_spreads,
)
from fractalport.spreads import PriceSeries, build_panel, spread_returns, window_returns
from fractalport.synthetic import make_synthetic_universe
import panels
from panels import panel_of
from pair_reference import candidates as reference_candidates
from pair_reference import Row, hedge_ratio, oriented_spread, pairs

EPS = np.finfo(np.float64).eps

# The engine's rounding against the reference, in units of EPS times the
# scale of each quantity in ``leg_tolerances``. The largest ratio measured
# over the three ``test_candidates_match`` cases and 37 more 12-asset
# seeds was 2.5 (chi); the deltas reached 1.7, theta^2 0.8, the mean 0.5.
ROUNDING_C = 8.0


dates = functools.partial(panels.dates, base=date(2019, 1, 1))


def make_universe(returns, start=0):
    return [
        Row(f"S{k}", row, dates(row.size, start))
        for k, row in enumerate(np.asarray(returns, dtype=np.float64))
    ]


def return_rows(universe):
    """The universe's returns as the (assets x days) matrix the engine takes."""
    return np.stack([r.returns for r in universe])


def build(universe, cfg):
    """The engine on a universe of return rows, as its callers run it."""
    returns = return_rows(universe)
    return returns, build_generating_matrix(returns, [r.symbol for r in universe], cfg)


class Tolerances(NamedTuple):
    chi: float
    mean: float
    theta2: float
    deltas: np.ndarray


def leg_tolerances(r_long, r_short, chi) -> Tolerances:
    """How far the engine's chi, mean, theta^2 and daily returns of the
    spread long ``r_long``, short ``chi`` units of ``r_short`` may lie from
    the reference's.

    chi is a ratio of two increment dot products, so its relative error
    grows as 1/|rho| with rho the correlation of the legs' increments. The
    mean, theta^2 and the returns are sums of leg terms, each off by a few
    EPS of the terms' sizes, plus the chi error carried by the short leg.
    """
    rho = abs(np.corrcoef(np.diff(r_long), np.diff(r_short))[0, 1])
    d_chi = ROUNDING_C * EPS * chi * (1.0 + 1.0 / rho)
    abs_long, abs_short = np.abs(r_long), np.abs(r_short)
    var_long, var_short = np.var(r_long), np.var(r_short)
    return Tolerances(
        chi=d_chi,
        mean=ROUNDING_C * EPS * (abs_long.mean() + chi * abs_short.mean())
        + d_chi * abs_short.mean(),
        theta2=ROUNDING_C * EPS * (var_long + chi * chi * var_short)
        + 2.0 * d_chi * (chi * var_short + np.sqrt(var_long * var_short)),
        deltas=ROUNDING_C * EPS * (abs_long + chi * abs_short) + d_chi * abs_short,
    )


def assert_near_reference(chi, mean, theta, deltas, ref, returns_of):
    """The engine's columns of one spread against its reference row."""
    long, short, ref_chi, ref_deltas, ref_mean, ref_theta = ref[:6]
    tol = leg_tolerances(returns_of[long], returns_of[short], ref_chi)
    assert abs(chi - ref_chi) <= tol.chi
    assert abs(mean - ref_mean) <= tol.mean
    assert abs(theta * theta - ref_theta * ref_theta) <= tol.theta2
    assert np.all(np.abs(deltas - ref_deltas) <= tol.deltas)


def random_returns(rng, n_assets, n_days):
    market = 0.01 * rng.standard_normal(n_days)
    betas = rng.uniform(0.3, 1.5, n_assets)
    drift = rng.normal(0.0, 4e-4, n_assets)
    return betas[:, None] * market + drift[:, None] + 0.004 * rng.standard_normal((n_assets, n_days))


def twin_series():
    """Seed 5's synthetic universe with no planted pair (6 noise assets of
    0.015 daily idiosyncratic vol on a market of 1e-4 +- 0.009 a day, the
    benchmark MKT) and a twin pair, as two ETFs tracking one index trade:
    IVV on the market path and SPY = 0.5 * IVV * (1 + 2e-4 * eps). The
    hedged twin spread is price-level white noise, whose raw Hurst fit
    lies near 0, at or below it in 10 of the 19 backtest windows. eps's
    stream is one under which a fit clamped to 0.01 put the twin into
    window 15's selection, with Kelly weight 458."""
    u = make_synthetic_universe(n_assets=6, n_days=2520, seed=5, n_pairs=0)
    ivv = u.benchmark.prices
    eps = np.random.default_rng(94).standard_normal(ivv.size)
    twins = [PriceSeries("IVV", u.benchmark.dates, ivv),
             PriceSeries("SPY", u.benchmark.dates, 0.5 * ivv * (1.0 + 2e-4 * eps))]
    return [*u.prices, u.benchmark, *twins]


def check_matches_reference(universe, cfg):
    """Check the engine's table of ``universe`` against the reference's, row
    by row, and return it."""
    matrix, got = build(universe, cfg)
    want = reference_candidates(universe, cfg)
    got_pairs = pairs(got)
    assert len(got) == len(want) > 0
    assert not any(getattr(got, f.name).flags.writeable for f in fields(got)[1:])
    returns_of = {r.symbol: r.returns for r in universe}
    deltas = spread_returns(matrix, got.long, got.short, got.chi)
    for k, ref in enumerate(want):
        long, short, _, _, _, _, h, h_err, _ = ref
        assert got_pairs[k] == (long, short)
        assert_near_reference(got.chi[k], got.mean[k], got.theta[k], deltas[k], ref, returns_of)
        assert got.h[k] == pytest.approx(h, rel=1e-12)
        assert got.h_err[k] == pytest.approx(h_err, rel=1e-12)
    kelly = fractal_kelly_weight(got.mean, got.theta, got.h, cfg.horizon_days)
    assert kelly.tobytes() == got.kelly.tobytes()
    # the optimizer builds only the selected rows' deltas from their
    # oriented legs: the same bits, for the selection and for any other
    # subset of the rows
    row_deltas = dict(zip(got_pairs, deltas))
    scattered = got.take(np.arange(len(got))[::-3])
    assert len(scattered) > 0
    for subset in (select_spreads(got, cfg), scattered):
        recomputed = spread_returns(matrix, subset.long, subset.short, subset.chi)
        for pair, row in zip(pairs(subset), recomputed):
            assert row.tobytes() == row_deltas[pair].tobytes()
    return got


class TestMatchesPerPairReference:
    @pytest.mark.parametrize("seed,n_assets,n_days", [(0, 30, 126), (1, 12, 200), (2, 7, 63)])
    def test_candidates_match(self, seed, n_assets, n_days):
        rng = np.random.default_rng(seed)
        returns = random_returns(rng, n_assets, n_days)
        returns[3] = 0.0  # flat asset: hedge variance below eps
        returns[1] = -returns[0]  # inverted pair: chi <= 0
        returns[4] = returns[2]  # duplicated asset: zero spread, theta = 0
        # constant offset, exact in binary: chi = 1, a linear path, theta = 0
        returns[5] = rng.integers(-8, 9, n_days) / 1024.0
        returns[6] = returns[5] + 1.0 / 256.0
        if n_assets == 30:
            assert n_assets * (n_assets - 1) // 2 > PAIR_BLOCK
        got_pairs = pairs(check_matches_reference(make_universe(returns), SelectionConfig()))
        assert ("S0", "S1") not in got_pairs
        assert all("S3" not in pair for pair in got_pairs)
        assert all(set(pair) not in ({"S2", "S4"}, {"S5", "S6"}) for pair in got_pairs)

    def test_twin_window_matches(self):
        # window 15's training returns of the twin universe: the twin's raw
        # fit lies below 0, and the engine drops it as the reference does
        traded = sorted((s for s in twin_series() if s.symbol != "MKT"), key=lambda s: s.symbol)
        days = slice(15 * 126, 16 * 126)
        returns = window_returns(np.stack([s.prices[days] for s in traded]))
        universe = [Row(s.symbol, r, s.dates[days][1:]) for s, r in zip(traded, returns)]
        ivv, spy = (next(r for r in universe if r.symbol == t) for t in ("IVV", "SPY"))
        spread = oriented_spread(ivv.returns, spy.returns, hedge_ratio(ivv.returns, spy.returns))
        assert fit_hurst(np.cumsum(np.concatenate([[0.0], spread.deltas]))[None])[0][0] <= 0.0
        got = check_matches_reference(universe, SelectionConfig())
        assert all(set(pair) != {"IVV", "SPY"} for pair in pairs(got))

    @pytest.mark.parametrize(
        "n_days,error",
        [
            (MIN_HURST_LENGTH // 2, InsufficientDataError),
            (MIN_HURST_LENGTH - 2, InsufficientDataError),
        ],
        ids=["half_length", "path_too_short"],
    )
    def test_same_errors(self, n_days, error):
        universe = make_universe(random_returns(np.random.default_rng(7), 4, n_days))
        with pytest.raises(error):
            reference_candidates(universe, SelectionConfig())
        with pytest.raises(error):
            build(universe, SelectionConfig())

    def test_gapped_symbol_matches_reference_without_it(self):
        # P3 lists a day after the window's first date: on the window its
        # returns are NaN, the engine pairs it with nothing, and the table
        # is the reference's, which omits pairs whose legs' dates differ
        n_days = 126
        rng = np.random.default_rng(7)
        prices = 100.0 * np.cumprod(1.0 + random_returns(rng, 4, n_days + 1), axis=1)
        series = [
            PriceSeries(f"P{k}", dates(n_days + 1, start=int(k == 3)), row)
            for k, row in enumerate(prices)
        ]
        # on the union of their dates P0-P2 lack the last day, P3 the first
        cells = np.full((4, n_days + 2), np.nan)
        cells[:3, :-1], cells[3, 1:] = prices[:3], prices[3]
        panel = build_panel([s.symbol for s in series], dates(n_days + 2), cells)
        window = window_returns(panel.prices[:, :-1])
        assert np.isnan(window[3]).all()
        got = build_generating_matrix(window, panel.symbols, SelectionConfig())
        universe = [Row(s.symbol, window_returns(s.prices[None])[0], s.dates[1:]) for s in series]
        want = reference_candidates(universe, SelectionConfig())
        without = reference_candidates(universe[:3], SelectionConfig())
        assert len(want) > 0
        assert pairs(got) == [c[:2] for c in want] == [c[:2] for c in without]
        returns_of = {r.symbol: r.returns for r in universe}
        deltas = spread_returns(window, got.long, got.short, got.chi)
        for k, ref in enumerate(want):
            assert_near_reference(got.chi[k], got.mean[k], got.theta[k], deltas[k], ref, returns_of)
            assert got.h[k] == pytest.approx(ref[6], rel=1e-12)

    def test_short_window_raises_though_no_pair_hedges(self):
        # the window is checked on entry: one too short for a Hurst fit
        # raises even when every pair would be dropped at the hedge
        base = 0.01 * np.random.default_rng(8).standard_normal(40)
        universe = make_universe([base, -base])
        with pytest.raises(InsufficientDataError):
            reference_candidates(universe, SelectionConfig())
        with pytest.raises(InsufficientDataError, match="need at least 63 returns"):
            build(universe, SelectionConfig())


def test_window_optimizer_on_reference_deltas():
    # the optimizer builds the selected spreads' deltas from the window's
    # returns and the table's oriented legs: those of the reference deltas
    # to rounding, and its weights and legs are the chain's on them
    universe = make_universe(random_returns(np.random.default_rng(1), 12, 200))
    cfg = BacktestConfig(test_days=126, benchmark_symbol="MKT")
    symbols = [r.symbol for r in universe]
    matrix = return_rows(universe)
    sel_cfg = SelectionConfig(horizon_days=cfg.test_days)
    sel = select_spreads(build_generating_matrix(matrix, symbols, sel_cfg), sel_cfg)
    deltas = spread_returns(matrix, sel.long, sel.short, sel.chi)
    [(scale_k, held, legs, info)] = _invest_group(matrix[None], sel, cfg)
    assert len(info) > 1
    want = {(c[0], c[1]): c for c in reference_candidates(universe, SelectionConfig(126))}
    returns_of = {r.symbol: r.returns for r in universe}
    for s, row in zip(info, deltas):
        ref = want[(s["long_symbol"], s["short_symbol"])]
        assert_near_reference(s["chi"], s["mean_delta"], s["theta"], row, ref, returns_of)
    cov = covariance_matrix(deltas)
    hursts = [s["hurst"] for s in info]
    mean = [s["mean_delta"] for s in info]
    labels = [f"{s['long_symbol']}/{s['short_symbol']}" for s in info]
    expected, expected_k = apply_leverage(solve_weights(cov, hursts, mean, cfg.test_days, labels), cfg.leverage)
    np.testing.assert_array_equal([s["weight"] for s in info], expected)
    assert scale_k == expected_k
    want_held, want_legs = compose_legs(expected, sel.long, sel.short, sel.chi)
    assert held.tolist() == want_held.tolist()
    assert legs.tobytes() == want_legs.tobytes()


def test_flip_keeps_hurst_fit():
    # a reversed spread's path is -path/chi of the unreversed one, and the
    # engine keeps the unreversed path's h: the cover fit is scale-invariant
    rng = np.random.default_rng(5)
    returns = random_returns(rng, 40, 126)
    chi = rng.uniform(0.3, 3.0, 20)
    paths = np.zeros((20, 127))
    np.cumsum(spread_returns(returns, np.arange(20), np.arange(20, 40), chi), axis=1, out=paths[:, 1:])
    h = fit_hurst(paths)[0]
    flipped = fit_hurst(-paths / chi[:, None])[0]
    assert np.all(np.abs(flipped - h) <= 1e-15)


def candidate_bits(matrix, cands):
    """Per row: symbols, every float column and the deltas' bytes."""
    deltas = spread_returns(matrix, cands.long, cands.short, cands.chi)
    floats = (cands.chi, cands.mean, cands.theta, cands.h, cands.h_err, cands.kelly)
    return [
        (pair, *values, row.tobytes())
        for pair, *values, row in zip(pairs(cands), *(c.tolist() for c in floats), deltas)
    ]


@st.composite
def universes(draw):
    n_assets = draw(st.integers(2, 40))
    n_days = draw(st.integers(MIN_HURST_LENGTH - 1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    returns = random_returns(rng, n_assets, n_days)
    if n_assets >= 3:
        special = draw(st.sampled_from(["none", "flat", "inverted", "duplicate", "scaled"]))
        if special == "flat":
            returns[-1] = 0.0
        elif special == "inverted":
            returns[-1] = -returns[0]
        elif special == "duplicate":
            returns[-1] = returns[1]
        elif special == "scaled":
            returns[-1] = 0.75 * returns[1]
    return make_universe(returns)


def scaled(seed):
    """Three assets, the last an exact 0.75-times copy of the middle one:
    that pair's exact hedge leaves a spread of rounding noise."""
    returns = random_returns(np.random.default_rng(seed), 3, 126)
    returns[-1] = 0.75 * returns[1]
    return returns


# an exact hedge of a scaled copy, with a negative mean in both
# orientations of its noise spread
SCALED = scaled(2)


def test_scaled_copy_never_a_candidate():
    # its formula variance is rounding noise, negative in about a third of
    # these universes; unfloored, the pair was a candidate in 328 of them
    # and selected in 63, with Kelly weights near 1e15
    cfg = SelectionConfig()
    for seed in range(400):
        cands = build_generating_matrix(scaled(seed), ["S0", "S1", "S2"], cfg)
        assert ("S1", "S2") not in pairs(cands) and ("S2", "S1") not in pairs(cands)


def test_twin_fit_outside_unit_interval_never_a_candidate():
    # the twin's raw fit lies outside (0, 1) in 10 of the 19 windows;
    # clamped to 0.01, it would pass the screen's h_err < h and top window
    # 15's ranking. A fit outside (0, 1) drops the row, so no candidate
    # holds a clamp value, and the twin is a candidate only on a fit inside
    tables = []

    def recorded(*args):
        tables.append(build_generating_matrix(*args))
        return tables[-1]

    with mock.patch.object(backtest, "build_generating_matrix", recorded):
        report = run_walk_forward(panel_of(twin_series()), BacktestConfig(benchmark_symbol="MKT"))
    assert len(report.windows) == 19
    twin = {"IVV", "SPY"}
    assert not [s for s in report.windows[15].selected if {s["long_symbol"], s["short_symbol"]} == twin]
    h = np.concatenate([t.h for t in tables])
    assert not np.isin(h, [0.01, 0.99]).any()
    assert np.all((0.0 < h) & (h < 1.0))
    # one twin row a window, in the 9 windows whose fit lies inside (0, 1)
    assert sum({t.symbols[a], t.symbols[b]} == twin for t in tables for a, b in zip(t.long, t.short)) == 9


@settings(max_examples=15, deadline=None)
@given(universes())
@example(make_universe(SCALED))
def test_rows_independent_and_oriented(universe):
    cfg = SelectionConfig()
    matrix, got = build(universe, cfg)
    bits = candidate_bits(matrix, got)
    by_symbol = {r.symbol: r for r in universe}
    for ri, rj in itertools.combinations(universe, 2):
        alone = candidate_bits(*build([ri, rj], cfg))
        in_block = [b for b in bits if set(b[0]) == {ri.symbol, rj.symbol}]
        assert alone == in_block
    assert np.all(got.chi > 0.0)
    assert np.all(got.mean >= 0.0)
    deltas = spread_returns(matrix, got.long, got.short, got.chi)
    for (long, short), chi, row in zip(pairs(got), got.chi, deltas):
        r_long, r_short = by_symbol[long].returns, by_symbol[short].returns
        assert row.tobytes() == (r_long - chi * r_short).tobytes()


def same_bits(a, b):
    """Equal dtype, shape and bytes: NaN-aware, and stricter than
    ``np.array_equal(a, b, equal_nan=True)`` since -0.0 differs from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def window_stacks(draw):
    """A (windows x assets x days) return stack and the special case of
    each window: ``flat`` (every regressor leg flat, so no pair has a hedge
    ratio) or ``drop`` (identical assets: every pair hedged, every spread
    flat, so every row drops after the hedge)."""
    n_assets = draw(st.integers(2, 10))
    n_windows = draw(st.integers(1, 14))
    n_days = draw(st.integers(MIN_HURST_LENGTH - 1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([random_returns(rng, n_assets, n_days) for _ in range(n_windows)])
    cases = draw(st.lists(st.sampled_from(["none", "flat", "drop"]), min_size=n_windows,
                          max_size=n_windows))
    for w, case in enumerate(cases):
        if case == "flat":
            stack[w, 1:] = 0.0
        elif case == "drop":
            stack[w, 1:] = stack[w, 0]
    return stack, cases


# one window of 7 assets (21 pairs) more than fill a block: the last one
# straddles the first block boundary, unless 21 divides PAIR_BLOCK
CROSSING = [random_returns(np.random.default_rng(w), 7, 125) for w in range(PAIR_BLOCK // 21 + 1)]


@settings(max_examples=40, deadline=None)
@given(window_stacks(), st.sampled_from([None, 1, 5, 16]))
@example((np.stack(CROSSING), ["none"] * len(CROSSING)), None)
def test_stack_equals_windows_alone(drawn, block):
    # a window's rows of the stacked table are its table alone, bit for
    # bit, however the (window, pair) rows fall into blocks
    stack, cases = drawn
    cfg = SelectionConfig()
    symbols = [f"S{k}" for k in range(stack.shape[1])]
    with mock.patch.object(selection, "PAIR_BLOCK", block or PAIR_BLOCK):
        stacked = build_generating_matrix(stack, symbols, cfg)
    assert np.all(np.diff(stacked.window) >= 0)
    bounds = np.searchsorted(stacked.window, np.arange(len(cases) + 1))
    for w, case in enumerate(cases):
        alone = build_generating_matrix(stack[w], symbols, cfg)
        if case != "none":
            assert len(alone) == 0
        assert np.all(alone.window == 0)
        rows = stacked.take(slice(bounds[w], bounds[w + 1]))
        assert np.all(rows.window == w)
        for f in fields(alone)[2:]:
            assert same_bits(getattr(rows, f.name), getattr(alone, f.name)), (w, f.name)



@st.composite
def gapped_windows(draw):
    """Price windows of the same symbols, as ``window_returns`` stacks them,
    with some (window, symbol, day) prices blanked, a window's first day
    among the days drawn; and the symbols gapped in each window."""
    n_assets = draw(st.integers(2, 9))
    n_windows = draw(st.integers(1, 6))
    n_days = draw(st.integers(MIN_HURST_LENGTH, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prices = 100.0 * np.cumprod(1.0 + random_returns(rng, n_windows * n_assets, n_days), axis=1)
    prices = prices.reshape(n_windows, n_assets, n_days)
    gaps = draw(st.lists(
        st.tuples(st.integers(0, n_windows - 1), st.integers(0, n_assets - 1),
                  st.one_of(st.just(0), st.integers(0, n_days - 1))),
        max_size=2 * n_assets,
    ))
    gapped = [set() for _ in range(n_windows)]
    for w, k, t in gaps:
        prices[w, k, t] = np.nan
        gapped[w].add(k)
    return np.stack([window_returns(block) for block in prices]), gapped


@settings(max_examples=40, deadline=None)
@given(gapped_windows(), st.booleans())
def test_gapped_symbols_drop_out_of_their_windows(drawn, single):
    # a window's table is the one built without the symbols it has a gap
    # in, bit for bit: their NaN rows touch no other row
    stack, gapped = drawn
    cfg = SelectionConfig()
    symbols = [f"S{k}" for k in range(stack.shape[1])]
    built = build_generating_matrix(stack[0] if single and len(stack) == 1 else stack, symbols, cfg)
    bounds = np.searchsorted(built.window, np.arange(len(stack) + 1))
    for w, returns in enumerate(stack):
        rows = built.take(slice(bounds[w], bounds[w + 1]))
        assert not {*rows.long.tolist(), *rows.short.tolist()} & gapped[w]
        kept = [k for k in range(len(symbols)) if k not in gapped[w]]
        if len(kept) < 2:
            assert len(rows) == 0
            continue
        alone = build_generating_matrix(returns[kept], [symbols[k] for k in kept], cfg)
        assert pairs(rows) == pairs(alone)
        for f in fields(alone)[4:]:
            assert same_bits(getattr(rows, f.name), getattr(alone, f.name)), (w, f.name)


@contextmanager
def traced():
    """tracemalloc tracing inside the block, its peak reset on entry; left
    as it was found on exit."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


def test_candidate_memory_follows_the_table():
    # each block of spread paths is built from its rows' indices and
    # fitted before the next, the whole upper triangle's arrays are freed
    # once the hedged pairs are indexed, and the spread moments are taken
    # on the fitted rows only, so the traced peak grows with the table by
    # its columns and a few per-row temporaries, about 130 bytes a row;
    # with those triangle arrays and moments held it was about 215 bytes,
    # and one fit of all the rows' covers held (pairs x scales)
    # temporaries too, about 480 bytes
    cfg = SelectionConfig()
    peaks, rows = [], []
    for n_assets in (120, 200):
        returns = random_returns(np.random.default_rng(n_assets), n_assets, 125)
        symbols = [f"S{k}" for k in range(n_assets)]
        with traced():
            base = tracemalloc.get_traced_memory()[0]
            cands = build_generating_matrix(returns, symbols, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        rows.append(len(cands))
    per_row = (peaks[1] - peaks[0]) / (rows[1] - rows[0])
    assert per_row <= 160, per_row


def test_stacked_build_holds_one_stack_sized_array():
    # a build makes three arrays the size of its input stack: the centred
    # increments for the Gram matrices, the centred returns for the
    # covariances and the cumulative paths. The first two are freed once
    # reduced, so above its input the build's traced peak, less its
    # table, is the paths and less than one stack more; with both held
    # through the block loop it was three stacks
    stack = random_returns(np.random.default_rng(0), 3000, 125).reshape(1000, 3, 125)
    with traced():
        base = tracemalloc.get_traced_memory()[0]
        cands = build_generating_matrix(stack, ["S0", "S1", "S2"], SelectionConfig())
        peak = tracemalloc.get_traced_memory()[1] - base
    table = sum(getattr(cands, f.name).nbytes for f in fields(cands)[1:])
    assert len(cands) > 1000
    assert peak - table < 2 * stack.nbytes, (peak, table, stack.nbytes)


def test_block_spread_holds_two_block_sized_arrays():
    # a block's spread is its long legs' paths less the hedge legs' paths
    # scaled in place, the hedge freed before the fit: between two fits the
    # build holds at most one block-sized array beside the spread, the
    # hedge, where the unscaled and the scaled hedge held two
    returns = random_returns(np.random.default_rng(0), 60, 125)  # 1770 pairs, 7 blocks
    fit = selection.fbm.fit_hurst
    extra = []

    def recording(spread):
        current, peak = tracemalloc.get_traced_memory()
        extra.append((peak - current) / spread.nbytes)
        fitted = fit(spread)
        tracemalloc.reset_peak()
        return fitted

    with traced(), mock.patch.object(selection.fbm, "fit_hurst", recording):
        build_generating_matrix(returns, [f"S{k}" for k in range(60)], SelectionConfig())
    assert len(extra) == 7 and max(extra) < 1.5, extra
