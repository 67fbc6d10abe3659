"""The pair-block candidate engine against a plain per-pair reference.

``reference_candidates`` is the one-pair-at-a-time chain the engine
replaces: hedge ratio, spread, orientation flip, Hurst fit (weighted
least squares through BLAS dot products) and Kelly weight, pair by pair
in ``itertools.combinations`` order. It lives only here.
"""
import itertools
from dataclasses import fields
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalport.backtest import BacktestConfig, _optimize_window
from fractalport.errors import AlignmentError, InsufficientDataError
from fractalport.fbm import MIN_HURST_LENGTH, cover_amplitudes, window_ladder
from fractalport.optimizer import (
    apply_leverage,
    compose_legs,
    covariance_matrix,
    rescale_covariance,
    solve_weights,
)
from fractalport.selection import (
    PAIR_BLOCK,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
    select_spreads,
)
from fractalport.spreads import (
    HEDGE_VARIANCE_EPS,
    MIN_HEDGE_LENGTH,
    PriceSeries,
    pair_spreads,
    price_block,
    price_panel,
)


def dates(n, start=0):
    base = date(2019, 1, 1)
    return tuple((base + timedelta(days=start + i)).isoformat() for i in range(n))


class Row(NamedTuple):
    """One asset's window returns and the dates they fall on."""

    symbol: str
    returns: np.ndarray
    dates: tuple


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


def pairs(cands):
    return [(cands.symbols[a], cands.symbols[b]) for a, b in zip(cands.long, cands.short)]


def reference_hurst(x):
    """Weighted log-log fit of the cover amplitudes of one path, or None."""
    n = x.size
    if n < MIN_HURST_LENGTH:
        raise InsufficientDataError(f"series has {n} samples")
    sizes = window_ladder(n)
    sums, counts = cover_amplitudes(x, sizes)
    keep = sums > 0.0
    if int(keep.sum()) < 3:
        return None
    v = sums * ((n - 1) / (counts * sizes))
    log_d = np.log(sizes[keep].astype(np.float64))
    log_v = np.log(v[keep])
    wgt = counts[keep].astype(np.float64)
    wgt /= wgt.sum()
    xb = float(wgt @ log_d)
    yb = float(wgt @ log_v)
    sxx = float(wgt @ (log_d - xb) ** 2)
    slope = float(wgt @ ((log_d - xb) * (log_v - yb))) / sxx
    resid = log_v - (yb + slope * (log_d - xb))
    se = float(np.sqrt((wgt @ resid**2) / (int(keep.sum()) - 2) / sxx))
    h = 2.0 - (1.0 - slope)
    if not 0.0 < h < 1.0:
        h = min(max(h, 0.01), 0.99)
    return h, se


def reference_candidates(universe, cfg):
    """(long, short, chi, deltas, mean, theta, h, h_err, kelly) per kept pair."""
    out = []
    for ri, rj in itertools.combinations(universe, 2):
        if ri.dates != rj.dates:
            raise AlignmentError(f"{ri.symbol}/{rj.symbol}")
        if ri.returns.size < MIN_HEDGE_LENGTH:
            raise InsufficientDataError(f"{ri.returns.size} returns")
        di = np.diff(ri.returns)
        dj = np.diff(rj.returns)
        var_j = float(np.var(dj))
        if var_j < HEDGE_VARIANCE_EPS:
            continue
        chi = float(np.mean((di - di.mean()) * (dj - dj.mean()))) / var_j
        if chi <= 0.0:
            continue
        long, short, deltas = ri.symbol, rj.symbol, ri.returns - chi * rj.returns
        if np.mean(deltas) < 0.0:
            long, short, chi, deltas = rj.symbol, ri.symbol, 1.0 / chi, -deltas / chi
        mean, theta = float(np.mean(deltas)), float(np.std(deltas))
        fit = reference_hurst(np.concatenate([[0.0], np.cumsum(deltas)]))
        if fit is None or not theta > 0.0:
            continue
        kelly = fractal_kelly_weight(mean, theta, fit[0], cfg.horizon_days)
        out.append((long, short, chi, deltas, mean, theta, fit[0], fit[1], kelly))
    return out


def random_returns(rng, n_assets, n_days):
    market = 0.01 * rng.standard_normal(n_days)
    betas = rng.uniform(0.3, 1.5, n_assets)
    drift = rng.normal(0.0, 4e-4, n_assets)
    return betas[:, None] * market + drift[:, None] + 0.004 * rng.standard_normal((n_assets, n_days))


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
        universe = make_universe(returns)
        cfg = SelectionConfig()
        matrix, got = build(universe, cfg)
        want = reference_candidates(universe, cfg)
        if n_assets == 30:
            assert n_assets * (n_assets - 1) // 2 > PAIR_BLOCK
        got_pairs = pairs(got)
        assert ("S0", "S1") not in got_pairs
        assert all("S3" not in pair for pair in got_pairs)
        assert all(set(pair) not in ({"S2", "S4"}, {"S5", "S6"}) for pair in got_pairs)
        assert len(got) == len(want) > 0
        assert not any(getattr(got, f.name).flags.writeable for f in fields(got)[1:])
        deltas = pair_spreads(matrix, got.i, got.j, got.hedge_chi).deltas
        for k, (long, short, chi, ref_deltas, mean, theta, h, h_err, kelly) in enumerate(want):
            assert got_pairs[k] == (long, short)
            assert got.chi[k] == chi
            np.testing.assert_array_equal(deltas[k], ref_deltas)
            assert got.mean[k] == mean
            assert got.theta[k] == theta
            assert got.h[k] == pytest.approx(h, rel=1e-12)
            assert got.h_err[k] == pytest.approx(h_err, rel=1e-12)
            assert got.kelly[k] == pytest.approx(kelly, rel=1e-12)
        # the optimizer rebuilds only the selected rows' deltas: the same
        # bits, for the selection and for any other subset of the rows
        ref_deltas = {(long, short): d for long, short, _, d, *_ in want}
        scattered = got.take(np.arange(len(got))[::-3])
        assert len(scattered) > 0
        for subset in (select_spreads(got, cfg), scattered):
            recomputed = pair_spreads(matrix, subset.i, subset.j, subset.hedge_chi).deltas
            for pair, row in zip(pairs(subset), recomputed):
                np.testing.assert_array_equal(row, ref_deltas[pair])

    @pytest.mark.parametrize(
        "n_days,start_of_last,error",
        [
            (MIN_HEDGE_LENGTH - 1, 0, InsufficientDataError),
            (MIN_HURST_LENGTH - 2, 0, InsufficientDataError),
            (126, 1, AlignmentError),
        ],
        ids=["hedge_too_short", "path_too_short", "misaligned"],
    )
    def test_same_errors(self, n_days, start_of_last, error):
        returns = random_returns(np.random.default_rng(7), 4, n_days)
        universe = make_universe(returns[:3]) + make_universe(returns[3:], start=start_of_last)
        with pytest.raises(error):
            reference_candidates(universe, SelectionConfig())
        # the engine's callers first align the window's prices on its dates
        panel = price_panel(
            [PriceSeries(f"P{k}", r.dates, np.full(n_days, 100.0)) for k, r in enumerate(universe)]
        )
        with pytest.raises(error):
            price_block(panel, np.ones(4, dtype=bool), np.isin(panel.dates, universe[0].dates))
            build(universe, SelectionConfig())

    def test_all_pairs_dropped_is_not_an_error(self):
        # a short path raises only once some pair survives the hedge
        base = 0.01 * np.random.default_rng(8).standard_normal(40)
        universe = make_universe([base, -base])
        assert reference_candidates(universe, SelectionConfig()) == []
        assert len(build(universe, SelectionConfig())[1]) == 0


def test_window_optimizer_on_reference_deltas():
    # the training-window optimizer rebuilds the selected spreads from the
    # table; its weights and legs must be those of the reference deltas
    universe = make_universe(random_returns(np.random.default_rng(1), 12, 200))
    cfg = BacktestConfig(test_days=126, benchmark_symbol="MKT")
    symbols = [r.symbol for r in universe]
    weights, info, legs = _optimize_window(return_rows(universe), symbols, cfg)
    assert len(info) > 1
    want = {(c[0], c[1]): c for c in reference_candidates(universe, SelectionConfig(126))}
    rows = [want[(s.long_symbol, s.short_symbol)] for s in info]
    for s, (_, _, chi, _, mean, theta, h, h_err, _) in zip(info, rows):
        assert (s.chi, s.mean_delta, s.theta) == (chi, mean, theta)
    cov = covariance_matrix(np.vstack([r[3] for r in rows]))
    cr = rescale_covariance(cov, [s.hurst for s in info], cfg.test_days)
    mean = [s.mean_delta for s in info]
    labels = [f"{r[0]}/{r[1]}" for r in rows]
    expected = apply_leverage(solve_weights(cr, mean, cfg.test_days, labels), cfg.leverage)
    np.testing.assert_array_equal(weights.spread_weights, expected.spread_weights)
    long, short, chi = ([r[k] for r in rows] for k in range(3))
    assert legs == compose_legs(expected, long, short, chi)


def candidate_bits(matrix, cands):
    """Per row: symbols, every float column and the rebuilt deltas' bytes."""
    deltas = pair_spreads(matrix, cands.i, cands.j, cands.hedge_chi).deltas
    floats = (
        cands.hedge_chi, cands.chi, cands.mean, cands.theta, cands.h, cands.h_err, cands.kelly
    )
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
        special = draw(st.sampled_from(["none", "flat", "inverted", "duplicate"]))
        if special == "flat":
            returns[-1] = 0.0
        elif special == "inverted":
            returns[-1] = -returns[0]
        elif special == "duplicate":
            returns[-1] = returns[1]
    return make_universe(returns)


@settings(max_examples=15, deadline=None)
@given(universes())
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
    deltas = pair_spreads(matrix, got.i, got.j, got.hedge_chi).deltas
    for (long, short), chi, row in zip(pairs(got), got.chi, deltas):
        r_long, r_short = by_symbol[long].returns, by_symbol[short].returns
        scale = np.abs(r_long) + chi * np.abs(r_short)
        assert np.all(np.abs(row - (r_long - chi * r_short)) <= 1e-14 * scale)
