"""The pair-block candidate engine against a plain per-pair reference.

``reference_candidates`` is the one-pair-at-a-time chain the engine
replaces: hedge ratio, spread, orientation flip, Hurst fit (weighted
least squares through BLAS dot products) and Kelly weight, pair by pair
in ``itertools.combinations`` order. It lives only here.
"""
import itertools
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalport.errors import AlignmentError, InsufficientDataError
from fractalport.fbm import MIN_HURST_LENGTH, cover_amplitudes, window_ladder
from fractalport.selection import (
    PAIR_BLOCK,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
)
from fractalport.spreads import HEDGE_VARIANCE_EPS, MIN_HEDGE_LENGTH, ReturnSeries


def dates(n, start=0):
    base = date(2019, 1, 1)
    return tuple((base + timedelta(days=start + i)).isoformat() for i in range(n))


def make_universe(returns, start=0):
    return [
        ReturnSeries(symbol=f"S{k}", entry_price=100.0, returns=row, dates=dates(row.size, start))
        for k, row in enumerate(np.asarray(returns, dtype=np.float64))
    ]


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
        if len(ri) < MIN_HEDGE_LENGTH:
            raise InsufficientDataError(f"{len(ri)} returns")
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
        got = build_generating_matrix(universe, cfg)
        want = reference_candidates(universe, cfg)
        if n_assets == 30:
            assert n_assets * (n_assets - 1) // 2 > PAIR_BLOCK
        assert all(c.spread.pair() != ("S0", "S1") for c in got)
        assert all({"S3"} & set(c.spread.pair()) == set() for c in got)
        assert all(set(c.spread.pair()) not in ({"S2", "S4"}, {"S5", "S6"}) for c in got)
        assert len(got) == len(want) > 0
        for c, (long, short, chi, deltas, mean, theta, h, h_err, kelly) in zip(got, want):
            assert c.spread.pair() == (long, short)
            assert c.spread.chi == chi
            np.testing.assert_array_equal(c.spread.deltas, deltas)
            assert c.spread.mean_delta == mean
            assert c.spread.theta == theta
            assert c.hurst.h == pytest.approx(h, rel=1e-12)
            assert c.hurst.h_err == pytest.approx(h_err, rel=1e-12)
            assert c.kelly_weight == pytest.approx(kelly, rel=1e-12)
            assert not c.spread.deltas.flags.writeable

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
        with pytest.raises(error):
            build_generating_matrix(universe, SelectionConfig())

    def test_all_pairs_dropped_is_not_an_error(self):
        # a short path raises only once some pair survives the hedge
        base = 0.01 * np.random.default_rng(8).standard_normal(40)
        universe = make_universe([base, -base])
        assert reference_candidates(universe, SelectionConfig()) == []
        assert build_generating_matrix(universe, SelectionConfig()) == []


def candidate_bits(c):
    s, hu = c.spread, c.hurst
    return (s.pair(), s.chi, s.deltas.tobytes(), s.mean_delta, s.theta, s.dates,
            hu.h, hu.h_err, hu.n_scales, hu.clamped, c.kelly_weight)


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
    got = {c.spread.pair(): c for c in build_generating_matrix(universe, cfg)}
    by_symbol = {r.symbol: r for r in universe}
    for ri, rj in itertools.combinations(universe, 2):
        alone = build_generating_matrix([ri, rj], cfg)
        in_block = [c for key, c in got.items() if set(key) == {ri.symbol, rj.symbol}]
        assert [candidate_bits(c) for c in alone] == [candidate_bits(c) for c in in_block]
    for c in got.values():
        s = c.spread
        assert s.chi > 0.0
        assert s.mean_delta >= 0.0
        r_long, r_short = by_symbol[s.long_symbol].returns, by_symbol[s.short_symbol].returns
        scale = np.abs(r_long) + s.chi * np.abs(r_short)
        assert np.all(np.abs(s.deltas - (r_long - s.chi * r_short)) <= 1e-14 * scale)
