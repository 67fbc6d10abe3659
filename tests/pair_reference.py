"""The plain per-pair candidate chain the candidate engine is checked against.

One pair at a time, in ``itertools.combinations`` order: the hedge ratio
(OLS slope of the centred one-day return increments), the spread's daily
returns, the orientation flip, the Hurst fit of the cumulative path
(weighted least squares through BLAS dot products) and the Kelly weight.
It lives only in the tests; the engine builds the same columns from
per-asset moments instead, so the two agree to rounding, not bit for bit.
"""
import itertools
import math
from typing import NamedTuple

import numpy as np

from fractalport.errors import InsufficientDataError
from fractalport.fbm import MIN_HURST_LENGTH, cover_amplitudes, window_ladder
from fractalport.selection import HEDGE_VARIANCE_EPS, SPREAD_VARIANCE_FLOOR, fractal_kelly_weight
from fractalport.spreads import spread_returns


class Row(NamedTuple):
    """One asset's window returns and the dates they fall on."""

    symbol: str
    returns: np.ndarray
    dates: tuple


class Candidate(NamedTuple):
    """A kept pair: its oriented legs' symbols, hedge ratio, daily returns,
    their mean and std, the Hurst fit and the Kelly weight."""

    long: str
    short: str
    chi: float
    deltas: np.ndarray
    mean: float
    theta: float
    h: float
    h_err: float
    kelly: float


class Spread(NamedTuple):
    """An oriented spread: long ``long``, short ``chi`` units of ``short``
    (0 or 1, the position of the leg in the call), and its daily returns."""

    long: int
    short: int
    chi: float
    deltas: np.ndarray
    mean: float
    theta: float


def hedge_ratio(r_i, r_j) -> float:
    """Hedge ratio of r_i over r_j: the OLS slope of r_i's one-day
    increments on r_j's, NaN when r_j's have variance below
    ``HEDGE_VARIANCE_EPS``. Raises on fewer returns than a Hurst fit needs,
    as the engine does."""
    if r_i.size + 1 < MIN_HURST_LENGTH:
        raise InsufficientDataError(f"{r_i.size} returns")
    di, dj = np.diff(r_i), np.diff(r_j)
    var_j = float(np.var(dj))
    if var_j < HEDGE_VARIANCE_EPS:
        return math.nan
    return float(np.mean((di - di.mean()) * (dj - dj.mean()))) / var_j


def oriented_spread(r_i, r_j, chi: float) -> Spread:
    """The spread long r_i, short chi units of r_j, reversed (long r_j,
    short 1/chi units of r_i) when its mean daily return is negative. The
    reversed spread's returns are those of its own legs."""
    returns = np.stack([r_i, r_j])
    long, short = 0, 1
    deltas = spread_returns(returns, [long], [short], np.array([chi]))[0]
    if np.mean(deltas) < 0.0:
        long, short, chi = 1, 0, 1.0 / chi
        deltas = spread_returns(returns, [long], [short], np.array([chi]))[0]
    return Spread(long, short, chi, deltas, float(np.mean(deltas)), float(np.std(deltas)))


def hurst(x):
    """Weighted log-log fit (h, h_err) of the cover amplitudes of one path,
    or None when fewer than 3 scales have amplitude or h lies outside
    (0, 1)."""
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
    return (h, se) if 0.0 < h < 1.0 else None


def candidates(universe, cfg):
    """A ``Candidate`` per kept pair of ``universe``, a list of ``Row``s.

    A row of fewer returns than a path needs for a Hurst fit raises
    ``InsufficientDataError`` before any pair is formed. A pair is dropped
    when its legs' returns fall on different dates, when its hedge ratio
    is NaN or not positive, when its path has no usable fit (``hurst``
    gives None), or when its spread's variance is at most
    ``SPREAD_VARIANCE_FLOOR`` times its legs' summed variances.
    """
    short = next((r for r in universe if r.returns.size + 1 < MIN_HURST_LENGTH), None)
    if short is not None:
        raise InsufficientDataError(f"{short.symbol}: {short.returns.size} returns")
    out = []
    for ri, rj in itertools.combinations(universe, 2):
        if ri.dates != rj.dates:
            continue
        chi = hedge_ratio(ri.returns, rj.returns)
        if not chi > 0.0:
            continue
        s = oriented_spread(ri.returns, rj.returns, chi)
        r_long, r_short = (ri, rj)[s.long].returns, (ri, rj)[s.short].returns
        legs = np.var(r_long) + s.chi * s.chi * np.var(r_short)
        fit = hurst(np.concatenate([[0.0], np.cumsum(s.deltas)]))
        if fit is None or not s.theta**2 > SPREAD_VARIANCE_FLOOR * legs:
            continue
        kelly = fractal_kelly_weight(s.mean, s.theta, fit[0], cfg.horizon_days)
        symbols = (ri.symbol, rj.symbol)
        out.append(
            Candidate(symbols[s.long], symbols[s.short], s.chi, s.deltas, s.mean, s.theta, *fit, kelly)
        )
    return out


def pairs(cands):
    """The (long, short) symbols of each row of the engine's ``Candidates``."""
    return [(cands.symbols[a], cands.symbols[b]) for a, b in zip(cands.long, cands.short)]
