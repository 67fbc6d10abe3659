"""Entry-point-normalized returns, pairwise hedge ratios and market-neutral
spread construction.

Returns are normalized by the price at the investment entry point, so a
spread return of x means a P&L of x per unit of entry capital. A spread
long asset i and short chi units of asset j has daily return
delta(t) = r_i(t) - chi * r_j(t); with chi equal to the ratio of the two
assets' market betas the common market term cancels.

All assets of a window share its dates, so a window's prices are a block
of one date-aligned (assets x days) price matrix (``price_matrix``) and its
returns come from that block (``window_returns``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from fractalport.errors import (
    AlignmentError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)

__all__ = [
    "PriceSeries",
    "SpreadRows",
    "price_matrix",
    "window_returns",
    "hedge_ratios",
    "pair_spreads",
]

# Variance floor below which the hedge regression is meaningless.
HEDGE_VARIANCE_EPS = 1e-12

# Minimum overlapping observations for a hedge-ratio estimate.
MIN_HEDGE_LENGTH = 32


def _freeze(values, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PriceSeries:
    """Adjusted close prices for one symbol on strictly increasing dates."""

    symbol: str
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", _freeze(self.prices))
        if len(self.dates) != self.prices.size:
            raise ValidationError(
                f"{self.symbol}: {len(self.dates)} dates vs {self.prices.size} prices"
            )
        if self.prices.size < 2:
            raise ValidationError(
                f"{self.symbol}: need at least 2 prices, got {self.prices.size}"
            )
        bad = np.flatnonzero(~(np.isfinite(self.prices) & (self.prices > 0)))
        if bad.size:
            k = bad[0]
            raise ValidationError(
                f"{self.symbol}: price {self.prices[k]} on {self.dates[k]} "
                "is not finite and positive"
            )
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError(f"{self.symbol}: dates must be strictly increasing")

    def __len__(self) -> int:
        return self.prices.size


def price_matrix(series: Sequence[PriceSeries], dates: Sequence[str]) -> np.ndarray:
    """Prices of each series on ``dates``, one row per series.

    Raises ``AlignmentError`` naming the first series without a price on
    one of the dates, and the first such date.
    """
    want = np.asarray(dates, dtype=str)
    rows = np.empty((len(series), want.size))
    for row, p in zip(rows, series):
        have = np.asarray(p.dates, dtype=str)
        at = np.searchsorted(have, want)
        found = have[np.minimum(at, have.size - 1)] == want
        if not found.all():
            raise AlignmentError(f"{p.symbol}: no price on {want[np.argmin(found)]}")
        row[:] = p.prices[at]
    return rows


def window_returns(prices: np.ndarray) -> np.ndarray:
    """Daily returns of each row of an (assets x days) price block,
    normalized by the row's entry price: ``(p[t] - p[t-1]) / p[0]``.

    The result is a new C-contiguous (assets x days-1) matrix.
    """
    return np.diff(prices, axis=1) / prices[:, :1]


def hedge_ratios(returns: np.ndarray, i, j) -> np.ndarray:
    """Hedge ratio chi (ratio of market betas) of asset i[k] over asset j[k].

    ``returns`` is an (assets x days) matrix; each pair is one row of the
    computation. Estimated from one-day increments of the normalized
    returns: the OLS slope of the increments of r_i on those of r_j, which
    equals the beta ratio under a single-factor model and is numerically
    stable. Each asset's increments are centred once and gathered per pair.

    A pair whose regressor increments have variance below
    ``HEDGE_VARIANCE_EPS`` has no hedge ratio and gets NaN. A non-positive
    result signals an invertedly-related pair; callers skip both.
    """
    if returns.shape[1] < MIN_HEDGE_LENGTH:
        raise InsufficientDataError(
            f"need at least {MIN_HEDGE_LENGTH} overlapping returns, got {returns.shape[1]}"
        )
    incr = np.diff(returns, axis=1)
    var = np.var(incr, axis=1)
    incr -= incr.mean(axis=1, keepdims=True)
    cov = np.mean(incr[i] * incr[j], axis=1)
    var_j = var[j]
    return np.divide(
        cov, var_j, out=np.full(cov.shape, np.nan), where=var_j >= HEDGE_VARIANCE_EPS
    )


class SpreadRows(NamedTuple):
    """Spreads of a block of pairs, one row each: leg indices into the
    return matrix, hedge ratio, daily deltas, their mean and their std."""

    long: np.ndarray
    short: np.ndarray
    chi: np.ndarray
    deltas: np.ndarray
    mean: np.ndarray
    theta: np.ndarray


def pair_spreads(returns: np.ndarray, i, j, chi) -> SpreadRows:
    """Spreads long asset i[k] and short chi[k] units of asset j[k].

    Each spread is oriented so its mean daily return is non-negative: a
    row with negative mean is reversed (legs swapped), chi' = 1/chi and
    delta' = -delta/chi.
    """
    chi = np.array(chi, dtype=np.float64)
    if not (chi > 0).all():
        raise ParameterError("hedge ratios must be positive")
    deltas = returns[i] - chi[:, None] * returns[j]
    flip = deltas.mean(axis=1) < 0.0
    deltas[flip] = -deltas[flip] / chi[flip, None]
    chi[flip] = 1.0 / chi[flip]
    return SpreadRows(
        long=np.where(flip, j, i),
        short=np.where(flip, i, j),
        chi=chi,
        deltas=deltas,
        mean=deltas.mean(axis=1),
        theta=deltas.std(axis=1),
    )
