"""Entry-point-normalized returns, pairwise hedge ratios and market-neutral
spread construction.

Returns are normalized by the price at the investment entry point, so a
spread return of x means a P&L of x per unit of entry capital. A spread
long asset i and short chi units of asset j has daily return
delta(t) = r_i(t) - chi * r_j(t); with chi equal to the ratio of the two
assets' market betas the common market term cancels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fractalport.errors import (
    AlignmentError,
    DegeneratePairError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "SpreadSeries",
    "compute_returns",
    "hedge_ratio",
    "build_spread",
    "flip_spread",
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
            raise ValidationError(f"{self.symbol}: need at least 2 prices")
        if not np.isfinite(self.prices).all() or not (self.prices > 0).all():
            raise ValidationError(f"{self.symbol}: prices must be finite and positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError(f"{self.symbol}: dates must be strictly increasing")

    def __len__(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class ReturnSeries:
    """Daily returns normalized by the entry price p0.

    ``returns[t] = (p(t) - p(t-1)) / p0``; ``dates`` are the dates of the
    return observations (one fewer than the underlying prices).
    """

    symbol: str
    entry_price: float
    returns: np.ndarray
    dates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "returns", _freeze(self.returns))
        if len(self.dates) != self.returns.size:
            raise ValidationError(f"{self.symbol}: dates/returns length mismatch")
        if not np.isfinite(self.returns).all():
            raise ValidationError(f"{self.symbol}: returns must be finite")
        if not self.entry_price > 0:
            raise ValidationError(f"{self.symbol}: entry price must be positive")

    def __len__(self) -> int:
        return self.returns.size


@dataclass(frozen=True)
class SpreadSeries:
    """Spread returns of a long/short pair: delta(t) = r_long - chi * r_short."""

    long_symbol: str
    short_symbol: str
    chi: float
    deltas: np.ndarray
    mean_delta: float
    theta: float
    dates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "deltas", _freeze(self.deltas))
        if self.long_symbol == self.short_symbol:
            raise ValidationError("spread legs must be distinct symbols")
        if not self.chi > 0:
            raise ValidationError(f"hedge ratio must be positive, got {self.chi}")

    def pair(self) -> tuple[str, str]:
        return (self.long_symbol, self.short_symbol)


def compute_returns(p: PriceSeries, entry_index: int = 0) -> ReturnSeries:
    """Daily returns of ``p`` normalized by the price at ``entry_index``."""
    if len(p) < 2:
        raise InsufficientDataError(f"{p.symbol}: need at least 2 prices for returns")
    if not 0 <= entry_index < len(p):
        raise ParameterError(f"entry index {entry_index} outside series of length {len(p)}")
    entry_price = float(p.prices[entry_index])
    rets = np.diff(p.prices) / entry_price
    return ReturnSeries(
        symbol=p.symbol, entry_price=entry_price, returns=rets, dates=p.dates[1:]
    )


def _check_aligned(ri: ReturnSeries, rj: ReturnSeries) -> None:
    if ri.dates != rj.dates:
        raise AlignmentError(f"{ri.symbol}/{rj.symbol}: return dates differ")


def hedge_ratio(ri: ReturnSeries, rj: ReturnSeries) -> float:
    """Hedge ratio chi (ratio of market betas) of asset i over asset j.

    Estimated from one-day increments of the normalized returns: the OLS
    slope of the increments of r_i on those of r_j, which equals the beta
    ratio under a single-factor model and is numerically stable.

    A non-positive result signals an invertedly-related pair; callers
    skip such pairs rather than treating this as an error.
    """
    _check_aligned(ri, rj)
    if len(ri) < MIN_HEDGE_LENGTH:
        raise InsufficientDataError(
            f"need at least {MIN_HEDGE_LENGTH} overlapping returns, got {len(ri)}"
        )
    di = np.diff(ri.returns)
    dj = np.diff(rj.returns)
    var_j = float(np.var(dj))
    if var_j < HEDGE_VARIANCE_EPS:
        raise DegeneratePairError(
            f"{rj.symbol}: return-increment variance below {HEDGE_VARIANCE_EPS}"
        )
    cov = float(np.mean((di - di.mean()) * (dj - dj.mean())))
    return cov / var_j


def _make_spread(long_symbol, short_symbol, chi, deltas, dates) -> SpreadSeries:
    deltas = np.asarray(deltas, dtype=np.float64)
    return SpreadSeries(
        long_symbol=long_symbol,
        short_symbol=short_symbol,
        chi=float(chi),
        deltas=deltas,
        mean_delta=float(np.mean(deltas)),
        theta=float(np.std(deltas)),
        dates=dates,
    )


def build_spread(ri: ReturnSeries, rj: ReturnSeries, chi: float) -> SpreadSeries:
    """Spread long ``ri`` and short ``chi`` units of ``rj``."""
    if not chi > 0:
        raise ParameterError(f"hedge ratio must be positive, got {chi}")
    _check_aligned(ri, rj)
    deltas = ri.returns - chi * rj.returns
    return _make_spread(ri.symbol, rj.symbol, chi, deltas, ri.dates)


def flip_spread(s: SpreadSeries) -> SpreadSeries:
    """The reversed spread (legs swapped): chi' = 1/chi, delta' = -delta/chi."""
    return _make_spread(
        s.short_symbol, s.long_symbol, 1.0 / s.chi, -s.deltas / s.chi, s.dates
    )
