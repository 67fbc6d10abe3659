"""Entry-point-normalized returns, pairwise hedge ratios and market-neutral
spread construction.

Returns are normalized by the price at the investment entry point, so a
spread return of x means a P&L of x per unit of entry capital. A spread
long asset i and short chi units of asset j has daily return
delta(t) = r_i(t) - chi * r_j(t); with chi equal to the ratio of the two
assets' market betas the common market term cancels.

Prices arrive as one ``PricePanel``: every symbol's closes on the union
of their dates, NaN where a symbol has none. All assets of a window share
its dates, so a window's prices are a block of that matrix and its returns
come from that block (``window_returns``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
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
    "PricePanel",
    "SpreadRows",
    "build_panel",
    "price_panel",
    "price_block",
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
        observed = np.ones((1, self.prices.size), dtype=bool)
        _check_prices((self.symbol,), self.dates, self.prices[None], observed)
        # object elements compare as the str values; converting to a numpy
        # string dtype would cost more than the comparison saves
        days = np.array(self.dates, dtype=object)
        if (days[1:] <= days[:-1]).any():
            raise ValidationError(f"{self.symbol}: dates must be strictly increasing")


class PricePanel(NamedTuple):
    """Closes of several symbols on the union of their dates.

    ``prices[k, t]`` is ``symbols[k]``'s close on ``dates[t]``, NaN where it
    has none. Symbols and ISO dates are sorted, every date has at least one
    price, and ``prices`` is a read-only C-contiguous float64 matrix.
    """

    symbols: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray


def build_panel(symbols, dates, prices: np.ndarray) -> PricePanel:
    """The panel of ``prices`` (symbols x dates, NaN for a missing cell) on
    sorted ``symbols`` and ``dates``: dates without prices are dropped, each
    symbol's prices are checked as ``PriceSeries`` checks them, and the
    matrix is frozen C-contiguous.
    """
    observed = ~np.isnan(prices)
    on_some = observed.any(axis=0)
    if not on_some.all():
        prices = prices.compress(on_some, axis=1)  # C-contiguous, unlike prices[:, on_some]
        observed = observed[:, on_some]
        dates = tuple(compress(dates, on_some))
    _check_prices(symbols, dates, prices, observed)
    return PricePanel(tuple(symbols), tuple(dates), _freeze(prices))


def _check_prices(symbols, dates, prices: np.ndarray, observed: np.ndarray) -> None:
    """Reject the first symbol, in the given order, with fewer than 2
    ``observed`` prices or, failing that, with one not finite and positive."""
    count = observed.sum(axis=1)
    bad_cell = observed & ~(np.isfinite(prices) & (prices > 0))
    bad = (count < 2) | bad_cell.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        if count[k] < 2:
            raise ValidationError(f"{symbols[k]}: need at least 2 prices, got {count[k]}")
        t = int(np.argmax(bad_cell[k]))
        raise ValidationError(
            f"{symbols[k]}: price {prices[k, t]} on {dates[t]} is not finite and positive"
        )


def price_panel(series: Sequence[PriceSeries]) -> PricePanel:
    """The panel holding ``series``, the same one ``ingest_prices`` reads
    from a CSV of them."""
    ordered = sorted(series, key=lambda p: p.symbol)
    symbols = tuple(p.symbol for p in ordered)
    if len(set(symbols)) != len(symbols):
        raise ValidationError(f"duplicate symbols: {list(symbols)}")
    dates = tuple(sorted(set().union(*(p.dates for p in ordered))))
    column = {d: t for t, d in enumerate(dates)}
    prices = np.full((len(ordered), len(dates)), np.nan)
    for row, p in zip(prices, ordered):
        row[[column[d] for d in p.dates]] = p.prices
    return build_panel(symbols, dates, prices)


def price_block(panel: PricePanel, rows, cols) -> np.ndarray:
    """The panel's ``rows`` on its ``cols`` dates (both boolean masks), as a
    new C-contiguous matrix: reductions over it round by that layout.

    Raises ``AlignmentError`` naming the first of these symbols without a
    price on one of these dates, and the first such date.
    """
    block = panel.prices[rows].compress(cols, axis=1)
    gaps = np.isnan(block)
    if gaps.any():
        k = int(np.argmax(gaps.any(axis=1)))
        symbol = list(compress(panel.symbols, rows))[k]
        day = list(compress(panel.dates, cols))[int(np.argmax(gaps[k]))]
        raise AlignmentError(f"{symbol}: no price on {day}")
    return block


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
