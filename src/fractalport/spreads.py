"""Price panels, entry-point-normalized returns and the spread formula.

Returns are normalized by the price at the investment entry point, so a
spread return of x means a P&L of x per unit of entry capital. A spread
long asset i and short chi units of asset j has daily return
delta(t) = r_i(t) - chi * r_j(t); with chi equal to the ratio of the two
assets' market betas the common market term cancels.

Prices arrive as one ``PricePanel``: every symbol's closes on the union
of their dates, NaN where a symbol has none. A window's prices are a block
of that matrix and its returns come from that block (``window_returns``);
a symbol without a price on some day of the window has a NaN in its row,
and ``selection.build_generating_matrix`` forms no pair with it.
"""
from __future__ import annotations

from datetime import date
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

from fractalport.errors import ValidationError

__all__ = [
    "PriceSeries",
    "PricePanel",
    "build_panel",
    "price_panel",
    "window_returns",
    "spread_returns",
]


class PriceSeries(NamedTuple):
    """Adjusted close prices of one symbol, one per date; ``price_panel``
    checks them."""

    symbol: str
    dates: Sequence[str]
    prices: np.ndarray


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
    symbol must have at least 2 prices, all finite and positive, and the
    matrix is frozen C-contiguous.
    """
    observed = ~np.isnan(prices)
    on_some = observed.any(axis=0)
    if not on_some.all():
        prices = prices.compress(on_some, axis=1)  # C-contiguous, unlike prices[:, on_some]
        observed = observed[:, on_some]
        dates = tuple(compress(dates, on_some))
    _check_prices(symbols, dates, prices, observed)
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    prices.flags.writeable = False
    return PricePanel(tuple(symbols), tuple(dates), prices)


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
    from a CSV of them, and the one check of a series: its symbol is
    non-empty with no surrounding whitespace, its dates are ``YYYY-MM-DD``
    strings that, in any order, match its prices one to one, and a NaN is
    a bad price, not a gap."""
    ordered = sorted(series, key=lambda p: p.symbol)
    symbols = tuple(p.symbol for p in ordered)
    for sym in symbols:
        if not sym or sym != sym.strip():
            raise ValidationError(f"{sym!r}: symbol is empty or has surrounding whitespace")
    if len(set(symbols)) != len(symbols):
        raise ValidationError(f"duplicate symbols: {list(symbols)}")
    union = set().union(*(p.dates for p in ordered))
    bad = {d for d in union if not _is_iso_date(d)}
    if bad:
        p, day = next((p, d) for p in ordered for d in p.dates if d in bad)
        raise ValidationError(f"{p.symbol}: date {day!r} is not a YYYY-MM-DD string")
    dates = tuple(sorted(union))
    column = {d: t for t, d in enumerate(dates)}
    prices = np.full((len(ordered), len(dates)), np.nan)
    observed = np.zeros(prices.shape, dtype=bool)
    for row, seen, p in zip(prices, observed, ordered):
        if np.shape(p.prices) != (len(p.dates),):
            raise ValidationError(f"{p.symbol}: {len(p.dates)} dates vs {np.size(p.prices)} prices")
        cols = [column[d] for d in p.dates]
        if len(set(cols)) < len(cols):
            raise ValidationError(f"{p.symbol}: duplicate date {dates[np.bincount(cols).argmax()]}")
        row[cols] = p.prices
        seen[cols] = True
    _check_prices(symbols, dates, prices, observed)
    prices.flags.writeable = False
    return PricePanel(symbols, dates, prices)


def _is_iso_date(day) -> bool:
    try:
        return date.fromisoformat(day).isoformat() == day
    except (TypeError, ValueError):
        return False


def window_returns(prices: np.ndarray) -> np.ndarray:
    """Daily returns of each row of an (assets x days) price block,
    normalized by the row's entry price: ``(p[t] - p[t-1]) / p[0]``.

    The result is a new C-contiguous (assets x days-1) matrix.
    """
    return np.diff(prices, axis=1) / prices[:, :1]


def spread_returns(returns: np.ndarray, long, short, chi) -> np.ndarray:
    """Daily returns of the spreads long ``long[k]`` and short ``chi[k]``
    units of ``short[k]``, one row each: ``r[long] - chi * r[short]``.

    ``returns`` may be a stack of (assets x days) matrices, with one row of
    legs and hedge ratios each; the result is then a stack of spread rows.
    """
    long, short, chi = (np.asarray(v)[..., None] for v in (long, short, chi))
    return np.take_along_axis(returns, long, -2) - chi * np.take_along_axis(returns, short, -2)
