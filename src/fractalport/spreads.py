"""Price panels, entry-point-normalized returns and the spread formula.

Returns are normalized by the price at the investment entry point, so a
spread return of x means a P&L of x per unit of entry capital. A spread
long asset i and short chi units of asset j has daily return
delta(t) = r_i(t) - chi * r_j(t), chi the OLS slope of i's centred one-day
increments on j's. The market term cancels only when chi is the ratio of
the market betas, and under one factor plus noise the slope's expectation
beta_i beta_j sigma_m^2 / (beta_j^2 sigma_m^2 + sigma_j^2) is that ratio
only when j has no idiosyncratic variance (sigma_j = 0).

Prices arrive as one ``PricePanel``: every symbol's closes on the union
of their dates, NaN where a symbol has none. A window's prices are a block
of that matrix and its returns come from that block (``window_returns``);
a symbol without a price on some day of the window has a NaN in its row,
and ``selection.build_generating_matrix`` forms no pair with it.
"""
from __future__ import annotations

from itertools import compress, pairwise
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from fractalport.errors import ValidationError

__all__ = [
    "PriceSeries",
    "PricePanel",
    "build_panel",
    "window_returns",
    "spread_returns",
]


class PriceSeries(NamedTuple):
    """Adjusted close prices of one symbol, one per date; ``write_prices_wide``
    checks them."""

    symbol: str
    dates: Sequence[str]
    prices: np.ndarray


class PricePanel(NamedTuple):
    """Closes of several symbols on the union of their dates.

    ``prices[k, t]`` is ``symbols[k]``'s close on ``dates[t]``, NaN where it
    has none. Symbols and ISO dates strictly increase, every date has at
    least one price, and ``prices`` is a read-only C-contiguous float64 matrix.
    """

    symbols: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray


def build_panel(symbols, dates, prices: np.ndarray) -> PricePanel:
    """The panel of ``prices`` (symbols x dates, NaN for a missing cell) on
    sorted ``symbols`` and ``dates``: dates without prices are dropped, and
    the matrix is frozen C-contiguous. Symbols or dates that do not strictly
    increase are a ``ValidationError`` naming the first pair out of order;
    so is the first symbol, in the given order, with fewer than 2 prices
    or, failing that, with one not finite and positive.

    Rows are checked by reductions, not cell masks: a row's prices are all
    finite and positive when the least is above 0 and the greatest below
    infinity, NaNs skipped. Only the first bad row is searched for its cell.
    """
    for noun, labels in (("symbols", symbols), ("dates", dates)):
        for a, b in pairwise(labels):
            if not a < b:
                raise ValidationError(f"{noun} are not sorted and distinct: {a!r} then {b!r}")
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    missing = np.isnan(prices)
    on_some = ~missing.all(axis=0)
    if not on_some.all():
        prices = prices.compress(on_some, axis=1)  # C-contiguous, unlike prices[:, on_some]
        missing = missing.compress(on_some, axis=1)
        dates = tuple(compress(dates, on_some))
    count = prices.shape[1] - np.count_nonzero(missing, axis=1)
    del missing
    # the initial values keep a row without prices (or a panel without
    # dates) out of the reductions' way: its count already marks it bad
    low = np.fmin.reduce(prices, axis=1, initial=np.inf)
    high = np.fmax.reduce(prices, axis=1, initial=-np.inf)
    bad = (count < 2) | (low <= 0.0) | (high == np.inf)
    if bad.any():
        k = int(np.argmax(bad))
        if count[k] < 2:
            raise ValidationError(f"{symbols[k]}: need at least 2 prices, got {count[k]}")
        t = int(np.argmax((prices[k] <= 0.0) | (prices[k] == np.inf)))
        raise ValidationError(
            f"{symbols[k]}: price {prices[k, t]} on {dates[t]} is not finite and positive"
        )
    prices.flags.writeable = False
    return PricePanel(tuple(symbols), tuple(dates), prices)


def window_returns(prices: np.ndarray, days: int | None = None, step: int = 1) -> np.ndarray:
    """Daily returns of each row of an (assets x days) price block, days
    >= 1, normalized by the row's entry price: ``(p[t] - p[t-1]) / p[0]``.

    The result is the C-contiguous (assets x days-1) matrix of the block's
    one-window stack. Given ``days``, it is the stack of the windows of
    ``days`` prices that start every ``step`` columns from the first, as
    many as fit: a new C-contiguous (windows x assets x days-1) array,
    window k the matrix of ``prices[:, k * step : k * step + days]``. Each
    price difference is computed once for the whole block and each window
    divides its own by its own entry price, so every value has the bits it
    gets alone.
    """
    if days is None:
        return window_returns(prices, prices.shape[1])[0]
    diffs = np.diff(prices, axis=1)
    count = (prices.shape[1] - days) // step + 1
    out = np.empty((count, len(prices), days - 1))
    windows = sliding_window_view(diffs, days - 1, axis=1)[:, ::step].transpose(1, 0, 2)
    entries = prices[:, : (count - 1) * step + 1 : step].T[:, :, None]
    return np.divide(windows, entries, out=out)


def spread_returns(returns: np.ndarray, long, short, chi) -> np.ndarray:
    """Daily returns of the spreads long ``long[k]`` and short ``chi[k]``
    units of ``short[k]``, one row each: ``r[long] - chi * r[short]``.

    ``long`` and ``short`` are row indices into the (rows x days) matrix
    ``returns``, of any shape, with one hedge ratio each; the result has
    their shape with a day axis added. A stack of (assets x days) windows
    reshaped to (windows·assets x days) takes a window's legs as
    ``window * assets + asset``, with no copy of the stack.
    """
    long, short, chi = map(np.asarray, (long, short, chi))
    return returns[long] - chi[..., None] * returns[short]
