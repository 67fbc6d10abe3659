"""Candidate spread generation and greedy fractal-Kelly selection.

Every unordered pair of universe assets yields (at most) one candidate:
the spread is oriented so its mean daily return is positive, its Hurst
exponent is estimated on the cumulative spread path, and the candidate is
ranked by the horizon-adjusted Kelly weight. Candidates are held as one
column table with a row per pair. Selection repeatedly takes the
highest-ranked remaining candidate, keeps it only if the Hurst stability
screen passes, and on acceptance retires both of its assets so every
symbol appears in at most one selected spread.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from fractalport.errors import DegenerateVolatilityError, ParameterError
from fractalport.fbm import fit_hurst
from fractalport.spreads import hedge_increments, hedge_ratios, pair_spreads

__all__ = [
    "SelectionConfig",
    "Candidates",
    "fractal_kelly_weight",
    "spread_path",
    "build_generating_matrix",
    "select_spreads",
]

# Pairs evaluated together as rows of one array block: enough rows to
# amortize numpy's per-call overhead, few enough that each (pairs x days)
# temporary takes 2 KB per day of history (0.25 MB at 126 days). Measured
# with stacked windows (perfbench run_cal medians of 3 seeds, 2-core VM,
# 128 / 256 / 512): pairs_wide 1.09 / 1.05 / 0.95 and history_long
# 1.19 / 1.18 / 1.16, but 512 raised peak RSS by 1.3 and 0.6 MB.
PAIR_BLOCK = 256


@dataclass(frozen=True)
class SelectionConfig:
    horizon_days: int = 126
    hurst_cap: float = 0.5
    max_spreads: Optional[int] = None

    def __post_init__(self):
        if self.horizon_days < 1:
            raise ParameterError(f"horizon must be at least 1 day, got {self.horizon_days}")
        if not 0.0 < self.hurst_cap <= 0.5:
            raise ParameterError(f"hurst cap must lie in (0, 0.5], got {self.hurst_cap}")
        if self.max_spreads is not None and self.max_spreads < 1:
            raise ParameterError(f"max spreads must be positive, got {self.max_spreads}")


@dataclass(frozen=True)
class Candidates:
    """Candidate spreads, one row per pair of a window, as equal-length columns.

    ``window`` indexes the row's window in the stack the table was built
    from (0 for a single window). ``long``/``short``/``chi`` are the
    oriented legs (indices into ``symbols`` and into that window's
    (assets x days) return matrix) and hedge ratio; ``mean``/``theta`` are
    the mean and std of the daily deltas, ``h``/``h_err`` the Hurst fit and
    ``kelly`` the weight.
    """

    symbols: tuple[str, ...]
    window: np.ndarray
    long: np.ndarray
    short: np.ndarray
    chi: np.ndarray
    mean: np.ndarray
    theta: np.ndarray
    h: np.ndarray
    h_err: np.ndarray
    kelly: np.ndarray

    def __post_init__(self):
        for f in fields(self)[1:]:
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return self.window.size

    def rows(self) -> list[dict]:
        """One record per row, keyed by the output names of a selected spread:
        the ``select`` output and ``SelectedSpreadInfo`` use these names."""
        columns = {
            "long_symbol": [self.symbols[k] for k in self.long.tolist()],
            "short_symbol": [self.symbols[k] for k in self.short.tolist()],
            "chi": self.chi.tolist(),
            "hurst": self.h.tolist(),
            "hurst_err": self.h_err.tolist(),
            "kelly_weight": self.kelly.tolist(),
            "mean_delta": self.mean.tolist(),
            "theta": self.theta.tolist(),
        }
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    def take(self, index) -> Candidates:
        """The table of the rows at ``index``, in that order."""
        return Candidates(
            self.symbols, *(getattr(self, f.name)[index] for f in fields(self)[1:])
        )


def fractal_kelly_weight(mean_delta, theta, h, n_days: int):
    """Growth-optimal weight over an N-day horizon with fractal volatility.

    mean_delta * N / (theta^2 * N^(2h)): the mean return accrues linearly
    with the horizon while the variance scales as N^(2h), so anti-persistent
    spreads (h < 0.5) gain weight as the horizon grows. At h = 0.5 this is
    the plain one-period Kelly ratio mean/theta^2 for any horizon.
    Elementwise over arrays; scalars give a float.
    """
    mean_delta, theta, h = (np.asarray(v, dtype=np.float64) for v in (mean_delta, theta, h))
    if not np.all(theta > 0.0):
        raise DegenerateVolatilityError(f"spread volatility must be positive, got {theta}")
    if not np.all((0.0 < h) & (h < 1.0)):
        raise ParameterError(f"hurst exponent must lie in (0, 1), got {h}")
    if n_days < 1:
        raise ParameterError(f"horizon must be at least 1 day, got {n_days}")
    n = float(n_days)
    weight = mean_delta * n / (theta * theta * n ** (2.0 * h))
    return weight if weight.ndim else float(weight)


def spread_path(deltas) -> np.ndarray:
    """Cumulative spread path (price-like integral of the daily deltas).

    The deltas run along the last axis; a matrix gives one path per row.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    path = np.zeros(deltas.shape[:-1] + (deltas.shape[-1] + 1,))
    np.cumsum(deltas, axis=-1, out=path[..., 1:])
    return path


def build_generating_matrix(returns: np.ndarray, symbols, cfg: SelectionConfig) -> Candidates:
    """Candidates for every unordered asset pair of each window.

    ``returns`` is a window's (assets x days) matrix (``window_returns``),
    or a (windows x assets x days) stack of such matrices on the same
    assets, and ``symbols`` names the asset rows. Rows run window by
    window, each window's pairs in ``itertools.combinations`` order, so a
    window's rows are one contiguous run of the table. Each asset's hedge
    increments are computed once per window, then ``PAIR_BLOCK``
    (window, pair) rows at a time are evaluated as rows of array
    operations. Pairs whose hedge ratio is degenerate or non-positive are
    omitted, as are pairs with no usable Hurst fit or too flat to size;
    spreads are oriented so the mean daily return is non-negative, and a
    pair whose spread is the rounding noise of an exact hedge, negative in
    mean both ways, is omitted too. A row's values do not depend on the
    other rows, so a stack gives each window the table it gets alone.
    """
    n_assets, n_days = returns.shape[-2:]
    if n_assets < 2:
        raise ParameterError(f"universe needs at least 2 assets, got {n_assets}")
    stacked = returns.reshape(-1, n_days)  # (windows * assets) x days
    increments = hedge_increments(stacked)
    first, second = np.triu_indices(n_assets, 1)
    n_rows = stacked.shape[0] // n_assets * first.size
    # window, long, short are indices; the five columns after them are floats
    blocks = [(first[:0],) * 3 + (np.empty(0),) * 5]
    for start in range(0, n_rows, PAIR_BLOCK):
        window, pair = np.divmod(np.arange(start, min(start + PAIR_BLOCK, n_rows)), first.size)
        base = window * n_assets  # the window's first row in ``stacked``
        i, j = base + first[pair], base + second[pair]
        chi = hedge_ratios(increments, i, j)
        hedged = chi > 0.0  # NaN marks a degenerate hedge
        if not hedged.any():
            continue
        window, base, i, j, chi = (c[hedged] for c in (window, base, i, j, chi))
        rows = pair_spreads(stacked, i, j, chi)
        h, h_err, n_scales, _ = fit_hurst(spread_path(rows.deltas))
        # a usable fit, a sizable spread, a non-negative mean
        keep = (n_scales >= 3) & (rows.theta > 0.0) & (rows.mean >= 0.0)
        legs = (k - base for k in (rows.long, rows.short))  # indices in the window
        columns = (window, *legs, rows.chi, rows.mean, rows.theta, h, h_err)
        blocks.append(tuple(c[keep] for c in columns))
    columns = [np.concatenate(c) for c in zip(*blocks)]
    mean, theta, h = columns[4:7]
    kelly = fractal_kelly_weight(mean, theta, h, cfg.horizon_days)
    return Candidates(tuple(symbols), *columns, kelly)


def select_spreads(cands: Candidates, cfg: SelectionConfig) -> Candidates:
    """Greedy selection of disjoint spreads by descending Kelly weight.

    The top-weighted remaining candidate is accepted only if
    h + h_err < hurst_cap, h_err < h and its mean return is positive;
    acceptance retires both of its assets, rejection discards just that
    candidate. Ties in weight break lexicographically on the (long, short)
    symbol strings, so the result is deterministic. A rejected row never
    retires an asset, so the screen is applied to all rows up front.
    """
    rows = np.flatnonzero(
        (cands.h + cands.h_err < cfg.hurst_cap) & (cands.h_err < cands.h) & (cands.mean > 0.0)
    )
    rank = np.empty(len(cands.symbols), dtype=np.intp)
    rank[sorted(range(rank.size), key=cands.symbols.__getitem__)] = np.arange(rank.size)
    long, short = cands.long[rows], cands.short[rows]
    order = np.lexsort((rank[short], rank[long], -cands.kelly[rows]))
    used: set[int] = set()
    picked: list[int] = []
    for row, a, b in zip(rows[order].tolist(), long[order].tolist(), short[order].tolist()):
        if cfg.max_spreads is not None and len(picked) >= cfg.max_spreads:
            break
        if a in used or b in used:
            continue
        picked.append(row)
        used.update((a, b))
    return cands.take(np.array(picked, dtype=np.intp))
