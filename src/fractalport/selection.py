"""Candidate spread generation and greedy fractal-Kelly selection.

Every unordered pair of universe assets yields (at most) one candidate:
the spread is oriented so its mean daily return is positive, its Hurst
exponent is estimated on the cumulative spread path, and the candidate is
ranked by the horizon-adjusted Kelly weight. Selection then repeatedly
takes the highest-ranked remaining candidate, keeps it only if the Hurst
stability screen passes, and on acceptance retires both of its assets so
every symbol appears in at most one selected spread.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fractalport.errors import DegenerateVolatilityError, ParameterError
from fractalport.fbm import HurstEstimate, fit_hurst
from fractalport.spreads import (
    ReturnSeries,
    SpreadSeries,
    hedge_ratios,
    pair_spreads,
    return_matrix,
)

__all__ = [
    "SelectionConfig",
    "CandidateSpread",
    "fractal_kelly_weight",
    "spread_path",
    "build_generating_matrix",
    "select_spreads",
]

# Pairs evaluated together as rows of one array block: enough rows to
# amortize numpy's per-call overhead, few enough that each (pairs x days)
# temporary takes 2 KB per day of history (0.25 MB at 126 days).
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
class CandidateSpread:
    spread: SpreadSeries
    hurst: HurstEstimate
    kelly_weight: float


def fractal_kelly_weight(mean_delta: float, theta: float, h: float, n_days: int) -> float:
    """Growth-optimal weight over an N-day horizon with fractal volatility.

    mean_delta * N / (theta^2 * N^(2h)): the mean return accrues linearly
    with the horizon while the variance scales as N^(2h), so anti-persistent
    spreads (h < 0.5) gain weight as the horizon grows. At h = 0.5 this is
    the plain one-period Kelly ratio mean/theta^2 for any horizon.
    """
    if not theta > 0.0:
        raise DegenerateVolatilityError(f"spread volatility must be positive, got {theta}")
    if not 0.0 < h < 1.0:
        raise ParameterError(f"hurst exponent must lie in (0, 1), got {h}")
    if n_days < 1:
        raise ParameterError(f"horizon must be at least 1 day, got {n_days}")
    n = float(n_days)
    return mean_delta * n / (theta * theta * n ** (2.0 * h))


def spread_path(deltas) -> np.ndarray:
    """Cumulative spread path (price-like integral of the daily deltas).

    The deltas run along the last axis; a matrix gives one path per row.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    path = np.zeros(deltas.shape[:-1] + (deltas.shape[-1] + 1,))
    np.cumsum(deltas, axis=-1, out=path[..., 1:])
    return path


def build_generating_matrix(
    universe: Sequence[ReturnSeries], cfg: SelectionConfig
) -> list[CandidateSpread]:
    """Candidates for every unordered asset pair of the universe.

    Pairs run in ``itertools.combinations`` order, ``PAIR_BLOCK`` at a
    time as rows of array operations. Pairs whose hedge ratio is
    degenerate or non-positive are omitted, as are pairs whose spread is
    too flat to size; spreads are oriented so the mean daily return is
    non-negative.
    """
    if len(universe) < 2:
        raise ParameterError(f"universe needs at least 2 assets, got {len(universe)}")
    returns = return_matrix(universe)
    symbols = [r.symbol for r in universe]
    dates = universe[0].dates
    first, second = np.triu_indices(len(universe), 1)
    candidates: list[CandidateSpread] = []
    for start in range(0, first.size, PAIR_BLOCK):
        i = first[start : start + PAIR_BLOCK]
        j = second[start : start + PAIR_BLOCK]
        chi = hedge_ratios(returns, i, j)
        hedged = chi > 0.0  # NaN marks a degenerate hedge
        if not hedged.any():
            continue
        rows = pair_spreads(returns, i[hedged], j[hedged], chi[hedged])
        fit = fit_hurst(spread_path(rows.deltas))
        columns = (rows.long, rows.short, rows.chi, rows.mean, rows.theta, *fit)
        for k, (long, short, chi_k, mean, theta, h, h_err, n_scales, clamped) in enumerate(
            zip(*(c.tolist() for c in columns))
        ):
            if n_scales < 3 or not theta > 0.0:
                continue  # no Hurst fit, or a spread too flat to size
            spread = SpreadSeries(
                long_symbol=symbols[long],
                short_symbol=symbols[short],
                chi=chi_k,
                deltas=rows.deltas[k],
                mean_delta=mean,
                theta=theta,
                dates=dates,
            )
            hurst = HurstEstimate(h=h, h_err=h_err, n_scales=n_scales, clamped=clamped)
            weight = fractal_kelly_weight(mean, theta, h, cfg.horizon_days)
            candidates.append(CandidateSpread(spread=spread, hurst=hurst, kelly_weight=weight))
    return candidates


def _accepts(c: CandidateSpread, cap: float) -> bool:
    return (
        c.hurst.h + c.hurst.h_err < cap
        and c.hurst.h_err < c.hurst.h
        and c.spread.mean_delta > 0.0
    )


def select_spreads(
    candidates: Sequence[CandidateSpread], cfg: SelectionConfig
) -> list[CandidateSpread]:
    """Greedy selection of disjoint spreads by descending Kelly weight.

    The top-weighted remaining candidate is accepted only if
    h + h_err < hurst_cap and h_err < h; acceptance retires both of its
    assets, rejection discards just that candidate. Ties in weight break
    lexicographically on (long, short) symbols, so the result is
    deterministic.
    """
    order = sorted(
        candidates,
        key=lambda c: (-c.kelly_weight, c.spread.long_symbol, c.spread.short_symbol),
    )
    used: set[str] = set()
    picked: list[CandidateSpread] = []
    for cand in order:
        if cfg.max_spreads is not None and len(picked) >= cfg.max_spreads:
            break
        if cand.spread.long_symbol in used or cand.spread.short_symbol in used:
            continue
        if _accepts(cand, cfg.hurst_cap):
            picked.append(cand)
            used.add(cand.spread.long_symbol)
            used.add(cand.spread.short_symbol)
    return picked
