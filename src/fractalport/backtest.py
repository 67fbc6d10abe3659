"""Deterministic walk-forward out-of-sample engine.

History is cut into consecutive non-overlapping test windows, each
preceded by a training window. The whole pipeline (returns, hedge ratios,
spread selection, weight optimization, share sizing) runs on training
data only; positions are fixed at the window boundary close and marked to
market daily through the test window with commissions and overnight
financing. Nothing inside a test window can influence that window's
positions.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Optional, Sequence

import numpy as np

from fractalport.errors import (
    DataError,
    EmptyPortfolioError,
    NumericalError,
    ParameterError,
)
from fractalport.fbm import MIN_HURST_LENGTH
from fractalport.optimizer import (
    PortfolioWeights,
    apply_leverage,
    compose_legs,
    covariance_matrix,
    rescale_covariance,
    solve_weights,
)
from fractalport.selection import SelectionConfig, build_generating_matrix, select_spreads
from fractalport.spreads import PricePanel, pair_spreads, price_block, window_returns

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "BacktestConfig",
    "SelectedSpreadInfo",
    "WindowResult",
    "BacktestReport",
    "max_drawdown",
    "position_sizing",
    "run_walk_forward",
    "compute_metrics",
]

logger = logging.getLogger(__name__)

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class BacktestConfig:
    train_days: int = 126
    test_days: int = 126
    leverage: float = 2.0
    initial_capital: float = 100_000.0
    commission_per_share: float = 0.005
    overnight_rate_annual: float = 0.01
    benchmark_symbol: str = "SPY"
    hurst_cap: float = 0.5
    reinvest: bool = True

    def __post_init__(self):
        if self.train_days < MIN_HURST_LENGTH:
            raise ParameterError(
                f"train window must be at least {MIN_HURST_LENGTH} days "
                f"(Hurst estimator minimum), got {self.train_days}"
            )
        if self.test_days < 1:
            raise ParameterError(f"test window must be positive, got {self.test_days}")
        for name in ("leverage", "initial_capital", "commission_per_share", "overnight_rate_annual"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.leverage > 0:
            raise ParameterError(f"leverage must be positive, got {self.leverage}")
        if not self.initial_capital > 0:
            raise ParameterError(f"capital must be positive, got {self.initial_capital}")
        if self.commission_per_share < 0:
            raise ParameterError("commission per share must be non-negative")
        if self.overnight_rate_annual < 0:
            raise ParameterError("overnight rate must be non-negative")
        if not 0.0 < self.hurst_cap <= 0.5:
            raise ParameterError(f"hurst cap must lie in (0, 0.5], got {self.hurst_cap}")
        if not self.benchmark_symbol:
            raise ParameterError("benchmark symbol must be set")


@dataclass(frozen=True)
class SelectedSpreadInfo:
    """Training-window statistics of one selected spread."""

    long_symbol: str
    short_symbol: str
    chi: float
    hurst: float
    hurst_err: float
    kelly_weight: float
    mean_delta: float
    theta: float
    weight: float


@dataclass(frozen=True)
class WindowResult:
    window_index: int
    weights: Optional[PortfolioWeights]
    daily_equity: np.ndarray
    window_return: float
    benchmark_return: float
    costs_paid: float
    selected: tuple[SelectedSpreadInfo, ...]
    shares: dict[str, int]
    daily_costs: np.ndarray
    dates: tuple[str, ...]


@dataclass(frozen=True)
class BacktestReport:
    windows: tuple[WindowResult, ...]
    cumulative_return: float
    single_returns: tuple[float, ...]
    annual_return_reinvested: float
    annual_return_single: float
    annual_volatility: Optional[float]
    sharpe: Optional[float]
    normalized_volatility: Optional[float]
    max_drawdown: float
    benchmark_correlation: Optional[float]
    market_neutrality: Optional[float]
    avg_max_weight: Optional[float]
    asset_count_range: tuple[int, int]


def max_drawdown(equity) -> float:
    """Largest peak-to-trough decline, as a fraction of the peak.

    Capped at 1 (total loss): leveraged equity can cross zero and the
    reported drawdown stays a fraction.
    """
    e = np.asarray(equity, dtype=np.float64)
    if e.size < 1:
        raise ParameterError("equity curve is empty")
    peaks = np.maximum.accumulate(e)
    return float(min(np.max((peaks - e) / peaks), 1.0))


def position_sizing(
    exposures: Mapping[str, float],
    prices_at_entry: Mapping[str, float],
    capital: float,
) -> dict[str, int]:
    """Integer share counts from exposure fractions, truncated toward zero."""
    if not capital > 0:
        raise ParameterError(f"capital must be positive, got {capital}")
    shares: dict[str, int] = {}
    for sym in sorted(exposures):
        price = prices_at_entry[sym]
        if not price > 0:
            raise ParameterError(f"{sym}: entry price must be positive, got {price}")
        shares[sym] = math.trunc(exposures[sym] * capital / price)
    return shares


def _mark_window(
    share_vec: np.ndarray,
    price_mat: np.ndarray,
    cfg: BacktestConfig,
    start_equity: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Daily equity and costs over one window.

    ``price_mat`` has T+1 rows: the entry boundary close followed by the T
    test-day closes, one column per held symbol. Costs on day t are the
    overnight financing of the position held into t (charged on the short
    market value plus any gross value financed above equity, both at the
    previous close) plus the entry commission on the first day and the
    exit commission on the last.
    """
    t_days = price_mat.shape[0] - 1
    equity = np.empty(t_days + 1, dtype=np.float64)
    costs = np.zeros(t_days, dtype=np.float64)
    equity[0] = start_equity
    commission = cfg.commission_per_share * float(np.abs(share_vec).sum())
    daily_rate = cfg.overnight_rate_annual / TRADING_DAYS_PER_YEAR
    short_mask = share_vec < 0
    for t in range(1, t_days + 1):
        p_prev = price_mat[t - 1]
        p_now = price_mat[t]
        gross = float(np.abs(share_vec) @ p_prev)
        short_mv = float(np.abs(share_vec[short_mask]) @ p_prev[short_mask])
        financed = max(0.0, gross - equity[t - 1]) + short_mv
        cost = daily_rate * financed
        if t == 1:
            cost += commission
        if t == t_days:
            cost += commission
        pnl = float(share_vec @ (p_now - p_prev))
        equity[t] = equity[t - 1] + pnl - cost
        costs[t - 1] = cost
    return equity, costs


def _optimize_window(returns: np.ndarray, symbols, cfg: BacktestConfig):
    """Training-window pipeline: candidates, selection, weights, legs."""
    sel_cfg = SelectionConfig(horizon_days=cfg.test_days, hurst_cap=cfg.hurst_cap)
    sel = select_spreads(build_generating_matrix(returns, symbols, sel_cfg), sel_cfg)
    if not sel:
        return None, (), {}
    # each pair_spreads row depends only on its own inputs, so these are
    # the same deltas the candidate table was built from
    deltas = pair_spreads(returns, sel.i, sel.j, sel.hedge_chi).deltas
    cov = covariance_matrix(deltas)
    rescaled = rescale_covariance(cov, sel.h, cfg.test_days)
    rows = sel.rows()
    long, short = [r[0] for r in rows], [r[1] for r in rows]
    labels = [f"{a}/{b}" for a, b in zip(long, short)]
    raw = solve_weights(rescaled, sel.mean, cfg.test_days, labels)
    try:
        weights = apply_leverage(raw, cfg.leverage)
    except EmptyPortfolioError:
        return None, (), {}
    legs = compose_legs(weights, long, short, sel.chi)
    weights = PortfolioWeights(
        spread_weights=weights.spread_weights,
        leverage=weights.leverage,
        scale_k=weights.scale_k,
        asset_legs=legs,
    )
    # Candidates.rows is in SelectedSpreadInfo's field order, weight last
    info = tuple(
        SelectedSpreadInfo(*row, w) for row, w in zip(rows, weights.spread_weights.tolist())
    )
    return weights, info, legs


def run_walk_forward(panel: PricePanel, cfg: BacktestConfig) -> BacktestReport:
    """Walk the history window by window and aggregate the report.

    The panel's ``cfg.benchmark_symbol`` row is the benchmark and every
    other row is traded. The run uses the dates on which all of them have
    a price. Each test window's positions are computed from its training
    window alone and held, with fixed share counts, through the test window.
    """
    if cfg.benchmark_symbol not in panel.symbols:
        raise DataError(
            f"benchmark symbol {cfg.benchmark_symbol!r} has no prices; "
            f"available: {list(panel.symbols)}"
        )
    is_bench = np.array([s == cfg.benchmark_symbol for s in panel.symbols])
    symbols = list(compress(panel.symbols, ~is_bench))
    if len(symbols) < 2:
        raise ParameterError(f"universe needs at least 2 assets, got {len(symbols)}")
    common = ~np.isnan(panel.prices).any(axis=0)
    dates = tuple(compress(panel.dates, common))
    need = cfg.train_days + cfg.test_days
    if len(dates) < need:
        raise ParameterError(
            f"insufficient history: {len(dates)} common dates, "
            f"need at least {need} (train {cfg.train_days} + test {cfg.test_days})"
        )
    prices = price_block(panel, ~is_bench, common)
    bench = price_block(panel, is_bench, common)[0]
    row_of = {s: k for k, s in enumerate(symbols)}

    n_windows = (len(dates) - cfg.train_days) // cfg.test_days
    windows: list[WindowResult] = []
    chain_capital = cfg.initial_capital
    for w in range(n_windows):
        a = w * cfg.test_days
        b = a + cfg.train_days
        end = b + cfg.test_days
        weights, info, legs = _optimize_window(window_returns(prices[:, a:b]), symbols, cfg)
        start_capital = chain_capital if cfg.reinvest else cfg.initial_capital
        if start_capital <= 0:
            raise NumericalError(f"capital exhausted before window {w}")
        entry_prices = dict(zip(symbols, prices[:, b - 1].tolist()))
        shares = position_sizing(legs, entry_prices, start_capital) if legs else {}
        held = sorted(shares)
        share_vec = np.array([shares[s] for s in held], dtype=np.float64)
        # a C-contiguous copy: _mark_window's dot products round by layout
        price_mat = np.ascontiguousarray(prices[[row_of[s] for s in held], b - 1 : end].T)
        equity, daily_costs = _mark_window(share_vec, price_mat, cfg, start_capital)
        window_return = float(equity[-1] / equity[0] - 1.0)
        benchmark_return = float(bench[end - 1] / bench[b - 1] - 1.0)
        windows.append(
            WindowResult(
                window_index=w,
                weights=weights,
                daily_equity=equity,
                window_return=window_return,
                benchmark_return=benchmark_return,
                costs_paid=float(daily_costs.sum()),
                selected=info,
                shares=shares,
                daily_costs=daily_costs,
                dates=dates[b - 1 : end],
            )
        )
        chain_capital *= 1.0 + window_return
        logger.debug(
            "window %d: %d spreads, return %.4f", w, len(info), window_return
        )
    return compute_metrics(windows, cfg)


def compute_metrics(
    windows: Sequence[WindowResult], cfg: BacktestConfig
) -> BacktestReport:
    """Aggregate per-window results into the report metrics.

    Annualization treats 252/test_days windows as one year, so with the
    default half-year windows the annual return is twice the mean single
    return and volatility scales by sqrt(2). Drawdown is measured on the
    compounded (reinvested) daily equity curve regardless of the
    reinvestment flag, so both return styles share one risk measure.
    """
    if len(windows) < 1:
        raise ParameterError("need at least one backtest window")
    single = np.array([w.window_return for w in windows], dtype=np.float64)
    bench = np.array([w.benchmark_return for w in windows], dtype=np.float64)
    n = single.size
    per_year = TRADING_DAYS_PER_YEAR / cfg.test_days
    cumulative = float(np.prod(1.0 + single) - 1.0)
    annual_reinvested = float((1.0 + cumulative) ** (per_year / n) - 1.0)
    annual_single = float(per_year * single.mean())

    annual_vol = sharpe = normalized_vol = corr = neutrality = None
    if n >= 2:
        sd = float(np.std(single, ddof=1))
        annual_vol = float(math.sqrt(per_year) * sd)
        if annual_vol > 0:
            sharpe = annual_single / annual_vol
        mean_single = float(single.mean())
        if mean_single != 0.0:
            normalized_vol = sd / mean_single
        if np.std(single) > 0 and np.std(bench) > 0:
            corr = float(np.corrcoef(single, bench)[0, 1])
            neutrality = 1.0 - abs(corr)

    chain = cfg.initial_capital
    segments = []
    for i, w in enumerate(windows):
        seg = w.daily_equity * (chain / w.daily_equity[0])
        segments.append(seg if i == 0 else seg[1:])
        chain = seg[-1]
    drawdown = max_drawdown(np.concatenate(segments))

    max_legs = [
        max(abs(v) for v in w.weights.asset_legs.values())
        for w in windows
        if w.weights is not None and w.weights.asset_legs
    ]
    avg_max_weight = float(np.mean(max_legs)) if max_legs else None
    counts = [sum(1 for v in w.shares.values() if v != 0) for w in windows]
    return BacktestReport(
        windows=tuple(windows),
        cumulative_return=cumulative,
        single_returns=tuple(float(r) for r in single),
        annual_return_reinvested=annual_reinvested,
        annual_return_single=annual_single,
        annual_volatility=annual_vol,
        sharpe=sharpe,
        normalized_volatility=normalized_vol,
        max_drawdown=drawdown,
        benchmark_correlation=corr,
        market_neutrality=neutrality,
        avg_max_weight=avg_max_weight,
        asset_count_range=(min(counts), max(counts)),
    )
