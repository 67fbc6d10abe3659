"""Deterministic walk-forward out-of-sample engine.

History, on the benchmark's calendar, is cut into consecutive
non-overlapping test windows, each preceded by a training window. The
whole pipeline (returns, hedge ratios, spread selection, weight
optimization, share sizing) runs on training data only; positions are
fixed at the window boundary close and marked to market daily through the
test window with commissions and overnight financing. Nothing inside a
test window can influence that window's positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from fractalport.errors import DataError, NumericalError, ParameterError
from fractalport.fbm import MIN_HURST_LENGTH
from fractalport.optimizer import (
    apply_leverage,
    compose_legs,
    covariance_matrix,
    solve_weights,
)
from fractalport.selection import (
    PAIR_BLOCK,
    Candidates,
    SelectionConfig,
    build_generating_matrix,
    select_spreads,
)
from fractalport.spreads import PricePanel, spread_returns, window_returns

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "BacktestConfig",
    "WindowResult",
    "BacktestReport",
    "max_drawdown",
    "position_sizing",
    "run_walk_forward",
    "compute_metrics",
]

TRADING_DAYS_PER_YEAR = 252

# Candidate rows of one window group: consecutive training windows go
# through the pipeline together, as many as fill this many (window, pair)
# rows; a universe of more pairs walks one window at a time. Each group
# pays a fixed cost of about 1.1 ms (one candidate build, one selection,
# the optimizer's buckets, one stack). Four blocks in place of one took
# history_long (6 assets, 354 windows of 15 pairs: 6 groups of 68 windows
# in place of 21 of 17) from 0.591 to 0.529 run_cal (perfbench medians of
# 10 seeds, 2-core VM); eight cut its CPU time by a further 14% but raised
# its peak RSS by 1.7 MB.
GROUP_ROWS = 4 * PAIR_BLOCK


@dataclass(frozen=True)
class BacktestConfig:
    train_days: int = 126
    test_days: int = 126
    leverage: float = 2.0
    initial_capital: float = 100_000.0
    commission_per_share: float = 0.005
    overnight_rate_annual: float = 0.01
    benchmark_symbol: str = "SPY"
    hurst_cap: float = SelectionConfig.hurst_cap
    reinvest: bool = True

    def __post_init__(self):
        if self.train_days < MIN_HURST_LENGTH:
            raise ParameterError(
                f"train window must be at least {MIN_HURST_LENGTH} days "
                f"(Hurst estimator minimum), got {self.train_days}"
            )
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
        self.selection  # checks the test window and the cap
        if not self.benchmark_symbol:
            raise ParameterError("benchmark symbol must be set")

    @property
    def selection(self) -> SelectionConfig:
        """Every window's selection settings: its horizon is one test window."""
        return SelectionConfig(horizon_days=self.test_days, hurst_cap=self.hurst_cap)


@dataclass(frozen=True)
class WindowResult:
    """One test window. ``scale_k`` is the leverage over the sum of the
    clamped raw spread weights and ``asset_legs`` the signed notional
    fraction of equity per symbol; ``leverage`` and ``scale_k`` are
    ``None`` and ``asset_legs`` is empty when nothing is invested.
    ``selected`` holds the selected spreads' ``Candidates.rows()`` records,
    each with its ``weight`` added."""

    window_index: int
    leverage: Optional[float]
    scale_k: Optional[float]
    asset_legs: dict[str, float]
    daily_equity: np.ndarray
    window_return: float
    benchmark_return: float
    costs_paid: float
    selected: list[dict]
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
    asset_count_min: int
    asset_count_max: int


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
    legs: np.ndarray, entry_prices: np.ndarray, capital: float, symbols: Sequence[str]
) -> np.ndarray:
    """Share counts from the held symbols' exposure fractions ``legs`` and
    entry prices: whole numbers, truncated toward zero, as floats.

    Raises ``NumericalError`` naming the first symbol whose share count is
    not finite (a position too large for a float).

    A window holds a few symbols, so the sizes are Python floats: numpy's
    IEEE multiply and divide, without a numpy call per step or the error
    state that would silence an overflow.
    """
    if not capital > 0:
        raise ParameterError(f"capital must be positive, got {capital}")
    if not len(legs) == len(entry_prices) == len(symbols):
        raise ParameterError(f"{len(legs)} legs for entry prices and symbols of other lengths")
    prices = entry_prices.tolist()
    if not all(p > 0 for p in prices):
        k = int(np.argmin(entry_prices > 0))
        raise ParameterError(f"{symbols[k]}: entry price must be positive, got {entry_prices[k]}")
    sizes = [leg * capital / p for leg, p in zip(legs.tolist(), prices)]
    if not all(map(math.isfinite, sizes)):
        k = next(k for k, size in enumerate(sizes) if not math.isfinite(size))
        raise NumericalError(f"{symbols[k]}: share count {sizes[k]} is not finite")
    return np.trunc(sizes)


def _row_dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``rows[t] @ v`` for every row of a C-contiguous matrix, as one stacked
    matmul of (1 x n) rows against an (n x 1) column: numpy takes each row
    through the same BLAS dot as a 1-D ``@``, so every value has its bits.
    Overflow is left to the caller to silence and check."""
    return np.matmul(rows[:, None, :], v[:, None])[:, 0, 0]


def _mark_window(
    share_vec: np.ndarray,
    price_mat: np.ndarray,
    cfg: BacktestConfig,
    start_equity: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Daily equity and costs over one window.

    ``price_mat`` is C-contiguous with T+1 rows: the entry boundary close
    followed by the T test-day closes, one column per held symbol. Costs
    on day t are the overnight financing of the position held into t
    (charged on the short market value plus any gross value financed above
    equity, both at the previous close) plus the entry commission on the
    first day and the exit commission on the last.

    Each day's gross value, short market value and P&L come from three
    batched row dots; only the equity and cost recursion runs day by day.
    """
    t_days = price_mat.shape[0] - 1
    size = np.abs(share_vec)
    commission = cfg.commission_per_share * float(size.sum())
    daily_rate = cfg.overnight_rate_annual / TRADING_DAYS_PER_YEAR
    short = share_vec < 0
    prev = price_mat[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the equity
        gross = _row_dots(prev, size).tolist()
        # compress, not prev[:, short]: that copy is F-ordered and rounds differently
        short_mv = _row_dots(prev.compress(short, axis=1), size[short]).tolist()
        pnl = _row_dots(np.diff(price_mat, axis=0), share_vec).tolist()
    equity = [float(start_equity)]
    costs = []
    for t in range(t_days):
        cost = daily_rate * (max(0.0, gross[t] - equity[t]) + short_mv[t])
        if t == 0:
            cost += commission
        if t == t_days - 1:
            cost += commission
        equity.append(equity[t] + pnl[t] - cost)
        costs.append(cost)
    return np.array(equity), np.array(costs)


def _invest_group(stack: np.ndarray, sel: Candidates, cfg: BacktestConfig) -> list:
    """The positions of each window of a group, from its (windows x assets x
    days) C-contiguous stack of training returns and its rows of the
    selected table ``sel``.

    A window's entry is its leverage scale factor, its held asset indices
    and their legs (``compose_legs``) and the records of its selected
    spreads, each with its weight; the scale factor is ``None`` and the rest
    empty when nothing is invested: no spread selected, or none with a
    positive raw weight.

    The windows are bucketed by their number m of selected spreads, and each
    bucket goes through the covariance, rescaling, solve, leverage and legs
    as one stack of (m x days) spread returns, each window with the bits it
    gets alone. The spread returns are read from the stack viewed as one
    (windows·assets x days) matrix, a window's legs at rows
    ``window * assets + asset``, so no bucket copies its windows' returns.
    A singular covariance raises the solve's error, naming the first such
    window of its bucket. A group holds several windows only at
    32 traded symbols or fewer (``GROUP_ROWS``), so m <= 16, where the
    ridge bounds a finite covariance's condition by 1 + m / RIDGE_LAMBDA
    (1.6e9 at m = 16). A group is largest on 2 traded symbols, one pair a
    window: it stacks up to 1,024 windows.
    """
    n_assets = stack.shape[1]
    flat = stack.reshape(-1, stack.shape[2])  # a view: the stack is C-contiguous
    bounds = np.searchsorted(sel.window, np.arange(len(stack) + 1))
    counts = np.diff(bounds)
    rows = sel.rows()
    pairs = [f"{r['long_symbol']}/{r['short_symbol']}" for r in rows]
    plans = [(None, np.zeros(0, dtype=np.intp), np.zeros(0), []) for _ in range(len(stack))]
    for m in sorted(set(counts.tolist()) - {0}):  # not np.unique: it imports numpy.ma
        windows = np.flatnonzero(counts == m)
        starts = bounds[windows]
        idx = starts[:, None] + np.arange(m)
        long, short, chi, mean, hursts = sel.long[idx], sel.short[idx], sel.chi[idx], sel.mean[idx], sel.h[idx]
        rows_of = windows[:, None] * n_assets
        cov = covariance_matrix(spread_returns(flat, rows_of + long, rows_of + short, chi))
        labels = [pairs[lo : lo + m] for lo in starts.tolist()]
        raw = solve_weights(cov, hursts, mean, cfg.test_days, labels)
        invested = (raw > 0.0).any(axis=-1)
        weights, scale_k = apply_leverage(raw[invested], cfg.leverage)
        held, legs = compose_legs(weights, long[invested], short[invested], chi[invested])
        for w, lo, k, held_w, legs_w, weights_w in zip(
            windows[invested].tolist(), starts[invested].tolist(), scale_k.tolist(), held, legs, weights.tolist()
        ):
            info = rows[lo : lo + m]
            for row, weight in zip(info, weights_w):
                row["weight"] = weight
            plans[w] = (k, held_w, legs_w, info)
    return plans


def run_walk_forward(panel: PricePanel, cfg: BacktestConfig) -> BacktestReport:
    """Walk the history window by window and aggregate the report.

    The panel's ``cfg.benchmark_symbol`` row is the benchmark and every
    other row is traded. The run walks the benchmark's calendar, the dates
    on which the benchmark has a price, and a window's universe is the
    traded symbols priced on every day of its training window
    (``build_generating_matrix`` pairs no other): a date the benchmark
    prices and a symbol does not takes that symbol out of the windows that
    train over it. Each test window's positions are computed from its
    training window alone and held, with fixed share counts, through the
    test window. The entry close is a training day, so every held symbol
    has an entry price; one with no close on a test day is marked at its
    last close.

    Consecutive training windows go through the pipeline as one group, as
    many windows at a time as fill ``GROUP_ROWS`` (window, pair) rows, and
    one window at a time from 33 traded symbols (528 pairs) up: their
    returns are stacked, their candidates built as one table and selected
    in one pass (``select_spreads`` keeps each window to itself), and their
    optimizer runs as one stack per number of selected spreads
    (``_invest_group``). The group's returns stack comes from one pass over
    its price span (``window_returns`` with a window length and step).
    Each window's rows, weights and legs depend on its own returns only, so
    a group gives every window the result of a walk one window at a time; a
    singular covariance is raised before the walk marks any window of its
    group.

    The walk reads its own copy of the traded symbols' closes on the
    benchmark's dates, and lets go of ``panel`` before the first window: a
    caller that holds no other reference to it has its memory back for the
    walk.
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
    priced = ~np.isnan(panel.prices[is_bench][0])
    dates = tuple(compress(panel.dates, priced))
    need = cfg.train_days + cfg.test_days
    if len(dates) < need:
        raise ParameterError(
            f"insufficient history: {len(dates)} benchmark dates, "
            f"need at least {need} (train {cfg.train_days} + test {cfg.test_days})"
        )
    prices = panel.prices[np.ix_(~is_bench, priced)]
    bench = panel.prices[is_bench][0, priced]
    del panel  # the walk reads its own copy, prices
    sel_cfg = cfg.selection
    group = max(1, GROUP_ROWS // (len(symbols) * (len(symbols) - 1) // 2))

    n_windows = (len(dates) - cfg.train_days) // cfg.test_days
    windows: list[WindowResult] = []
    chain_capital = cfg.initial_capital
    for w in range(n_windows):
        a = w * cfg.test_days
        b = a + cfg.train_days
        end = b + cfg.test_days
        k = w % group
        if k == 0:
            span = prices[:, a : (min(w + group, n_windows) - 1) * cfg.test_days + cfg.train_days]
            stack = window_returns(span, cfg.train_days, cfg.test_days)
            cands = build_generating_matrix(stack, symbols, sel_cfg)
            plans = _invest_group(stack, select_spreads(cands, sel_cfg), cfg)
        scale_k, held, legs, info = plans[k]
        start_capital = chain_capital if cfg.reinvest else cfg.initial_capital
        if not 0 < start_capital < math.inf:
            raise NumericalError(
                f"capital exhausted or overflowed before window {w}: {start_capital}"
            )
        names = [symbols[i] for i in held.tolist()]
        try:
            counts = position_sizing(legs, prices[held, b - 1], start_capital, names)
        except NumericalError as exc:
            raise NumericalError(f"window {w}: {exc}") from None
        # a C-contiguous copy: _mark_window's dot products round by layout
        price_mat = np.ascontiguousarray(prices[held, b - 1 : end].T)
        if np.isnan(price_mat).any():  # marked at the last close
            last = np.where(np.isnan(price_mat), 0, np.arange(len(price_mat))[:, None])
            price_mat = price_mat[np.maximum.accumulate(last), np.arange(len(held))]
        equity, daily_costs = _mark_window(counts, price_mat, cfg, start_capital)
        if not (np.isfinite(equity).all() and np.isfinite(daily_costs).all()):
            # finite capital and no position mark finite, so something is held
            with np.errstate(over="ignore"):
                largest = int(np.argmax(np.abs(counts) * price_mat.max(axis=0)))
            raise NumericalError(
                f"window {w}: marked equity is not finite; largest position "
                f"{names[largest]}, {counts[largest]:.6g} shares"
            )
        window_return = float(equity[-1] / equity[0] - 1.0)
        benchmark_return = float(bench[end - 1] / bench[b - 1] - 1.0)
        windows.append(
            WindowResult(
                window_index=w,
                leverage=None if scale_k is None else float(cfg.leverage),
                scale_k=scale_k,
                asset_legs=dict(zip(names, legs.tolist())),
                daily_equity=equity,
                window_return=window_return,
                benchmark_return=benchmark_return,
                costs_paid=float(daily_costs.sum()),
                selected=info,
                shares=dict(zip(names, map(int, counts.tolist()))),
                daily_costs=daily_costs,
                dates=dates[b - 1 : end],
            )
        )
        chain_capital *= 1.0 + window_return
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
    The reinvested annual return is floored at -1 (total loss) when the
    compounded equity ends at or below zero, as ``max_drawdown`` caps at 1.
    A cumulative or annual return that is not finite raises
    ``NumericalError``, as do an annual volatility that is not finite and a
    drawdown curve that overflows when chained from the initial capital.
    """
    if len(windows) < 1:
        raise ParameterError("need at least one backtest window")
    single = np.array([w.window_return for w in windows], dtype=np.float64)
    bench = np.array([w.benchmark_return for w in windows], dtype=np.float64)
    n = single.size
    per_year = TRADING_DAYS_PER_YEAR / cfg.test_days
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        cumulative = float(np.prod(1.0 + single) - 1.0)
        annual_single = float(per_year * single.mean())
    if 1.0 + cumulative > 0.0:
        try:
            annual_reinvested = float((1.0 + cumulative) ** (per_year / n) - 1.0)
        except OverflowError:
            annual_reinvested = math.inf
    else:  # no real root of a total loss, or worse
        annual_reinvested = -1.0
    returns = {"cumulative": cumulative, "reinvested annual": annual_reinvested, "single annual": annual_single}
    for name, value in returns.items():
        if not math.isfinite(value):
            raise NumericalError(f"{name} return is not finite: {value}")

    annual_vol = sharpe = normalized_vol = corr = neutrality = None
    if n >= 2:
        with np.errstate(over="ignore"):  # raised below
            sd = float(np.std(single, ddof=1))
        annual_vol = float(math.sqrt(per_year) * sd)
        if not math.isfinite(annual_vol):
            raise NumericalError(f"annual volatility is not finite: {annual_vol}")
        if annual_vol > 0:
            sharpe = annual_single / annual_vol
        mean_single = float(single.mean())
        if mean_single != 0.0:
            normalized_vol = sd / mean_single
        if np.std(single) > 0 and np.std(bench) > 0:
            corr = float(np.corrcoef(single, bench)[0, 1])
            neutrality = 1.0 - abs(corr)

    # each window's equity scaled to start where the last one ended; the
    # factors are Python floats, numpy's IEEE divide and multiply, so every
    # value has the bits of a window-by-window chain
    chain = cfg.initial_capital
    factors = []
    for w in windows:
        first, last = float(w.daily_equity[0]), float(w.daily_equity[-1])
        factors.append(chain / first if first else math.inf)  # x / 0 is not finite
        chain = last * factors[-1]
    lengths = [len(w.daily_equity) for w in windows]
    ends = np.cumsum(lengths)
    curve = np.concatenate([w.daily_equity for w in windows], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        curve *= np.repeat(factors, lengths)
    finite = np.isfinite(curve)
    if not finite.all():
        k = int(np.searchsorted(ends, np.argmin(finite), side="right"))
        raise NumericalError(f"window {windows[k].window_index}: compounded equity is not finite")
    # a later window's first value is its entry close, the last one's end
    drawdown = max_drawdown(np.delete(curve, ends[:-1]))

    max_legs = [max(abs(v) for v in w.asset_legs.values()) for w in windows if w.asset_legs]
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
        asset_count_min=min(counts),
        asset_count_max=max(counts),
    )
