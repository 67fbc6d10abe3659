"""The plain walk-forward chain the engine's walk is checked against.

One window at a time, on the benchmark's dates: the training slice by
dates, ``pair_reference.candidates`` on the symbols priced on every
training day, a greedy fill, one covariance with the horizon law written
out element by element, ``np.linalg.solve`` with the ridge, the clamp and
the leverage, then symbol-keyed legs and shares, a per-day marking loop and
the window-by-window drawdown chain. It lives only in the tests and shares
no window, group or stack code with ``run_walk_forward``.
"""
import math
import statistics
from typing import NamedTuple

import numpy as np

from fractalport.backtest import TRADING_DAYS_PER_YEAR, max_drawdown
from fractalport.errors import NumericalError
from fractalport.optimizer import RIDGE_LAMBDA
from pair_reference import Row, candidates


class Window(NamedTuple):
    """One window of the walk: its invested (long, short) pairs and their
    weights, the legs and shares by symbol, the marked equity, and the
    window's and the benchmark's returns."""

    window_index: int
    pairs: list
    weights: list
    legs: dict
    shares: dict
    daily_equity: np.ndarray
    window_return: float
    benchmark_return: float


def reference_legs_and_shares(weights, long_symbols, short_symbols, chi, entry_prices, capital):
    """The symbol-keyed route the array path replaced: legs added up per
    symbol in a dict, then each symbol's share count sized in sorted order
    in Python floats. The oracle for ``compose_legs`` and
    ``position_sizing`` as ``run_walk_forward`` chains them."""
    legs = {}
    for w, long, short, c in zip(weights, long_symbols, short_symbols, chi):
        legs[long] = legs.get(long, 0.0) + w / (1.0 + c)
        legs[short] = legs.get(short, 0.0) - w * c / (1.0 + c)
    shares = {}
    for sym in sorted(legs):
        count = legs[sym] * capital / entry_prices[sym]  # Python floats overflow to inf
        if not math.isfinite(count):
            raise NumericalError(f"{sym}: share count {count} is not finite")
        shares[sym] = math.trunc(count)
    return legs, shares


def reference_mark(share_vec, price_mat, cfg, start_equity):
    """The per-day marking loop ``_mark_window`` replaced: the oracle for
    its batched row dots and scalar recursion."""
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


def reference_drawdown(windows, capital):
    """The window-by-window chain the one-multiply curve replaced: the
    drawdown of the compounded curve, or the error naming the first window
    whose chained equity is not finite."""
    chain = capital
    segments = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, w in enumerate(windows):
            seg = w.daily_equity * (chain / w.daily_equity[0])
            if not np.isfinite(seg).all():
                return f"window {w.window_index}: compounded equity is not finite"
            segments.append(seg if i == 0 else seg[1:])
            chain = seg[-1]
    return max_drawdown(np.concatenate(segments))


def gap(a, b):
    """Relative distance of two decision values: a near-tie below 1e-9."""
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def walk(panel, cfg):
    """The report's windows and metrics for ``panel`` under ``cfg``, and
    the smallest relative margin of any decision the walk took: the order
    of two screened Kelly weights, a row's distance from the Hurst screen,
    a spread's mean from its flip, a raw weight from the clamp and a share
    count from its truncation. Below 1e-9 the engine's rounding may take
    the other branch."""
    bench_row = panel.symbols.index(cfg.benchmark_symbol)
    on = ~np.isnan(panel.prices[bench_row])
    dates = [d for d, keep in zip(panel.dates, on) if keep]
    close = {s: row[on] for s, row in zip(panel.symbols, panel.prices)}
    bench = close.pop(cfg.benchmark_symbol)
    sel_cfg, n = cfg.selection, cfg.test_days
    margins, windows, chain = [1.0], [], cfg.initial_capital
    for w in range((len(dates) - cfg.train_days) // n):
        b = w * n + cfg.train_days  # the first test day; b - 1 is the entry close
        train = slice(b - cfg.train_days, b)
        universe = [
            Row(s, (p[train][1:] - p[train][:-1]) / p[train][0], tuple(dates[train][1:]))
            for s, p in close.items()
            if not np.isnan(p[train]).any()
        ]
        screened = sorted(
            (c for c in candidates(universe, sel_cfg) if c.h + c.h_err < sel_cfg.hurst_cap and c.h_err < c.h and c.kelly > 0.0),
            key=lambda c: (-c.kelly, c.long, c.short),
        )
        margins += [gap(x.kelly, y.kelly) for x, y in zip(screened, screened[1:])]
        margins += [gap(c.h + c.h_err, sel_cfg.hurst_cap) for c in screened]
        margins += [gap(c.h_err, c.h) for c in screened] + [c.mean / c.theta for c in screened]
        picked, used = [], set()
        for c in screened:
            if not {c.long, c.short} & used:
                picked.append(c)
                used |= {c.long, c.short}
        m = len(picked)
        weights = []
        if m:
            cov = np.empty((m, m))
            for i, ci in enumerate(picked):
                for j, cj in enumerate(picked):
                    daily = np.mean((ci.deltas - ci.deltas.mean()) * (cj.deltas - cj.deltas.mean()))
                    cov[i, j] = daily * n ** ((ci.h + cj.h) / 2.0 + 1.0)
            ridge = RIDGE_LAMBDA * np.trace(cov) / m
            raw = np.linalg.solve(cov + ridge * np.eye(m), [c.mean for c in picked]) * n
            margins += [abs(r) / np.abs(raw).max() for r in raw]
            clamped = np.maximum(raw, 0.0)
            if clamped.sum() > 0.0:
                weights = (cfg.leverage * clamped / clamped.sum()).tolist()
        capital = chain if cfg.reinvest else cfg.initial_capital
        held = picked if weights else []  # a window with no positive weight holds nothing
        entry = {s: float(p[b - 1]) for s, p in close.items()}
        legs, shares = reference_legs_and_shares(
            weights, [c.long for c in held], [c.short for c in held], [c.chi for c in held], entry, capital
        )
        counts = [legs[s] * capital / entry[s] for s in shares]
        margins += [gap(x, round(x)) for x in counts if x != round(x)]
        block = np.array([close[s][b - 1 : b + n] for s in shares]).reshape(len(shares), n + 1).T
        for t in range(1, n + 1):  # a symbol with no close is marked at its last
            block[t] = np.where(np.isnan(block[t]), block[t - 1], block[t])
        equity, _ = reference_mark(np.array(list(shares.values()), dtype=np.float64), block, cfg, capital)
        ret = float(equity[-1] / equity[0] - 1.0)
        windows.append(Window(
            w, [(c.long, c.short) for c in held], weights, legs, shares, equity, ret,
            float(bench[b + n - 1] / bench[b - 1] - 1.0),
        ))
        chain *= 1.0 + ret
    return windows, metrics(windows, cfg), min(margins)


def metrics(windows, cfg):
    """The report's metrics from the windows' returns, written out; None
    where the report has none."""
    single = [w.window_return for w in windows]
    bench = [w.benchmark_return for w in windows]
    per_year = TRADING_DAYS_PER_YEAR / cfg.test_days
    cumulative = math.prod(1.0 + r for r in single) - 1.0
    annual = per_year * statistics.fmean(single)
    vol = sharpe = corr = None
    if len(single) >= 2:
        vol = math.sqrt(per_year) * statistics.stdev(single)
        sharpe = annual / vol if vol > 0.0 else None
        if len(set(single)) > 1 and len(set(bench)) > 1:
            corr = statistics.correlation(single, bench)
    return {
        "cumulative_return": cumulative,
        "annual_return_single": annual,
        "annual_return_reinvested": (1.0 + cumulative) ** (per_year / len(single)) - 1.0
        if cumulative > -1.0 else -1.0,
        "annual_volatility": vol,
        "sharpe": sharpe,
        "benchmark_correlation": corr,
        "max_drawdown": reference_drawdown(windows, cfg.initial_capital),
    }
