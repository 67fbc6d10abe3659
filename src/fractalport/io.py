"""CSV price ingestion and report serialization.

Two input layouts are auto-detected from the header: long format
(``date,symbol,adj_close``) and wide format (``date,SYM1,SYM2,...``).
Reports are emitted as JSON with a top-level ``schema_version``; time
series go to CSV.
"""
from __future__ import annotations

import csv
import json
from datetime import date
from pathlib import Path
from typing import Sequence

import numpy as np

from fractalport.backtest import BacktestConfig, BacktestReport
from fractalport.errors import ParseError, ValidationError
from fractalport.spreads import PriceSeries

__all__ = [
    "SCHEMA_VERSION",
    "ingest_prices",
    "write_prices_wide",
    "report_to_dict",
    "report_to_json",
    "write_equity_csv",
]

SCHEMA_VERSION = 1


def _parse_date(raw: str, line_no: int) -> str:
    try:
        return date.fromisoformat(raw.strip()).isoformat()
    except ValueError as exc:
        raise ParseError(f"line {line_no}: bad date {raw!r}: {exc}") from None


def _parse_price(raw: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: bad price {raw!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"line {line_no}: non-finite price {raw!r}")
    return value


def _build_series(symbol: str, rows: dict[str, float]) -> PriceSeries:
    dates = tuple(sorted(rows))
    return PriceSeries(symbol=symbol, dates=dates, prices=[rows[d] for d in dates])


def ingest_prices(path) -> list[PriceSeries]:
    """Parse a long- or wide-format price CSV into one series per symbol.

    Cells with missing prices are dropped per symbol; duplicate
    (date, symbol) observations and non-positive prices are rejected.
    Series are returned sorted by symbol.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if [h.lower() for h in header] == ["date", "symbol", "adj_close"]:
            per_symbol = _read_long(reader)
        elif header and header[0].lower() == "date" and len(header) >= 2:
            per_symbol = _read_wide(reader, header[1:])
        else:
            raise ParseError(
                f"{path}: unrecognized header {header!r}; expected "
                f"'date,symbol,adj_close' or 'date,<SYM>,...'"
            )
    return [_build_series(sym, rows) for sym, rows in sorted(per_symbol.items())]


def _read_long(reader) -> dict[str, dict[str, float]]:
    per_symbol: dict[str, dict[str, float]] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise ParseError(f"line {line_no}: expected 3 columns, got {len(row)}")
        day = _parse_date(row[0], line_no)
        symbol = row[1].strip()
        if not symbol:
            raise ParseError(f"line {line_no}: empty symbol")
        if not row[2].strip():
            continue  # missing price: drop the row
        price = _parse_price(row[2], line_no)
        rows = per_symbol.setdefault(symbol, {})
        if day in rows:
            raise ValidationError(f"line {line_no}: duplicate ({day}, {symbol})")
        rows[day] = price
    return per_symbol


def _read_wide(reader, symbols: list[str]) -> dict[str, dict[str, float]]:
    symbols = [s.strip() for s in symbols]
    if len(set(symbols)) != len(symbols):
        raise ValidationError(f"duplicate symbol columns in header: {symbols}")
    if any(not s for s in symbols):
        raise ParseError("empty symbol column in header")
    per_symbol: dict[str, dict[str, float]] = {s: {} for s in symbols}
    seen_dates: set[str] = set()
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(symbols) + 1:
            raise ParseError(
                f"line {line_no}: expected {len(symbols) + 1} columns, got {len(row)}"
            )
        day = _parse_date(row[0], line_no)
        if day in seen_dates:
            raise ValidationError(f"line {line_no}: duplicate date {day}")
        seen_dates.add(day)
        for sym, cell in zip(symbols, row[1:]):
            if not cell.strip():
                continue  # missing price for this symbol
            per_symbol[sym][day] = _parse_price(cell, line_no)
    return per_symbol


def write_prices_wide(path, series: Sequence[PriceSeries]) -> None:
    """Emit a wide-format CSV; floats use shortest round-trip repr."""
    ordered = sorted(series, key=lambda s: s.symbol)
    all_dates = sorted({d for s in ordered for d in s.dates})
    lookups = [dict(zip(s.dates, s.prices)) for s in ordered]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [s.symbol for s in ordered])
        for day in all_dates:
            row = [day]
            for lk in lookups:
                value = lk.get(day)
                row.append(repr(float(value)) if value is not None else "")
            writer.writerow(row)


def report_to_dict(report: BacktestReport, cfg: BacktestConfig) -> dict:
    """JSON-ready representation of a backtest report."""
    windows = []
    for w in report.windows:
        entry = {
            "window_index": w.window_index,
            "start_date": w.dates[0],
            "end_date": w.dates[-1],
            "window_return": w.window_return,
            "benchmark_return": w.benchmark_return,
            "costs_paid": w.costs_paid,
            "shares": dict(sorted(w.shares.items())),
            "daily_equity": [float(v) for v in w.daily_equity],
            "daily_costs": [float(v) for v in w.daily_costs],
            "dates": list(w.dates),
            "selected": [
                {
                    "long_symbol": s.long_symbol,
                    "short_symbol": s.short_symbol,
                    "chi": s.chi,
                    "hurst": s.hurst,
                    "hurst_err": s.hurst_err,
                    "kelly_weight": s.kelly_weight,
                    "mean_delta": s.mean_delta,
                    "theta": s.theta,
                    "weight": s.weight,
                }
                for s in w.selected
            ],
        }
        if w.weights is not None:
            entry["leverage"] = w.weights.leverage
            entry["scale_k"] = w.weights.scale_k
            entry["asset_legs"] = dict(sorted(w.weights.asset_legs.items()))
        else:
            entry["leverage"] = None
            entry["scale_k"] = None
            entry["asset_legs"] = {}
        windows.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "train_days": cfg.train_days,
            "test_days": cfg.test_days,
            "leverage": cfg.leverage,
            "initial_capital": cfg.initial_capital,
            "commission_per_share": cfg.commission_per_share,
            "overnight_rate_annual": cfg.overnight_rate_annual,
            "benchmark_symbol": cfg.benchmark_symbol,
            "hurst_cap": cfg.hurst_cap,
            "reinvest": cfg.reinvest,
        },
        "metrics": {
            "cumulative_return": report.cumulative_return,
            "annual_return_reinvested": report.annual_return_reinvested,
            "annual_return_single": report.annual_return_single,
            "annual_volatility": report.annual_volatility,
            "sharpe": report.sharpe,
            "normalized_volatility": report.normalized_volatility,
            "max_drawdown": report.max_drawdown,
            "benchmark_correlation": report.benchmark_correlation,
            "market_neutrality": report.market_neutrality,
            "avg_max_weight": report.avg_max_weight,
            "asset_count_min": report.asset_count_range[0],
            "asset_count_max": report.asset_count_range[1],
        },
        "single_returns": list(report.single_returns),
        "windows": windows,
    }


def report_to_json(report: BacktestReport, cfg: BacktestConfig) -> str:
    return json.dumps(report_to_dict(report, cfg), indent=2, sort_keys=True) + "\n"


def write_equity_csv(path, report: BacktestReport) -> None:
    """Daily equity rows (test days only; window starts repeat the config
    capital when reinvestment is off)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "equity"])
        for w in report.windows:
            for day, value in zip(w.dates[1:], w.daily_equity[1:]):
                writer.writerow([day, repr(float(value))])
