"""Command-line interface.

Subcommands: ``hurst`` (exponent of one series), ``select`` (spread
selection on the dates of a range most symbols share, among the symbols
priced on all of them; the rest are named on stderr), ``backtest``
(walk-forward report on the benchmark's calendar: each window's universe
is the symbols priced on every training day, and a held symbol is marked
at its last close) and ``make-fixture`` (synthetic universe CSV).
Exit codes: 0 success, 2 configuration error, 3 data error (including a
file that cannot be read or written), 4 numerical error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from datetime import date
from itertools import compress
from pathlib import Path

import numpy as np

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.errors import (
    DataError,
    FractalPortError,
    NumericalError,
    ParameterError,
)
from fractalport.fbm import estimate_hurst
from fractalport.io import (
    SCHEMA_VERSION,
    ingest_prices,
    report_to_json,
    write_equity_csv,
    write_prices_wide,
)
from fractalport.selection import SelectionConfig, build_generating_matrix, select_spreads
from fractalport.spreads import window_returns
from fractalport.synthetic import make_synthetic_universe

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalport",
        description="Market-neutral long-short portfolio construction and backtesting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hurst = sub.add_parser("hurst", help="estimate the Hurst exponent of one series")
    p_hurst.add_argument("--input", required=True, help="CSV file")
    group = p_hurst.add_mutually_exclusive_group(required=True)
    group.add_argument("--symbol", help="price column/symbol of a price CSV")
    group.add_argument("--column", help="numeric column name of a generic CSV")

    p_select = sub.add_parser("select", help="rank and select spreads on one window")
    p_select.add_argument("--prices", required=True, help="price CSV (long or wide)")
    p_select.add_argument("--start", required=True, help="first date of the window, YYYY-MM-DD")
    p_select.add_argument("--end", required=True, help="last date of the window, YYYY-MM-DD")
    p_select.add_argument("--horizon-days", type=int, default=126)
    p_select.add_argument("--hurst-cap", type=float, default=0.5)
    p_select.add_argument("--max-spreads", type=int, default=None)
    p_select.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p_bt = sub.add_parser("backtest", help="walk-forward out-of-sample backtest")
    p_bt.add_argument("--prices", required=True, help="price CSV (long or wide)")
    p_bt.add_argument("--benchmark", required=True, help="benchmark symbol in the CSV")
    p_bt.add_argument("--train-days", type=int, default=126)
    p_bt.add_argument("--test-days", type=int, default=126)
    p_bt.add_argument("--leverage", type=float, default=2.0)
    p_bt.add_argument("--capital", type=float, default=100_000.0)
    p_bt.add_argument("--commission-per-share", type=float, default=0.005)
    p_bt.add_argument("--overnight-rate", type=float, default=0.01)
    p_bt.add_argument("--hurst-cap", type=float, default=0.5)
    p_bt.add_argument("--no-reinvest", action="store_true")
    p_bt.add_argument("--output", required=True, help="report JSON path")
    p_bt.add_argument("--equity-csv", default=None, help="optional daily equity CSV")

    p_fix = sub.add_parser("make-fixture", help="generate a synthetic universe CSV")
    p_fix.add_argument("--out", required=True, help="output wide-format CSV")
    p_fix.add_argument("--assets", type=int, default=10)
    p_fix.add_argument("--days", type=int, default=2520)
    p_fix.add_argument("--pairs", type=int, default=3)
    p_fix.add_argument("--seed", type=int, default=3)
    return parser


def _cmd_hurst(args) -> int:
    if args.symbol:
        panel = ingest_prices(args.input)
        if args.symbol not in panel.symbols:
            raise DataError(
                f"symbol {args.symbol!r} not found; available: {list(panel.symbols)}"
            )
        row = panel.prices[panel.symbols.index(args.symbol)]
        values = row[~np.isnan(row)]
    else:
        values = _read_column(args.input, args.column)
    est = estimate_hurst(values)
    print(json.dumps(asdict(est), sort_keys=True))
    return EXIT_OK


def _read_column(path: str, column: str) -> np.ndarray:
    """The numbers in ``column`` of a CSV with a header, blank cells
    skipped. Header cells are stripped of surrounding spaces, as
    ``ingest_prices`` strips them. Errors name the line, counting the
    header as line 1 and every record, blank or not, after it."""
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        records = csv.reader(fh)
        header = [cell.strip() for cell in next(records, [])]
        if column not in header:
            raise DataError(f"column {column!r} not found; available: {header}")
        k = header.index(column)
        values = []
        for line_no, row in enumerate(records, start=2):
            cell = row[k].strip() if k < len(row) else ""
            if not cell:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"line {line_no}: bad value {cell!r}") from None
    return np.asarray(values, dtype=np.float64)


def _window_date(raw: str, flag: str) -> str:
    """An ISO date option in the ``YYYY-MM-DD`` form the ingested dates use."""
    try:
        return date.fromisoformat(raw.strip()).isoformat()
    except ValueError as exc:
        raise ParameterError(f"{flag}: bad date {raw!r}: {exc}") from None


def _cmd_select(args) -> int:
    cfg = SelectionConfig(
        horizon_days=args.horizon_days,
        hurst_cap=args.hurst_cap,
        max_spreads=args.max_spreads,
    )
    start, end = _window_date(args.start, "--start"), _window_date(args.end, "--end")
    if start > end:
        raise ParameterError(f"--start {start} is after --end {end}")
    panel = ingest_prices(args.prices)
    lo = np.searchsorted(panel.dates, start, "left")
    hi = np.searchsorted(panel.dates, end, "right")
    if hi - lo < 2:
        raise DataError(f"fewer than 2 dates have prices in [{start}, {end}]")
    # the window's dates: those priced for more than half of the symbols
    # priced in [start, end]; its universe, which build_generating_matrix
    # keeps, is the symbols priced on all of them
    observed = ~np.isnan(panel.prices[:, lo:hi])
    days = 2 * observed.sum(axis=0) > observed.any(axis=1).sum()
    if not days.all():
        dropped = ", ".join(compress(panel.dates[lo:hi], ~days))
        print(f"dropped dates (priced for at most half of the symbols in [{start}, {end}]): {dropped}",
              file=sys.stderr)
    rows = observed[:, days].all(axis=1)
    if not rows.all():
        dropped = ", ".join(compress(panel.symbols, ~rows))
        print(f"dropped (not priced on every date in [{start}, {end}]): {dropped}", file=sys.stderr)
    if rows.sum() < 2:
        raise DataError(f"fewer than 2 symbols are priced on every date in [{start}, {end}]")
    returns = window_returns(panel.prices[:, lo:hi].compress(days, axis=1))
    sel = select_spreads(build_generating_matrix(returns, panel.symbols, cfg), cfg)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "start": start,
        "end": end,
        "horizon_days": cfg.horizon_days,
        "hurst_cap": cfg.hurst_cap,
        "spreads": sel.rows(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_backtest(args) -> int:
    cfg = BacktestConfig(
        train_days=args.train_days,
        test_days=args.test_days,
        leverage=args.leverage,
        initial_capital=args.capital,
        commission_per_share=args.commission_per_share,
        overnight_rate_annual=args.overnight_rate,
        benchmark_symbol=args.benchmark,
        hurst_cap=args.hurst_cap,
        reinvest=not args.no_reinvest,
    )
    report = run_walk_forward(ingest_prices(args.prices), cfg)
    Path(args.output).write_text(report_to_json(report, cfg))
    if args.equity_csv:
        write_equity_csv(args.equity_csv, report)
    _print_summary(report)
    return EXIT_OK


def _fmt(value, pct: bool = True) -> str:
    if value is None:
        return "n/a"
    return f"{100 * value:.2f}%" if pct else f"{value:.3f}"


def _print_summary(report) -> None:
    rows = [
        ("windows", str(len(report.windows))),
        ("cumulative return", _fmt(report.cumulative_return)),
        ("annual return (reinvested)", _fmt(report.annual_return_reinvested)),
        ("annual return (single)", _fmt(report.annual_return_single)),
        ("annual volatility", _fmt(report.annual_volatility)),
        ("sharpe", _fmt(report.sharpe, pct=False)),
        ("max drawdown", _fmt(report.max_drawdown)),
        ("benchmark correlation", _fmt(report.benchmark_correlation)),
        ("market neutrality", _fmt(report.market_neutrality)),
        ("avg max weight", _fmt(report.avg_max_weight)),
        ("assets held (min-max)", f"{report.asset_count_range[0]}-{report.asset_count_range[1]}"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")


def _cmd_make_fixture(args) -> int:
    universe = make_synthetic_universe(
        n_assets=args.assets, n_days=args.days, seed=args.seed, n_pairs=args.pairs
    )
    write_prices_wide(args.out, universe.prices + [universe.benchmark])
    pairs = ", ".join(f"{a}/{b}" for a, b in universe.planted_pairs)
    print(
        f"wrote {args.out}: {args.assets} assets + benchmark "
        f"{universe.benchmark.symbol}, {args.days} days, planted pairs {pairs}"
    )
    return EXIT_OK


_HANDLERS = {
    "hurst": _cmd_hurst,
    "select": _cmd_select,
    "backtest": _cmd_backtest,
    "make-fixture": _cmd_make_fixture,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FractalPortError as exc:  # base-class fallback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
