"""Command-line interface.

Subcommands: ``hurst`` (exponent of one series; a symbol's closes are
joined across the dates it lacks inside its history, named on stderr),
``select`` (spread selection on the dates of a range most symbols share,
among the symbols priced on all of them; the rest are named on stderr),
``backtest`` (walk-forward report on the benchmark's calendar: each
window's universe is the symbols priced on every training day, and a held
symbol is marked at its last close) and ``make-fixture`` (synthetic
universe CSV).
Exit codes: 0 success, 2 configuration error, 3 data error (including a
file that cannot be read or written), 4 numerical error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from itertools import compress
from pathlib import Path

import numpy as np

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.errors import (
    DataError,
    NumericalError,
    ParameterError,
    ParseError,
)
from fractalport.fbm import estimate_hurst
from fractalport.io import (
    SCHEMA_VERSION,
    _iso_date,
    ingest_prices,
    read_column,
    to_json,
    write_equity_csv,
    write_prices_wide,
    write_report_json,
)
from fractalport.selection import SelectionConfig, build_generating_matrix, select_spreads
from fractalport.spreads import PricePanel, window_returns
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
    p_select.add_argument("--horizon-days", type=int, default=SelectionConfig.horizon_days)
    p_select.add_argument("--hurst-cap", type=float, default=SelectionConfig.hurst_cap)
    p_select.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p_bt = sub.add_parser("backtest", help="walk-forward out-of-sample backtest")
    p_bt.add_argument("--prices", required=True, help="price CSV (long or wide)")
    p_bt.add_argument("--benchmark", dest="benchmark_symbol", metavar="BENCHMARK", required=True,
                      help="benchmark symbol in the CSV")
    p_bt.add_argument("--train-days", type=int, default=BacktestConfig.train_days)
    p_bt.add_argument("--test-days", type=int, default=BacktestConfig.test_days)
    p_bt.add_argument("--leverage", type=float, default=BacktestConfig.leverage)
    p_bt.add_argument("--capital", dest="initial_capital", metavar="CAPITAL", type=float,
                      default=BacktestConfig.initial_capital)
    p_bt.add_argument("--commission-per-share", type=float, default=BacktestConfig.commission_per_share)
    p_bt.add_argument("--overnight-rate", dest="overnight_rate_annual", metavar="OVERNIGHT_RATE",
                      type=float, default=BacktestConfig.overnight_rate_annual)
    p_bt.add_argument("--hurst-cap", type=float, default=BacktestConfig.hurst_cap)
    p_bt.add_argument("--no-reinvest", dest="reinvest", action="store_false")
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
        priced = ~np.isnan(row)
        first, last = np.flatnonzero(priced)[[0, -1]]
        if not priced[first:last].all():
            gaps = ", ".join(compress(panel.dates[first:last], ~priced[first:last]))
            print(f"joined across (dates with no {args.symbol} price inside its history): {gaps}",
                  file=sys.stderr)
        values = row[priced]
    else:
        values = read_column(args.input, args.column)
    est = estimate_hurst(values)
    print(json.dumps(asdict(est), sort_keys=True))
    return EXIT_OK


def _window_date(raw: str, flag: str) -> str:
    """An ISO date option, read as ingest reads the dates of a price file."""
    try:
        return _iso_date(raw)
    except ParseError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _config(cls, args):
    """``cls`` from the parsed flags, each stored under its field's name."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_select(args) -> int:
    cfg = _config(SelectionConfig, args)
    start, end = _window_date(args.start, "--start"), _window_date(args.end, "--end")
    if start > end:
        raise ParameterError(f"--start {start} is after --end {end}")
    # no reference to the panel outlives the cut: the build has its memory
    returns, symbols = _window(ingest_prices(args.prices), start, end)
    sel = select_spreads(build_generating_matrix(returns, symbols, cfg), cfg)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "start": start,
        "end": end,
        "horizon_days": cfg.horizon_days,
        "hurst_cap": cfg.hurst_cap,
        "spreads": sel.rows(),
    }
    text = to_json(doc)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _window(panel: PricePanel, start: str, end: str):
    """The returns (``window_returns``) and symbols of ``select``'s window
    of ``panel`` in [start, end]: the dates priced for more than half of the
    symbols priced in the range. ``build_generating_matrix`` keeps the
    symbols priced on all of them; the dates and symbols left out are named
    on stderr."""
    lo = np.searchsorted(panel.dates, start, "left")
    hi = np.searchsorted(panel.dates, end, "right")
    if hi - lo < 2:
        raise DataError(f"fewer than 2 dates have prices in [{start}, {end}]")
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
    return window_returns(panel.prices[:, lo:hi].compress(days, axis=1)), panel.symbols


def _cmd_backtest(args) -> int:
    cfg = _config(BacktestConfig, args)
    report = run_walk_forward(ingest_prices(args.prices), cfg)
    write_report_json(args.output, report, cfg)
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
        ("assets held (min-max)", f"{report.asset_count_min}-{report.asset_count_max}"),
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


if __name__ == "__main__":
    sys.exit(main())
