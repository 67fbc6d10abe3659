"""CSV price ingestion and report serialization.

Two input layouts are auto-detected from the header: long format
(``date,symbol,adj_close``) and wide format (``date,SYM1,SYM2,...``).
Either is read into one ``PricePanel`` column by column: one ``csv.reader``
reads the file in batches of rows, each batch is transposed into columns,
the date and symbol columns are factorised (each distinct date string is
parsed once) and each price column is converted in one numpy call. Reports are emitted
as JSON with a top-level ``schema_version``; time series go to CSV.
"""
from __future__ import annotations

import csv
import json
import math
from datetime import date
from itertools import compress, islice
from pathlib import Path
from typing import Sequence

import numpy as np

from fractalport.backtest import BacktestConfig, BacktestReport
from fractalport.errors import ParseError, ValidationError
from fractalport.spreads import PricePanel, PriceSeries, build_panel, price_panel

__all__ = [
    "SCHEMA_VERSION",
    "ingest_prices",
    "write_prices_wide",
    "report_to_dict",
    "report_to_json",
    "write_equity_csv",
]

SCHEMA_VERSION = 1

# Cells per batch: rows are read in batches of this many cells over the
# header's width. Ingest alone on the benchmark CSVs (2-core VM): 1k cells
# read the 60-symbol wide CSV slower (0.18 against 0.14 s), and 32k cells
# raised the 17 MB long CSV's ingest peak to 77 from 71 MiB.
READ_BATCH_CELLS = 1 << 12


def ingest_prices(path) -> PricePanel:
    """Parse a long- or wide-format price CSV into one panel.

    Blank rows are skipped and blank price cells are missing observations;
    a date with no price at all is not a column of the panel. Duplicate
    (date, symbol) observations, symbols with fewer than 2 prices and
    non-positive prices are rejected. Errors name the line, counting the
    header as line 1 and every record, blank or not, after it.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if [h.lower() for h in header] == ["date", "symbol", "adj_close"]:
            return _read_long(_row_batches(fh, 3))
        if header and header[0].lower() == "date" and len(header) >= 2:
            return _read_wide(_row_batches(fh, len(header)), header[1:])
        raise ParseError(
            f"{path}: unrecognized header {header!r}; expected "
            f"'date,symbol,adj_close' or 'date,<SYM>,...'"
        )


def _row_batches(fh, width: int):
    """The file's non-blank records after the header, in batches.

    Yields ``(columns, lines)``: ``width`` sequences of the batch's raw
    fields, and each row's line number. One ``csv.reader`` reads the whole
    file, so a quoted field may span lines; line numbers count records.

    Faults are found batch by batch: a batch's column counts here, then its
    dates, symbols and prices in the reader, each in file order; duplicates
    and the per-symbol checks come after the last batch. Which fault a file
    with several reports therefore depends on ``READ_BATCH_CELLS``.
    """
    records = csv.reader(fh)
    line = 2
    while rows := list(islice(records, max(1, READ_BATCH_CELLS // width))):
        lines = range(line, line + len(rows))
        line += len(rows)
        filled = list(map(str.strip, map("".join, rows)))
        if not all(filled):  # blank records
            lines, rows = list(compress(lines, filled)), list(compress(rows, filled))
        if set(map(len, rows)) - {width}:
            n, row = next((n, row) for n, row in zip(lines, rows) if len(row) != width)
            raise ParseError(f"line {n}: expected {width} columns, got {len(row)}")
        yield list(zip(*rows)) or [()] * width, lines


def _factorise(raw, lines, codes: dict, labels: dict, canonical) -> np.ndarray:
    """Integer code of each raw string's canonical label.

    ``codes`` (raw string -> code) and ``labels`` (label -> code) grow over
    the batches; ``canonical`` runs once per distinct raw string and returns
    the label or raises ``ParseError`` with the message after the line.
    """
    for s in dict.fromkeys(raw):
        if s not in codes:
            try:
                label = canonical(s)
            except ParseError as exc:
                raise ParseError(f"line {lines[raw.index(s)]}: {exc}") from None
            codes[s] = labels.setdefault(label, len(labels))
    return np.fromiter(map(codes.__getitem__, raw), np.intp, len(raw))


def _iso_date(raw: str) -> str:
    try:
        return date.fromisoformat(raw.strip()).isoformat()
    except ValueError as exc:
        raise ParseError(f"bad date {raw!r}: {exc}") from None


def _symbol(raw: str) -> str:
    if not raw.strip():
        raise ParseError("empty symbol")
    return raw.strip()


def _prices(raw, lines) -> np.ndarray:
    """Prices of a column of raw cells, NaN for a blank one."""
    try:
        values = np.array(raw, dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:  # a blank or malformed cell
        pass
    return np.array([_price(cell, line) for cell, line in zip(raw, lines)], dtype=np.float64)


def _price(raw: str, line: int) -> float:
    if not raw.strip():
        return np.nan
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {line}: bad price {raw!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"line {line}: non-finite price {raw!r}")
    return value


def _read_long(batches) -> PricePanel:
    date_codes, days, sym_codes, syms = {}, {}, {}, {}
    ds, ss, vs, spans = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)], []
    for (raw_dates, raw_syms, raw_prices), lines in batches:
        d = _factorise(raw_dates, lines, date_codes, days, _iso_date)
        s = _factorise(raw_syms, lines, sym_codes, syms, _symbol)
        v = _prices(raw_prices, lines)
        kept = np.flatnonzero(~np.isnan(v))  # a blank price drops its row
        ds.append(d[kept])
        ss.append(s[kept])
        vs.append(v[kept])
        spans.append((lines, kept))
    d, s, v = np.concatenate(ds), np.concatenate(ss), np.concatenate(vs)
    symbols, sym_rank = _sorted_labels(syms)
    dates, date_rank = _sorted_labels(days)
    cell = sym_rank[s] * len(dates) + date_rank[d]
    prices = np.full((len(symbols), len(dates)), np.nan)
    prices.flat[cell] = v
    if np.count_nonzero(~np.isnan(prices)) < v.size:  # some cell was written twice
        row = _first_repeat(cell)
        raise ValidationError(
            f"line {_line(spans, row)}: duplicate ({list(days)[d[row]]}, {list(syms)[s[row]]})"
        )
    # a symbol seen only with blank prices has no observations
    observed = ~np.isnan(prices).all(axis=1)
    return build_panel(tuple(compress(symbols, observed)), dates, prices[observed])


def _read_wide(batches, symbols: list[str]) -> PricePanel:
    if len(set(symbols)) != len(symbols):
        raise ValidationError(f"duplicate symbol columns in header: {symbols}")
    if any(not s for s in symbols):
        raise ParseError("empty symbol column in header")
    order = sorted(range(len(symbols)), key=symbols.__getitem__)
    date_codes, days = {}, {}
    ds, blocks, spans = [np.empty(0, np.intp)], [np.empty((len(symbols), 0))], []
    for columns, lines in batches:
        ds.append(_factorise(columns[0], lines, date_codes, days, _iso_date))
        blocks.append(np.array([_prices(columns[1 + k], lines) for k in order]))
        spans.append((lines, range(len(lines))))
    d = np.concatenate(ds)
    row = _first_repeat(d)
    if row >= 0:
        raise ValidationError(f"line {_line(spans, row)}: duplicate date {list(days)[d[row]]}")
    dates, date_rank = _sorted_labels(days)
    prices = np.empty((len(symbols), len(dates)))
    prices[:, date_rank[d]] = np.concatenate(blocks, axis=1)
    return build_panel(tuple(sorted(symbols)), dates, prices)


def _sorted_labels(labels: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels sorted, and the rank among them of each label's code."""
    ordered = sorted(labels)
    rank = np.empty(len(ordered), np.intp)
    rank[[labels[label] for label in ordered]] = np.arange(len(ordered))
    return tuple(ordered), rank


def _first_repeat(codes: np.ndarray) -> int:
    """Index of the first code equal to an earlier one, or -1."""
    order = np.argsort(codes, kind="stable")
    later = order[1:][codes[order[1:]] == codes[order[:-1]]]
    return int(later.min()) if later.size else -1


def _line(spans, row: int) -> int:
    """Line number of the ``row``-th kept row over all batches."""
    for lines, kept in spans:
        if row < len(kept):
            return lines[kept[row]]
        row -= len(kept)


def write_prices_wide(path, series: Sequence[PriceSeries]) -> None:
    """Emit ``price_panel(series)`` as a wide-format CSV: a blank cell where
    a symbol has no price, floats in shortest round-trip repr."""
    panel = price_panel(series)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *panel.symbols])
        for day, column in zip(panel.dates, panel.prices.T.tolist()):
            writer.writerow([day, *("" if math.isnan(v) else repr(v) for v in column)])


def report_to_dict(report: BacktestReport, cfg: BacktestConfig) -> dict:
    """JSON-ready representation of a backtest report.

    ``config``, ``metrics``, each window and each ``selected`` entry are
    keyed by the field names of ``BacktestConfig``, ``BacktestReport``
    (less its windows and single returns, with ``asset_count_range`` split
    into min and max), ``WindowResult`` (plus the window's ``start_date``
    and ``end_date``) and ``SelectedSpreadInfo``.
    """
    windows = []
    for w in report.windows:
        entry = dict(vars(w))
        entry.update(
            start_date=w.dates[0],
            end_date=w.dates[-1],
            dates=list(w.dates),
            daily_equity=w.daily_equity.tolist(),
            daily_costs=w.daily_costs.tolist(),
            selected=[dict(vars(s)) for s in w.selected],
        )
        windows.append(entry)
    metrics = dict(vars(report))
    del metrics["windows"], metrics["single_returns"]
    metrics["asset_count_min"], metrics["asset_count_max"] = metrics.pop("asset_count_range")
    return {
        "schema_version": SCHEMA_VERSION,
        "config": dict(vars(cfg)),
        "metrics": metrics,
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
