r"""CSV price ingestion and report serialization.

Two input layouts are auto-detected from the header: long format
(``date,symbol,adj_close``) and wide format (``date,SYM1,SYM2,...``).
Either is read into one ``PricePanel`` column by column. The file is read
in chunks of whole lines, and each chunk takes one of two routes:

- a plain chunk (no ``"``, all line ends ``\n`` or all ``\r\n``, every
  line of the header's width with a non-blank date) is split in C: its
  lines are joined and split on commas once, and each column is a strided
  slice of that one list of fields;
- any other chunk is parsed by ``csv.reader``, and from the first chunk
  with a ``"`` on, the rest of the file is: a quoted field may hold a
  comma or a line break, so only the reader knows where its records end.

Both routes give the same fields, so the file's panel and its errors do
not depend on the route. The date and symbol columns are then factorised
(each distinct date string is parsed once) and a batch's price cells are
converted by ``float`` in one numpy call. Reports are emitted as JSON with
a top-level ``schema_version``; time series go to CSV.
"""
from __future__ import annotations

import csv
import io
import json
import math
from datetime import date
from itertools import chain, compress, islice
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

# Cells per batch: ``csv.reader`` rows are read in batches of this many
# cells over the header's width, and the file in chunks of 8 characters a
# cell (the benchmark files have 11 to 18), so a chunk holds fewer cells
# than a batch. On the 17 MB long CSV (2-core VM), chunks for 1k cells
# left 0.9 MB more resident after ingest than for 4k cells, and for 16k
# cells 2.4 MB more; with ``csv.reader`` alone, 1k cells read the
# 60-symbol wide CSV slower (0.18 against 0.14 s).
READ_BATCH_CELLS = 1 << 12


def ingest_prices(path) -> PricePanel:
    """Parse a long- or wide-format price CSV into one panel.

    Blank rows are skipped and blank price cells are missing observations;
    a date with no price at all is not a column of the panel. Duplicate
    (date, symbol) observations, symbols with fewer than 2 prices,
    non-positive prices and fields longer than ``csv.field_size_limit()``
    are rejected. Errors name the line, counting the header as line 1 and
    every record, blank or not, after it.
    """
    path = Path(path)
    try:
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
    except csv.Error as exc:
        raise _csv_fault(path, exc) from None


def _row_batches(fh, width: int):
    """The file's non-blank records after the header, in batches.

    Yields ``(columns, lines)``: ``width`` sequences of the batch's raw
    fields, and each row's line number. Line numbers count records, so a
    quoted field may span lines. A chunk of whole lines is read at a time:
    a plain one is split by ``_plain_columns``, any other is parsed by
    ``csv.reader``, and from a chunk with a ``"`` on, the rest of the file.

    Faults are found batch by batch: a batch's column counts here, then its
    dates, symbols and prices in the reader, each in file order; duplicates
    and the per-symbol checks come after the last batch. Which fault a file
    with several reports therefore depends on ``READ_BATCH_CELLS``.
    """
    line = 2
    while chunk := fh.read(8 * READ_BATCH_CELLS):
        chunk += fh.readline()
        if '"' in chunk:
            yield from _csv_batches(csv.reader(chain(io.StringIO(chunk, newline=""), fh)), width, line)
            return
        columns = _plain_columns(chunk, width)
        if columns is None:
            line = yield from _csv_batches(csv.reader(io.StringIO(chunk, newline="")), width, line)
        else:
            yield columns, range(line, line + len(columns[0]))
            line += len(columns[0])


def _plain_columns(chunk: str, width: int):
    r"""The columns of a chunk of whole lines with no ``"``, split in C,
    or None unless every line is a record ``csv.reader`` reads as the text
    between commas.

    That holds when the chunk has no NUL (``csv.reader`` before Python 3.11
    rejects it), every line end is ``\n`` or every one ``\r\n``, every
    line has ``width`` fields and a non-blank date (so no record is blank)
    and no field is longer than ``csv.field_size_limit()``.
    """
    cr = chunk.count("\r")
    lines = chunk.split("\r\n" if cr else "\n")
    if (cr and not len(lines) - 1 == cr == chunk.count("\n")) or "\0" in chunk:
        return None
    if not lines[-1]:  # the chunk ends its last line
        lines.pop()
    # no line holds a "\n", so the "\n" fields are the separators, and
    # they fall every width + 1 fields only if every line has width fields
    fields = ",\n,".join(lines).split(",")
    step = width + 1
    if len(fields) != step * len(lines) - 1 or fields[width::step].count("\n") != len(lines) - 1:
        return None
    columns = [fields[k::step] for k in range(width)]
    if not all(map(str.strip, columns[0])):
        return None
    limit = csv.field_size_limit()
    if len(chunk) > limit and max(map(len, fields)) > limit:
        return None
    return columns


def _csv_batches(records, width: int, line: int):
    """Batches of ``csv.reader`` records as ``_row_batches`` yields them,
    the first numbered ``line``; returns the line after the last record."""
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
    return line


def _csv_fault(path: Path, exc: csv.Error) -> ParseError:
    """``exc`` as a ``ParseError`` naming its line.

    ``csv.reader`` rejects a field longer than ``csv.field_size_limit()``
    without saying where, so the file is read again with the limit lifted
    to find the first such field and quote its start. The limit is
    process-wide; it is restored before this returns.
    """
    limit = csv.field_size_limit(2**31 - 1)  # returns the previous limit
    n = 0
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            for n, row in enumerate(csv.reader(fh), start=1):
                for cell in row:
                    if len(cell) > limit:
                        return ParseError(
                            f"line {n}: field longer than {limit} characters: {cell[:20]!r}..."
                        )
    except csv.Error as again:  # a fault other than a field's length
        return ParseError(f"line {n + 1}: {again}")
    finally:
        csv.field_size_limit(limit)
    return ParseError(f"{path}: {exc}")


def _factorise(raw, lines, codes: dict, labels: dict, canonical) -> np.ndarray:
    """Integer code of each raw string's canonical label.

    ``codes`` (raw string -> code) and ``labels`` (label -> code) grow over
    the batches; ``canonical`` runs once per distinct raw string and returns
    the label or raises ``ParseError`` with the message after the line.
    """
    try:
        return np.fromiter(map(codes.__getitem__, raw), np.intp, len(raw))
    except KeyError:  # a string not seen in an earlier batch
        pass
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
    """Prices of a sequence of raw cells, NaN for a blank one; ``lines``
    holds each cell's line number, for the error of the first bad one."""
    try:
        values = np.fromiter(map(float, raw), np.float64, len(raw))
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
    if not math.isfinite(value):
        raise ParseError(f"line {line}: non-finite price {raw!r}")
    return value


def _read_long(batches) -> PricePanel:
    date_codes, days, sym_codes, syms = {}, {}, {}, {}
    ds, ss, vs, spans = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)], []
    for (raw_dates, raw_syms, raw_prices), lines in batches:
        d = _factorise(raw_dates, lines, date_codes, days, _iso_date)
        s = _factorise(raw_syms, lines, sym_codes, syms, _symbol)
        v = _prices(raw_prices, lines)
        kept = ~np.isnan(v)  # a blank price drops its row
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
        cells = list(chain.from_iterable(columns[1 + k] for k in order))
        blocks.append(_prices(cells, list(lines) * len(order)).reshape(len(order), len(lines)))
        spans.append((lines, np.ones(len(lines), bool)))
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
    """Line number of the ``row``-th kept row over all batches; a span is
    a batch's line numbers and the mask of its kept rows."""
    for lines, kept in spans:
        kept = np.flatnonzero(kept)
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
