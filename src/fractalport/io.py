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
(each distinct date string is parsed once), a batch's price cells are
converted by ``float`` into one numpy array (one pass over the batch, or,
when that pass meets a blank or malformed cell, one pass over its non-blank
cells), and the prices are written straight into one (symbols x dates) grid
at their codes.
The grid's cells are one ``bytearray``, grown in place when a new code
falls outside it and, at the end, ordered and cut to the panel in place,
so ingest holds about one grid: its memory follows the panel's size, not
the file's row count. ``read_column`` reads one numeric column of any CSV
through the same record reader.

Reports are emitted as JSON with a top-level ``schema_version``, through
one writer that gives the bytes of the stdlib's ``indent=2`` pretty-printer
from its C encoder: ``to_json`` returns them as a string, and
``write_report_json`` streams a backtest report's to a file. Time series go
to CSV.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from datetime import date
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from fractalport.backtest import BacktestConfig, BacktestReport
from fractalport.errors import DataError, ParseError, ValidationError
from fractalport.spreads import PricePanel, PriceSeries, build_panel

__all__ = [
    "SCHEMA_VERSION",
    "ingest_prices",
    "read_column",
    "write_prices_wide",
    "report_to_dict",
    "to_json",
    "write_report_json",
    "write_equity_csv",
]

SCHEMA_VERSION = 1

# Cells per batch: ``csv.reader`` rows are read in batches of this many
# cells over the header's width, and the file in chunks of 8 characters a
# cell (the benchmark files have 11 to 18), so a chunk holds fewer cells
# than a batch. On one core of a 2-core VM (min of 5), the 17 MB long CSV
# and the 60-symbol wide CSV read in 0.67 and 0.110 s at 1k cells, 0.58 and
# 0.096 s at 4k and 0.66 and 0.106 s at 16k; the long file's ingest alone
# (numpy imported, one BLAS thread) left a process high-water mark of 38.5,
# 37.9 and 39.5 MB.
READ_BATCH_CELLS = 1 << 12


def ingest_prices(path) -> PricePanel:
    """Parse a long- or wide-format price CSV into one panel.

    Blank rows are skipped and blank price cells are missing observations;
    a date with no price at all is not a column of the panel. Duplicate
    (date, symbol) observations, symbols with fewer than 2 prices,
    non-positive prices and fields longer than ``csv.field_size_limit()``
    are rejected. Errors name the line, counting the header as line 1 and
    every record, blank or not, after it; a file that is not UTF-8 names
    the line of its first such byte.
    """
    path = Path(path)
    with _csv_file(path) as (header, fh):
        if (layout := _layout(header)) == "long":
            return _read_long(_row_batches(fh, 3))
        if layout == "wide":
            return _read_wide(_row_batches(fh, len(header)), header[1:])
        raise ParseError(
            f"{path}: unrecognized header {header!r}; expected "
            f"'date,symbol,adj_close' or 'date,<SYM>,...'"
        )


def _layout(header: list[str]):
    """The layout, "long" or "wide", that ``ingest_prices`` reads a file
    with these stripped header cells in, or None."""
    if [h.lower() for h in header] == ["date", "symbol", "adj_close"]:
        return "long"
    return "wide" if header and header[0].lower() == "date" and len(header) >= 2 else None


def read_column(path, column: str) -> np.ndarray:
    """The numbers in ``column`` of a CSV with a header, by the record rule
    of ``ingest_prices``: blank records and blank cells are skipped, and a
    record of another width than the header's or a cell that is not a
    finite number is a ``ParseError`` naming its line."""
    with _csv_file(Path(path)) as (header, fh):
        if column not in header:
            raise DataError(f"column {column!r} not found; available: {header}")
        k = header.index(column)
        parts = [np.empty(0)]
        for columns, lines in _row_batches(fh, len(header)):
            values = _prices(columns[k], lines, "value")
            parts.append(values[~np.isnan(values)])
    return np.concatenate(parts)


@contextlib.contextmanager
def _csv_file(path: Path):
    """The CSV at ``path``, opened as UTF-8 with an optional byte-order mark:
    its header's cells, stripped, and the file after the header. A
    ``csv.Error`` or ``UnicodeDecodeError`` inside the ``with`` block is
    raised as a ``ParseError`` naming its line."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise ParseError(f"{path}: file is empty") from None
            yield [h.strip() for h in header], fh
    except csv.Error as exc:
        raise _csv_fault(path, exc) from None
    except UnicodeDecodeError:
        raise _utf8_fault(path) from None


def _utf8_fault(path: Path) -> ParseError:
    r"""A ``ParseError`` naming the line of ``path``'s first byte that is not
    UTF-8, lines ending at ``\n``, ``\r\n`` or ``\r``."""
    with path.open(encoding="latin-1") as fh:  # every byte is one character
        for n, line in enumerate(fh, start=1):
            raw = line.encode("latin-1")
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"{path}: line {n}: not UTF-8 at byte {raw[exc.start]:#04x}")
    return ParseError(f"{path}: not UTF-8")


def _row_batches(fh, width: int):
    """The file's non-blank records after the header, in batches.

    Yields ``(columns, lines)``: ``width`` sequences of the batch's raw
    fields, and each row's line number. Line numbers count records, so a
    quoted field may span lines. A chunk of whole lines is read at a time:
    a plain one is split by ``_plain_columns``, any other is parsed by
    ``csv.reader``, and from a chunk with a ``"`` on, the rest of the file.

    Faults are found batch by batch: a batch's column counts here, then its
    dates, symbols, prices and duplicates in the reader, each in file
    order; only the per-symbol checks come after the last batch. Which
    fault a file with several reports therefore depends on
    ``READ_BATCH_CELLS``.
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
        filled = list(map(str.strip, map("".join, rows)))  # blank records are dropped
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
        # the long field may run into bytes the first read did not decode
        with path.open(newline="", encoding="utf-8-sig", errors="replace") as fh:
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


def _prices(raw, lines, noun: str = "price") -> np.ndarray:
    """Prices of a sequence of raw cells, NaN for a blank one; ``lines``
    gives each cell's line number, for the error of the first bad one.

    Every batch tries one ``float`` pass. A pass that meets a blank or
    malformed cell gives way to two: one that finds the blank cells and one
    ``float`` call over the rest. ``_price`` runs only to name a malformed
    or non-finite cell, as a bad ``noun``.
    """
    filled = len(raw)
    try:
        try:
            values = np.fromiter(map(float, raw), np.float64, filled)
        except ValueError:  # a blank cell, or a malformed one
            priced = list(map(bool, map(str.strip, raw)))
            filled = priced.count(True)
            values = np.full(len(raw), np.nan)
            values[np.array(priced, bool)] = np.fromiter(map(float, compress(raw, priced)), np.float64, filled)
        if np.count_nonzero(np.isfinite(values)) == filled:
            return values
    except ValueError:  # a malformed cell
        pass
    for cell, line in zip(raw, lines):  # raises at the first bad cell
        _price(cell, line, noun)


def _price(raw: str, line: int, noun: str) -> None:
    """Raise ``ParseError`` for a malformed or non-finite ``noun`` cell."""
    if not raw.strip():
        return
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {line}: bad {noun} {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line}: non-finite {noun} {raw!r}")


def _read_long(batches) -> PricePanel:
    date_codes, days, sym_codes, syms = {}, {}, {}, {}
    cells, shape = bytearray(), (0, 0)
    for (raw_dates, raw_syms, raw_prices), lines in batches:
        d = _factorise(raw_dates, lines, date_codes, days, _iso_date)
        s = _factorise(raw_syms, lines, sym_codes, syms, _symbol)
        v = _prices(raw_prices, lines)
        kept = np.flatnonzero(~np.isnan(v))  # a blank price drops its row
        shape = _grown(cells, shape, len(syms), len(days))
        grid = np.frombuffer(cells).reshape(shape)
        cell = s[kept] * shape[1] + d[kept]
        row = _first_repeat(cell, ~np.isnan(grid.take(cell)))
        if row >= 0:
            k = kept[row]
            raise ValidationError(f"line {lines[k]}: duplicate ({list(days)[d[k]]}, {list(syms)[s[k]]})")
        grid.put(cell, v[kept])
        del grid  # the next growth resizes ``cells``
    # a symbol seen only with blank prices has no observations
    observed = np.fmax.reduce(np.frombuffer(cells).reshape(shape), axis=1, initial=-np.inf) > -np.inf
    symbols, dates, prices = _sorted_grid(cells, shape, {sym: k for sym, k in syms.items() if observed[k]}, days)
    return build_panel(symbols, dates, prices)


def _read_wide(batches, header: list[str]) -> PricePanel:
    if len(set(header)) != len(header):
        raise ValidationError(f"duplicate symbol columns in header: {header}")
    if any(not s for s in header):
        raise ParseError("empty symbol column in header")
    syms = {s: k for k, s in enumerate(header)}
    date_codes, days = {}, {}
    cells, shape = bytearray(), (len(header), 0)
    for columns, lines in batches:
        seen = len(days)
        d = _factorise(columns[0], lines, date_codes, days, _iso_date)
        raw = list(chain.from_iterable(columns[1:]))
        block = _prices(raw, chain.from_iterable(repeat(lines, len(header))))
        # new dates are coded in order of first sight, so a row whose code
        # breaks the count from ``seen`` repeats an earlier row's date
        repeats = np.flatnonzero(d != np.arange(seen, seen + len(d)))
        if repeats.size:
            k = repeats[0]
            raise ValidationError(f"line {lines[k]}: duplicate date {list(days)[d[k]]}")
        shape = _grown(cells, shape, len(header), len(days))
        np.frombuffer(cells).reshape(shape)[:, seen : len(days)] = block.reshape(len(header), len(d))
    return build_panel(*_sorted_grid(cells, shape, syms, days))


def _grown(cells: bytearray, shape: tuple[int, int], rows: int, cols: int) -> tuple[int, int]:
    """The shape of the grid held in ``cells`` (float64 cells, row by row)
    after growing it in place to at least ``rows`` x ``cols``, the new cells
    NaN. An axis that must grow grows by at least a quarter, so a panel read
    batch by batch is resized a number of times logarithmic in its size, in
    time linear in it all told, and each axis of its grid ends at most a
    quarter longer than the panel's.

    When the columns grow, the rows move to the new stride, back to front
    so that none is overwritten before it moves. ``cells`` cannot be resized
    while a view of it is alive: that raises ``BufferError`` before any
    cell changes.
    """
    r, c = shape
    new = tuple(have if n <= have else max(n, have + have // 4) for n, have in ((rows, r), (cols, c)))
    cells.extend(bytes(8 * (new[0] * new[1] - r * c)))
    flat = np.frombuffer(cells)
    if new[1] > c:
        for k in range(r - 1, 0, -1):
            flat[k * new[1] : k * new[1] + c] = flat[k * c : k * c + c]
    grid = flat.reshape(new)
    grid[:r, c:] = np.nan
    grid[r:] = np.nan
    return new


def _first_repeat(cells: np.ndarray, taken: np.ndarray) -> int:
    """Index of the first cell that ``taken`` marks or an earlier cell
    equals, or -1."""
    order = np.argsort(cells, kind="stable")
    hit = taken.copy()
    hit[order[1:]] |= cells[order[1:]] == cells[order[:-1]]
    return int(np.argmax(hit)) if hit.any() else -1


def _sorted_grid(cells: bytearray, shape: tuple[int, int], syms: dict, days: dict):
    """Sorted symbols, the sorted dates that have a price, and their prices,
    out of the grid of ``shape`` held in ``cells``, whose rows and columns
    are the codes of ``syms`` and ``days`` (label -> code).

    The prices are ordered in place: the rows are put in symbol order, then
    each row's columns are gathered in date order and written to the front
    of ``cells`` at the panel's stride, rows front to back, and ``cells`` is
    cut to the panel's length. The returned prices are a view of ``cells``;
    CPython keeps a bytearray's allocation when a cut keeps at least half
    of it, so that buffer may still hold the grid's whole capacity.
    """
    grid = np.frombuffer(cells).reshape(shape)
    priced = np.fmax.reduce(grid, axis=0, initial=-np.inf) > -np.inf
    symbols = sorted(syms)
    dates = [d for d in sorted(days) if priced[days[d]]]
    cols = np.array([days[d] for d in dates], np.intp)
    _permute_rows(grid, [syms[s] for s in symbols])
    flat, width = grid.reshape(-1), cols.size
    for k in range(len(symbols)):  # row k's packed cells end before row k + 1 starts
        flat[k * width : (k + 1) * width] = grid[k, cols]
    del grid, flat
    del cells[8 * len(symbols) * width :]
    return tuple(symbols), tuple(dates), np.frombuffer(cells).reshape(len(symbols), width)


def _permute_rows(grid: np.ndarray, rows: list[int]) -> None:
    """Move row ``rows[k]`` of ``grid`` to row k for every k, in place.

    The moves form chains and cycles. A chain starts at a row that no move
    reads, so it is overwritten first; a cycle's first row is kept in one
    spare row until the cycle's last move reads it.
    """
    todo = {k: r for k, r in enumerate(rows) if k != r}  # destination -> source
    read = set(todo.values())
    spare = np.empty(grid.shape[1])
    for start in [k for k in todo if k not in read] + [k for k in todo if k in read]:
        if start in read and start in todo:
            spare[:] = grid[start]
        k = start
        while k in todo:
            r = todo.pop(k)
            grid[k] = spare if r == start else grid[r]
            k = r


def write_prices_wide(path, series: Sequence[PriceSeries]) -> None:
    """Write ``series`` as a wide CSV that ``ingest_prices`` reads back as
    ``build_panel`` of them, bit for bit: symbols sorted, floats in shortest
    round-trip repr. Nothing is written unless it would: the series share
    one calendar of ``YYYY-MM-DD`` dates, the symbols are unchanged by
    ingest and make a wide header, and a NaN is a bad price, not a gap.
    ``build_panel`` refuses the rest before the file is opened: symbols
    that are not distinct and dates that do not increase."""
    ordered = sorted(series, key=lambda p: p.symbol)
    symbols = [p.symbol for p in ordered]
    for sym in symbols:
        if not _reads_back(_symbol, sym):
            raise ValidationError(f"{sym!r}: symbol is empty or has surrounding whitespace")
    header = ["date", *symbols]
    if _layout(header) != "wide":
        raise ValidationError(f"header {header} would not read back as the wide layout")
    first, calendar = ordered[0].symbol, tuple(ordered[0].dates)
    for day in calendar:  # once: every series must have these dates
        if not _reads_back(_iso_date, day):
            raise ValidationError(f"{first}: date {day!r} is not a YYYY-MM-DD string")
    for p in ordered:
        if tuple(p.dates) != calendar:
            raise ValidationError(f"{p.symbol}: dates differ from {first}'s")
        if np.shape(p.prices) != (len(calendar),):
            raise ValidationError(f"{p.symbol}: {len(p.dates)} dates vs {np.size(p.prices)} prices")
    prices = np.array([p.prices for p in ordered], dtype=np.float64)
    gaps = np.argwhere(np.isnan(prices))
    if gaps.size:
        k, t = gaps[0]
        raise ValidationError(f"{symbols[k]}: price nan on {calendar[t]} is not finite and positive")
    panel = build_panel(symbols, calendar, prices)
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(header)  # quotes a symbol that needs it
        # no row field needs quoting: an ISO date, then finite floats
        fh.writelines(
            f"{day},{','.join(map(repr, column))}\r\n"
            for day, column in zip(panel.dates, panel.prices.T.tolist())
        )


def _reads_back(read, raw) -> bool:
    """Whether ingest's ``read`` (``_symbol`` or ``_iso_date``) gives ``raw``."""
    try:
        return read(raw) == raw
    except (ParseError, AttributeError):  # AttributeError: not a string
        return False


def report_to_dict(report: BacktestReport, cfg: BacktestConfig) -> dict:
    """JSON-ready representation of a backtest report.

    ``config``, ``metrics`` and each window are keyed by the field names
    of ``BacktestConfig``, ``BacktestReport`` (less its windows and single
    returns) and ``WindowResult`` (plus the window's ``start_date`` and
    ``end_date``); each ``selected`` entry is written as the window holds it.
    """
    windows = [
        dict(vars(w), start_date=w.dates[0], end_date=w.dates[-1], dates=list(w.dates),
             daily_equity=w.daily_equity.tolist(), daily_costs=w.daily_costs.tolist())
        for w in report.windows
    ]
    metrics = dict(vars(report))
    del metrics["windows"], metrics["single_returns"]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": dict(vars(cfg)),
        "metrics": metrics,
        "single_returns": list(report.single_returns),
        "windows": windows,
    }


def write_report_json(path, report: BacktestReport, cfg: BacktestConfig) -> None:
    """Write ``to_json(report_to_dict(report, cfg))`` to ``path`` as it is
    encoded, piece by piece, so the report's text is never held whole."""
    with Path(path).open("w") as fh:
        _write_json(report_to_dict(report, cfg), 0, fh.write)
        fh.write("\n")


def to_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a final newline,
    through the stdlib's C encoder. Containers must be plain dicts with
    string keys, lists and tuples.

    The stdlib pretty-prints with its pure-Python encoder, one call per
    value. Here a scalar, an empty container and a container that holds no
    container are each one call of a C encoder made once per nesting depth,
    its separator a comma, a line end and the indent of the items. Any
    other container is written item by item: each item's separator and, in
    a dict, its encoded key, then the item by recursion.
    """
    parts: list[str] = []
    _write_json(doc, 0, parts.append)
    parts.append("\n")
    return "".join(parts)


_CONTAINERS = frozenset((dict, list, tuple))


@functools.cache
def _encoder(depth: int):
    """``encode(value)``: the JSON text of ``value``, keys sorted, NaN and
    infinities allowed, and the items of a container at nesting ``depth``
    separated by a comma, a line end and their indent.

    It is one C encoder made once per depth: ``JSONEncoder.encode`` makes a
    new one for every value that is not a string. It has no markers dict
    (circular references are not checked), because a cached one would keep
    the ids of an encode that raised. Without the C encoder it is
    ``JSONEncoder.encode``.
    """
    spec = json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))
    make = json.encoder.c_make_encoder
    if make is None:
        return spec.encode
    encode = make(
        None, spec.default, json.encoder.encode_basestring_ascii, None,
        spec.key_separator, spec.item_separator, spec.sort_keys, spec.skipkeys, spec.allow_nan,
    )
    return lambda value: "".join(encode(value, 0))


def _write_json(value, depth: int, write) -> None:
    """Pass the ``indent=2`` text of ``value``, at nesting ``depth``, to
    ``write`` in pieces: a scalar, a key and a container that holds no
    container each take one call of the depth's cached encoder
    (``_encoder``)."""
    encode = _encoder(depth)
    if type(value) not in _CONTAINERS or not value:  # a scalar, "[]" or "{}"
        write(encode(value))
        return
    indent = "  " * (depth + 1)
    is_dict = type(value) is dict
    if _CONTAINERS.isdisjoint(map(type, value.values() if is_dict else value)):
        text = encode(value)
        write(f"{text[0]}\n{indent}{text[1:-1]}\n{indent[2:]}{text[-1]}")
        return
    separator = "\n" + indent
    write("{" if is_dict else "[")
    for key in sorted(value) if is_dict else range(len(value)):
        write(f"{separator}{encode(key)}: " if is_dict else separator)
        _write_json(value[key], depth + 1, write)
        separator = ",\n" + indent
    write(f"\n{indent[2:]}{'}' if is_dict else ']'}")


def write_equity_csv(path, report: BacktestReport) -> None:
    """Daily equity rows (test days only; window starts repeat the config
    capital when reinvestment is off), as ``csv.writer`` would write them.
    Fields are not quoted: the dates are the panel's, which ingest reads as
    ``YYYY-MM-DD``."""
    with Path(path).open("w", newline="") as fh:
        fh.write("date,equity\r\n")
        for w in report.windows:
            rows = zip(w.dates[1:], w.daily_equity[1:].tolist())
            fh.writelines(f"{day},{value!r}\r\n" for day, value in rows)
