"""The plain per-cell price-CSV parser that ``ingest_prices`` is checked against.

It reads a file the slow, obvious way: ``csv.reader`` per record,
``date.fromisoformat`` and ``float`` per cell, a dict per symbol.
``ingest_prices`` must give the same symbols, dates and bit-equal prices
on any file, and on a file with one fault the same error type and message.
It lives only in the tests.
"""
import csv
from datetime import date

import numpy as np

from fractalport.errors import FractalPortError, ParseError, ValidationError
from fractalport.io import ingest_prices


def reference_ingest(path):
    """(symbols, dates, prices) of a price CSV, one cell at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if [h.lower() for h in header] == ["date", "symbol", "adj_close"]:
            per_symbol = _reference_long(reader)
        elif header and header[0].lower() == "date" and len(header) >= 2:
            per_symbol = _reference_wide(reader, header[1:])
        else:
            raise ParseError(
                f"{path}: unrecognized header {header!r}; expected "
                f"'date,symbol,adj_close' or 'date,<SYM>,...'"
            )
    symbols = sorted(per_symbol)
    for sym in symbols:
        rows = per_symbol[sym]
        if len(rows) < 2:
            raise ValidationError(f"{sym}: need at least 2 prices, got {len(rows)}")
        for day in sorted(rows):
            if not rows[day] > 0:
                raise ValidationError(
                    f"{sym}: price {np.float64(rows[day])} on {day} is not finite and positive"
                )
    dates = sorted(set().union(*per_symbol.values()))
    prices = np.full((len(symbols), len(dates)), np.nan)
    for k, sym in enumerate(symbols):
        for t, day in enumerate(dates):
            prices[k, t] = per_symbol[sym].get(day, np.nan)
    return tuple(symbols), tuple(dates), prices


def _blank(row):
    return not row or all(not c.strip() for c in row)


def _day(raw, line):
    try:
        return date.fromisoformat(raw.strip()).isoformat()
    except ValueError as exc:
        raise ParseError(f"line {line}: bad date {raw!r}: {exc}") from None


def _value(raw, line):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {line}: bad price {raw!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"line {line}: non-finite price {raw!r}")
    return value


def _reference_long(reader):
    per_symbol = {}
    for line, row in enumerate(reader, start=2):
        if _blank(row):
            continue
        if len(row) != 3:
            raise ParseError(f"line {line}: expected 3 columns, got {len(row)}")
        day = _day(row[0], line)
        sym = row[1].strip()
        if not sym:
            raise ParseError(f"line {line}: empty symbol")
        if not row[2].strip():
            continue
        value = _value(row[2], line)
        rows = per_symbol.setdefault(sym, {})
        if day in rows:
            raise ValidationError(f"line {line}: duplicate ({day}, {sym})")
        rows[day] = value
    return per_symbol


def _reference_wide(reader, symbols):
    if len(set(symbols)) != len(symbols):
        raise ValidationError(f"duplicate symbol columns in header: {symbols}")
    if any(not s for s in symbols):
        raise ParseError("empty symbol column in header")
    per_symbol = {s: {} for s in symbols}
    seen = set()
    for line, row in enumerate(reader, start=2):
        if _blank(row):
            continue
        if len(row) != len(symbols) + 1:
            raise ParseError(f"line {line}: expected {len(symbols) + 1} columns, got {len(row)}")
        day = _day(row[0], line)
        if day in seen:
            raise ValidationError(f"line {line}: duplicate date {day}")
        seen.add(day)
        for sym, cell in zip(symbols, row[1:]):
            if cell.strip():
                per_symbol[sym][day] = _value(cell, line)
    return per_symbol


def outcome(parse, path):
    """What a parser makes of a file: its panel, or its error's type and message."""
    try:
        symbols, dates, prices = parse(path)
    except FractalPortError as exc:
        return type(exc), str(exc)
    return symbols, dates, prices.shape, prices.tobytes()


def check_case(path, case):
    """Write a case's text to ``path``; ``ingest_prices`` must read it as
    ``reference_ingest`` does, and a case tagged ``None`` (no fault) as a
    panel."""
    text, fault = case
    path.write_bytes(text.encode())
    want = outcome(reference_ingest, path)
    assert outcome(ingest_prices, path) == want
    if fault is None:
        assert not isinstance(want[0], type), want
