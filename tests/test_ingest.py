"""Column-wise CSV ingest against a plain per-cell reference parser.

The reference below reads a file the slow, obvious way: ``csv.reader``
per record, ``date.fromisoformat`` and ``float`` per cell, a dict per
symbol. ``ingest_prices`` must give the same symbols, dates and bit-equal
prices on any file, and on a file with one fault the same error type and
message.
"""
import csv
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalport.io as fio
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


try:
    date.fromisoformat("20200102")
    DATE_STYLES = ["iso", "padded", "basic"]
except ValueError:  # interpreters before 3.11 read only YYYY-MM-DD
    DATE_STYLES = ["iso", "padded"]

FAULTS = [
    None,
    "bad_date",
    "bad_price",
    "non_finite",
    "columns",
    "empty_symbol",
    "duplicate",
    "few_prices",
    "non_positive",
]


@st.composite
def price_files(draw):
    """Text of a small long or wide price CSV with at most one fault, and
    the fault's name."""
    layout = draw(st.sampled_from(["long", "wide"]))
    symbols = draw(st.lists(st.sampled_from(["A", "B2", "CC", "XLF"]), min_size=1, max_size=4, unique=True))
    offsets = draw(st.sets(st.integers(0, 40), min_size=2, max_size=8))
    days = [date(2020, 1, 1) + timedelta(days=k) for k in sorted(offsets)]
    cells = {}
    for sym in symbols:
        seen = draw(st.lists(st.booleans(), min_size=len(days), max_size=len(days)))
        for k in draw(st.permutations(range(len(days))))[:2]:
            seen[k] = True  # every symbol has at least 2 prices
        for day, here in zip(days, seen):
            cells[sym, day] = draw(st.floats(0.01, 1e4)) if here else None
    quoted = draw(st.booleans())

    def pad(text):
        return draw(st.sampled_from(["{}", " {}", "{} ", "\t{} "])).format(text)

    def day_text(day):
        style = draw(st.sampled_from(DATE_STYLES))
        if style == "basic":
            return day.strftime("%Y%m%d")
        return day.isoformat() if style == "iso" else pad(day.isoformat())

    def price_text(value):
        if value is None:
            return draw(st.sampled_from(["", " "]))
        return draw(st.sampled_from([repr(value), pad(repr(value)), f"{value:.6e}"]))

    if layout == "long":
        header = ["date", "symbol", "adj_close"]
        rows = [
            [day_text(day), pad(sym) if draw(st.booleans()) else sym, price_text(cells[sym, day])]
            for sym in symbols
            for day in days
            if cells[sym, day] is not None or draw(st.booleans())
        ]
        price_cols = [2]
    else:
        header = ["date"] + symbols
        extra = draw(st.sets(st.integers(41, 60), max_size=2))  # dates with no price at all
        blank_days = [date(2020, 1, 1) + timedelta(days=k) for k in extra]
        rows = [[day_text(day)] + [price_text(cells[s, day]) for s in symbols] for day in days]
        rows += [[day_text(day)] + [price_text(None) for _ in symbols] for day in blank_days]
        price_cols = list(range(1, len(header)))
    rows = draw(st.permutations(rows))

    fault = draw(st.sampled_from(FAULTS))
    if fault == "empty_symbol" and layout == "wide":
        fault = None
    priced = [(r, c) for r, row in enumerate(rows) for c in price_cols if row[c].strip()]
    if fault == "bad_date":
        rows[draw(st.integers(0, len(rows) - 1))][0] = draw(st.sampled_from(["2020-02-30", "soon", ""]))
    elif fault in ("bad_price", "non_finite", "non_positive"):
        r, c = draw(st.sampled_from(priced))
        bad = {"bad_price": ["1.2.3", "x"], "non_finite": ["inf", "nan"], "non_positive": ["-2.5", "0"]}
        rows[r][c] = draw(st.sampled_from(bad[fault]))
    elif fault == "columns":
        rows[draw(st.integers(0, len(rows) - 1))].append("1.0")
    elif fault == "empty_symbol":
        rows[draw(st.integers(0, len(rows) - 1))][1] = " "
    elif fault == "duplicate":
        r = priced[draw(st.integers(0, len(priced) - 1))][0]
        rows.insert(draw(st.integers(r + 1, len(rows))), list(rows[r]))
    elif fault == "few_prices":
        sym = draw(st.sampled_from(symbols))
        keep = draw(st.integers(0, 1))
        for row in rows:
            if layout == "wide":
                cells_of_sym = [header.index(sym)]
            else:
                cells_of_sym = [2] if row[1].strip() == sym else []
            for c in cells_of_sym:
                if row[c].strip():
                    if keep:
                        keep -= 1
                    else:
                        row[c] = ""

    def render(row):
        if quoted and draw(st.booleans()):
            return ",".join(f'"{f}"' for f in row)
        return ",".join(row)

    lines = [render(header)] + [render(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):  # blank records
        blank = draw(st.sampled_from(["", "  ", ",", " , ,"]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, fault


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "prices.csv"


@settings(max_examples=400, deadline=None)
@given(price_files(), st.sampled_from([fio.READ_BATCH_CELLS, 8, 3]))
def test_matches_reference(csv_path, case, batch_cells):
    text, fault = case
    csv_path.write_bytes(text.encode())
    want = outcome(reference_ingest, csv_path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fio, "READ_BATCH_CELLS", batch_cells)
        got = outcome(ingest_prices, csv_path)
    assert got == want
    if fault is None:
        assert not isinstance(want[0], type), want


def big_long_csv(path, n_days=400, quote_row=None, fault_row=None):
    """A long CSV of three symbols over ``n_days`` days, rows by date."""
    lines = ["date,symbol,adj_close"]
    for k in range(n_days):
        day = (date(2001, 1, 1) + timedelta(days=k)).isoformat()
        for sym in ("AA", "BB", "CC"):
            lines.append(f"{day},{sym},{100.0 + k + len(sym) / 8!r}")
    if quote_row is not None:
        day, sym, price = lines[quote_row].split(",")
        lines[quote_row] = f'{day},"{sym}",{price}'
    if fault_row is not None:
        lines[fault_row] += ",extra"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("quote_row", [None, 5, 900], ids=["plain", "quote_early", "quote_late"])
def test_many_batches_match_reference(tmp_path, monkeypatch, quote_row):
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 30)
    path = big_long_csv(tmp_path / "big.csv", quote_row=quote_row)
    got = outcome(ingest_prices, path)
    assert got == outcome(reference_ingest, path)
    assert got[2] == (3, 400)


@pytest.mark.parametrize("fault_row", [3, 700, 1200])
def test_fault_in_a_late_batch_names_its_line(tmp_path, monkeypatch, fault_row):
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 30)
    path = big_long_csv(tmp_path / "big.csv", fault_row=fault_row)
    want = (ParseError, f"line {fault_row + 1}: expected 3 columns, got 4")
    assert outcome(ingest_prices, path) == outcome(reference_ingest, path) == want


def test_quoted_record_across_lines_counts_once(tmp_path, monkeypatch):
    # a quoted symbol holding a line break is one record on two lines; line
    # numbers count records, as csv.reader does
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 3)
    f = tmp_path / "q.csv"
    f.write_text(
        'date,symbol,adj_close\n2020-01-01,"X\nY",1.0\n2020-01-02,"X\nY",2.0\n'
        "2020-01-03,Z,1.0\n2020-01-04,Z,oops\n"
    )
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f)
    assert outcome(ingest_prices, f) == (ParseError, "line 5: bad price 'oops'")


def test_header_only_wide_names_first_symbol(tmp_path):
    f = tmp_path / "w.csv"
    f.write_text("date,BBB,AAA\n")
    assert outcome(ingest_prices, f) == (
        ValidationError, "AAA: need at least 2 prices, got 0"
    ) == outcome(reference_ingest, f)


def test_too_few_prices_reported_before_non_positive(tmp_path):
    # A has one price and it is negative; B is fine
    f = tmp_path / "w.csv"
    f.write_text("date,B,A\n2020-01-01,1.0,-1.0\n2020-01-02,2.0,\n")
    assert outcome(ingest_prices, f) == (
        ValidationError, "A: need at least 2 prices, got 1"
    ) == outcome(reference_ingest, f)


def test_panel_is_c_contiguous_and_read_only(tmp_path):
    f = tmp_path / "w.csv"
    f.write_text("date,A,B\n2020-01-01,1.0,\n2020-01-02,,\n2020-01-03,2.0,3.0\n2020-01-04,,4.0\n")
    panel = ingest_prices(f)
    assert panel.dates == ("2020-01-01", "2020-01-03", "2020-01-04")
    assert panel.prices.flags.c_contiguous
    with pytest.raises(ValueError):
        panel.prices[0, 0] = 1.0
