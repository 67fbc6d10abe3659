"""Column-wise CSV ingest against the plain per-cell reference parser in
``ingest_reference``.

``ingest_prices`` must give the same symbols, dates and bit-equal prices
on any file, and on a file with one fault the same error type and message.
"""
import csv
import math
import random
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fractalport.io as fio
from fractalport.errors import ParseError, ValidationError
from fractalport.io import ingest_prices
from ingest_reference import check_case, outcome, reference_ingest


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
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, fault


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "prices.csv"


@settings(max_examples=400, deadline=None)
@given(price_files(), st.sampled_from([fio.READ_BATCH_CELLS, 8, 3]))
@example(case=("", "empty_file"), batch_cells=fio.READ_BATCH_CELLS)
@example(case=("date,A,B,A\n2020-01-01,1,2,3\n2020-01-02,1,2,3\n", "repeated_symbol"), batch_cells=3)
@example(case=("date,A, ,B\n2020-01-01,1,2,3\n2020-01-02,1,2,3\n", "empty_symbol"), batch_cells=3)
def test_matches_reference(csv_path, case, batch_cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fio, "READ_BATCH_CELLS", batch_cells)
        check_case(csv_path, case)


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


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_duplicate_reported_at_its_batch(tmp_path, monkeypatch, layout):
    # a duplicate in the first batch is reported before a bad price in a
    # later one, as the row-by-row reference does; in the wide layout the
    # repeated date row is all blank, and still a duplicate
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 30)
    if layout == "long":
        lines = big_long_csv(tmp_path / "big.csv").read_text().split("\n")
        want = (ValidationError, "line 6: duplicate (2001-01-01, AA)")
    else:
        days = [date(2001, 1, 1) + timedelta(days=k) for k in range(400)]
        lines = ["date,AA,BB"] + [f"{day},{k}.5,{k}.25" for k, day in enumerate(days, 1)]
        want = (ValidationError, "line 6: duplicate date 2001-01-01")
    lines.insert(5, lines[1] if layout == "long" else "2001-01-01,,")
    lines[700 if layout == "long" else 300] = "2001-06-01,AA,oops"
    f = tmp_path / "dup.csv"
    f.write_text("\n".join(lines) + "\n")
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f) == want


def gapped_csv(path, layout, n_days=300, bad=None):
    """Four symbols over ``n_days`` days, each with a blank cell (a blank
    price row in the long layout) on one day in seven; ``bad`` replaces one
    priced cell, for a file with one fault."""
    symbols = ("AA", "BB", "CC", "DD")
    days = [(date(2001, 1, 1) + timedelta(days=k)).isoformat() for k in range(n_days)]
    cells = {
        (s, k): "" if (k + j) % 7 == 0 else repr(50.0 + k / 3 + j)
        for j, s in enumerate(symbols)
        for k in range(n_days)
    }
    if bad is not None:
        cells["CC", n_days // 2] = bad
    if layout == "long":
        rows = [f"{days[k]},{s},{cells[s, k]}" for s in symbols for k in range(n_days)]
        header = "date,symbol,adj_close"
    else:
        rows = [",".join([days[k], *(cells[s, k] for s in symbols)]) for k in range(n_days)]
        header = ",".join(["date", *symbols])
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


@pytest.mark.parametrize("layout", ["long", "wide"])
@pytest.mark.parametrize("batch_cells", [fio.READ_BATCH_CELLS, 30])
def test_gapped_prices_convert_without_per_cell_route(tmp_path, monkeypatch, layout, batch_cells):
    # blank cells are found first and the rest converted in one pass:
    # ``_price`` runs only to name a bad cell
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", batch_cells)
    calls = []
    price = fio._price

    def spy(raw, line, noun):
        calls.append(line)
        return price(raw, line, noun)

    monkeypatch.setattr(fio, "_price", spy)
    f = gapped_csv(tmp_path / "gapped.csv", layout)
    got = outcome(ingest_prices, f)
    assert got == outcome(reference_ingest, f)
    assert got[2] == (4, 300) and not calls
    f = gapped_csv(tmp_path / "bad.csv", layout, bad=" nan ")
    got = outcome(ingest_prices, f)
    assert got == outcome(reference_ingest, f)
    assert got[1].endswith("non-finite price ' nan '") and calls


# Traced peak over the panel's bytes, about 15% above the ratio measured
# with the grid grown and ordered in place (2.26, 1.72, 1.90 and 1.73) and
# below the 3.17, 2.48, 2.63 and 2.55 of a grid copied at each growth and
# once more to order it. The grid's two axes each end up to a quarter
# longer than the panel's: by symbol, 121 rows of 2,490 dates hold the
# 100 x 2,000 panel, and the last growth adds 24 rows
INGEST_PEAK_RATIO = {"long": 2.6, "long_by_date": 2.0, "long_shuffled": 2.2, "wide": 2.0}


@pytest.mark.parametrize("layout", list(INGEST_PEAK_RATIO))
def test_ingest_memory_follows_the_panel(tmp_path, layout):
    # prices are written batch by batch into one grid that grows and is
    # ordered in place, so the traced peak is a small multiple of the panel
    # however many rows the file has; a long file by symbol adds grid rows,
    # one by date adds grid columns, and one in no order adds both and
    # leaves every row and column to be reordered
    n_symbols, n_days = 100, 2000
    symbols = [f"S{j:03d}" for j in range(n_symbols)]
    days = [(date(2001, 1, 1) + timedelta(days=k)).isoformat() for k in range(n_days)]
    if layout.startswith("long"):
        rows = [f"{day},{s},{100.0 + k / 7 + j!r}" for j, s in enumerate(symbols) for k, day in enumerate(days)]
        if layout == "long_by_date":
            rows.sort(key=lambda row: row[:10])
        elif layout == "long_shuffled":
            random.Random(0).shuffle(rows)
        header = "date,symbol,adj_close"
    else:
        rows = [",".join([day, *(repr(100.0 + k / 7 + j) for j in range(n_symbols))]) for k, day in enumerate(days)]
        header = ",".join(["date", *symbols])
    f = tmp_path / "large.csv"
    f.write_text("\n".join([header, *rows]) + "\n")
    del rows
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        panel = ingest_prices(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert panel.prices.shape == (n_symbols, n_days)
    assert peak <= INGEST_PEAK_RATIO[layout] * panel.prices.nbytes, peak / panel.prices.nbytes


def plain_chunks(monkeypatch):
    """Record whether each chunk ``_row_batches`` reads is split as plain."""
    routes = []

    def spy(chunk, width):
        columns = plain(chunk, width)
        routes.append(columns is not None)
        return columns

    plain = fio._plain_columns
    monkeypatch.setattr(fio, "_plain_columns", spy)
    return routes


def test_crlf_pair_split_by_the_chunk_read(tmp_path, monkeypatch):
    # 3 cells a batch read 24 characters a chunk, and every record here is
    # 23 characters before its "\r\n": each read stops between the "\r"
    # and the "\n", and the line read that completes the chunk takes the "\n"
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 3)
    routes = plain_chunks(monkeypatch)
    rows = [
        f"{date(2001, 1, 1) + timedelta(days=k)},{sym},{100 + k / 8:09.5f}"
        for k in range(20)
        for sym in ("AA", "BB")
    ]
    assert {len(row) for row in rows} == {23}
    f = tmp_path / "crlf.csv"
    f.write_bytes("\r\n".join(["date,symbol,adj_close", *rows, ""]).encode())
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f)
    assert len(routes) == len(rows) and all(routes)


@pytest.mark.parametrize(
    "short_end", ["\n", "\r", "\r\n"], ids=["lf_in_crlf", "cr_in_crlf", "crlf"]
)
def test_line_ends_mixed_in_a_chunk(tmp_path, monkeypatch, short_end):
    # with a lone "\n" or "\r" among "\r\n" ends, splitting on "\r\n"
    # would join the one-field record to the next into three fields
    routes = plain_chunks(monkeypatch)
    f = tmp_path / "mixed.csv"
    f.write_bytes(
        f"date,symbol,adj_close\r\n2001-01-01,AA,1.0\r\n2001-01-02{short_end}"
        "2001-01-02,AA,2.0\r\n".encode()
    )
    want = (ParseError, "line 3: expected 3 columns, got 1")
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f) == want
    assert routes == [False]


@pytest.mark.parametrize("blank", ["", "   ", ",,", " , ,\t"])
def test_blank_record_inside_a_plain_chunk(tmp_path, monkeypatch, blank):
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 30)
    routes = plain_chunks(monkeypatch)
    f = big_long_csv(tmp_path / "big.csv", n_days=100)
    lines = f.read_text().split("\n")
    lines.insert(150, blank)
    lines.insert(160, "2001-02-01, BB ,")  # a blank price: not a blank record
    f.write_text("\n".join(lines))
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f)
    assert routes.count(False) == 1


@pytest.mark.parametrize(
    "rows",
    [
        ["2001-01-05,AA"],
        ["2001-01-05,AA,1.0,2.0"],
        ["2001-01-05"],
        ["2001-01-05,AA", "2001-01-06,BB,1.0,2.0"],
        ["2001-01-05,AA,1.0,2.0", "2001-01-06,BB"],
    ],
    ids=["short", "long", "date_only", "short_then_long", "long_then_short"],
)
@pytest.mark.parametrize("blank_before", [False, True])
def test_wrong_width_record_inside_a_plain_chunk_names_its_line(
    tmp_path, monkeypatch, rows, blank_before
):
    # a short and a long record in one chunk keep the chunk's field count;
    # a blank record before them still counts as a line
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 30)
    routes = plain_chunks(monkeypatch)
    f = big_long_csv(tmp_path / "big.csv", n_days=100)
    lines = f.read_text().split("\n")
    lines[150:150] = [""] * blank_before + rows
    f.write_text("\n".join(lines))
    want = (ParseError, f"line {151 + blank_before}: expected 3 columns, got {rows[0].count(',') + 1}")
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f) == want
    assert routes[-1] is False and all(routes[:-1])


def test_first_quote_in_a_late_chunk(tmp_path, monkeypatch):
    # the chunks before the quote are split, the rest of the file is read
    # by csv.reader: a quoted line break keeps one record on two lines,
    # and a fault after it is named by its record
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 30)
    routes = plain_chunks(monkeypatch)
    f = big_long_csv(tmp_path / "big.csv", n_days=200)
    lines = f.read_text().split("\n")
    lines[500] = '2001-06-01,"D\nD",1.5'
    lines[501] = '2001-06-02,"D\nD",2.5'
    lines[520] = "2001-06-03,AA,oops"
    f.write_text("\n".join(lines))
    want = (ParseError, "line 521: bad price 'oops'")
    assert outcome(ingest_prices, f) == outcome(reference_ingest, f) == want
    assert len(routes) > 10 and all(routes)


@pytest.mark.parametrize("batch_cells", [fio.READ_BATCH_CELLS, 3])
def test_byte_order_mark(tmp_path, monkeypatch, batch_cells):
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", batch_cells)
    f = big_long_csv(tmp_path / "big.csv", n_days=50)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
    assert outcome(ingest_prices, bom) == outcome(ingest_prices, f) == outcome(reference_ingest, f)


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_field_over_the_csv_limit_names_its_line(tmp_path, quoted):
    lines = big_long_csv(tmp_path / "big.csv", n_days=50).read_text().split("\n")
    cell = "9" * 200_000
    lines[7] = f'2001-01-03,BB,"{cell}"' if quoted else f"2001-01-03,BB,{cell}"
    f = tmp_path / "long_field.csv"
    f.write_text("\n".join(lines))
    limit = csv.field_size_limit()
    want = (ParseError, f"line 8: field longer than {limit} characters: '99999999999999999999'...")
    assert outcome(ingest_prices, f) == want
    assert csv.field_size_limit() == limit


def test_other_csv_fault_names_its_line(tmp_path, monkeypatch):
    # csv.reader before Python 3.11 rejects a NUL; a reader that does so
    # stands in for it here, and a chunk with a NUL is not split
    def reader(lines):
        for row in real(lines):
            if "\0" in "".join(row):
                raise csv.Error("line contains NUL")
            yield row

    real = csv.reader
    monkeypatch.setattr(fio.csv, "reader", reader)
    lines = big_long_csv(tmp_path / "big.csv", n_days=50).read_text().split("\n")
    lines[4] = "2001-01-02,B\0B,101.25"
    f = tmp_path / "nul.csv"
    f.write_text("\n".join(lines))
    assert outcome(ingest_prices, f) == (ParseError, "line 5: line contains NUL")


def test_field_at_the_csv_limit_is_read(tmp_path):
    # a field of exactly the limit's length passes csv.reader, and so the
    # split route too; it is then one bad price like any other
    limit = csv.field_size_limit()
    lines = big_long_csv(tmp_path / "big.csv", n_days=50).read_text().split("\n")
    lines[7] = "2001-01-03,BB," + "x" * limit
    f = tmp_path / "at_limit.csv"
    f.write_text("\n".join(lines))
    got = outcome(ingest_prices, f)
    assert got == outcome(reference_ingest, f)
    assert got[0] is ParseError and got[1].startswith("line 8: bad price 'xxx")


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


@pytest.mark.parametrize("order", ["by_symbol", "by_date"])
def test_grid_grows_geometrically(tmp_path, monkeypatch, order):
    # every growth resizes the grid and a column growth moves its rows, so
    # ingest stays linear in the file only if each axis grows a logarithmic
    # number of times: at 3 cells a batch, a long file brings a new symbol
    # or date almost every batch
    monkeypatch.setattr(fio, "READ_BATCH_CELLS", 3)
    n_symbols, n_days = 60, 150
    symbols = [f"S{j:02d}" for j in range(n_symbols)]
    days = [(date(2001, 1, 1) + timedelta(days=k)).isoformat() for k in range(n_days)]
    cells = [(day, s) for s in symbols for day in days]
    if order == "by_date":
        cells.sort()
    f = tmp_path / "long.csv"
    f.write_text("".join(["date,symbol,adj_close\n", *(f"{day},{s},1.5\n" for day, s in cells)]))
    growths = []

    def spy(buffer, shape, rows, cols):
        new = grown(buffer, shape, rows, cols)
        if new != shape:
            growths.append((shape, new))
        return new

    grown = fio._grown
    monkeypatch.setattr(fio, "_grown", spy)
    panel = ingest_prices(f)
    assert panel.prices.shape == (n_symbols, n_days)
    for axis, n in enumerate((n_symbols, n_days)):
        count = sum(old[axis] != new[axis] for old, new in growths)
        assert 0 < count <= math.ceil(math.log(n, 1.25)) + 4, (axis, count)


def test_grid_view_held_across_a_growth_raises():
    # the grid's cells cannot move while a view of them is alive, so a view
    # kept across a growth fails loudly and still reads its own cells; once
    # it is dropped, a growth of both axes keeps every cell at its (row,
    # column) and makes every new cell NaN
    buffer = bytearray()
    shape = fio._grown(buffer, (0, 0), 2, 3)
    grid = np.frombuffer(buffer).reshape(shape)
    grid[:] = np.arange(6.0).reshape(shape)
    for rows, cols in ((4, 3), (2, 6)):
        with pytest.raises(BufferError):
            fio._grown(buffer, shape, rows, cols)
        assert len(buffer) == grid.nbytes
        np.testing.assert_array_equal(grid, np.arange(6.0).reshape(shape))
    del grid
    shape = fio._grown(buffer, shape, 5, 9)
    want = np.full((5, 9), np.nan)
    want[:2, :3] = np.arange(6.0).reshape(2, 3)
    assert shape == (5, 9) and len(buffer) == want.nbytes
    np.testing.assert_array_equal(np.frombuffer(buffer).reshape(shape), want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), unique=True))))
def test_permute_rows_in_place(case):
    # any injection of rows: chains that start at a row no move reads or at
    # a row past the kept ones, and cycles through the spare row
    n, rows = case
    grid = np.arange(float(n))[:, None] * np.ones(3)
    fio._permute_rows(grid, rows)
    assert grid[: len(rows), 0].tolist() == rows
