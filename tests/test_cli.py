"""CSV ingestion, report output and the command-line surface."""
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fractalport
from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.cli import main
from fractalport.errors import ParseError, ValidationError
from fractalport.fbm import estimate_hurst
from fractalport.io import ingest_prices, report_to_dict, to_json, write_prices_wide
from fractalport.spreads import PriceSeries
from fbm_reference import generate_fbm
from panels import panel_of


def blank_cells(src, dst, blanks):
    """Copy the wide CSV ``src`` to ``dst`` with the ``{date: [symbol, ...]}``
    cells left empty."""
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for sym in blanks.get(cells[0], ()):
            cells[header.index(sym)] = ""
        out.append(",".join(cells))
    dst.write_text("\n".join(out) + "\n")
    return dst


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_field_over_the_csv_limit_exits_3(tmp_path, capsys, quote):
    f = tmp_path / "long_field.csv"
    f.write_text(f"date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,{quote}{'7' * 200_000}{quote},2.5\n")
    args = ["select", "--start", "2020-01-01", "--end", "2020-01-02", "--prices", str(f)]
    assert main(args) == 3
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"data error: line 3: field longer than {limit} characters: '77777777777777777777'...\n"
    )


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
def test_hurst_field_over_the_csv_limit_exits_3(tmp_path, capsys, quote):
    f = tmp_path / "long_field.csv"
    f.write_text(f"A\n{quote}{'7' * 200_000}{quote}\n1.0\n")
    assert main(["hurst", "--input", str(f), "--column", "A"]) == 3
    limit = csv.field_size_limit()
    assert capsys.readouterr().err == (
        f"data error: line 2: field longer than {limit} characters: '77777777777777777777'...\n"
    )


def not_utf8(src, dst, kind):
    """Write the wide CSV ``src`` to ``dst`` in a way that is not UTF-8, and
    return the line and byte of its first fault."""
    text = src.read_text()
    if kind == "latin1_header":
        dst.write_bytes(text.replace("A1", "A1\u00e9", 1).encode("latin-1"))
        return 1, "0xe9"
    if kind == "utf16":
        dst.write_bytes(text.encode("utf-16"))
        return 1, "0xff"
    # one Latin-1 byte on line 2001, long past the first chunk any reader
    # decodes: the file's first 2000 lines are over 400 kB
    lines = text.split("\n")
    lines[2000] = lines[2000].replace(",", ",\u00e9", 1)
    data = "\n".join(lines).encode("latin-1")
    assert data.index(b"\xe9") > 400_000
    dst.write_bytes(data)
    return 2001, "0xe9"


@pytest.mark.parametrize("kind", ["latin1_header", "late_byte", "utf16"])
@pytest.mark.parametrize(
    "command",
    [
        ["select", "--start", "2015-01-02", "--end", "2015-06-30", "--prices"],
        ["backtest", "--benchmark", "MKT", "--output", "report.json", "--prices"],
        ["hurst", "--symbol", "A2", "--input"],
        ["hurst", "--column", "A2", "--input"],
    ],
    ids=["select", "backtest", "hurst_symbol", "hurst_column"],
)
def test_file_not_utf8_exits_3(fixture_csv, tmp_path, monkeypatch, capsys, kind, command):
    monkeypatch.chdir(tmp_path)
    f = tmp_path / "prices.csv"
    line, byte = not_utf8(fixture_csv, f, kind)
    assert main([*command, str(f)]) == 3
    assert capsys.readouterr().err == f"data error: {f}: line {line}: not UTF-8 at byte {byte}\n"
    assert not (tmp_path / "report.json").exists()


class TestIngestLong:
    def test_three_rows_one_symbol(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "date,symbol,adj_close\n"
            "2020-01-01,SPY,100.0\n2020-01-02,SPY,101.5\n2020-01-03,SPY,99.25\n"
        )
        panel = ingest_prices(f)
        assert panel.symbols == ("SPY",)
        assert panel.dates == ("2020-01-01", "2020-01-02", "2020-01-03")
        np.testing.assert_array_equal(panel.prices, [[100.0, 101.5, 99.25]])

    def test_interleaved_symbols_sorted(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "date,symbol,adj_close\n"
            "2020-01-02,B,2.0\n2020-01-01,A,1.0\n2020-01-01,B,1.9\n2020-01-02,A,1.1\n"
        )
        panel = ingest_prices(f)
        assert panel.symbols == ("A", "B")
        assert panel.dates == ("2020-01-01", "2020-01-02")
        np.testing.assert_array_equal(panel.prices, [[1.0, 1.1], [1.9, 2.0]])

    def test_zero_price_names_date_and_symbol(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "date,symbol,adj_close\n2020-01-01,XLF,10.0\n2020-01-02,XLF,0.0\n"
        )
        with pytest.raises(ValidationError, match="XLF.*2020-01-02"):
            ingest_prices(f)

    def test_duplicate_observation(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "date,symbol,adj_close\n2020-01-01,A,1.0\n2020-01-01,A,1.1\n2020-01-02,A,1.2\n"
        )
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_prices(f)

    def test_malformed_row_names_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,symbol,adj_close\n2020-01-01,A,1.0\n2020-01-02,A,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_prices(f)

    def test_missing_price_dropped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "date,symbol,adj_close\n2020-01-01,A,1.0\n2020-01-02,A,\n2020-01-03,A,1.2\n"
        )
        panel = ingest_prices(f)
        assert panel.dates == ("2020-01-01", "2020-01-03")
        np.testing.assert_array_equal(panel.prices, [[1.0, 1.2]])

    def test_single_row_symbol_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,symbol,adj_close\n2020-01-01,A,1.0\n")
        with pytest.raises(ValidationError, match="A"):
            ingest_prices(f)


class TestIngestWide:
    def test_wide_multi_symbol(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.2\n")
        panel = ingest_prices(f)
        assert panel.symbols == ("AAA", "BBB")
        np.testing.assert_array_equal(panel.prices, [[1.0, 1.1], [2.0, 2.2]])

    def test_wide_twenty_five_symbols(self, tmp_path):
        symbols = [f"S{i:02d}" for i in range(25)]
        rows = ["date," + ",".join(symbols)]
        for d in ("2020-01-01", "2020-01-02", "2020-01-03"):
            rows.append(d + "," + ",".join("10.0" for _ in symbols))
        f = tmp_path / "w25.csv"
        f.write_text("\n".join(rows) + "\n")
        panel = ingest_prices(f)
        assert panel.symbols == tuple(symbols)
        assert panel.prices.shape == (25, 3)

    def test_missing_cell_dropped_per_symbol(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text(
            "date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,,2.2\n2020-01-03,1.2,2.3\n"
        )
        panel = ingest_prices(f)
        assert panel.dates == ("2020-01-01", "2020-01-02", "2020-01-03")
        np.testing.assert_array_equal(panel.prices, [[1.0, np.nan, 1.2], [2.0, 2.2, 2.3]])

    def test_duplicate_date_rejected(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("date,AAA\n2020-01-01,1.0\n2020-01-01,1.1\n2020-01-02,1.2\n")
        with pytest.raises(ValidationError, match="duplicate date"):
            ingest_prices(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("time,AAA\n2020-01-01,1.0\n")
        with pytest.raises(ParseError, match="header"):
            ingest_prices(f)

    def test_bad_date_names_line(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("date,AAA\n2020-01-01,1.0\nnot-a-date,1.1\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_prices(f)

    def test_round_trip_exact(self, tmp_path, universe):
        out = tmp_path / "roundtrip.csv"
        write_prices_wide(out, universe.prices)
        back = ingest_prices(out)
        want = panel_of(universe.prices)
        assert back.symbols == want.symbols == tuple(p.symbol for p in universe.prices)
        assert back.dates == want.dates == universe.prices[0].dates
        assert back.prices.tobytes() == want.prices.tobytes()

    def test_byte_order_mark_ignored(self, fixture_csv, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + fixture_csv.read_bytes())
        got, want = ingest_prices(bom), ingest_prices(fixture_csv)
        assert (got.symbols, got.dates) == (want.symbols, want.dates)
        assert got.prices.tobytes() == want.prices.tobytes()

    def test_duplicate_symbols_not_written(self, tmp_path, universe):
        out = tmp_path / "dup.csv"
        with pytest.raises(ValidationError, match="symbols are not sorted and distinct"):
            write_prices_wide(out, universe.prices[:2] + universe.prices[:1])
        assert not out.exists()

    @pytest.mark.parametrize(
        "symbol,dates,message",
        [
            ("A", ("2020-1-8", "2020-1-9", "2020-1-10"), "A: date '2020-1-8' is not a YYYY-MM-DD string"),
            ("A", ("2020-01-08", "20200109", "2020-01-10"), "A: date '20200109' is not a YYYY-MM-DD string"),
            ("A", ("2020-01-08", None, "2020-01-10"), "A: date None is not a YYYY-MM-DD string"),
            (" A ", ("2020-01-08", "2020-01-09", "2020-01-10"), "' A ': symbol is empty or has surrounding whitespace"),
            ("", ("2020-01-08", "2020-01-09", "2020-01-10"), "'': symbol is empty or has surrounding whitespace"),
        ],
        ids=["unpadded_dates", "basic_date", "not_a_string", "padded_symbol", "empty_symbol"],
    )
    def test_series_that_would_not_read_back_not_written(self, tmp_path, symbol, dates, message):
        # ingest reads dates as YYYY-MM-DD and strips symbols, so such a
        # file would misorder its dates or not read back as written
        series = [
            PriceSeries("B", ("2020-01-08", "2020-01-09", "2020-01-10"), np.array([1.0, 2.0, 3.0])),
            PriceSeries(symbol, dates, np.array([4.0, 5.0, 6.0])),
        ]
        out = tmp_path / "bad.csv"
        with pytest.raises(ValidationError) as exc:
            write_prices_wide(out, series)
        assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "symbols", [(), ("Symbol", "adj_close")], ids=["no_series", "long_header"]
    )
    def test_header_that_would_not_read_as_wide_not_written(self, tmp_path, symbols):
        # "date" alone is no layout, and "date,Symbol,adj_close" reads as
        # the long one
        days = ("2020-01-08", "2020-01-09", "2020-01-10")
        series = [PriceSeries(s, days, np.array([1.0, 2.0, 3.0])) for s in symbols]
        out = tmp_path / "bad.csv"
        header = ["date", *symbols]
        with pytest.raises(ValidationError) as exc:
            write_prices_wide(out, series)
        assert str(exc.value) == f"header {header} would not read back as the wide layout"
        assert not out.exists()


class TestCmdHurst:
    def test_symbol_json(self, fixture_csv, capsys):
        assert main(["hurst", "--input", str(fixture_csv), "--symbol", "A1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"h", "h_err", "n_scales", "clamped"}
        assert 0.0 < doc["h"] < 1.0
        assert doc["n_scales"] >= 3

    def test_column_of_fbm_path(self, tmp_path, capsys):
        path = generate_fbm(0.3, 1024, 1.0, 4)
        f = tmp_path / "series.csv"
        f.write_text("value\n" + "\n".join(repr(float(v)) for v in path) + "\n")
        assert main(["hurst", "--input", str(f), "--column", "value"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.15 < doc["h"] < 0.45

    def test_column_after_byte_order_mark(self, tmp_path, capsys):
        text = "value\n" + "\n".join(repr(float(v)) for v in generate_fbm(0.3, 256, 1.0, 4))
        outs = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            f = tmp_path / name
            f.write_bytes(prefix + text.encode())
            assert main(["hurst", "--input", str(f), "--column", "value"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_column_header_cells_stripped(self, tmp_path, capsys):
        # the header ingest reads as date,value: --column value names it
        values = generate_fbm(0.3, 256, 1.0, 4)
        outs = []
        for name, header in (("plain.csv", "date,value"), ("spaced.csv", "date, value ")):
            f = tmp_path / name
            rows = (f"2020-01-{k % 28 + 1:02d},{v!r}" for k, v in enumerate(values.tolist()))
            f.write_text(header + "\n" + "\n".join(rows) + "\n")
            assert main(["hurst", "--input", str(f), "--column", "value"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_missing_column_exits_3_naming_the_available_ones(self, tmp_path, capsys):
        f = tmp_path / "series.csv"
        f.write_text("a,b\n1.0,2.0\n")
        assert main(["hurst", "--input", str(f), "--column", "NOPE"]) == 3
        assert capsys.readouterr().err == "data error: column 'NOPE' not found; available: ['a', 'b']\n"

    def test_bad_value_line_counts_blank_records(self, tmp_path, capsys):
        f = tmp_path / "series.csv"
        f.write_text("value\n1.0\n\nabc\n")
        assert main(["hurst", "--input", str(f), "--column", "value"]) == 3
        assert "line 4: bad value 'abc'" in capsys.readouterr().err

    @staticmethod
    def abc_records(quoted: bool):
        """200 records ``i,b,2i`` under the header ``a,b,c``, ``b`` a random
        walk; with ``quoted`` the first record's ``a`` is quoted, so the file
        is read by ``csv.reader`` from its first chunk on."""
        rng = np.random.default_rng(5)
        b = 1000.0 + np.cumsum(rng.normal(size=200))
        rows = [f"{i},{v!r},{2 * i}" for i, v in enumerate(b.tolist())]
        if quoted:
            rows[0] = '"0"' + rows[0][1:]
        return rows, b

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize(
        "record, width", [("100,1100", 2), ("100,1100,200,7", 4)], ids=["short", "long"]
    )
    def test_column_ragged_record_exits_3_naming_its_line(self, tmp_path, capsys, quoted, record, width):
        # the record rule of price files: a short record's next field is not
        # the column's value, and a long record is no more welcome
        rows, b = self.abc_records(quoted)
        f = tmp_path / "abc.csv"
        f.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        assert main(["hurst", "--input", str(f), "--column", "b"]) == 0
        est = estimate_hurst(b)
        assert json.loads(capsys.readouterr().out) == {
            "h": est.h, "h_err": est.h_err, "n_scales": est.n_scales, "clamped": est.clamped
        }
        rows[100] = record
        f.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        assert main(["hurst", "--input", str(f), "--column", "b"]) == 3
        assert capsys.readouterr().err == f"data error: line 102: expected 3 columns, got {width}\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_column_non_finite_value_exits_3_naming_its_line(self, tmp_path, capsys, cell):
        rows, _ = self.abc_records(False)
        rows[50] = f"50,{cell},100"
        f = tmp_path / "abc.csv"
        f.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        assert main(["hurst", "--input", str(f), "--column", "b"]) == 3
        assert capsys.readouterr().err == f"data error: line 52: non-finite value {cell!r}\n"

    def test_column_quoted_cell_with_a_comma_is_one_value(self, tmp_path, capsys):
        rows, _ = self.abc_records(False)
        outs = []
        for name, label in (("plain.csv", "x"), ("quoted.csv", '"x, y"')):
            f = tmp_path / name
            f.write_text("a,b,c\n" + "\n".join(label + row[row.index(","):] for row in rows) + "\n")
            assert main(["hurst", "--input", str(f), "--column", "b"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("symbol", ["MKT", "A1"])
    def test_column_of_a_price_file_is_its_symbol(self, fixture_csv, capsys, symbol):
        assert main(["hurst", "--input", str(fixture_csv), "--symbol", symbol]) == 0
        by_symbol = capsys.readouterr().out
        assert main(["hurst", "--input", str(fixture_csv), "--column", symbol]) == 0
        assert capsys.readouterr().out == by_symbol

    def test_symbol_with_blank_cells_uses_its_observed_prices(
        self, fixture_csv, universe, tmp_path, capsys
    ):
        a1 = universe.prices[0]
        assert a1.symbol == "A1"
        gaps = (3, 64, 65, 700, 2519)
        sparse = blank_cells(
            fixture_csv, tmp_path / "sparse.csv", {a1.dates[t]: ["A1"] for t in gaps}
        )
        assert main(["hurst", "--input", str(sparse), "--symbol", "A1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        est = estimate_hurst(np.delete(a1.prices, gaps))
        assert (doc["h"], doc["h_err"]) == (est.h, est.h_err)
        assert doc["h"] != estimate_hurst(a1.prices).h  # the gaps matter

    def test_symbol_gaps_inside_its_history_named_on_stderr(
        self, fixture_csv, universe, tmp_path, capsys
    ):
        # the closes are joined across the gap, as before, and the dates it
        # joins across are named; a blank after its last close is no gap
        a1 = universe.prices[0]
        interior = range(1000, 1200)
        blanks = [*interior, len(a1.dates) - 1]
        gapped = blank_cells(fixture_csv, tmp_path / "gapped.csv", {a1.dates[t]: ["A1"] for t in blanks})
        assert main(["hurst", "--input", str(gapped), "--symbol", "A1"]) == 0
        out, err = capsys.readouterr()
        est = estimate_hurst(np.delete(a1.prices, blanks))
        assert json.loads(out) == {"h": est.h, "h_err": est.h_err, "n_scales": est.n_scales,
                                   "clamped": est.clamped}
        named = ", ".join(a1.dates[t] for t in interior)
        assert err == f"joined across (dates with no A1 price inside its history): {named}\n"
        assert main(["hurst", "--input", str(fixture_csv), "--symbol", "A1"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_symbol_exits_3(self, fixture_csv, capsys):
        assert main(["hurst", "--input", str(fixture_csv), "--symbol", "NOPE"]) == 3
        assert "NOPE" in capsys.readouterr().err


class TestCmdSelect:
    def test_select_json_deterministic(self, fixture_csv, universe, tmp_path, capsys):
        start, end = universe.prices[0].dates[0], universe.prices[0].dates[125]
        args = [
            "select", "--prices", str(fixture_csv),
            "--start", start, "--end", end, "--horizon-days", "126",
        ]
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["schema_version"] == 1
        assert doc["spreads"], "expected selected spreads on the fixture window"
        for s in doc["spreads"]:
            assert s["hurst"] + s["hurst_err"] < 0.5

    def test_symbols_starting_on_different_days_drop_a_date_and_a_symbol(
        self, fixture_csv, tmp_path, capsys
    ):
        # A1 lacks the window's first day and every other symbol its second:
        # only A1 prices 2015-01-05, so that date drops, and then A1, which
        # lacks 2015-01-02; select runs as on a file without both
        header = fixture_csv.read_text().split("\n", 1)[0].split(",")
        others = [s for s in header[1:] if s != "A1"]
        staggered = blank_cells(
            fixture_csv,
            tmp_path / "staggered.csv",
            {"2015-01-02": ["A1"], "2015-01-05": others},
        )
        window = ["--start", "2015-01-02", "--end", "2015-06-30"]
        assert main(["select", "--prices", str(staggered), *window]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "dropped dates (priced for at most half of the symbols in [2015-01-02, 2015-06-30]): "
            "2015-01-05\n"
            "dropped (not priced on every date in [2015-01-02, 2015-06-30]): A1\n"
        )
        rows = [line.split(",") for line in fixture_csv.read_text().splitlines()]
        k = rows[0].index("A1")
        without = tmp_path / "without_a1.csv"
        without.write_text(
            "".join(",".join(r[:k] + r[k + 1:]) + "\n" for r in rows if r[0] != "2015-01-05")
        )
        assert main(["select", "--prices", str(without), *window]) == 0
        assert capsys.readouterr() == (captured.out, "")
        assert "A1" not in captured.out

    @pytest.mark.parametrize(
        "drop, priced",
        [("", ["MKT"]), ("MKT", ["A1", "A2", "A3", "B1", "B2"])],
        ids=["one_of_eleven", "half_of_ten"],
    )
    def test_date_priced_by_at_most_half_is_dropped(
        self, fixture_csv, tmp_path, capsys, drop, priced
    ):
        # a 2015-01-03 row priced by at most half of the symbols drops that
        # date, not the symbols without it: select gives the bytes of the
        # file without that row
        rows = [line.split(",") for line in fixture_csv.read_text().splitlines()]
        rows = [[cell for cell, s in zip(r, rows[0]) if s != drop] for r in rows]
        stray = ["2015-01-03"] + ["100.0" if s in priced else "" for s in rows[0][1:]]
        k = next(i for i, r in enumerate(rows) if r[0] == "2015-01-02") + 1
        base, extra = tmp_path / "base.csv", tmp_path / "stray_date.csv"
        base.write_text("".join(",".join(r) + "\n" for r in rows))
        extra.write_text("".join(",".join(r) + "\n" for r in rows[:k] + [stray] + rows[k:]))
        window = ["--start", "2015-01-02", "--end", "2015-06-30"]
        assert main(["select", "--prices", str(extra), *window]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "dropped dates (priced for at most half of the symbols in [2015-01-02, 2015-06-30]): "
            "2015-01-03\n"
        )
        assert main(["select", "--prices", str(base), *window]) == 0
        assert capsys.readouterr() == (captured.out, "")

    def test_symbol_missing_a_window_day_is_dropped(self, fixture_csv, tmp_path, capsys):
        # B1 lacks one day inside the window: select runs on the other
        # symbols, as on a file without B1, and names B1 on stderr
        gap = blank_cells(fixture_csv, tmp_path / "gap.csv", {"2015-03-02": ["B1"]})
        window = ["--start", "2015-01-02", "--end", "2015-06-30"]
        assert main(["select", "--prices", str(gap), *window]) == 0
        captured = capsys.readouterr()
        assert captured.err == "dropped (not priced on every date in [2015-01-02, 2015-06-30]): B1\n"
        rows = [line.split(",") for line in fixture_csv.read_text().splitlines()]
        k = rows[0].index("B1")
        without = tmp_path / "without_b1.csv"
        without.write_text("".join(",".join(r[:k] + r[k + 1:]) + "\n" for r in rows))
        assert main(["select", "--prices", str(without), *window]) == 0
        assert capsys.readouterr() == (captured.out, "")
        assert "B1" not in captured.out

    def test_window_of_one_date_exits_3(self, fixture_csv, capsys):
        args = ["select", "--prices", str(fixture_csv), "--start", "2015-01-02", "--end", "2015-01-02"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: fewer than 2 dates have prices in [2015-01-02, 2015-01-02]\n"

    def test_fewer_than_two_fully_priced_symbols_exits_3(self, tmp_path, capsys):
        # B and C each lack a different day that the other two price
        f = tmp_path / "gaps.csv"
        days = [f"2020-01-{d:02d}" for d in range(1, 11)]
        f.write_text("date,A,B,C\n" + "".join(
            f"{d},{1 + t},{'' if t == 4 else 2 + t},{'' if t == 5 else 3 + t}\n"
            for t, d in enumerate(days)
        ))
        args = ["select", "--prices", str(f), "--start", days[0], "--end", days[-1]]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err.endswith(
            "data error: fewer than 2 symbols are priced on every date in [2020-01-01, 2020-01-10]\n"
        )
        assert captured.out == ""

    def test_window_too_short_for_a_hurst_fit_exits_3(self, fixture_csv, capsys):
        # 40 trading days give 39 returns; a Hurst fit needs 63
        args = ["select", "--prices", str(fixture_csv), "--start", "2015-01-02", "--end", "2015-02-26"]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == "data error: need at least 63 returns for a Hurst fit, got 39\n"
        assert captured.out == ""

    def test_output_file_holds_the_stdout_bytes(self, fixture_csv, tmp_path, capsys):
        args = ["select", "--prices", str(fixture_csv), "--start", "2015-01-02", "--end", "2015-06-30"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "select.json"
        assert main(args + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    def test_bad_range_exits_3(self, fixture_csv, capsys):
        args = [
            "select", "--prices", str(fixture_csv),
            "--start", "1990-01-01", "--end", "1990-06-01",
        ]
        assert main(args) == 3

    @pytest.mark.parametrize(
        "start,end",
        [
            ("2015-01-02", "2015-6-30"),
            ("2015-1-2", "2015-06-30"),
            ("2015-01-02", "2015-06-31"),
            ("yesterday", "2015-06-30"),
            ("2015-06-30", "2015-01-02"),
        ],
        ids=["unpadded_end", "unpadded_start", "no_such_day", "not_a_date", "reversed"],
    )
    def test_bad_window_exits_2(self, fixture_csv, capsys, start, end):
        args = ["select", "--prices", str(fixture_csv), "--start", start, "--end", end]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert captured.out == ""

    def test_bad_hurst_cap_exits_2(self, fixture_csv):
        args = [
            "select", "--prices", str(fixture_csv),
            "--start", "2015-01-02", "--end", "2015-12-31", "--hurst-cap", "0.9",
        ]
        assert main(args) == 2


class TestCmdBacktest:
    def test_report_written(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        equity = tmp_path / "equity.csv"
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--output", str(out), "--equity-csv", str(equity),
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["metrics"]["market_neutrality"] == pytest.approx(
            1.0 - abs(doc["metrics"]["benchmark_correlation"])
        )
        assert len(doc["windows"]) == 19
        summary = capsys.readouterr().out
        assert "sharpe" in summary and "max drawdown" in summary
        lines = equity.read_text().strip().splitlines()
        assert lines[0] == "date,equity"
        assert len(lines) == 1 + 19 * 126

    @pytest.mark.parametrize("test_days", [126, 21])
    def test_streamed_report_is_report_to_json(self, fixture_csv, tmp_path, test_days):
        out = tmp_path / "report.json"
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--test-days", str(test_days), "--output", str(out),
        ]
        assert main(args) == 0
        cfg = BacktestConfig(benchmark_symbol="MKT", test_days=test_days)
        report = run_walk_forward(ingest_prices(fixture_csv), cfg)
        assert out.read_bytes() == to_json(report_to_dict(report, cfg)).encode()

    def test_output_in_missing_directory_exits_3(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        args = ["backtest", "--prices", str(fixture_csv), "--benchmark", "MKT", "--output", str(out)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_train_days_below_minimum_exits_2(self, fixture_csv, tmp_path, capsys):
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--train-days", "10", "--output", str(tmp_path / "r.json"),
        ]
        assert main(args) == 2
        assert "train" in capsys.readouterr().err

    def test_zero_test_days_exits_2(self, fixture_csv, tmp_path, capsys):
        # the test window is the selection horizon, bounded in one place
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--test-days", "0", "--output", str(tmp_path / "r.json"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == "configuration error: horizon must be at least 1 day, got 0\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--capital", "inf", "initial_capital"),
            ("--leverage", "inf", "leverage"),
            ("--commission-per-share", "nan", "commission_per_share"),
            ("--overnight-rate", "nan", "overnight_rate_annual"),
        ],
    )
    def test_non_finite_setting_exits_2(self, fixture_csv, tmp_path, capsys, flag, value, field):
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            flag, value, "--output", str(tmp_path / "r.json"),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"{field} must be finite" in err

    @pytest.mark.parametrize(
        "settings,message",
        [
            # the share count of A1 overflows in sizing
            (["--leverage", "1e308"], "window 0: A1: share count inf is not finite"),
            # one window: the marked gross value overflows
            (
                ["--capital", "1e307", "--leverage", "20", "--test-days", "2394"],
                r"window 0: marked equity is not finite; largest position A3, 4\.17\d*e\+305 shares",
            ),
            # several windows: the first one's marks, not an exhausted capital
            (
                ["--capital", "1e307", "--leverage", "20"],
                r"window 0: marked equity is not finite; largest position \w+, ",
            ),
            # the compounded return is finite, its annualizing power is not
            (
                ["--train-days", "2518", "--test-days", "1", "--leverage", "100000", "--no-reinvest"],
                "reinvested annual return is not finite: inf$",
            ),
            # the compounded return itself overflows
            (
                ["--train-days", "64", "--test-days", "1", "--leverage", "1000", "--no-reinvest"],
                "cumulative return is not finite: inf$",
            ),
            # the compounded return is finite, the capital times it is not
            (
                ["--leverage", "1e155", "--no-reinvest", "--test-days", "1197"],
                "window 1: compounded equity is not finite$",
            ),
        ],
        ids=["sizing", "one-window-marks", "several-windows", "annual-return", "cumulative-return", "drawdown-curve"],
    )
    def test_overflow_exits_4(self, fixture_csv, tmp_path, capsys, settings, message):
        out = tmp_path / "r.json"
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            *settings, "--output", str(out),
        ]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:")
        assert re.search(message, err), err
        assert not out.exists()

    def test_exhausted_capital_exits_4(self, fixture_csv, tmp_path, capsys):
        # reinvested, a window that loses more than its capital leaves the
        # next one nothing to invest
        out = tmp_path / "r.json"
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--leverage", "400", "--output", str(out),
        ]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: capital exhausted or overflowed before window 3: -")
        assert not out.exists()

    def test_one_window_summary_reads_n_a(self, fixture_csv, tmp_path, capsys):
        # the spread of window returns needs two windows
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--test-days", "2394", "--output", str(tmp_path / "r.json"),
        ]
        assert main(args) == 0
        summary = dict(
            re.fullmatch(r"(.+?)  +(\S+)", line).groups()
            for line in capsys.readouterr().out.splitlines()
        )
        assert summary["windows"] == "1"
        for key in ("annual volatility", "sharpe", "benchmark correlation", "market neutrality"):
            assert summary[key] == "n/a"
        assert summary["cumulative return"].endswith("%")

    def test_total_loss_floors_annual_return(self, fixture_csv, tmp_path):
        # without reinvestment the compounded equity can end below zero,
        # where the reinvested annual return has no real value
        out = tmp_path / "r.json"
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--leverage", "100", "--no-reinvest", "--output", str(out),
        ]
        assert main(args) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["cumulative_return"] < -1.0
        assert metrics["annual_return_reinvested"] == -1.0

    def test_missing_benchmark_exits_3(self, fixture_csv, tmp_path, capsys):
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "SPY",
            "--output", str(tmp_path / "r.json"),
        ]
        assert main(args) == 3
        assert "SPY" in capsys.readouterr().err

    @pytest.mark.parametrize("test_days", [126, 21])
    def test_late_listed_symbol_joins_once_priced(self, fixture_csv, universe, tmp_path, test_days):
        # N2 lists 130 days late: the run walks every date, and the windows
        # that train over N2's missing days are the run without N2
        dates = universe.prices[0].dates
        late = blank_cells(fixture_csv, tmp_path / "late.csv", {d: ["N2"] for d in dates[:130]})
        rows = [line.split(",") for line in fixture_csv.read_text().splitlines()]
        k = rows[0].index("N2")
        without = tmp_path / "without.csv"
        without.write_text("".join(",".join(r[:k] + r[k + 1 :]) + "\n" for r in rows))
        runs = []
        for prices in (late, without):
            out = tmp_path / f"{prices.stem}.json"
            args = [
                "backtest", "--prices", str(prices), "--benchmark", "MKT",
                "--test-days", str(test_days), "--output", str(out),
            ]
            assert main(args) == 0
            runs.append(json.loads(out.read_text())["windows"])
        late_run, without_run = runs
        # the first window trains from the first date and enters at its 126th
        assert len(late_run) == (len(dates) - 126) // test_days == {126: 19, 21: 114}[test_days]
        assert late_run[0]["start_date"] == dates[125]
        before = 129 // test_days + 1  # windows training over N2's missing days
        assert before == {126: 2, 21: 7}[test_days]
        assert not any("N2" in w["shares"] for w in late_run[:before])
        assert late_run[:before] == without_run[:before]
        assert any("N2" in w["shares"] for w in late_run[before:])

    def test_byte_identical_reports(self, fixture_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            args = [
                "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
                "--output", str(out),
            ]
            assert main(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCmdMakeFixture:
    def test_fixture_generated_and_ingestable(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert main(["make-fixture", "--out", str(out), "--days", "300", "--seed", "5"]) == 0
        panel = ingest_prices(out)
        assert len(panel.symbols) == 11  # 10 assets + MKT benchmark
        assert set(panel.symbols) >= {"A1", "B1", "MKT"}
        assert "planted pairs" in capsys.readouterr().out

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["make-fixture", "--out", str(a), "--days", "200", "--seed", "9"]) == 0
        assert main(["make-fixture", "--out", str(b), "--days", "200", "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "sizes",
        [
            ["--pairs", "-1", "--assets", "10"],
            ["--days", "-3"],
            ["--days", "0"],
            ["--assets", "0", "--pairs", "0"],
            ["--assets", "1", "--pairs", "0"],
            ["--pairs", "6"],
            ["--assets", "5", "--pairs", "3"],
        ],
        ids=[
            "negative-pairs", "negative-days", "zero-days", "zero-assets", "one-asset",
            "too-many-pairs", "pairs-exceed-assets",
        ],
    )
    def test_bad_sizes_exit_2_without_writing(self, sizes, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert main(["make-fixture", "--out", str(out), *sizes]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["backtest", "--benchmark", "MKT", "--output", "r.json", "--prices"],
        ["select", "--start", "2015-01-02", "--end", "2015-06-30", "--prices"],
        ["hurst", "--column", "x", "--input"],
    ],
    ids=["backtest", "select", "hurst"],
)
def test_missing_input_file_exits_3(args, tmp_path, capsys):
    missing = tmp_path / "nonexistent.csv"
    assert main(args + [str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(missing) in err


def test_import_loads_no_logging():
    # the package logs nothing, so importing the CLI in a fresh interpreter
    # leaves ``logging`` unloaded, unless numpy loaded it first
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy;"
        " before = 'logging' in sys.modules; import fractalport.cli;"
        " print(before, 'logging' in sys.modules)"
    )
    src = str(Path(fractalport.__file__).parents[1])
    before, after = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout.split()
    if before == "True":
        pytest.skip("numpy imports logging")
    assert after == "False"
