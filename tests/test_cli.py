"""CSV ingestion, report output and the command-line surface."""
import csv
import json
import re

import numpy as np
import pytest

from fractalport.cli import main
from fractalport.errors import ParseError, ValidationError
from fractalport.fbm import estimate_hurst, generate_fbm
from fractalport.io import ingest_prices, write_prices_wide
from fractalport.spreads import price_panel


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
        want = price_panel(universe.prices)
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
        with pytest.raises(ValidationError, match="duplicate symbols"):
            write_prices_wide(out, universe.prices[:2] + universe.prices[:1])
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

    def test_bad_value_line_counts_blank_records(self, tmp_path, capsys):
        f = tmp_path / "series.csv"
        f.write_text("value\n1.0\n\nabc\n")
        assert main(["hurst", "--input", str(f), "--column", "value"]) == 3
        assert "line 4: bad value 'abc'" in capsys.readouterr().err

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

    def test_max_spreads_keeps_the_first_selected(self, fixture_csv, capsys):
        args = ["select", "--prices", str(fixture_csv), "--start", "2015-01-02", "--end", "2015-06-30"]
        assert main(args) == 0
        uncapped = json.loads(capsys.readouterr().out)["spreads"]
        assert len(uncapped) == 4
        assert main(args + ["--max-spreads", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["spreads"] == uncapped[:2]

    def test_max_spreads_zero_exits_2(self, fixture_csv, capsys):
        args = [
            "select", "--prices", str(fixture_csv),
            "--start", "2015-01-02", "--end", "2015-06-30", "--max-spreads", "0",
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "configuration error: max spreads must be positive, got 0\n"
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

    def test_train_days_below_minimum_exits_2(self, fixture_csv, tmp_path, capsys):
        args = [
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--train-days", "10", "--output", str(tmp_path / "r.json"),
        ]
        assert main(args) == 2
        assert "train" in capsys.readouterr().err

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
        ],
        ids=["sizing", "one-window-marks", "several-windows"],
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
        ],
        ids=["negative-pairs", "negative-days", "zero-days", "zero-assets", "one-asset"],
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
