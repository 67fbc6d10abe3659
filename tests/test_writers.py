"""The CSV writers against ``csv.writer`` references built here.

``write_prices_wide`` and ``write_equity_csv`` write each row as one
string; the references write the same rows through ``csv.writer``, one
field at a time, and the bytes must be equal. Series the wide writer
refuses are one table: each refusal's exact message, and no file.
"""
import csv
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.cli import main
from fractalport.errors import ValidationError
from fractalport.io import ingest_prices, write_prices_wide
from fractalport.spreads import PriceSeries, build_panel
from panels import panel_of


def reference_prices_wide(path, series):
    ordered = sorted(series, key=lambda p: p.symbol)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *(p.symbol for p in ordered)])
        for t, day in enumerate(ordered[0].dates):
            writer.writerow([day, *(repr(float(p.prices[t])) for p in ordered)])


def reference_equity_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "equity"])
        for w in report.windows:
            for day, value in zip(w.dates[1:], w.daily_equity[1:]):
                writer.writerow([day, repr(float(value))])


# csv must quote a symbol holding a comma or a double quote
symbols = st.text("ABQT,\" ", min_size=1, max_size=4).filter(lambda s: s == s.strip())
prices = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def wide_series(draw):
    names = draw(st.lists(symbols, min_size=1, max_size=4, unique=True))
    n_days = draw(st.integers(2, 6))
    start = draw(st.dates(min_value=date(1900, 1, 1), max_value=date(2100, 1, 1)))
    days = tuple((start + timedelta(days=3 * t)).isoformat() for t in range(n_days))
    return [
        PriceSeries(name, days, np.array(draw(st.lists(prices, min_size=n_days, max_size=n_days))))
        for name in names
    ]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


@settings(max_examples=200, deadline=None)
@given(wide_series())
@example(
    [
        PriceSeries(name, ("2020-01-02", "2020-01-03"), np.array([1.5, 5e-324]))
        for name in ("A,B", 'Q"T', "Z")
    ]
)
def test_prices_wide_matches_csv_writer(out_dir, series):
    got, want = out_dir / "got.csv", out_dir / "want.csv"
    write_prices_wide(got, series)
    reference_prices_wide(want, series)
    assert got.read_bytes() == want.read_bytes()
    back = ingest_prices(got)
    ordered = sorted(series, key=lambda p: p.symbol)
    assert back.symbols == tuple(p.symbol for p in ordered)
    assert back.prices.tobytes() == np.array([p.prices for p in ordered]).tobytes()


def test_round_trip_exact(tmp_path, universe):
    out = tmp_path / "roundtrip.csv"
    write_prices_wide(out, universe.prices)
    back = ingest_prices(out)
    want = panel_of(universe.prices)
    assert back.symbols == want.symbols == tuple(p.symbol for p in universe.prices)
    assert back.dates == want.dates == universe.prices[0].dates
    assert back.prices.tobytes() == want.prices.tobytes()


DAYS = ("2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04")
X = ("X", DAYS[:3], [1.0, 2.0, 3.0])
B = ("B", ("2020-01-08", "2020-01-09", "2020-01-10"), [1.0, 2.0, 3.0])

# (id, (symbol, dates, prices) of each series, message); None stands for
# build_panel's message
REFUSALS = [
    # a NaN is a bad price, not a missing one; the first bad date is named
    *(
        (f"price_{bad}", [("X", DAYS, [100.0, 101.0, bad, bad]), ("A", DAYS, [10.0] * 4)],
         f"X: price {bad} on 2020-01-03 is not finite and positive")
        for bad in (0.0, -1.0, np.nan, np.inf)
    ),
    # one price would otherwise broadcast over every date
    ("one_price", [("X", DAYS[:2], [1.0])], "X: 2 dates vs 1 prices"),
    ("three_prices", [("X", DAYS[:2], [1.0] * 3)], "X: 2 dates vs 3 prices"),
    # left to the panel the writer builds before it opens the file: one
    # check, so one message
    ("duplicate_symbol", [X, X], None),
    ("repeated_date", [("X", ("2020-01-01", "2020-01-03", "2020-01-03"), [1.0, 2.0, 3.0])], None),
    ("reversed_dates", [("X", DAYS[2::-1], [1.0, 2.0, 3.0])], None),
    # the file has one date column: a series on other dates than the first
    # series' would need gaps the writer does not make
    ("shifted", [("Y", DAYS[1:], [1.0] * 3), X], "Y: dates differ from X's"),
    ("shorter", [("Y", DAYS[:2], [1.0] * 2), X], "Y: dates differ from X's"),
    ("longer", [("Y", DAYS, [1.0] * 4), X], "Y: dates differ from X's"),
    # ingest reads dates as YYYY-MM-DD and strips symbols, so such a file
    # would misorder its dates or not read back as written
    ("unpadded_dates", [B, ("A", ("2020-1-8", "2020-1-9", "2020-1-10"), [4.0, 5.0, 6.0])],
     "A: date '2020-1-8' is not a YYYY-MM-DD string"),
    ("basic_date", [B, ("A", ("2020-01-08", "20200109", "2020-01-10"), [4.0, 5.0, 6.0])],
     "A: date '20200109' is not a YYYY-MM-DD string"),
    ("not_a_string", [B, ("A", ("2020-01-08", None, "2020-01-10"), [4.0, 5.0, 6.0])],
     "A: date None is not a YYYY-MM-DD string"),
    ("padded_symbol", [B, (" A ", B[1], [4.0, 5.0, 6.0])], "' A ': symbol is empty or has surrounding whitespace"),
    ("empty_symbol", [B, ("", B[1], [4.0, 5.0, 6.0])], "'': symbol is empty or has surrounding whitespace"),
    # "date" alone is no layout, and "date,Symbol,adj_close" reads as the
    # long one
    ("no_series", [], "header ['date'] would not read back as the wide layout"),
    ("long_header", [("Symbol", *X[1:]), ("adj_close", *X[1:])],
     "header ['date', 'Symbol', 'adj_close'] would not read back as the wide layout"),
]


@pytest.mark.parametrize("rows,message", [pytest.param(*case, id=case_id) for case_id, *case in REFUSALS])
def test_refused_series_write_nothing(tmp_path, rows, message):
    refused = [PriceSeries(symbol, days, np.array(prices)) for symbol, days, prices in rows]
    if message is None:
        with pytest.raises(ValidationError) as want:
            build_panel([p.symbol for p in refused], refused[0].dates, np.array([p.prices for p in refused]))
        message = str(want.value)
    out = tmp_path / "refused.csv"
    with pytest.raises(ValidationError) as exc:
        write_prices_wide(out, refused)
    assert str(exc.value) == message
    assert not out.exists()


@pytest.mark.parametrize("reinvest", [[], ["--no-reinvest"]], ids=["reinvest", "no-reinvest"])
def test_equity_csv_matches_csv_writer(fixture_csv, tmp_path, reinvest):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    args = [
        "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT", "--test-days", "63",
        *reinvest, "--output", str(tmp_path / "r.json"), "--equity-csv", str(got),
    ]
    assert main(args) == 0
    cfg = BacktestConfig(benchmark_symbol="MKT", test_days=63, reinvest=not reinvest)
    reference_equity_csv(want, run_walk_forward(ingest_prices(fixture_csv), cfg))
    assert got.read_bytes() == want.read_bytes()
