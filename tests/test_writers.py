"""The CSV writers against ``csv.writer`` references built here.

``write_prices_wide`` and ``write_equity_csv`` write each row as one
string; the references write the same rows through ``csv.writer``, one
field at a time, and the bytes must be equal.
"""
import csv
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.cli import main
from fractalport.io import ingest_prices, write_prices_wide
from fractalport.spreads import PriceSeries


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
