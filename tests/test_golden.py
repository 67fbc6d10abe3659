"""Golden regression: the walk-forward results of the seed-3 synthetic
universe, pinned in ``golden_seed3.json`` (default windows) and
``golden_seed3_test21.json`` (21-day test windows).

A refactor that keeps the pipeline's numbers must keep every window's
selected pairs and share counts exactly, and the headline metrics to
``rtol=1e-9``. Two runs of one version agreeing (acceptance 11) does not
show that. The 21-day run also pins the sha256 of its report.
"""
import hashlib
import json
from pathlib import Path

import pytest

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.io import report_to_json
from fractalport.spreads import price_panel
from fractalport.synthetic import make_synthetic_universe

GOLDEN = json.loads((Path(__file__).parent / "golden_seed3.json").read_text())


@pytest.fixture(scope="module")
def golden_report():
    u = make_synthetic_universe(seed=3)
    panel = price_panel(u.prices + [u.benchmark])
    return run_walk_forward(panel, BacktestConfig(benchmark_symbol="MKT"))


def assert_windows_match(report, golden):
    """Each window's selected pairs and share counts, exactly."""
    got = [
        {
            "selected": [[s.long_symbol, s.short_symbol] for s in w.selected],
            "shares": w.shares,
        }
        for w in report.windows
    ]
    assert len(got) == len(golden["windows"])
    for k, (window, want) in enumerate(zip(got, golden["windows"])):
        assert window == want, f"window {k}"


def test_windows_pinned(golden_report):
    assert_windows_match(golden_report, GOLDEN)


@pytest.mark.parametrize("metric", ["cumulative_return", "sharpe", "market_neutrality"])
def test_metrics_pinned(golden_report, metric):
    assert getattr(golden_report, metric) == pytest.approx(GOLDEN[metric], rel=1e-9, abs=0)


# 21-day test windows: 114 windows, several to each candidate stack.
GOLDEN_21 = json.loads((Path(__file__).parent / "golden_seed3_test21.json").read_text())
CFG_21 = BacktestConfig(benchmark_symbol="MKT", test_days=21)


@pytest.fixture(scope="module")
def golden_report_21():
    u = make_synthetic_universe(seed=3)
    return run_walk_forward(price_panel(u.prices + [u.benchmark]), CFG_21)


def test_windows_pinned_short_tests(golden_report_21):
    assert_windows_match(golden_report_21, GOLDEN_21)


def test_report_bytes_pinned_short_tests(golden_report_21):
    # every float of the report to its last bit: a numpy or BLAS build that
    # rounds the optimizer's solves differently fails here, not above
    text = report_to_json(golden_report_21, CFG_21)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_21["report_sha256"]
