"""Golden regression: the walk-forward results of the seed-3 synthetic
universe, pinned in ``golden_seed3.json``.

A refactor that keeps the pipeline's numbers must keep every window's
selected pairs and share counts exactly, and the headline metrics to
``rtol=1e-9``. Two runs of one version agreeing (acceptance 11) does not
show that.
"""
import json
from pathlib import Path

import pytest

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.synthetic import make_synthetic_universe

GOLDEN = json.loads((Path(__file__).parent / "golden_seed3.json").read_text())


@pytest.fixture(scope="module")
def golden_report():
    u = make_synthetic_universe(seed=3)
    return run_walk_forward(u.prices, u.benchmark, BacktestConfig(benchmark_symbol="MKT"))


def test_windows_pinned(golden_report):
    got = [
        {
            "selected": [[s.long_symbol, s.short_symbol] for s in w.selected],
            "shares": w.shares,
        }
        for w in golden_report.windows
    ]
    assert len(got) == len(GOLDEN["windows"])
    for k, (window, want) in enumerate(zip(got, GOLDEN["windows"])):
        assert window == want, f"window {k}"


@pytest.mark.parametrize("metric", ["cumulative_return", "sharpe", "market_neutrality"])
def test_metrics_pinned(golden_report, metric):
    assert getattr(golden_report, metric) == pytest.approx(GOLDEN[metric], rel=1e-9, abs=0)
