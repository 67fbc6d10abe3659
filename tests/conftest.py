import pytest

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.io import write_prices_wide
from fractalport.spreads import price_panel
from fractalport.synthetic import make_synthetic_universe


@pytest.fixture(scope="session")
def universe():
    """Synthetic 10-asset universe with 3 planted mean-reverting pairs."""
    return make_synthetic_universe(n_assets=10, n_days=2520, seed=3, n_pairs=3)


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory, universe):
    path = tmp_path_factory.mktemp("data") / "universe.csv"
    write_prices_wide(path, universe.prices + [universe.benchmark])
    return path


@pytest.fixture(scope="session")
def backtest_cfg():
    return BacktestConfig(benchmark_symbol="MKT")


@pytest.fixture(scope="session")
def report(universe, backtest_cfg):
    """Walk-forward report on the synthetic fixture (shared; ~19 windows)."""
    return run_walk_forward(price_panel(universe.prices + [universe.benchmark]), backtest_cfg)
