"""Market-neutral long-short portfolios from beta-neutral pair spreads.

Pipeline: window returns -> pair candidates from per-asset moments ->
Hurst-screened fractal-Kelly selection -> horizon-rescaled covariance
optimization -> asset legs and share counts -> walk-forward backtest.
"""
from fractalport.backtest import (
    BacktestConfig,
    BacktestReport,
    WindowResult,
    compute_metrics,
    max_drawdown,
    position_sizing,
    run_walk_forward,
)
from fractalport.errors import (
    DataError,
    DegenerateSeriesError,
    DegenerateVolatilityError,
    EmptyPortfolioError,
    FractalPortError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    ParseError,
    SingularMatrixError,
    ValidationError,
)
from fractalport.fbm import (
    HurstEstimate,
    estimate_hurst,
)
from fractalport.io import (
    ingest_prices,
    report_to_dict,
    write_prices_wide,
)
from fractalport.optimizer import (
    apply_leverage,
    compose_legs,
    covariance_matrix,
    rescale_covariance,
    solve_weights,
)
from fractalport.selection import (
    Candidates,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
    select_spreads,
)
from fractalport.spreads import (
    PricePanel,
    PriceSeries,
    build_panel,
    spread_returns,
    window_returns,
)
from fractalport.synthetic import SyntheticUniverse, make_synthetic_universe

__version__ = "0.1.0"
