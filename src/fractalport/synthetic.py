"""Synthetic ETF-like universe with planted mean-reverting pairs.

Used for fixtures and end-to-end validation: every asset loads on one
common market factor, and selected pairs additionally share a
mean-reverting (Ornstein-Uhlenbeck) relative-value component plus a small
structural drift, so the true beta-neutral spread of a planted pair is
anti-persistent by construction. The market factor path is returned as a
benchmark series, which makes portfolio-vs-market correlation directly
measurable.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from itertools import accumulate

import numpy as np

from fractalport.errors import ParameterError
from fractalport.spreads import PriceSeries

__all__ = ["SyntheticUniverse", "make_synthetic_universe"]

# Pair betas: (long-candidate beta, short-candidate beta). Mirrored across
# pairs so the second-order (convexity) exposure of buy-and-hold spread
# positions cancels at the portfolio level.
_PAIR_BETAS = [(1.2, 0.8), (0.8, 1.2), (1.0, 1.0), (1.1, 0.9), (0.9, 1.1)]

# OU mean reversion rate per day (half-life ~2 days) and shock size.
_OU_KAPPA = 0.35
_OU_SIGMA = 0.003
# Structural daily edge of the pair's long leg over the hedged short leg.
_PAIR_DRIFT = 1.5e-4
# Random-walk sector factor shared by the two members of a pair and loaded
# with the same betas as the market, so only the true pairing hedges it out;
# mismatched pairings keep an unhedged walk and look like H ~ 0.5.
_SECTOR_SIGMA = 0.015
# Idiosyncratic daily vol: tight for paired assets, loose for noise assets.
_IDIO_PAIRED = 1e-4
_IDIO_NOISE = 0.015
# Market factor daily drift and vol.
_MARKET_MU = 1e-4
_MARKET_SIGMA = 0.009
# First trading date and the market factor's symbol.
_START = date(2015, 1, 2)
_BENCHMARK_SYMBOL = "MKT"


@dataclass(frozen=True)
class SyntheticUniverse:
    prices: list[PriceSeries]
    benchmark: PriceSeries
    planted_pairs: list[tuple[str, str]]


def _trading_dates(n_days: int) -> tuple[str, ...]:
    """The first ``n_days`` weekdays from ``_START``, as ISO strings."""
    days = np.busday_offset(_START, np.arange(n_days), roll="forward")
    return tuple(days.astype(str).tolist())


def _ou_path(rng: np.random.Generator, n: int) -> np.ndarray:
    # The AR(1) recursion on Python floats, which are cheaper than numpy
    # scalars and give the same bits: the same IEEE multiply and add.
    phi = float(np.exp(-_OU_KAPPA))
    shocks = (_OU_SIGMA * rng.standard_normal(n)).tolist()
    return np.diff(list(accumulate(shocks, lambda u, shock: phi * u + shock, initial=0.0)))


def make_synthetic_universe(
    n_assets: int = 10,
    n_days: int = 2520,
    seed: int = 3,
    n_pairs: int = 3,
) -> SyntheticUniverse:
    """Universe of ``n_assets`` with ``n_pairs`` planted beta-neutral pairs.

    Pair members are named A<k>/B<k>, the remaining assets N<k> carry only
    market exposure plus idiosyncratic noise; the benchmark is MKT. Prices
    are read-only arrays. Deterministic per seed.
    """
    if n_assets < 2:
        raise ParameterError(f"need at least 2 assets, got {n_assets}")
    if n_pairs < 0:
        raise ParameterError(f"planted pair count must be non-negative, got {n_pairs}")
    if n_days < 1:
        raise ParameterError(f"need at least 1 day of returns, got {n_days}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if n_pairs > len(_PAIR_BETAS):
        raise ParameterError(f"at most {len(_PAIR_BETAS)} planted pairs supported")
    if n_assets < 2 * n_pairs:
        raise ParameterError(
            f"{n_assets} assets cannot hold {n_pairs} disjoint pairs"
        )
    rng = np.random.default_rng(seed)
    dates = _trading_dates(n_days + 1)
    market = _MARKET_MU + _MARKET_SIGMA * rng.standard_normal(n_days)

    daily: dict[str, np.ndarray] = {}
    planted: list[tuple[str, str]] = []
    for k in range(n_pairs):
        beta_long, beta_short = _PAIR_BETAS[k]
        ou = _ou_path(rng, n_days)
        sector = _SECTOR_SIGMA * rng.standard_normal(n_days)
        long_sym, short_sym = f"A{k + 1}", f"B{k + 1}"
        daily[long_sym] = (
            beta_long * (market + sector)
            + _PAIR_DRIFT
            + ou
            + _IDIO_PAIRED * rng.standard_normal(n_days)
        )
        daily[short_sym] = (
            beta_short * (market + sector)
            + _IDIO_PAIRED * rng.standard_normal(n_days)
        )
        planted.append((long_sym, short_sym))
    for k in range(n_assets - 2 * n_pairs):
        beta = float(rng.uniform(0.6, 1.4))
        daily[f"N{k + 1}"] = beta * market + _IDIO_NOISE * rng.standard_normal(n_days)

    def to_series(symbol: str, rets: np.ndarray) -> PriceSeries:
        path = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + rets]))
        path.flags.writeable = False
        return PriceSeries(symbol=symbol, dates=dates, prices=path)

    prices = [to_series(sym, daily[sym]) for sym in sorted(daily)]
    benchmark = to_series(_BENCHMARK_SYMBOL, market)
    return SyntheticUniverse(prices=prices, benchmark=benchmark, planted_pairs=planted)
