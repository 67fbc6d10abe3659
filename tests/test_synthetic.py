"""The synthetic universe's calendar and OU path against plain loops.

The references are the obvious per-day loops: ``datetime.date`` steps for
the trading calendar and the AR(1) recursion on numpy scalars for the OU
component. The generator must give the same strings and the same bits.
"""
from datetime import timedelta

import numpy as np
import pytest

from fractalport.synthetic import _OU_KAPPA, _OU_SIGMA, _START, _ou_path, _trading_dates


def reference_trading_dates(n_days):
    out = []
    day = _START
    while len(out) < n_days:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += timedelta(days=1)
    return tuple(out)


def reference_ou_path(rng, n):
    phi = np.exp(-_OU_KAPPA)
    shocks = _OU_SIGMA * rng.standard_normal(n)
    u = np.empty(n + 1)
    u[0] = 0.0
    for t in range(n):
        u[t + 1] = phi * u[t] + shocks[t]
    return np.diff(u)


@pytest.mark.parametrize("n_days", [1, 5, 6, 2521, 7561, 40000])
def test_trading_dates_match_loop(n_days):
    got = _trading_dates(n_days)
    assert got == reference_trading_dates(n_days)
    assert all(type(day) is str for day in got)


@pytest.mark.parametrize("seed", [0, 3, 61, 71])
@pytest.mark.parametrize("n", [1, 2, 126, 2520, 7560])
def test_ou_path_matches_numpy_scalar_loop(seed, n):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _ou_path(rng, n), reference_ou_path(reference_rng, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the same draws consumed: the universe's later draws are unchanged
    assert rng.standard_normal() == reference_rng.standard_normal()
