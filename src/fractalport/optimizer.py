"""Horizon-rescaled covariance and leveraged weight allocation.

Spread returns are treated as synthetic long-only assets. Their daily
covariance is rescaled to the investment horizon through each spread's
Hurst exponent, inverted against the mean-return vector, and the solved
weights are normalized so they sum to the target leverage. Each spread
weight is finally decomposed into per-asset long/short notional legs in
the 1:chi hedge proportion.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from fractalport.errors import (
    EmptyPortfolioError,
    ParameterError,
    SingularMatrixError,
)

__all__ = [
    "RescaledCovariance",
    "covariance_matrix",
    "rescale_covariance",
    "solve_weights",
    "apply_leverage",
    "compose_legs",
]

logger = logging.getLogger(__name__)

# Ridge added before inversion, relative to the mean diagonal element.
RIDGE_LAMBDA = 1e-8
# Condition number beyond which inversion is refused even after the ridge.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class RescaledCovariance:
    matrix: np.ndarray
    horizon_days: int


def covariance_matrix(deltas) -> np.ndarray:
    """Sample covariance (divisor n) of daily spread returns, one spread per row."""
    x = np.asarray(deltas, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ParameterError(f"need a (spreads x days) matrix, got shape {x.shape}")
    xc = x - x.mean(axis=1, keepdims=True)
    cov = (xc @ xc.T) / x.shape[1]
    return (cov + cov.T) / 2.0


def rescale_covariance(
    c: np.ndarray, hursts: Sequence[float], n_days: int
) -> RescaledCovariance:
    """Covariance rescaled to an N-day horizon via per-spread Hurst exponents.

    Element (l, r) is multiplied by N^((H_l + H_r)/2 + 1); with a common H
    this is the N^(H+1) horizon law, and the symmetrized exponent keeps the
    matrix symmetric when exponents differ.
    """
    c = np.asarray(c, dtype=np.float64)
    h = np.asarray(hursts, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ParameterError(f"covariance must be square, got shape {c.shape}")
    if h.shape != (c.shape[0],):
        raise ParameterError(
            f"{h.size} hurst exponents for a {c.shape[0]}x{c.shape[0]} covariance"
        )
    if np.any((h <= 0.0) | (h >= 1.0)):
        raise ParameterError("hurst exponents must lie in (0, 1)")
    if n_days < 1:
        raise ParameterError(f"horizon must be at least 1 day, got {n_days}")
    exponent = (h[:, None] + h[None, :]) / 2.0 + 1.0
    scaled = c * float(n_days) ** exponent
    eigs = np.linalg.eigvalsh(scaled)
    if eigs.min() < -1e-10 * max(eigs.max(), 1.0):
        logger.warning(
            "rescaled covariance is not positive semidefinite "
            "(min eigenvalue %.3e); mixed-H rescaling does not preserve PSD",
            eigs.min(),
        )
    return RescaledCovariance(matrix=scaled, horizon_days=int(n_days))


def solve_weights(
    cr: RescaledCovariance,
    mean_deltas: Sequence[float],
    labels: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Raw allocation: inverse rescaled covariance times mean returns times
    the horizon N of ``cr``.

    A ridge of RIDGE_LAMBDA * trace/M is always added before inversion; if
    the matrix is still ill-conditioned the error names the most collinear
    pair of spreads.
    """
    a = np.asarray(cr.matrix, dtype=np.float64)
    mu = np.asarray(mean_deltas, dtype=np.float64)
    m = a.shape[0]
    if mu.shape != (m,):
        raise ParameterError(f"{mu.size} mean returns for {m} spreads")
    ridge = RIDGE_LAMBDA * float(np.trace(a)) / m
    reg = a + ridge * np.eye(m)
    cond = np.linalg.cond(reg)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        names = labels if labels is not None else [str(i) for i in range(m)]
        worst = _most_collinear(reg, names)
        raise SingularMatrixError(
            f"rescaled covariance is singular (condition {cond:.3e}); "
            f"most collinear spreads: {worst[0]} and {worst[1]}"
        )
    return np.linalg.solve(reg, mu) * float(cr.horizon_days)


def _most_collinear(matrix: np.ndarray, labels: Sequence[str]) -> tuple[str, str]:
    m = matrix.shape[0]
    if m == 1:
        return labels[0], labels[0]
    d = np.sqrt(np.clip(np.diag(matrix), 1e-300, None))
    corr = np.abs(matrix / np.outer(d, d))
    np.fill_diagonal(corr, 0.0)
    i, j = divmod(int(np.argmax(corr)), m)
    return labels[i], labels[j]


def apply_leverage(raw: Sequence[float], leverage: float) -> tuple[np.ndarray, float]:
    """Clamp negative raw weights to zero and scale the rest to the leverage.

    Returns the read-only spread weights, which sum to ``leverage``, and
    the normalization factor k = leverage / sum(clamped raw weights).

    A negative solved weight would mean shorting the spread, i.e. holding
    its flipped twin, which the selection stage already rejected; such
    weights are zeroed instead.
    """
    if not leverage > 0.0:
        raise ParameterError(f"leverage must be positive, got {leverage}")
    w = np.asarray(raw, dtype=np.float64)
    clamped = np.clip(w, 0.0, None)
    total = float(clamped.sum())
    if total <= 0.0:
        raise EmptyPortfolioError("no spread has a positive weight")
    k = leverage / total
    weights = k * clamped
    weights.flags.writeable = False
    return weights, k


def compose_legs(weights: np.ndarray, long, short, chi) -> tuple[np.ndarray, np.ndarray]:
    """Signed notional fraction of each held asset from the spread weights.

    ``long`` and ``short`` are the spreads' asset indices. A spread of
    weight w and hedge ratio chi holds long/short notional in the 1:chi
    proportion with gross notional w: long leg +w/(1+chi), short leg
    -w*chi/(1+chi). Returns the held assets' indices in ascending order and
    their legs. An asset may be a leg of one spread only.
    """
    n = len(weights)
    if not n == len(long) == len(short) == len(chi):
        raise ParameterError(f"{n} weights for legs and hedge ratios of other lengths")
    assets = np.concatenate((long, short))
    order = np.argsort(assets)
    held = assets[order]
    if (held[1:] == held[:-1]).any():
        raise ParameterError(f"asset {held[np.argmax(held[1:] == held[:-1])]} is a leg of two spreads")
    # an overflow gives inf, for sizing to reject, not a warning; the short
    # leg is 0.0 - x, not -x, so a zero weight's legs are both 0.0
    with np.errstate(over="ignore"):
        legs = np.concatenate((weights / (1.0 + chi), 0.0 - weights * chi / (1.0 + chi)))
    return held, legs[order]
