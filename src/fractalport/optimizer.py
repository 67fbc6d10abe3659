"""Horizon-rescaled covariance and leveraged weight allocation.

Spread returns are treated as synthetic long-only assets. One horizon
solve, ``solve_weights``, applies the N-day horizon law: it rescales their
daily covariance to N days through each spread's Hurst exponent
(``rescale_covariance``), inverts it against the mean-return vector and
scales the result by N. The solved weights are normalized so they sum to
the target leverage, and each spread weight is finally decomposed into
per-asset long/short notional legs in the 1:chi hedge proportion.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from fractalport.errors import (
    EmptyPortfolioError,
    ParameterError,
    SingularMatrixError,
)

__all__ = [
    "covariance_matrix",
    "rescale_covariance",
    "solve_weights",
    "apply_leverage",
    "compose_legs",
]

# Ridge added before inversion, relative to the mean diagonal element.
RIDGE_LAMBDA = 1e-8
# Condition number beyond which inversion is refused even after the ridge.
MAX_CONDITION = 1e12


def covariance_matrix(deltas) -> np.ndarray:
    """Sample covariance (divisor n) of daily spread returns, one spread per
    row of a (spreads x days) matrix or of each matrix in a stack of them."""
    x = np.asarray(deltas, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ParameterError(f"need a (spreads x days) matrix, got shape {x.shape}")
    xc = x - x.mean(axis=-1, keepdims=True)
    cov = (xc @ xc.swapaxes(-1, -2)) / x.shape[-1]
    return (cov + cov.swapaxes(-1, -2)) / 2.0


def rescale_covariance(c: np.ndarray, hursts: Sequence[float], n_days: int) -> np.ndarray:
    """Covariance rescaled to an N-day horizon via per-spread Hurst exponents.

    Element (l, r) is multiplied by N^((H_l + H_r)/2 + 1); with a common H
    this is the N^(H+1) horizon law, and the symmetrized exponent keeps the
    matrix symmetric when exponents differ. ``c`` may be a stack of
    matrices, with one row of exponents each in ``hursts``.

    The factor is d_l * d_r with d = N^((H+1)/2), so this is the congruence
    D C D with a positive diagonal D and keeps a PSD matrix PSD.
    """
    c = np.asarray(c, dtype=np.float64)
    h = np.asarray(hursts, dtype=np.float64)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise ParameterError(f"covariance must be square, got shape {c.shape}")
    if h.shape != c.shape[:-1]:
        raise ParameterError(f"hurst exponents of shape {h.shape} for a covariance of shape {c.shape}")
    if np.any((h <= 0.0) | (h >= 1.0)):
        raise ParameterError("hurst exponents must lie in (0, 1)")
    if n_days < 1:
        raise ParameterError(f"horizon must be at least 1 day, got {n_days}")
    exponent = (h[..., :, None] + h[..., None, :]) / 2.0 + 1.0
    # one power per element, not the D C D product: that rounds differently
    # and would move the report bytes
    return c * float(n_days) ** exponent


def solve_weights(
    c: np.ndarray,
    hursts: Sequence[float],
    mean_deltas: Sequence[float],
    n_days: int,
    labels: Optional[Sequence] = None,
) -> np.ndarray:
    """Raw allocation over an N-day horizon: the inverse of the covariance
    ``c`` rescaled by ``rescale_covariance``, times the mean returns, times
    N, for each matrix of a stack and its rows of ``hursts`` and
    ``mean_deltas``.

    A ridge of RIDGE_LAMBDA * trace/M is always added before inversion; if
    a rescaled matrix is still ill-conditioned, the error names its most
    collinear pair of spreads, from that matrix's row of ``labels``.
    """
    a = rescale_covariance(c, hursts, n_days)
    mu = np.asarray(mean_deltas, dtype=np.float64)
    m = a.shape[-1]
    if mu.shape != a.shape[:-1]:
        raise ParameterError(f"mean returns of shape {mu.shape} for a covariance of shape {a.shape}")
    ridge = RIDGE_LAMBDA * np.trace(a, axis1=-2, axis2=-1) / m
    reg = a + ridge[..., None, None] * np.eye(m)
    cond = np.linalg.cond(reg)
    bad = ~(cond <= MAX_CONDITION)  # NaN or inf too
    if bad.any():
        k = tuple(np.argwhere(bad)[0])  # () for one matrix
        names = np.asarray(labels)[k] if labels is not None else [str(i) for i in range(m)]
        worst = _most_collinear(reg[k], names)
        raise SingularMatrixError(
            f"rescaled covariance is singular (condition {cond[k]:.3e}); "
            f"most collinear spreads: {worst[0]} and {worst[1]}"
        )
    return np.linalg.solve(reg, mu[..., None])[..., 0] * float(n_days)


def _most_collinear(matrix: np.ndarray, labels: Sequence[str]) -> tuple[str, str]:
    m = matrix.shape[0]
    if m == 1:
        return labels[0], labels[0]
    d = np.sqrt(np.clip(np.diag(matrix), 1e-300, None))
    corr = np.abs(matrix / np.outer(d, d))
    np.fill_diagonal(corr, 0.0)
    i, j = divmod(int(np.argmax(corr)), m)
    return labels[i], labels[j]


def apply_leverage(raw: Sequence[float], leverage: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamp negative raw weights to zero and scale the rest to the leverage,
    for one weight vector or each row of a stack of them.

    Returns the read-only spread weights, each row summing to ``leverage``,
    and each row's normalization factor k = leverage / sum(clamped raw
    weights). A row with no positive weight raises ``EmptyPortfolioError``.

    A negative solved weight would mean shorting the spread, i.e. holding
    its flipped twin, which the selection stage already rejected; such
    weights are zeroed instead.
    """
    if not leverage > 0.0:
        raise ParameterError(f"leverage must be positive, got {leverage}")
    clamped = np.clip(np.asarray(raw, dtype=np.float64), 0.0, None)
    total = clamped.sum(axis=-1)
    if np.any(total <= 0.0):
        raise EmptyPortfolioError("no spread has a positive weight")
    k = leverage / total
    weights = k[..., None] * clamped
    weights.flags.writeable = False
    return weights, k


def compose_legs(weights: np.ndarray, long, short, chi) -> tuple[np.ndarray, np.ndarray]:
    """Signed notional fraction of each held asset from the spread weights,
    for one portfolio or each row of a stack of them.

    ``long`` and ``short`` are the spreads' asset indices. A spread of
    weight w and hedge ratio chi holds long/short notional in the 1:chi
    proportion with gross notional w: long leg +w/(1+chi), short leg
    -w*chi/(1+chi). Returns the held assets' indices in ascending order and
    their legs. An asset may be a leg of one spread only.
    """
    weights, long, short, chi = map(np.asarray, (weights, long, short, chi))
    if not weights.shape == long.shape == short.shape == chi.shape:
        raise ParameterError(f"weights of shape {weights.shape} for legs and hedge ratios of other shapes")
    assets = np.concatenate((long, short), axis=-1)
    order = np.argsort(assets, axis=-1)
    held = np.take_along_axis(assets, order, axis=-1)
    twice = held[..., 1:] == held[..., :-1]
    if twice.any():
        raise ParameterError(f"asset {held[..., 1:][twice][0]} is a leg of two spreads")
    # an overflow gives inf, for sizing to reject, not a warning; the short
    # leg is 0.0 - x, not -x, so a zero weight's legs are both 0.0
    with np.errstate(over="ignore"):
        legs = np.concatenate((weights / (1.0 + chi), 0.0 - weights * chi / (1.0 + chi)), axis=-1)
    return held, np.take_along_axis(legs, order, axis=-1)
