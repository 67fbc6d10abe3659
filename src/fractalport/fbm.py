"""Minimal-cover Hurst estimation of fractional Brownian paths.

The estimator measures the minimal-cover scaling of a path: total window
amplitude V(d) across a geometric ladder of window sizes d behaves like
d^(H-1) per unit length, the log-log slope gives the cover dimension
D = 1 - slope and H = 2 - D.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fractalport.errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    ParameterError,
    ValidationError,
)

__all__ = [
    "HurstEstimate",
    "MIN_HURST_LENGTH",
    "cover_amplitudes",
    "estimate_hurst",
    "fit_hurst",
]

# Below this length the ladder has fewer than 4 scales and the slope error
# is meaningless.
MIN_HURST_LENGTH = 64

# ``estimate_hurst`` clips a raw fit outside (0, 1) into this and flags it.
_HURST_CLAMP = (0.01, 0.99)


@dataclass(frozen=True)
class HurstEstimate:
    """Hurst exponent with its one-sigma fit error.

    ``clamped`` marks a raw fit outside (0, 1), its ``h`` clipped into
    ``_HURST_CLAMP`` for display; such a series is not fractal-walk-like,
    and ``build_generating_matrix`` drops a spread so fitted.
    """

    h: float
    h_err: float
    n_scales: int
    clamped: bool = False


def _as_path(values) -> np.ndarray:
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("series must be one-dimensional")
    if not np.isfinite(x).all():
        raise ValidationError("series contains non-finite values")
    return x


def window_ladder(n: int) -> np.ndarray:
    """Window sizes: largest power of two <= n/4, halving down to 2."""
    d = 2
    while d * 2 <= n // 4:
        d *= 2
    out = []
    while d >= 2:
        out.append(d)
        d //= 2
    return np.asarray(out, dtype=np.int64)


def cover_amplitudes(x, window_sizes):
    """Total cover amplitude per window size, for every row of ``x``.

    For each window size d the series is cut into complete consecutive
    windows spanning d increments each, and the window amplitude is the
    max minus min of the three dyadic samples {left edge, midpoint, right
    edge}. Sampling windows at fixed relative positions keeps the
    discretization deficit identical across scales, which is what makes
    the log-log slope an unbiased scaling estimate.

    ``x`` holds one series along its last axis; a (rows x n) matrix is
    one series per row, read through strided views of the whole matrix.

    Returns (sums, counts): per series and window size the summed
    amplitudes over complete windows (shape ``x.shape[:-1] + (sizes,)``),
    and per window size the number of complete windows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    d_arr = np.asarray(window_sizes, dtype=np.int64)
    n_incr = x.shape[-1] - 1
    sums = np.zeros(x.shape[:-1] + (d_arr.size,), dtype=np.float64)
    counts = np.zeros(d_arr.size, dtype=np.int64)
    for k, d in enumerate(d_arr):
        d = int(d)
        nf = n_incr // d
        counts[k] = nf
        left = x[..., 0 : nf * d : d]
        mid = x[..., d // 2 : nf * d : d]
        right = x[..., d : nf * d + 1 : d]
        hi = np.maximum(left, mid)
        lo = np.minimum(left, mid)
        np.maximum(hi, right, out=hi)
        np.minimum(lo, right, out=lo)
        hi -= lo
        sums[..., k] = hi.sum(axis=-1)
    return sums, counts


def fit_hurst(paths):
    """Minimal-cover Hurst fit of every row of a (rows x n) path matrix.

    The rows' ``cover_amplitudes`` over the window ladder of n give V(d),
    the total window amplitude at window size d, rescaled to full coverage
    of the series; log V is regressed on log d with weights proportional
    to the number of complete windows at each scale (the sparse top scales
    carry less information). The cover dimension is D = 1 - slope and
    H = 2 - D; ``h_err`` is the standard error of the fitted slope. Scales
    without amplitude get zero weight.

    Every sum is an elementwise product summed along the row, so a row's
    result does not depend on the other rows: fitting a matrix of paths
    block by block gives each row the bits of one fit of the whole matrix.

    Returns (h, h_err, n_scales), one entry per row: the raw fit, outside
    (0, 1) for a path far from a fractal walk (a ramp fits h = 1). A row
    with fewer than 3 scales of positive amplitude is degenerate: its
    ``n_scales`` is below 3 and its ``h`` and ``h_err`` are NaN. Raises
    ``InsufficientDataError`` for a path shorter than ``MIN_HURST_LENGTH``.
    """
    n = paths.shape[-1]
    if n < MIN_HURST_LENGTH:
        raise InsufficientDataError(f"series has {n} samples, need at least {MIN_HURST_LENGTH}")
    # Ladder sizes are at most n/4, so every scale has complete windows.
    sizes = window_ladder(n)
    sums, counts = cover_amplitudes(paths, sizes)
    keep = sums > 0.0
    n_scales = keep.sum(axis=1)
    # Rescale complete-window totals to the full series span, so partial
    # coverage at scales that do not divide n-1 cannot tilt the fit.
    v = sums * ((n - 1) / (counts * sizes))
    log_d = np.log(sizes.astype(np.float64))
    log_v = np.log(np.where(keep, v, 1.0))
    wgt = np.where(keep, counts.astype(np.float64), 0.0)
    # A degenerate row's sums divide zero by zero; its fit is set NaN below.
    with np.errstate(divide="ignore", invalid="ignore"):
        wgt /= wgt.sum(axis=1, keepdims=True)
        xb = np.sum(wgt * log_d, axis=1, keepdims=True)
        yb = np.sum(wgt * log_v, axis=1, keepdims=True)
        dx = log_d - xb
        sxx = np.sum(wgt * dx**2, axis=1, keepdims=True)
        slope = np.sum(wgt * (dx * (log_v - yb)), axis=1, keepdims=True) / sxx
        resid = log_v - (yb + slope * dx)
        h_err = np.sqrt(np.sum(wgt * resid**2, axis=1) / (n_scales - 2) / sxx[:, 0])
    h = 2.0 - (1.0 - slope[:, 0])  # D = 1 - slope, H = 2 - D
    h[n_scales < 3] = h_err[n_scales < 3] = np.nan
    return h, h_err, n_scales


def estimate_hurst(s) -> HurstEstimate:
    """Minimal-cover Hurst estimate of one sample path: ``fit_hurst`` of it,
    with a typed error for a degenerate series and a fit outside (0, 1)
    clipped into ``_HURST_CLAMP`` and flagged ``clamped`` for display."""
    x = _as_path(s)
    h, h_err, n_scales = fit_hurst(x[np.newaxis])
    if n_scales[0] < 3:
        raise DegenerateSeriesError("series has no amplitude variation at enough scales")
    clamped = not 0.0 < h[0] < 1.0
    return HurstEstimate(
        h=float(np.clip(h[0], *_HURST_CLAMP) if clamped else h[0]), h_err=float(h_err[0]),
        n_scales=int(n_scales[0]), clamped=clamped,
    )
