"""Fractional Brownian motion: exact generator and minimal-cover Hurst
estimation.

The generator draws fractional Gaussian noise with its exact covariance
(Davies-Harte circulant embedding) so it can serve as the oracle for the
estimator. The estimator measures the minimal-cover scaling of a path:
total window amplitude V(d) across a geometric ladder of window sizes d
behaves like d^(H-1) per unit length, the log-log slope gives the cover
dimension D = 1 - slope and H = 2 - D.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fractalport.errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    ValidationError,
)

__all__ = [
    "HurstEstimate",
    "MIN_HURST_LENGTH",
    "cover_amplitudes",
    "generate_fbm",
    "estimate_hurst",
    "fit_covers",
    "fit_hurst",
    "hurst_covers",
]

# Below this length the ladder has fewer than 4 scales and the slope error
# is meaningless.
MIN_HURST_LENGTH = 64

# Fit results outside (0, 1) are clamped into this interval and flagged.
_HURST_CLAMP = (0.01, 0.99)


@dataclass(frozen=True)
class HurstEstimate:
    """Hurst exponent with its one-sigma fit error.

    ``clamped`` marks estimates whose raw fit fell outside (0, 1); such
    series are not fractal-walk-like and downstream screens reject them.
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


def _fgn_autocov(h: float, m: int, sigma: float) -> np.ndarray:
    k = np.arange(m, dtype=np.float64)
    return (
        0.5
        * sigma
        * sigma
        * (np.abs(k + 1) ** (2 * h) - 2 * np.abs(k) ** (2 * h) + np.abs(k - 1) ** (2 * h))
    )


def _fgn_circulant(h: float, m: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Davies-Harte: embed the fGn covariance in a 2m circulant matrix whose
    first row is gamma(0..m) followed by gamma(m-1..1)."""
    gamma = _fgn_autocov(h, m + 1, sigma)
    first_row = np.concatenate([gamma, gamma[1:-1][::-1]])
    eigs = np.fft.fft(first_row).real
    if eigs.min() < -1e-8 * eigs.max():
        raise NumericalError(
            f"fGn circulant embedding is not positive semidefinite (h={h}, m={m})"
        )
    eigs = np.clip(eigs, 0.0, None)
    w = np.empty(2 * m, dtype=np.complex128)
    w[0] = rng.standard_normal() * np.sqrt(eigs[0])
    w[m] = rng.standard_normal() * np.sqrt(eigs[m])
    v = rng.standard_normal((m - 1, 2))
    w[1:m] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0) * np.sqrt(eigs[1:m])
    w[m + 1 :] = np.conj(w[1:m][::-1])
    return np.fft.ifft(w).real[:m] * np.sqrt(2.0 * m)


def generate_fbm(h: float, n: int, step_sigma: float = 1.0, rng_seed: int = 0) -> np.ndarray:
    """Length-n fractional Brownian path starting at zero.

    Increments are fractional Gaussian noise with Hurst ``h`` and unit-lag
    standard deviation ``step_sigma``, drawn with their exact covariance,
    so E[(s(t2) - s(t1))^2] = step_sigma^2 * |t2 - t1|^(2h) holds by
    construction. Deterministic for a given ``rng_seed``.
    """
    if not 0.0 < h < 1.0:
        raise ParameterError(f"hurst exponent must lie in (0, 1), got {h}")
    if n < 2:
        raise ParameterError(f"path length must be at least 2, got {n}")
    if not step_sigma > 0.0:
        raise ParameterError(f"step sigma must be positive, got {step_sigma}")
    rng = np.random.default_rng(rng_seed)
    fgn = _fgn_circulant(h, n - 1, step_sigma, rng)
    path = np.empty(n, dtype=np.float64)
    path[0] = 0.0
    np.cumsum(fgn, out=path[1:])
    path.flags.writeable = False
    return path


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
        if nf == 0:
            continue
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


def hurst_covers(paths):
    """The cover step of ``fit_hurst``: ``cover_amplitudes`` of every row
    of a (rows x n) path matrix over the window ladder of n.

    Returns the (rows x scales) amplitude sums of ``cover_amplitudes``;
    ``fit_covers`` turns them into the Hurst fit. Raises
    ``InsufficientDataError`` for a path shorter than ``MIN_HURST_LENGTH``.
    """
    n = paths.shape[-1]
    if n < MIN_HURST_LENGTH:
        raise InsufficientDataError(
            f"series has {n} samples, need at least {MIN_HURST_LENGTH}"
        )
    # Ladder sizes are at most n/4, so every scale has complete windows.
    return cover_amplitudes(paths, window_ladder(n))[0]


def fit_covers(sums, n: int):
    """The regression step of ``fit_hurst``, on the ``hurst_covers`` sums
    of paths of length n, one row per path. The window ladder and the
    number of complete windows at each scale follow from n.

    V(d) = total window amplitude at window size d, rescaled to full
    coverage of the series; log V is regressed on log d with weights
    proportional to the number of complete windows at each scale (the
    sparse top scales carry less information). The cover dimension is
    D = 1 - slope and H = 2 - D; ``h_err`` is the standard error of the
    fitted slope. Scales without amplitude get zero weight.

    Every sum is an elementwise product summed along the row, so a row's
    result does not depend on the other rows: the covers of several blocks
    of paths, concatenated, give each row the bits of its block alone.

    Returns (h, h_err, n_scales, clamped), one entry per row. A fit
    outside (0, 1) is clamped into ``_HURST_CLAMP`` and flagged. A row
    with fewer than 3 scales of positive amplitude is degenerate: its
    ``n_scales`` is below 3 and its ``h`` and ``h_err`` are NaN.
    """
    sizes = window_ladder(n)
    counts = (n - 1) // sizes
    keep = sums > 0.0
    n_scales = keep.sum(axis=1)
    fitted = n_scales >= 3
    keep = keep[fitted]
    # Rescale complete-window totals to the full series span, so partial
    # coverage at scales that do not divide n-1 cannot tilt the fit.
    v = sums[fitted] * ((n - 1) / (counts * sizes))
    log_d = np.log(sizes.astype(np.float64))
    log_v = np.log(np.where(keep, v, 1.0))
    wgt = np.where(keep, counts.astype(np.float64), 0.0)
    wgt /= wgt.sum(axis=1, keepdims=True)
    xb = np.sum(wgt * log_d, axis=1, keepdims=True)
    yb = np.sum(wgt * log_v, axis=1, keepdims=True)
    dx = log_d - xb
    sxx = np.sum(wgt * dx**2, axis=1, keepdims=True)
    slope = np.sum(wgt * (dx * (log_v - yb)), axis=1, keepdims=True) / sxx
    resid = log_v - (yb + slope * dx)
    se = np.sqrt(
        np.sum(wgt * resid**2, axis=1, keepdims=True) / (n_scales[fitted, None] - 2) / sxx
    )
    dimension = 1.0 - slope[:, 0]
    h_fit = 2.0 - dimension
    clamped_fit = ~((0.0 < h_fit) & (h_fit < 1.0))
    h = np.full(n_scales.size, np.nan)
    h_err = np.full(n_scales.size, np.nan)
    clamped = np.zeros(n_scales.size, dtype=bool)
    h[fitted] = np.where(clamped_fit, np.clip(h_fit, *_HURST_CLAMP), h_fit)
    h_err[fitted] = se[:, 0]
    clamped[fitted] = clamped_fit
    return h, h_err, n_scales, clamped


def fit_hurst(paths):
    """Minimal-cover Hurst fit of every row of a (rows x n) path matrix:
    ``fit_covers`` of the ``hurst_covers`` of the paths. A row's result
    does not depend on the other rows."""
    paths = np.asarray(paths, dtype=np.float64)
    return fit_covers(hurst_covers(paths), paths.shape[1])


def estimate_hurst(s) -> HurstEstimate:
    """Minimal-cover Hurst estimate of one sample path: the one-row case of
    ``fit_hurst``, with a typed error for a degenerate series."""
    x = _as_path(s)
    h, h_err, n_scales, clamped = fit_hurst(x[np.newaxis])
    if n_scales[0] < 3:
        raise DegenerateSeriesError(
            "series has no amplitude variation at enough scales"
        )
    return HurstEstimate(
        h=float(h[0]), h_err=float(h_err[0]), n_scales=int(n_scales[0]), clamped=bool(clamped[0])
    )

