"""Fractional Brownian motion: exact generator, minimal-cover Hurst
estimation and horizon rescaling of volatility.

The generator draws fractional Gaussian noise with its exact covariance
(circulant embedding, Cholesky for very short series) so it can serve as
the oracle for the estimator. The estimator measures the minimal-cover
scaling of a path: total window amplitude V(d) across a geometric ladder
of window sizes d behaves like d^(H-1) per unit length, the log-log slope
gives the cover dimension D = 1 - slope and H = 2 - D.
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
    "generate_fbm",
    "estimate_hurst",
    "rescale_volatility",
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


def _as_path(values, min_len: int = 2) -> np.ndarray:
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("series must be one-dimensional")
    if x.size < min_len:
        raise InsufficientDataError(
            f"series has {x.size} samples, need at least {min_len}"
        )
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


def _fgn_cholesky(h: float, m: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    gamma = _fgn_autocov(h, m, sigma)
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    cov = gamma[idx]
    return np.linalg.cholesky(cov) @ rng.standard_normal(m)


def _fgn_circulant(h: float, m: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Davies-Harte: embed the fGn covariance in a 2m circulant matrix."""
    gamma = _fgn_autocov(h, m, sigma)
    first_row = np.concatenate([gamma, [0.0], gamma[1:][::-1]])
    eigs = np.fft.fft(first_row).real
    if eigs.min() < -1e-8 * eigs.max():
        # Never observed for fGn; kept as an exactness safeguard.
        return _fgn_cholesky(h, m, sigma, rng)
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
    m = n - 1
    if m < 8:
        fgn = _fgn_cholesky(h, m, step_sigma, rng)
    else:
        fgn = _fgn_circulant(h, m, step_sigma, rng)
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
    """Total cover amplitude per window size.

    For each window size d the series is cut into complete consecutive
    windows spanning d increments each, and the window amplitude is the
    max minus min of the three dyadic samples {left edge, midpoint, right
    edge}. Sampling windows at fixed relative positions keeps the
    discretization deficit identical across scales, which is what makes
    the log-log slope an unbiased scaling estimate.

    Returns (sums, counts): per window size, the summed amplitudes over
    complete windows and the number of complete windows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    d_arr = np.asarray(window_sizes, dtype=np.int64)
    n_incr = x.size - 1
    sums = np.zeros(d_arr.size, dtype=np.float64)
    counts = np.zeros(d_arr.size, dtype=np.int64)
    for k, d in enumerate(d_arr):
        d = int(d)
        nf = n_incr // d
        counts[k] = nf
        if nf == 0:
            continue
        left = x[0 : nf * d : d]
        mid = x[d // 2 : nf * d : d]
        right = x[d : nf * d + 1 : d]
        hi = np.maximum(np.maximum(left, mid), right)
        lo = np.minimum(np.minimum(left, mid), right)
        sums[k] = float(np.sum(hi - lo))
    return sums, counts


def estimate_hurst(s) -> HurstEstimate:
    """Minimal-cover Hurst estimate of a sample path.

    V(d) = total window amplitude at window size d, rescaled to full
    coverage of the series; log V is regressed on log d with weights
    proportional to the number of complete windows at each scale (the
    sparse top scales carry less information). The cover dimension is
    D = 1 - slope and H = 2 - D; ``h_err`` is the standard error of the
    fitted slope.
    """
    x = _as_path(s, MIN_HURST_LENGTH)
    n = x.size
    sizes = window_ladder(n)
    sums, counts = cover_amplitudes(x, sizes)
    # Rescale complete-window totals to the full series span, so partial
    # coverage at scales that do not divide n-1 cannot tilt the fit.
    with np.errstate(divide="ignore", invalid="ignore"):
        v = sums * ((n - 1) / (counts * sizes))
    keep = (sums > 0.0) & (counts > 0)
    if int(keep.sum()) < 3:
        raise DegenerateSeriesError(
            "series has no amplitude variation at enough scales"
        )
    log_d = np.log(sizes[keep].astype(np.float64))
    log_v = np.log(v[keep])
    wgt = counts[keep].astype(np.float64)
    wgt /= wgt.sum()
    xb = float(wgt @ log_d)
    yb = float(wgt @ log_v)
    sxx = float(wgt @ (log_d - xb) ** 2)
    slope = float(wgt @ ((log_d - xb) * (log_v - yb))) / sxx
    resid = log_v - (yb + slope * (log_d - xb))
    m_scales = int(keep.sum())
    se = float(np.sqrt((wgt @ resid**2) / (m_scales - 2) / sxx))
    dimension = 1.0 - slope
    h = 2.0 - dimension
    clamped = not 0.0 < h < 1.0
    if clamped:
        h = min(max(h, _HURST_CLAMP[0]), _HURST_CLAMP[1])
    return HurstEstimate(h=h, h_err=se, n_scales=m_scales, clamped=clamped)


def rescale_volatility(theta_daily: float, h: float, n_days: int) -> float:
    """N-day volatility from daily volatility: theta * N^h."""
    if theta_daily < 0.0:
        raise ParameterError(f"volatility must be non-negative, got {theta_daily}")
    if not 0.0 < h < 1.0:
        raise ParameterError(f"hurst exponent must lie in (0, 1), got {h}")
    if n_days < 1:
        raise ParameterError(f"horizon must be at least 1 day, got {n_days}")
    return theta_daily * float(n_days) ** h
