"""Exact fractional Brownian motion, the oracle the Hurst estimator is
checked against.

The generator draws fractional Gaussian noise with its exact covariance
(Davies-Harte circulant embedding). It lives only in the tests; nothing in
the package draws fBm paths.
"""
import numpy as np

from fractalport.errors import NumericalError, ParameterError


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
