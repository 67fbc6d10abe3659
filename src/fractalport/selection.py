"""Candidate spread generation and greedy fractal-Kelly selection.

Every unordered pair of universe assets yields (at most) one candidate:
the spread's hedge ratio, mean and volatility come from per-asset moments,
it is oriented so its mean daily return is non-negative, its Hurst
exponent is estimated on the cumulative spread path, and the candidate is
ranked by the horizon-adjusted Kelly weight. Candidates are held as one
column table with a row per pair. Selection repeatedly takes the
highest-ranked remaining candidate, keeps it only if the Hurst stability
screen passes, and on acceptance retires both of its assets so every
symbol appears in at most one of a window's spreads; it stops only when
no candidate is left, with no cap on the number of spreads.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from fractalport import fbm
from fractalport.errors import DegenerateVolatilityError, InsufficientDataError, ParameterError

__all__ = [
    "SelectionConfig",
    "Candidates",
    "fractal_kelly_weight",
    "build_generating_matrix",
    "select_spreads",
]

# Variance floor below which the hedge regression is meaningless.
HEDGE_VARIANCE_EPS = 1e-12

# Spread paths built, covered and fitted together as rows of one array
# block: enough rows to amortize numpy's per-call overhead, few enough that
# each (pairs x days) temporary takes 2 KB per day of history (0.25 MB at
# 126 days; all 19,900 paths of a 200-asset window at once would take
# 20 MB), and the Hurst fit's (pairs x scales) temporaries stay per block.
# Measured with stacked windows on per-pair spreads (perfbench run_cal
# medians of 3 seeds, 2-core VM, 128 / 256 / 512): pairs_wide
# 1.09 / 1.05 / 0.95 and history_long 1.19 / 1.18 / 1.16, but 512 raised
# peak RSS by 1.3 and 0.6 MB. The history_long figures moved its window
# groups with the block, one block's rows to a group; the group is now
# sized by ``backtest.GROUP_ROWS``, and this sizes the block alone.
PAIR_BLOCK = 256

# A spread whose variance is at most this fraction of its legs' summed
# variances S_ii + chi^2 S_jj is the rounding noise of an exact hedge: on
# 400 random 3-asset universes with one asset 0.75 times another, that
# pair's ratio was at most 8.6e-16 in size, and sometimes negative. The
# smallest ratio of any hedged pair in any training window of the golden
# universe and the three benchmark workloads' universes (seeds 1-3) is
# 6.8e-3, so the floor sits about 5 orders of magnitude from either.
SPREAD_VARIANCE_FLOOR = 1e-10


@dataclass(frozen=True)
class SelectionConfig:
    horizon_days: int = 126
    hurst_cap: float = 0.5

    def __post_init__(self):
        if self.horizon_days < 1:
            raise ParameterError(f"horizon must be at least 1 day, got {self.horizon_days}")
        if self.horizon_days > sys.float_info.max:  # the Kelly weight takes it as a float
            raise ParameterError(f"horizon must be at most {sys.float_info.max:g} days")
        if not 0.0 < self.hurst_cap <= 0.5:
            raise ParameterError(f"hurst cap must lie in (0, 0.5], got {self.hurst_cap}")


@dataclass(frozen=True)
class Candidates:
    """Candidate spreads, one row per pair of a window, as equal-length columns.

    ``window`` indexes the row's window in the stack the table was built
    from (0 for a single window). ``long``/``short``/``chi`` are the
    oriented legs (indices into ``symbols`` and into that window's
    (assets x days) return matrix) and hedge ratio; ``mean``/``theta`` are
    the mean and std of the daily deltas, ``h``/``h_err`` the Hurst fit and
    ``kelly`` the weight.
    """

    symbols: tuple[str, ...]
    window: np.ndarray
    long: np.ndarray
    short: np.ndarray
    chi: np.ndarray
    mean: np.ndarray
    theta: np.ndarray
    h: np.ndarray
    h_err: np.ndarray
    kelly: np.ndarray

    def __post_init__(self):
        for f in fields(self)[1:]:
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return self.window.size

    def rows(self) -> list[dict]:
        """One record per row, keyed by the output names of a selected spread,
        as the ``select`` output and the backtest report's ``selected``
        entries write it."""
        columns = {
            "long_symbol": [self.symbols[k] for k in self.long.tolist()],
            "short_symbol": [self.symbols[k] for k in self.short.tolist()],
            "chi": self.chi.tolist(),
            "hurst": self.h.tolist(),
            "hurst_err": self.h_err.tolist(),
            "kelly_weight": self.kelly.tolist(),
            "mean_delta": self.mean.tolist(),
            "theta": self.theta.tolist(),
        }
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    def take(self, index) -> Candidates:
        """The table of the rows at ``index``, in that order."""
        return Candidates(
            self.symbols, *(getattr(self, f.name)[index] for f in fields(self)[1:])
        )


def fractal_kelly_weight(mean_delta, theta, h, n_days: int):
    """Growth-optimal weight over an N-day horizon with fractal volatility.

    mean_delta * N / (theta^2 * N^(2h)): the mean return accrues linearly
    with the horizon while the variance scales as N^(2h), so anti-persistent
    spreads (h < 0.5) gain weight as the horizon grows. At h = 0.5 this is
    the plain one-period Kelly ratio mean/theta^2 for any horizon.
    Elementwise over arrays; scalars give an ``np.float64``, a ``float``. A
    denominator that overflows gives a weight of 0.0, not a warning.
    """
    mean_delta, theta, h = (np.asarray(v, dtype=np.float64) for v in (mean_delta, theta, h))
    if not np.all(theta > 0.0):
        raise DegenerateVolatilityError(f"spread volatility must be positive, got {theta}")
    if not np.all((0.0 < h) & (h < 1.0)):
        raise ParameterError(f"hurst exponent must lie in (0, 1), got {h}")
    if n_days < 1:
        raise ParameterError(f"horizon must be at least 1 day, got {n_days}")
    n = float(n_days)
    with np.errstate(over="ignore"):
        weight = mean_delta * n / (theta * theta * n ** (2.0 * h))
    return weight


def build_generating_matrix(returns: np.ndarray, symbols, cfg: SelectionConfig) -> Candidates:
    """Candidates for every unordered asset pair of each window.

    ``returns`` is a window's (assets x days) matrix (``window_returns``),
    or a (windows x assets x days) stack of such matrices on the same
    assets, and ``symbols`` names the asset rows. Rows run window by
    window, each window's pairs in ``itertools.combinations`` order, so a
    window's rows are one contiguous run of the table.

    No pair's daily spread is formed. Per window, the Gram matrix G of the
    assets' centred one-day return increments gives the hedge ratio
    chi = G[i, j] / G[j, j] of i over j (the OLS slope of i's increments
    on j's; under one factor, the ratio of market betas shrunk toward 0 by
    j's idiosyncratic variance); the mean mu and
    covariance S of the returns give the spread's mean mu_i - chi * mu_j
    and variance theta^2 = S_ii + chi^2 S_jj - 2 chi S_ij; and the
    cumulative return paths X give the spread's path X_i - chi * X_j,
    built ``PAIR_BLOCK`` rows at a time. Each block is covered and fitted
    before the next is built, so of a row's Hurst fit only its h and h_err
    outlive its block. The Gram matrices are einsum reductions: unlike a
    BLAS product, each entry then has the same bits whatever the other
    assets, so a row's values do not depend on the other rows and a stack
    gives each window the table it gets alone.

    A window's universe is the assets whose returns are all numbers: a
    pair is omitted when either leg's row holds a NaN, that symbol having
    no price on some day of the window. A NaN row makes the pair's Gram
    entry, and so chi, NaN, and ``chi > 0`` drops it; every other entry
    has the same bits whatever that row holds, so the table is the one
    built without that symbol, and raises no floating-point warning.

    Pairs are also omitted when j's increment variance is below
    ``HEDGE_VARIANCE_EPS`` or chi is not positive, when the path has no
    usable Hurst fit (under 3 scales, or a raw fit outside (0, 1), the
    domain of the Kelly weight and of the optimizer's rescaling), or when
    theta^2 is at most ``SPREAD_VARIANCE_FLOOR`` times S_ii + chi^2 S_jj:
    such a spread is the rounding noise of an exact hedge (one asset a
    scaled copy of the other), whose formula variance can even come out
    negative. A spread with negative mean is reversed, long j and short
    chi' = 1/chi units of i, with mean -mean/chi and theta/chi; the cover
    fit is scale-invariant, so h is that of the unreversed path.

    A window too short for a Hurst fit (``fbm.MIN_HURST_LENGTH - 1``
    returns) raises ``InsufficientDataError``, whatever its pairs.
    """
    n_assets, n_days = returns.shape[-2:]
    if n_assets < 2:
        raise ParameterError(f"universe needs at least 2 assets, got {n_assets}")
    if n_days + 1 < fbm.MIN_HURST_LENGTH:
        raise InsufficientDataError(
            f"need at least {fbm.MIN_HURST_LENGTH - 1} returns for a Hurst fit, got {n_days}"
        )
    stack = returns.reshape(-1, n_assets, n_days)
    incr = np.diff(stack, axis=-1)
    incr -= incr.mean(axis=-1, keepdims=True)
    gram = np.einsum("wid,wjd->wij", incr, incr)
    del incr
    mu = stack.mean(axis=-1)
    centred = stack - mu[..., None]
    cov = np.einsum("wid,wjd->wij", centred, centred) / n_days
    del centred
    first, second = np.triu_indices(n_assets, 1)
    g_jj = gram[:, second, second]
    chi = np.divide(
        gram[:, first, second], g_jj, out=np.full(g_jj.shape, np.nan),
        where=g_jj / (n_days - 1) >= HEDGE_VARIANCE_EPS,
    )
    del gram, g_jj
    window, pair = np.nonzero(chi > 0.0)  # NaN marks a degenerate hedge
    chi = chi[window, pair]
    i, j = first[pair], second[pair]
    del first, second, pair  # the whole triangle's, like the NaN-filled chi

    paths = np.zeros(stack.shape[:-1] + (n_days + 1,))
    np.cumsum(stack, axis=-1, out=paths[..., 1:])
    paths = paths.reshape(-1, n_days + 1)  # (windows * assets) x path
    h, h_err = np.empty(chi.size), np.empty(chi.size)
    for block in (slice(k, k + PAIR_BLOCK) for k in range(0, chi.size, PAIR_BLOCK)):
        offset = window[block] * n_assets
        spread = paths[offset + i[block]]  # built in place: two block-sized arrays at most
        hedge = paths[offset + j[block]]
        hedge *= chi[block, None]
        spread -= hedge
        del hedge
        h[block], h_err[block], _ = fbm.fit_hurst(spread)
        del spread
    del paths
    rows = np.flatnonzero((0.0 < h) & (h < 1.0))  # NaN: no fit
    window, i, j, chi, h, h_err = (c[rows] for c in (window, i, j, chi, h, h_err))
    mean = mu[window, i] - chi * mu[window, j]
    with np.errstate(over="ignore"):  # an infinite leg variance fails the floor
        leg_var = cov[window, i, i] + chi * chi * cov[window, j, j]
        theta2 = leg_var - 2.0 * chi * cov[window, i, j]
    keep = theta2 > SPREAD_VARIANCE_FLOOR * leg_var
    window, i, j, chi, mean, theta2, h, h_err = (
        c[keep] for c in (window, i, j, chi, mean, theta2, h, h_err)
    )
    flip = mean < 0.0
    divisor = np.where(flip, chi, 1.0)
    mean = np.abs(mean) / divisor
    theta = np.sqrt(theta2) / divisor
    long, short = np.where(flip, j, i), np.where(flip, i, j)
    chi = np.where(flip, 1.0 / chi, chi)
    kelly = fractal_kelly_weight(mean, theta, h, cfg.horizon_days)
    return Candidates(tuple(symbols), window, long, short, chi, mean, theta, h, h_err, kelly)


def select_spreads(cands: Candidates, cfg: SelectionConfig) -> Candidates:
    """Greedy selection of disjoint spreads by descending Kelly weight, in
    each window of the table on its own.

    The top-weighted remaining candidate is accepted only if
    h + h_err < hurst_cap, h_err < h and its Kelly weight is positive: its
    mean return is positive and theta^2 * N^(2h) did not overflow, which
    would leave a weight of 0.0 and a covariance the solve refuses;
    acceptance retires both of its assets, rejection discards just that
    candidate. Ties in weight break lexicographically on the (long, short)
    symbol strings, so the result is deterministic. A rejected row never
    retires an asset, so the screen is applied to all rows up front.

    One sort orders the rows by window first, and one greedy pass fills
    every window, each leg keyed ``window * len(symbols) + asset``: a key
    names one asset of one window, so each window's selected rows are one
    contiguous run, the rows it selects alone.
    """
    rows = np.flatnonzero(
        (cands.h + cands.h_err < cfg.hurst_cap) & (cands.h_err < cands.h) & (cands.kelly > 0.0)
    )
    rank = np.empty(len(cands.symbols), dtype=np.intp)
    rank[sorted(range(rank.size), key=cands.symbols.__getitem__)] = np.arange(rank.size)
    long, short, window = cands.long[rows], cands.short[rows], cands.window[rows]
    order = np.lexsort((rank[short], rank[long], -cands.kelly[rows], window))
    key = window * rank.size  # one key per (window, asset)
    long, short = (key + long)[order].tolist(), (key + short)[order].tolist()
    picked: list[int] = []
    used: set[int] = set()
    for row, a, b in zip(rows[order].tolist(), long, short):
        if a in used or b in used:
            continue
        picked.append(row)
        used.update((a, b))
    return cands.take(np.array(picked, dtype=np.intp))
