"""Mutation check: does the tier-1 suite fail when the package is broken?

Each entry of ``MUTANTS`` replaces one exact piece of source text with a
wrong one. For each, the tree is copied to a temporary directory, the
mutant applied there, and tier-1 run in the copy with ``-x -q``, one
process at a time. A mutant is killed when the suite fails and survives
when it passes. The unmutated copy runs first, so a suite that already
fails is reported instead of every mutant counting as killed. Run from any
directory, with the tier-1 requirements installed:

    python tests/mutants.py > summary.json

Every mutant runs. The JSON summary goes to stdout, progress to stderr.
Exit status: 0 when every mutant run is killed, 1 when one survives or its
run errs, 2 when the unmutated suite fails. The unmutated copy takes one
whole tier-1 run; a killed mutant's run stops at its first failure.

pytest does not collect this file. ``test_mutants.py`` checks in tier-1
that each entry's source text occurs exactly once in its file, so the list
cannot go stale unnoticed.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# test_mutants.py is left out: every mutant removes the source text it
# checks for, so it would fail on every mutant the rest of tier-1 misses
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    source: str  # exact text; occurs once in the file
    replacement: str
    reason: str


MUTANTS = (
    Mutant("training_span_one_day_late", "src/fractalport/backtest.py",
           "span = prices[:, a : (min(w + group, n_windows) - 1) * cfg.test_days + cfg.train_days]",
           "span = prices[:, a + 1 : (min(w + group, n_windows) - 1) * cfg.test_days + cfg.train_days + 1]",
           "run_walk_forward trains each window one day late, so training reads the first test day"),
    Mutant("returns_over_second_price", "src/fractalport/spreads.py",
           "entries = prices[:, : (count - 1) * step + 1 : step]",
           "entries = prices[:, 1 : (count - 1) * step + 2 : step]",
           "window_returns divides each window by its second price, not its entry price"),
    Mutant("leg_key_without_window", "src/fractalport/selection.py",
           "long, short = (key + long)[order].tolist(), (key + short)[order].tolist()",
           "long, short = long[order].tolist(), short[order].tolist()",
           "select_spreads keys legs by asset alone, so a window's picks retire assets in later windows"),
    Mutant("leg_key_one_short", "src/fractalport/selection.py",
           "key = window * rank.size",
           "key = window * (rank.size - 1)",
           "select_spreads keys legs window * (len(symbols) - 1) + asset, so keys of adjacent windows collide"),
    Mutant("plan_of_second_window", "src/fractalport/backtest.py",
           "scale_k, held, legs, info = plans[k]",
           "scale_k, held, legs, info = plans[min(k, 1)]",
           "every window after a group's second trades the second window's plan"),
    Mutant("no_ridge", "src/fractalport/optimizer.py",
           "RIDGE_LAMBDA = 1e-8",
           "RIDGE_LAMBDA = 0.0",
           "solve_weights adds no ridge before the solve"),
    Mutant("kelly_variance_n_to_the_h", "src/fractalport/selection.py",
           "theta * theta * n ** (2.0 * h)",
           "theta * theta * n ** h",
           "fractal_kelly_weight scales the variance by N^h, not N^(2h)"),
    Mutant("kelly_h_of_one_accepted", "src/fractalport/selection.py",
           "if not np.all((0.0 < h) & (h < 1.0)):",
           "if not np.all(0.0 < h):",
           "fractal_kelly_weight accepts a Hurst exponent of 1 or more"),
    Mutant("no_exit_commission", "src/fractalport/backtest.py",
           "        if t == t_days - 1:\n            cost += commission\n",
           "",
           "_mark_window charges commission at entry only"),
    Mutant("window_return_sd_ddof_0", "src/fractalport/backtest.py",
           "np.std(single, ddof=1)",
           "np.std(single)",
           "compute_metrics takes the population sd of the window returns"),
    Mutant("screen_cap_inclusive", "src/fractalport/selection.py",
           "cands.h + cands.h_err < cfg.hurst_cap",
           "cands.h + cands.h_err <= cfg.hurst_cap",
           "select_spreads passes a spread whose h + h_err equals the Hurst cap"),
    Mutant("flip_sign", "src/fractalport/selection.py",
           "flip = mean < 0.0",
           "flip = mean > 0.0",
           "build_generating_matrix flips the spreads whose mean is positive, not negative"),
    Mutant("gram_uncentred", "src/fractalport/selection.py",
           "    incr -= incr.mean(axis=-1, keepdims=True)\n",
           "",
           "the hedge ratio regresses increments that are not centred"),
    Mutant("long_duplicate_unchecked", "src/fractalport/io.py",
           "row = _first_repeat(cell, ~np.isnan(grid.take(cell)))",
           "row = -1",
           "long ingest keeps the last of two prices of one (date, symbol)"),
    Mutant("wide_duplicate_date_unchecked", "src/fractalport/io.py",
           "repeats = np.flatnonzero(d != np.arange(seen, seen + len(d)))",
           "repeats = np.flatnonzero(d != d)",
           "wide ingest does not look for a repeated date row"),
    Mutant("one_price_symbol_accepted", "src/fractalport/spreads.py",
           "bad = (count < 2) |",
           "bad = (count < 1) |",
           "build_panel accepts a symbol with one price"),
    Mutant("writer_calendar_unchecked", "src/fractalport/io.py",
           "if tuple(p.dates) != calendar:",
           "if False:",
           "write_prices_wide writes a series on other dates under the first series' calendar"),
    Mutant("pairs_in_both_orientations", "src/fractalport/selection.py",
           "first, second = np.triu_indices(n_assets, 1)",
           "first, second = np.nonzero(~np.eye(n_assets, dtype=bool))",
           "build_generating_matrix makes a candidate of each ordered pair, so a pair can have two rows"),
    Mutant("flip_keeps_negative_mean", "src/fractalport/selection.py",
           "mean = np.abs(mean) / divisor",
           "mean = mean / divisor",
           "a reversed spread keeps its negative mean"),
    Mutant("kelly_of_unreversed_theta", "src/fractalport/selection.py",
           "kelly = fractal_kelly_weight(mean, theta, h, cfg.horizon_days)",
           "kelly = fractal_kelly_weight(mean, np.sqrt(theta2), h, cfg.horizon_days)",
           "a reversed spread's Kelly weight takes the volatility of the unreversed spread"),
    Mutant("hedge_guard_dropped", "src/fractalport/selection.py",
           "where=g_jj / (n_days - 1) >= HEDGE_VARIANCE_EPS,",
           "where=True,",
           "the hedge ratio divides by the increment variance of a flat regressor leg"),
    Mutant("hedge_floor_exclusive", "src/fractalport/selection.py",
           "g_jj / (n_days - 1) >= HEDGE_VARIANCE_EPS",
           "g_jj / (n_days - 1) > HEDGE_VARIANCE_EPS",
           "a regressor leg whose increment variance equals HEDGE_VARIANCE_EPS gets no hedge ratio"),
    Mutant("spread_floor_inclusive", "src/fractalport/selection.py",
           "keep = theta2 > SPREAD_VARIANCE_FLOOR * leg_var",
           "keep = theta2 >= SPREAD_VARIANCE_FLOOR * leg_var",
           "a spread whose variance equals the floor times its legs' variance is kept"),
    Mutant("horizon_beyond_float_accepted", "src/fractalport/selection.py",
           "if self.horizon_days > sys.float_info.max:",
           "if False:",
           "SelectionConfig accepts a horizon the Kelly weight cannot take as a float"),
    Mutant("long_leg_over_chi", "src/fractalport/optimizer.py",
           "(weights / (1.0 + chi),",
           "(weights / chi,",
           "compose_legs gives a long leg of w/chi, not w/(1+chi)"),
    Mutant("short_leg_without_chi", "src/fractalport/optimizer.py",
           "0.0 - weights * chi / (1.0 + chi)",
           "0.0 - weights / (1.0 + chi)",
           "compose_legs gives a short leg of -w/(1+chi), the long leg's size"),
    Mutant("short_leg_unscaled", "src/fractalport/optimizer.py",
           "0.0 - weights * chi / (1.0 + chi)",
           "0.0 - weights * chi",
           "compose_legs gives a short leg of -w*chi, so a spread's gross notional is not w"),
    Mutant("legs_in_spread_order", "src/fractalport/optimizer.py",
           "return held, np.take_along_axis(legs, order, axis=-1)",
           "return held, legs",
           "compose_legs returns the legs in spread order beside the held assets in ascending order"),
    Mutant("ridge_not_scaled", "src/fractalport/optimizer.py",
           "ridge = RIDGE_LAMBDA * np.trace(a, axis1=-2, axis2=-1) / m",
           "ridge = np.full(a.shape[:-2], RIDGE_LAMBDA)",
           "solve_weights adds a ridge of RIDGE_LAMBDA, not RIDGE_LAMBDA times the mean variance"),
    Mutant("no_entry_commission", "src/fractalport/backtest.py",
           "        if t == 0:\n            cost += commission\n",
           "",
           "_mark_window charges commission at exit only"),
    Mutant("financing_on_unborrowed_equity", "src/fractalport/backtest.py",
           "max(0.0, gross[t] - equity[t])",
           "abs(gross[t] - equity[t])",
           "_mark_window finances the equity left above the gross value too"),
    Mutant("cover_right_edge_not_in_max", "src/fractalport/fbm.py",
           "        np.maximum(hi, right, out=hi)\n",
           "",
           "cover_amplitudes leaves a window's right edge out of its maximum"),
    Mutant("cover_counts_partial_tail", "src/fractalport/fbm.py",
           "counts[k] = nf",
           "counts[k] = -(-n_incr // d)",
           "cover_amplitudes counts a partial last window"),
    Mutant("cover_counts_of_last_scale", "src/fractalport/fbm.py",
           "counts[k] = nf",
           "counts[:] = nf",
           "cover_amplitudes gives every window size the window count of the last one"),
    Mutant("cover_without_midpoint", "src/fractalport/fbm.py",
           "mid = x[..., d // 2 : nf * d : d]",
           "mid = left",
           "cover_amplitudes samples a window at its two edges only"),
    Mutant("fit_log_base_mismatch", "src/fractalport/fbm.py",
           "log_d = np.log(sizes.astype(np.float64))",
           "log_d = np.log2(sizes.astype(np.float64))",
           "fit_hurst regresses natural logs of the amplitudes on base-2 logs of the window sizes"),
    Mutant("returns_from_entry", "src/fractalport/spreads.py",
           "diffs = np.diff(prices, axis=1)",
           "diffs = prices[:, 1:] - prices[:, :1]",
           "window_returns gives each day's change since entry, not since the day before"),
    Mutant("returns_are_price_relatives", "src/fractalport/spreads.py",
           "diffs = np.diff(prices, axis=1)",
           "diffs = prices[:, 1:]",
           "window_returns gives each price over the entry price, not the change over it"),
    Mutant("returns_over_exit_price", "src/fractalport/spreads.py",
           "entries = prices[:, : (count - 1) * step + 1 : step]",
           "entries = prices[:, days - 1 : (count - 1) * step + days : step]",
           "window_returns divides each window by its last price, not its entry price"),
    Mutant("negative_seed_accepted", "src/fractalport/synthetic.py",
           "if seed < 0:",
           "if False:",
           "make_synthetic_universe hands a negative seed to numpy"),
    Mutant("missing_column_unchecked", "src/fractalport/io.py",
           "if column not in header:",
           "if False:",
           "read_column looks a column up without checking the header has it"),
)


def tier1(tree: Path) -> tuple[int, str, str, float]:
    """Exit status, first failed test, last output line and seconds of
    tier-1 in ``tree``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(tree / "src") + (os.pathsep + path if path else ""),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    run = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    failed = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), "")
    return run.returncode, failed, lines[-1] if lines else "", time.perf_counter() - start


def run_mutant(mutant: Mutant | None, work: Path) -> dict:
    """Tier-1 on a fresh copy of the tree with ``mutant`` applied (none: as is)."""
    tree = work / (mutant.name if mutant else "unmutated")
    shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
    if mutant:
        target = tree / mutant.file
        text = target.read_text()
        if text.count(mutant.source) != 1:
            raise SystemExit(f"{mutant.name}: source text does not occur once in {mutant.file}")
        target.write_text(text.replace(mutant.source, mutant.replacement))
    code, failed, last, seconds = tier1(tree)
    shutil.rmtree(tree)
    outcome = {0: "survived", 1: "killed"}.get(code, "error")
    return {"exit_code": code, "outcome": outcome, "first_failure": failed, "last_line": last,
            "seconds": round(seconds, 1)}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        baseline = run_mutant(None, work)
        print(f"unmutated: {baseline['last_line']}", file=sys.stderr)
        results = []
        if baseline["exit_code"] == 0:
            for mutant in MUTANTS:
                result = {"name": mutant.name, "file": mutant.file, "reason": mutant.reason,
                          **run_mutant(mutant, work)}
                print(f"{mutant.name}: {result['outcome']} ({result['last_line']})", file=sys.stderr)
                results.append(result)
    summary = {
        "command": TIER1[1:],
        "unmutated": baseline,
        "mutants": results,
        "killed": [r["name"] for r in results if r["outcome"] == "killed"],
        "survived": [r["name"] for r in results if r["outcome"] == "survived"],
        "errors": [r["name"] for r in results if r["outcome"] == "error"],
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    if baseline["exit_code"] != 0:
        return 2
    return int(len(summary["killed"]) < len(results))


if __name__ == "__main__":
    sys.exit(main())
