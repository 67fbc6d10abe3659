"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""
import json
import time
from dataclasses import fields

import numpy as np

from fractalport.backtest import BacktestConfig, max_drawdown, run_walk_forward
from fractalport.cli import main
from fractalport.fbm import estimate_hurst
from fractalport.optimizer import (
    RIDGE_LAMBDA,
    apply_leverage,
    rescale_covariance,
    solve_weights,
)
from fractalport.selection import (
    Candidates,
    SelectionConfig,
    fractal_kelly_weight,
    select_spreads,
)
from fractalport.spreads import PriceSeries
from fbm_reference import generate_fbm
from panels import panel_of


def record(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_01_hurst_estimator_calibration():
    t0 = time.time()
    details = []
    ok = True
    for h_true in (0.3, 0.5, 0.7):
        estimates = np.array(
            [estimate_hurst(generate_fbm(h_true, 1024, 1.0, seed)).h for seed in range(100)]
        )
        med_err = abs(np.median(estimates) - h_true)
        frac = float(np.mean(np.abs(estimates - h_true) <= 0.08))
        ok &= med_err <= 0.05 and frac >= 0.90
        details.append(f"H={h_true}: med_err={med_err:.3f} within08={frac:.0%}")
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    record(1, "Hurst estimator calibration", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_02_scaling_law_oracle():
    lags = np.array([1, 2, 4, 8, 16, 32, 64])
    details = []
    ok = True
    for h_true in (0.3, 0.5, 0.7):
        for seed in (101, 202, 303):
            path = generate_fbm(h_true, 4096, 1.0, seed)
            msq = [np.mean((path[k:] - path[:-k]) ** 2) for k in lags]
            slope = np.polyfit(np.log(lags), np.log(msq), 1)[0]
            ok &= abs(slope - 2 * h_true) <= 0.15
        details.append(f"H={h_true}: slope={slope:.3f}")
    record(2, "mean-squared-increment scaling law (slope within +-0.15 of 2H)", ok, "; ".join(details))


def test_03_kelly_reduction_grid_search():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        mu = float(rng.uniform(1e-4, 2e-3))
        theta = float(rng.uniform(0.005, 0.05))
        grid = np.arange(0.0, 5.0 * mu / theta**2, 0.01)
        growth = grid * mu - grid**2 * theta**2 / 2.0
        best = float(grid[np.argmax(growth)])
        got = fractal_kelly_weight(mu, theta, 0.5, 126)
        worst = max(worst, abs(got - best))
    ok = worst <= 0.01 + 1e-12
    record(3, "fractal Kelly at H=0.5 matches growth-curve grid search", ok, f"worst={worst:.4f}")


# Columns of a candidate table after ``symbols``, in field order, and the
# ones holding indices; the others hold floats.
COLUMNS = [f.name for f in fields(Candidates)][1:]
INDEX_COLUMNS = ("window", "long", "short")


def _table_rows(cands):
    """Per-row tuples of every column, in ``COLUMNS`` order."""
    return list(zip(*(getattr(cands, name).tolist() for name in COLUMNS)))


def _random_candidates(rng, n_assets):
    """Symbols, per-row tuples in ``COLUMNS`` order, and their table."""
    symbols = [f"S{i}" for i in range(n_assets)]
    records = []
    for i in range(n_assets):
        for j in range(i + 1, n_assets):
            if rng.uniform() < 0.25:
                continue  # some pairs rejected upstream
            deltas = rng.normal(1e-4, 1e-3, 40)
            chi = float(rng.uniform(0.5, 2.0))
            mean = float(rng.uniform(0.0, 2e-3)) + 1e-6
            theta = float(deltas.std())
            # discrete weight levels force ties to exercise tie-breaking
            kelly = float(rng.choice([1.0, 2.0, 3.0, rng.uniform(0, 10)]))
            h = float(rng.uniform(0.05, 0.65))
            h_err = float(rng.uniform(0.0, 0.2))
            records.append({"window": 0, "long": i, "short": j, "chi": chi, "mean": mean,
                            "theta": theta, "h": h, "h_err": h_err, "kelly": kelly})
    columns = {
        name: np.array([r[name] for r in records],
                       dtype=np.intp if name in INDEX_COLUMNS else np.float64)
        for name in COLUMNS
    }
    rows = [tuple(r[name] for name in COLUMNS) for r in records]
    return symbols, rows, Candidates(tuple(symbols), **columns)


def _brute_force_selection(symbols, rows, cap):
    """Independent reimplementation: literal repeat-max scan with exclusion."""
    col = {name: k for k, name in enumerate(COLUMNS)}
    long, short, kelly = col["long"], col["short"], col["kelly"]
    h, h_err, mean = col["h"], col["h_err"], col["mean"]
    remaining = list(rows)
    chosen = []
    while remaining:
        best = None
        for cand in remaining:
            if best is None:
                best = cand
                continue
            key_c = (symbols[cand[long]], symbols[cand[short]])
            key_b = (symbols[best[long]], symbols[best[short]])
            if cand[kelly] > best[kelly] or (cand[kelly] == best[kelly] and key_c < key_b):
                best = cand
        passes = best[h] + best[h_err] < cap and best[h_err] < best[h] and best[mean] > 0.0
        if passes:
            chosen.append(best)
            used = {best[long], best[short]}
            remaining = [c for c in remaining if not ({c[long], c[short]} & used)]
        else:
            remaining.remove(best)
    return chosen


def test_04_greedy_selection_matches_brute_force():
    rng = np.random.default_rng(1234)
    cfg = SelectionConfig(horizon_days=126, hurst_cap=0.5)
    mismatches = selected = 0
    for trial in range(200):
        n_assets = int(rng.integers(2, 6))
        symbols, rows, candidates = _random_candidates(rng, n_assets)
        got = select_spreads(candidates, cfg)
        expected = _brute_force_selection(symbols, rows, cfg.hurst_cap)
        if _table_rows(got) != expected:
            mismatches += 1
        selected += len(got)
    # the draws fix how many spreads pass: a table that mixes up its columns
    # screens on the wrong values and selects another number, often none
    record(4, "greedy selection equals brute-force five-step oracle (200 trials)",
           mismatches == 0 and selected == 190, f"mismatches={mismatches}, selected={selected}")


def test_05_horizon_invariance_uniform_h():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        x = rng.standard_normal((m, 300)) * 0.01
        cov = np.cov(x, bias=True)
        mu = rng.uniform(1e-4, 2e-3, m)
        h = float(rng.uniform(0.1, 0.9))
        weights = []
        for n_days in (1, 126):
            raw = solve_weights(cov, [h] * m, mu, n_days)
            weights.append(apply_leverage(raw, 2.0)[0])
        worst = max(worst, float(np.max(np.abs(weights[0] - weights[1]))))
    ok = worst <= 1e-10
    record(5, "final weights invariant to horizon under uniform H", ok, f"worst={worst:.2e}")


def test_06_two_by_two_optimizer_oracle():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(50):
        a, d = rng.uniform(1e-4, 1e-3, 2)
        b = float(rng.uniform(-0.6, 0.6)) * np.sqrt(a * d)
        cov = np.array([[a, b], [b, d]])
        mu = rng.uniform(-1e-3, 2e-3, 2)
        h = float(rng.uniform(0.2, 0.8))
        n_days = int(rng.integers(1, 253))
        scaled = rescale_covariance(cov, [h, h], n_days)
        reg = scaled + RIDGE_LAMBDA * np.trace(scaled) / 2.0 * np.eye(2)
        det = reg[0, 0] * reg[1, 1] - reg[0, 1] * reg[1, 0]
        inv = np.array([[reg[1, 1], -reg[0, 1]], [-reg[1, 0], reg[0, 0]]]) / det
        expected = inv @ mu * n_days
        got = solve_weights(cov, [h, h], mu, n_days)
        scale = max(1.0, float(np.max(np.abs(expected))))
        worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
    ok = worst <= 1e-12
    record(6, "solve_weights matches closed-form 2x2 inverse", ok, f"worst={worst:.2e}")


def test_07_no_lookahead(universe, backtest_cfg, report):
    target = report.windows[2]
    # a short leg: its mid-window price moves both the equity path and the
    # financing charges, so the realized P&L must change
    sym = sorted(s for s, v in target.shares.items() if v < 0)[0]
    mutate_date = target.dates[len(target.dates) // 2]
    mutated = []
    for p in universe.prices:
        if p.symbol == sym:
            prices = p.prices.copy()
            prices[p.dates.index(mutate_date)] *= 1.5
            mutated.append(PriceSeries(symbol=sym, dates=p.dates, prices=prices))
        else:
            mutated.append(p)
    rep2 = run_walk_forward(panel_of(mutated + [universe.benchmark]), backtest_cfg)
    w1, w2 = report.windows[2], rep2.windows[2]
    identical = (
        w1.shares == w2.shares
        and [s["weight"] for s in w1.selected] == [s["weight"] for s in w2.selected]
        and w1.asset_legs == w2.asset_legs
    )
    pnl_changed = w1.window_return != w2.window_return and not np.array_equal(
        w1.daily_equity, w2.daily_equity
    )
    record(7, "test-window price mutation leaves weights/shares bit-identical",
           identical and pnl_changed,
           f"weights_identical={identical}, pnl_changed={pnl_changed}")


def test_08_accounting_identity(universe, report):
    lookup = {p.symbol: dict(zip(p.dates, p.prices)) for p in universe.prices}
    worst = 0.0
    for w in report.windows:
        for t in range(1, len(w.dates)):
            pnl = sum(
                sh * (lookup[s][w.dates[t]] - lookup[s][w.dates[t - 1]])
                for s, sh in w.shares.items()
            )
            gap = abs(w.daily_equity[t] - (w.daily_equity[t - 1] + pnl - w.daily_costs[t - 1]))
            worst = max(worst, gap)
    ok = worst <= 1e-6
    record(8, "equity(t+1) = equity(t) + shares*dP - costs to 1e-6", ok, f"worst={worst:.2e}")


def test_09_synthetic_end_to_end(universe, backtest_cfg):
    t0 = time.time()
    rep = run_walk_forward(panel_of(universe.prices + [universe.benchmark]), backtest_cfg)
    elapsed = time.time() - t0
    n = len(rep.windows)
    rates = []
    for pair in [tuple(sorted(p)) for p in universe.planted_pairs]:
        hits = sum(
            1
            for w in rep.windows
            if any(tuple(sorted((s["long_symbol"], s["short_symbol"]))) == pair for s in w.selected)
        )
        rates.append(hits / n)
    corr_ok = abs(rep.benchmark_correlation) < 0.3
    rates_ok = all(r >= 0.8 for r in rates)
    hurst_ok = all(s["hurst"] + s["hurst_err"] < 0.5 for w in rep.windows for s in w.selected)
    ok = corr_ok and rates_ok and hurst_ok and elapsed < 60.0
    record(9, "synthetic end-to-end hedging reproduction", ok,
           f"rho={rep.benchmark_correlation:+.3f}, pair_rates={[f'{r:.0%}' for r in rates]}, "
           f"hurst_criterion={hurst_ok}, {elapsed:.1f}s")


def test_10_lo_annualization_and_drawdown_units():
    from fractalport.backtest import compute_metrics
    from test_backtest import fabricate_window

    windows = [fabricate_window(0, 0.10, 0.01), fabricate_window(1, 0.00, 0.02)]
    rep = compute_metrics(windows, BacktestConfig(benchmark_symbol="SPY"))
    sd = float(np.std([0.10, 0.00], ddof=1))
    lo_ok = rep.annual_volatility == np.sqrt(2.0) * sd
    dd = max_drawdown([100.0, 120.0, 90.0, 130.0])
    dd_ok = dd == 0.25
    record(10, "Lo sqrt(2) annualization and drawdown unit checks",
           lo_ok and dd_ok, f"vol={rep.annual_volatility:.6f}, dd={dd}")


def test_11_cli_determinism(fixture_csv, tmp_path):
    payloads = []
    for name in ("run1.json", "run2.json"):
        out = tmp_path / name
        code = main([
            "backtest", "--prices", str(fixture_csv), "--benchmark", "MKT",
            "--output", str(out),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    json.loads(payloads[0])  # well-formed
    record(11, "consecutive backtest runs produce byte-identical reports", ok,
           f"bytes={len(payloads[0])}")
