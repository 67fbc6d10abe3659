"""Span tracer for one fractalport CLI run, installed from outside the package.

The tracer replaces public pipeline functions with timing wrappers at the
module attribute the caller looks up. The package imports with
``from x import y``, so ``build_generating_matrix`` is patched in both
``fractalport.backtest`` and ``fractalport.cli``, ``hedge_ratio`` in
``fractalport.selection`` and ``cover_amplitudes`` in ``fractalport.fbm``.
Spans stay in memory; ``layer_metrics`` and ``write_spans`` read them after
the run. Private helpers (``_mark_window``, ``_optimize_window``) are not
wrapped, so their time stays in the self time of their public caller.
"""
from __future__ import annotations

import functools
import importlib
import json
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module the caller looks the name up in, attribute, span name).
PATCHES = (
    ("fractalport.cli", "ingest_prices", "io.ingest"),
    ("fractalport.cli", "report_to_json", "io.serialize"),
    ("fractalport.cli", "run_walk_forward", "backtest.run_walk_forward"),
    ("fractalport.cli", "compute_returns", "spreads.returns"),
    ("fractalport.cli", "build_generating_matrix", "selection.candidates"),
    ("fractalport.cli", "select_spreads", "selection.select"),
    ("fractalport.backtest", "compute_returns", "spreads.returns"),
    ("fractalport.backtest", "build_generating_matrix", "selection.candidates"),
    ("fractalport.backtest", "select_spreads", "selection.select"),
    ("fractalport.backtest", "covariance_matrix", "optimizer.covariance"),
    ("fractalport.backtest", "rescale_covariance", "optimizer.rescale"),
    ("fractalport.backtest", "solve_weights", "optimizer.solve"),
    ("fractalport.backtest", "apply_leverage", "optimizer.legs"),
    ("fractalport.backtest", "compose_legs", "optimizer.legs"),
    ("fractalport.backtest", "position_sizing", "backtest.sizing"),
    ("fractalport.backtest", "compute_metrics", "backtest.metrics"),
    ("fractalport.selection", "hedge_ratio", "spreads.hedge_ratio"),
    ("fractalport.selection", "build_spread", "spreads.build_spread"),
    ("fractalport.selection", "flip_spread", "spreads.flip"),
    ("fractalport.selection", "estimate_hurst", "fbm.hurst"),
    ("fractalport.fbm", "cover_amplitudes", "fbm.cover"),
)
ROOT_SPAN = "cli"

# Self-time metric of each span name. ``backtest.run_walk_forward`` minus
# its children is date alignment, mark-to-market and the window loop.
SELF_TIME = {
    "cli": "cli.self_s",
    "io.ingest": "io.ingest_s",
    "io.serialize": "io.serialize_s",
    "backtest.run_walk_forward": "backtest.self_s",
    "backtest.sizing": "backtest.sizing_s",
    "backtest.metrics": "backtest.metrics_s",
    "spreads.returns": "spreads.returns_s",
    "spreads.hedge_ratio": "spreads.hedge_ratio_s",
    "spreads.build_spread": "spreads.build_spread_s",
    "spreads.flip": "spreads.flip_s",
    "fbm.hurst": "fbm.hurst_s",
    "fbm.cover": "fbm.cover_s",
    "selection.candidates": "selection.candidates_s",
    "selection.select": "selection.select_s",
    "optimizer.covariance": "optimizer.covariance_s",
    "optimizer.rescale": "optimizer.rescale_s",
    "optimizer.solve": "optimizer.solve_s",
    "optimizer.legs": "optimizer.legs_s",
}
CALLS = {
    "spreads.returns": "spreads.returns_calls",
    "spreads.hedge_ratio": "spreads.hedge_ratio_calls",
    "spreads.build_spread": "spreads.build_spread_calls",
    "spreads.flip": "spreads.flip_calls",
    "fbm.hurst": "fbm.hurst_calls",
    "fbm.cover": "fbm.cover_calls",
}

# What to keep from a call for the counters, taken from arguments and
# return values only. Each keeper is a few attribute reads; anything
# costlier (eigenvalues, sums) is computed after the run.
KEEP = {
    "io.ingest": lambda args, r: sum(len(p) for p in r),
    "selection.candidates": lambda args, r: (len(args[0]), len(r)),
    "selection.select": lambda args, r: len(r),
    "optimizer.rescale": lambda args, r: r.matrix,
    "optimizer.solve": lambda args, r: r,
    "fbm.cover": lambda args, r: r[1],
    "backtest.run_walk_forward": lambda args, r: (
        len(r.windows),
        sum(len(w.dates) - 1 for w in r.windows),
    ),
}

# Each complete window reads three float64 samples (left edge, midpoint,
# right edge); bytes are computed from the returned window counts.
COVER_BYTES_PER_WINDOW = 3 * 8


class Tracer:
    """Records (name, parent, start, end) spans of wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        keep = KEEP.get(name)
        kept = self.kept[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every attribute in PATCHES; absent ones are listed in ``missing``."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name))
        # ``select`` serializes its result with an inline ``json.dumps``.
        cli = importlib.import_module("fractalport.cli")
        cli.json = types.SimpleNamespace(
            dumps=self.wrap(json.dumps, "io.serialize"), loads=json.loads
        )

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (duration minus children) and calls."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, _, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer time and counter of the run; 0 for layers it never entered."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for span, metric in SELF_TIME.items():
            out[metric] = self_s.get(span, 0.0)
        for span, metric in CALLS.items():
            out[metric] = calls.get(span, 0)
        kept = self.kept
        out["io.ingest_cells"] = sum(kept["io.ingest"])
        out["selection.pairs"] = sum(n * (n - 1) // 2 for n, _ in kept["selection.candidates"])
        out["selection.candidates"] = sum(c for _, c in kept["selection.candidates"])
        out["selection.selected"] = sum(kept["selection.select"])
        out["selection.yield"] = _ratio(out["selection.selected"], out["selection.candidates"])
        out["spreads.hedge_yield"] = _ratio(
            calls.get("spreads.build_spread", 0), calls.get("spreads.hedge_ratio", 0)
        )
        out["fbm.cover_bytes"] = COVER_BYTES_PER_WINDOW * sum(
            int(np.sum(c)) for c in kept["fbm.cover"]
        )
        out["optimizer.clamped"] = sum(int(np.sum(np.asarray(r) <= 0.0)) for r in kept["optimizer.solve"])
        out["optimizer.non_psd"] = sum(
            1 for m in kept["optimizer.rescale"] if np.linalg.eigvalsh(m).min() < 0.0
        )
        out["backtest.windows"] = sum(w for w, _ in kept["backtest.run_walk_forward"])
        out["backtest.days_marked"] = sum(d for _, d in kept["backtest.run_walk_forward"])
        return out

    def write_spans(self, path) -> None:
        """Dump spans as {"names": [...], "spans": [[name index, parent, start, end]]}."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[index[n], p, round(a - t0, 9), round(b - t0, 9)] for n, p, a, b in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
