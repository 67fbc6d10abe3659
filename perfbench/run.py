#!/usr/bin/env python3
"""Pipeline benchmark for fractalport: whole CLI runs and, traced, each layer.

Each workload generates a synthetic universe from the seed, writes it as a
CSV several times (each build must give the same bytes) and times
``fractalport.cli.main`` runs on it, each run in a fresh interpreter
(pipeline_run.py), until ``--seconds`` have passed and at least three runs
are done. Every run's output must be byte-identical to the first run's. One
untimed run on the fixed reference universe (seed 3) must give the quality
figures in ``reference.json``. A run that fails a check, or exits non-zero,
counts as failed. Times are taken against a fixed calibration kernel
measured around them, because the host's speed drifts more than any bound
allows (NOTES.md): ``run_cal`` is a run's wall time over the kernel's time,
and ``setup_s`` is the set-up's time scaled the same way to seconds at a
nominal host speed.

  python3 perfbench/run.py --workload pairs_wide --seed 1 --seconds 24 --trace 0
  python3 perfbench/run.py --workload all       # every workload, traced, all metrics
  python3 perfbench/run.py --record-reference   # rewrite reference.json

The last line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload all``
prints both for every workload and writes ``results.json`` beside this file. See NOTES.md for the metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads: the ROADMAP states its speed
# target for one core, and the runs then do not contend for cores with
# each other's thread pools. The runs inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results.json"
CHILD = HERE / "pipeline_run.py"

REFERENCE_SEED = 3
MIN_RUNS = 3
SETUP_REPEATS = 4
CHILD_TIMEOUT_S = 170
# Quality figures may differ from the reference by rounding only.
QUALITY_RTOL = 1e-9
SELECT_WINDOW_DAYS = 126
CALIBRATION_PASSES = 7500
# setup_s is reported in seconds at the host speed where the calibration
# kernel takes this long, about its median on a 2-core virtual machine.
CALIBRATION_NOMINAL_S = 0.3


@dataclass(frozen=True)
class Workload:
    assets: int
    pairs: int
    days: int
    layout: str  # "wide" or "long" CSV
    command: str  # CLI subcommand
    options: tuple[str, ...] = ()


WORKLOADS = {
    # 19 windows x 1770 pairs: the candidate loop (spreads, fbm, selection)
    # is ~92% of the run, and the quality of the result is poorest here.
    "pairs_wide": Workload(60, 3, 2520, "wide", "backtest"),
    # 354 windows x 15 pairs: per-window fixed costs (optimizer solves,
    # mark-to-market, report serialization) carry the most weight.
    "history_long": Workload(6, 3, 7560, "wide", "backtest", ("--test-days", "21")),
    # One 126-day window over 19,900 pairs from a 504k-row long-format CSV:
    # the other ingest parser at scale, and the widest selection.
    "select_large": Workload(200, 5, 2520, "long", "select"),
}



class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no package, no successful run)."""


def import_package():
    """Import fractalport from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fractalport
        from fractalport.io import write_prices_wide
        from fractalport.synthetic import make_synthetic_universe
    except ImportError as exc:
        raise BenchmarkError(f"cannot import fractalport from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(fractalport.__file__).resolve().parents:
        raise BenchmarkError(f"fractalport imported from {fractalport.__file__}, not {SRC}")
    return fractalport, make_synthetic_universe, write_prices_wide


def environment(fractalport) -> dict:
    """Stamp that says which runs may be compared with each other."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.pyx")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(fractalport, "KERNEL_BACKEND", "python"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def calibration_s() -> float:
    """Time of a fixed kernel shaped like the per-pair work: small numpy
    operations on 126-day windows, driven from a Python loop.

    On a shared host the machine's speed drifts, by up to 1.9x within
    minutes, and the drift slows this kernel as it slows the pipeline, so a
    run's time over the kernel's time at that moment holds steady. The
    kernel uses numpy only, never the package, so no change to fractalport
    moves it.
    """
    x = np.random.default_rng(0).standard_normal((64, SELECT_WINDOW_DAYS))
    start = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_PASSES):
        a, b = x[i % 64], x[(7 * i) % 64]
        da, db = np.diff(a), np.diff(b)
        chi = float(np.mean((da - da.mean()) * (db - db.mean()))) / float(np.var(db))
        path = np.cumsum(a - chi * b)
        acc += float(path[0:120:8].max() - path[4:124:8].min())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise BenchmarkError("calibration kernel produced a non-finite result")
    return elapsed


def write_prices_long(path: Path, series) -> None:
    """``date,symbol,adj_close`` rows, floats in shortest round-trip repr."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "symbol", "adj_close"])
        for s in sorted(series, key=lambda s: s.symbol):
            writer.writerows((d, s.symbol, repr(float(p))) for d, p in zip(s.dates, s.prices))


class Inputs:
    """Generates a workload's universes and CSVs and times each set-up."""

    def __init__(self, wl: Workload, make_universe, write_wide, work: Path):
        self.wl, self.make_universe, self.write_wide, self.work = wl, make_universe, write_wide, work
        self.make_s: list[float] = []
        self.input_s: list[float] = []

    def build(self, seed: int, name: str):
        wl = self.wl
        path = self.work / f"{name}.csv"
        t0 = time.perf_counter()
        universe = self.make_universe(n_assets=wl.assets, n_days=wl.days, seed=seed, n_pairs=wl.pairs)
        t1 = time.perf_counter()
        if wl.command == "select":  # select has no benchmark; the universe is the assets
            series = list(universe.prices)
        else:
            series = universe.prices + [universe.benchmark]
        if wl.layout == "wide":
            self.write_wide(path, series)
        else:
            write_prices_long(path, series)
        t2 = time.perf_counter()
        self.make_s.append(t1 - t0)
        self.input_s.append(t2 - t0)
        return universe, path


def cli_args(wl: Workload, universe, csv_path: Path, output: Path) -> list[str]:
    if wl.command == "backtest":
        head = ["backtest", "--benchmark", universe.benchmark.symbol]
    else:
        dates = universe.prices[0].dates
        head = ["select", "--start", dates[-SELECT_WINDOW_DAYS], "--end", dates[-1]]
    return head + ["--prices", str(csv_path), "--output", str(output), *wl.options]


def run_child(argv: list[str], output: Path, trace: bool, spans: Path | None = None):
    """One CLI run in a fresh interpreter; returns its report, or None if it failed."""
    spec = {"src": str(SRC), "argv": argv, "output": str(output), "trace": trace,
            "spans": str(spans) if spans else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run timed out after {CHILD_TIMEOUT_S} s: {argv[0]}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        print(f"CLI exited {result['exit_code']}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return result


def quality(doc: dict, planted) -> dict:
    """Report quality: sharpe and neutrality (backtest only) and planted precision.

    Precision is the share of selected spreads, counted per window, whose
    unordered pair is a planted pair.
    """
    planted = {frozenset(p) for p in planted}
    if "windows" in doc:
        picked = [s for w in doc["windows"] for s in w["selected"]]
        out = {"sharpe": doc["metrics"]["sharpe"],
               "market_neutrality": doc["metrics"]["market_neutrality"]}
    else:
        picked = doc["spreads"]
        out = {}
    hits = sum(frozenset((s["long_symbol"], s["short_symbol"])) in planted for s in picked)
    out["planted_precision"] = hits / len(picked) if picked else 0.0
    return out


def quality_matches(got: dict, want: dict) -> bool:
    if set(got) != set(want):
        return False
    for key, ref in want.items():
        value = got[key]
        if ref is None or value is None:
            if ref is not value:
                return False
        elif abs(value - ref) > QUALITY_RTOL * max(1.0, abs(ref)):
            return False
    return True


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "values": values}


def reference_quality(wl: Workload, package, work: Path) -> dict | None:
    """Quality of one untimed run on the fixed reference universe, or None if it failed."""
    _, make_universe, write_wide = package
    universe, path = Inputs(wl, make_universe, write_wide, work).build(REFERENCE_SEED, "reference")
    output = work / "reference_out.json"
    if run_child(cli_args(wl, universe, path, output), output, trace=False) is None:
        return None
    return quality(json.loads(output.read_text()), universe.planted_pairs)


def run_workload(name: str, seed: int, seconds: float, trace: bool, package,
                 reference: dict | None) -> tuple[dict, dict]:
    """Set up, run and check one workload.

    Returns the record (environment, samples, operation counts) and the
    value of every metric the workload has, end-to-end and per-layer.
    """
    fractalport, make_universe, write_wide = package
    wl = WORKLOADS[name]
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    env = environment(fractalport)
    if reference is not None and reference["environment"]["kernel_backend"] != env["kernel_backend"]:
        raise BenchmarkError(
            f"kernel backend {env['kernel_backend']} differs from the reference's "
            f"{reference['environment']['kernel_backend']}; not comparable"
        )
    attempted = failed = 0

    # Set-up, several times: every build of the seed's universe must give
    # the same CSV bytes, and each is timed against the calibration kernel
    # run just before and just after it.
    inputs = Inputs(wl, make_universe, write_wide, work)
    setup_cals = [calibration_s()]
    csv_digests = set()
    for _ in range(SETUP_REPEATS):
        seeded, seeded_csv = inputs.build(seed, "seed")
        setup_cals.append(calibration_s())
        csv_digests.add(hashlib.sha256(seeded_csv.read_bytes()).hexdigest())
    attempted += 1
    if len(csv_digests) != 1:
        print(f"generator is not deterministic for seed {seed}", file=sys.stderr)
        failed += 1
    input_cal = [t / ((a + b) / 2) for t, a, b in zip(inputs.input_s, setup_cals, setup_cals[1:])]

    # Quality gate: one untimed run on the reference universe.
    attempted += 1
    ref_quality = reference_quality(wl, package, work)
    if ref_quality is None:
        failed += 1
    elif reference is not None:
        want = reference["workloads"].get(name)
        if want is None or not quality_matches(ref_quality, want):
            print(f"{name}: reference quality {ref_quality} does not match {want}", file=sys.stderr)
            failed += 1

    # Timed runs on the seed's universe. A run starts only while the time
    # used plus half the last run's length is under --seconds, so the runs
    # end within about half a run of it; at least MIN_RUNS are made.
    output = work / "seed_out.json"
    argv = cli_args(wl, seeded, seeded_csv, output)
    digest = None
    samples: list[dict] = []
    calibrations = [calibration_s()]
    runs, cycle_s = 0, 0.0
    start = time.perf_counter()
    while runs < MIN_RUNS or time.perf_counter() - start + cycle_s / 2 < seconds:
        t0 = time.perf_counter()
        runs += 1
        attempted += 1
        result = run_child(argv, output, trace=False)
        calibrations.append(calibration_s())
        cycle_s = time.perf_counter() - t0
        if result is None:
            failed += 1
            continue
        if digest is None:
            digest = result["sha256"]
        elif result["sha256"] != digest:
            print(f"{name}: output differs from the first run's", file=sys.stderr)
            failed += 1
            continue
        # The kernel's time around this run: before it and after it.
        result["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2
        samples.append(result)
    if not samples:
        raise BenchmarkError(f"{name}: no run succeeded")

    sampled = {
        "run_s": [s["run_s"] for s in samples],
        "run_cal": [s["run_s"] / s["calibration_s"] for s in samples],
        "calibration_s": setup_cals + calibrations,
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "import_s": [s["import_s"] for s in samples],
        "import_cal": [s["import_s"] / s["calibration_s"] for s in samples],
        "input_s": inputs.input_s,
        "input_cal": input_cal,
        "make_s": inputs.make_s,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "samples": {k: summary(v) for k, v in sampled.items()},
    }
    median = {k: v["median"] for k, v in record["samples"].items()}
    ref_quality = ref_quality or {}
    values = {
        "setup_s": CALIBRATION_NOMINAL_S * (median["import_cal"] + median["input_cal"]),
        "run_cal": median["run_cal"],
        "peak_rss_mb": median["peak_rss_mb"],
        "planted_precision": ref_quality.get("planted_precision", 0.0),
    }

    if trace:
        attempted += 1
        traced = run_child(argv, output, trace=True, spans=work / "spans.json")
        if traced is None or traced["sha256"] != digest:
            raise BenchmarkError(f"{name}: traced run failed or changed the output")
        values.update(traced["layers"])
        values["synthetic.make_s"] = median["make_s"]
        values["run_s"] = median["run_s"]
        values["calibration_s"] = median["calibration_s"]
        values["trace.overhead_s"] = traced["run_s"] - median["run_s"]
        values["backtest.sharpe"] = ref_quality.get("sharpe") or 0.0
        values["backtest.market_neutrality"] = ref_quality.get("market_neutrality") or 0.0
        record["traced_run_s"] = traced["run_s"]
        record["missing_patches"] = traced["missing_patches"]
    record.update(attempted=attempted, failed=failed)
    return record, values


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def select_metrics(values: dict, declared: dict[str, str], name: str) -> dict:
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchmarkError(f"{name}: no value for declared metrics {missing}")
    return {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}


def print_metrics(name: str, metrics: dict, samples: dict) -> None:
    for key, metric in metrics.items():
        extra = ""
        if key in samples:
            s = samples[key]
            extra = f"  (median of {s['n']}, quartiles {s['q1']:.6g}..{s['q3']:.6g})"
        print(f"{name:13s} {key:28s} {metric['value']:16.6f} {metric['unit']}{extra}")


def record_reference(package) -> None:
    """Run each workload's reference universe once and store its quality."""
    out = {"seed": REFERENCE_SEED, "environment": environment(package[0]), "workloads": {}}
    for name, wl in WORKLOADS.items():
        work = WORK / name
        work.mkdir(parents=True, exist_ok=True)
        got = reference_quality(wl, package, work)
        if got is None:
            raise BenchmarkError(f"{name}: reference run failed")
        out["workloads"][name] = got
        print(f"{name}: {got}")
    REFERENCE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        package = import_package()
        if args.record_reference:
            record_reference(package)
            return 0
        reference = json.loads(REFERENCE.read_text())
        seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        every = args.workload == "all"
        kinds = ("end_to_end", "per_layer") if every else (("per_layer",) if args.trace else ("end_to_end",))
        records = []
        for name in list(WORKLOADS) if every else [args.workload]:
            record, values = run_workload(name, args.seed, seconds, "per_layer" in kinds,
                                          package, reference)
            record["metrics"] = {}
            for kind in kinds:
                metrics = select_metrics(values, declared_metrics(kind), name)
                print_metrics(name, metrics, record["samples"])
                record["metrics"].update(metrics)
            records.append(record)
            with (WORK / "records.jsonl").open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.workload == "all":
        RESULTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {RESULTS.relative_to(ROOT)}: {len(records)} records, "
              f"{failed} of {attempted} operations failed")
        return 0 if failed == 0 else 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": records[0]["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
