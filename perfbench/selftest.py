#!/usr/bin/env python3
"""Self-test of the pipeline benchmark on tiny universes (about a minute).

Checks that the input generator is deterministic per seed, that the span
self times of a traced run add up to its run time, that a wrong reference
trips the correctness check, and that the benchmark refuses to run without
the package source.

Usage: python3 perfbench/selftest.py
"""
import json
import shutil
import subprocess
import sys
import time

import run
from tracer import SELF_TIME, Tracer

TINY = {
    "tiny_backtest": run.Workload(8, 3, 400, "wide", "backtest"),
    "tiny_select": run.Workload(12, 3, 300, "long", "select"),
}


def check(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    return ok


def generator_is_deterministic(package) -> bool:
    _, make_universe, write_wide = package
    ok = True
    for name, wl in TINY.items():
        work = run.WORK / name
        work.mkdir(parents=True, exist_ok=True)
        inputs = run.Inputs(wl, make_universe, write_wide, work)
        first = inputs.build(7, "a")[1].read_bytes()
        again = inputs.build(7, "b")[1].read_bytes()
        other = inputs.build(8, "c")[1].read_bytes()
        ok &= check(first == again and first != other,
                    f"{name}: same seed gives the same CSV, another seed another CSV")
    return ok


def self_times_add_up() -> bool:
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap(leaf, "leaf")

    def parent():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap(parent, "root")()
    self_s, calls = tracer.self_times()
    ok = check(calls == {"root": 1, "leaf": 2} and abs(self_s["leaf"] - 0.04) < 0.02
               and abs(self_s["root"] - 0.01) < 0.01,
               "self time is span duration minus child spans")
    return ok


def traced_run_adds_up(package, reference) -> bool:
    ok = True
    for name in TINY:
        record, layers = run.run_workload(name, 1, 0.0, True, package, reference)
        total = sum(layers[m] for m in SELF_TIME.values())
        gap = abs(total - record["traced_run_s"])
        ok &= check(gap <= max(abs(layers["trace.overhead_s"]), 1e-3),
                    f"{name}: span self times sum to {total:.4f} s, traced run "
                    f"{record['traced_run_s']:.4f} s, overhead {layers['trace.overhead_s']:.4f} s")
        declared = run.declared_metrics("per_layer")
        ok &= check(set(declared) <= set(layers), f"{name}: every declared per-layer metric reported")
        ok &= check(record["failed"] == 0, f"{name}: no operation failed with the right reference")
    return ok


def wrong_reference_trips(package, reference) -> bool:
    ok = True
    for name in TINY:
        wrong = json.loads(json.dumps(reference))
        wrong["workloads"][name]["planted_precision"] += 0.01
        record, _ = run.run_workload(name, 1, 0.0, False, package, wrong)
        ok &= check(record["failed"] > 0, f"{name}: a wrong reference fails runs ({record['failed']})")
    return ok


def refuses_without_source() -> bool:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "history_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    return check(proc.returncode != 0 and not proc.stdout.strip(),
                 f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    run.WORKLOADS.update(TINY)
    package = run.import_package()
    reference = {"environment": run.environment(package[0]), "workloads": {}}
    for name, wl in TINY.items():
        work = run.WORK / name
        work.mkdir(parents=True, exist_ok=True)
        reference["workloads"][name] = run.reference_quality(wl, package, work)
    results = [
        generator_is_deterministic(package),
        self_times_add_up(),
        traced_run_adds_up(package, reference),
        wrong_reference_trips(package, reference),
        refuses_without_source(),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
