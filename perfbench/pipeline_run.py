"""One fractalport CLI run in a fresh interpreter, reported as one JSON line.

run.py starts this script once per measured run, so no run inherits state
from the one before it and the peak resident memory read at the end is
this process's own: interpreter, numpy, the package and the run, as a user
of the CLI sees it. The run is an in-process ``fractalport.cli.main`` call,
timed from ingest to the written output. With ``"trace": true`` the span
tracer is installed first and the per-layer figures are reported too;
without it the tracer module is never imported.

Usage: python3 pipeline_run.py '<json spec>'
  spec keys: src (directory holding the package), argv (CLI arguments),
  output (file the CLI writes), trace (bool), spans (file for the span dump
  of a traced run).
"""
import contextlib
import hashlib
import json
import os
import sys
import time
from pathlib import Path


def vm_hwm_kib() -> int:
    """Peak resident set of this process image (Linux ``VmHWM``), in KiB.

    ``ru_maxrss`` would not do: it carries over the resident set of the
    parent process this one was forked from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import fractalport
    from fractalport import cli

    import_s = time.perf_counter() - start

    run = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(cli.main, ROOT_SPAN)

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0, c0 = time.perf_counter(), time.process_time()
        exit_code = run(spec["argv"])
        run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = vm_hwm_kib() * 1024 / 1e6

    output = Path(spec["output"])
    payload = output.read_bytes() if exit_code == 0 else b""
    result = {
        "exit_code": exit_code,
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "output_bytes": len(payload),
        "kernel_backend": getattr(fractalport, "KERNEL_BACKEND", "python"),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["io.report_bytes"] = len(payload)
        result["layers"] = layers
        result["missing_patches"] = tracer.missing
        tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
