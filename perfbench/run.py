"""Benchmark entry point for simcol.

Usage (from the repository root):

    python3 perfbench/run.py --workload sample --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process, which is fresh per call, so
process-level caches (``certify.rate_maxima``) start cold as they do for
a CLI user.  ``--workload all`` runs every workload of BENCHMARK.json in
its own child process, one after the other.  BLAS threads are held at 1.
simcol is imported from ``src/`` beside this directory and nowhere else.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 600


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _layer_values(run, tracer, import_s: float) -> dict:
    """Per-layer numbers: traced call totals, self times, counters, run facts."""
    values = dict(run.layer)
    values["import_s"] = import_s
    for name, total in tracer.total.items():
        module, fn, *label = name.split(".", 2)
        suffix = f".{label[0]}" if label else ""
        values[f"{module}.{fn}_s{suffix}"] = total
        values[f"{module}.{fn}_calls{suffix}"] = tracer.calls[name]
    for module, own in tracer.module_self.items():
        values[f"{module}.self_s"] = own
    values.update(tracer.counts)
    drifts = tracer.durations("coupling.flip_exact_drift")
    if drifts:
        values["coupling.flip_exact_drift_s.first"] = drifts[0]
    if len(drifts) > 1:
        values["coupling.flip_exact_drift_s.median"] = statistics.median(drifts[1:])
    for name, value in run.e2e.items():
        values[f"traced.{name}"] = value
    return values


def run_one(args) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "simcol" / "__init__.py").is_file():
        sys.stderr.write(f"error: no simcol sources under {SRC}\n")
        return 2
    spec = _spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import simcol
    import_s = perf_counter() - start
    if Path(simcol.__file__).resolve().parent != SRC / "simcol":
        sys.stderr.write(f"error: simcol imported from {simcol.__file__}\n")
        return 2

    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = workloads.Run(args.seed, args.seconds, tracer)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        if tracer is not None:
            tracer.restore()

    if args.trace:
        values = _layer_values(run, tracer, import_s)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        values = dict(run.e2e)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            sys.stderr.write(f"error: no value for {missing}\n")
            return 1

    metrics = {}
    for m in wanted:
        # a layer the workload never reaches reads 0
        value = values.get(m["name"], 0.0 if m["unit"] == "s" else 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {value} {m['unit']}")
    for problem in run.problems:
        print(f"CHECK FAILED {args.workload}: {problem}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a combined line with prefixed names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in _spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stderr.write(f"error: workload {w['name']} exited {proc.returncode}\n")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one simcol benchmark workload.")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
