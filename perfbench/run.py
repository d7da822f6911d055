"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload run-n128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package under ``src/`` is what gets
measured.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a table of the same figures comes before it, and a results
file with the environment goes to ``perfbench/out/results/``.

Set-up is timed in the measuring worker process and in the fresh
set-up processes it starts between its ops (see worker.py), and reported
as the median of all these samples.  The sources under ``src/`` and
``perfbench/`` are byte-compiled before the first of them, so set-up
loads cached bytecode and never times the compiler.  Every child process
gets one BLAS/OpenMP thread; nothing else about the machine is changed.
``--size toy`` runs the self-test shapes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 175.0
TAIL_BEYOND = 10
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def worker(args, deadline: float) -> dict:
    """Run the worker process to completion and return its JSON report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV}, capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it.

    With fewer samples than that the maximum stands in, at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(report: dict) -> tuple[dict, dict]:
    op_s, setup = report["op_s"], report["setup_s"]
    ok = report["attempted"] - report["failed"]
    tail_value, tail_pct = tail(op_s)
    metrics = {
        "ops_per_s": ok / sum(op_s),
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
        "ops_failed_frac": report["failed"] / report["attempted"],
    }
    extra = {"op_s.samples": len(op_s), "op_s.tail_percentile": tail_pct,
             "setup_s.samples": setup}
    return metrics, extra


def environment(load_at_start) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_average_at_start": load_at_start,
        "platform": platform.platform(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    args = ap.parse_args()

    load_at_start = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for directory, depth in ((ROOT / "src", 10), (BENCH, 0)):
        if not compileall.compile_dir(directory, maxlevels=depth, quiet=1):
            raise SystemExit(f"could not byte-compile {directory}")

    report = worker(args, deadline)
    if args.trace:
        computed, extra = report["layers"], {"counters": report["counters"]}
    else:
        computed, extra = end_to_end(report)
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = {
        "args": vars(args),
        "result": result,
        "all_computed": computed,
        "extra": extra,
        "failures": report["failures"],
        "python": report["python"],
        "numpy": report["numpy"],
        "lasw_source_digest": report["lasw_source_digest"],
        **environment(load_at_start),
    }
    results = BENCH / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_{args.size}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, trace {args.trace}: "
          f"{report['attempted']} ops, {report['failed']} failed")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["ops_failed_frac"] = "ratio"
    for key, value in computed.items():
        print(f"  {key:40s} {value:14.6g} {units.get(key, '')}")
    for key, value in extra.items():
        print(f"  {key:40s} {value}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
