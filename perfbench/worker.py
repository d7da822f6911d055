"""One workload process: set up, warm up, then run closed-loop ops for a while.

Started by run.py.  Prints one JSON object on stdout with
the raw figures (set-up times, every op's wall time, failures, peak RSS
and, when traced, the per-layer metrics); run.py turns them into the
benchmark's metrics.  With --setup-only it stops after set-up.  An
untraced run starts SETUP_SAMPLES such processes between its ops, evenly
over the timed run and with the clock stopped while they run, so that the
set-up samples see the same changes in machine speed as the ops do.

Set-up is the import of lasw (and numpy with it), config and spec
parsing, and building the fields and coefficients every op shares.  Loading
the benchmark's own modules and its stored references is not part of it.
The warm-up op that follows fills numpy's FFT caches and is neither timed
nor checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
_t0 = time.perf_counter()
from lasw import cli, config, evolve, io, models, probes, spectral  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import workloads  # noqa: E402  (checks that lasw came from this checkout)

# Counts that are a deterministic function of an op's input: two traced
# runs of the same code on the same input must agree on every one.
EXACT_COUNTERS = (
    "ffts", "fields", "evolve.steps_per_op", "evolve.tendency_calls_per_op",
    "spectral.transforms_per_step", "spectral.fields_per_step",
    "probes.integrate_calls_per_op", "evolve.dt_min", "evolve.dt_max", "evolve.dt_mean",
)
SETUP_SAMPLES = 16


def fresh_setup_s(args) -> float:
    """Set-up time of a fresh --setup-only process of the same workload."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(wl, key, tracer=None):
    """One checked op: returns (wall seconds, failure or None, trace root)."""
    arg = wl.prepare(key)
    root = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.run(arg)
        else:
            result, root = tracer.traced_op(wl.run, arg)
    except Exception as err:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, f"{type(err).__name__}: {err}", root
    seconds = time.perf_counter() - t0
    try:
        failure = wl.check(key, arg, result)
    except Exception as err:
        failure = f"check raised {type(err).__name__}: {err}"
    return seconds, failure, root


class Loop:
    """Tally of a closed-loop run: every op's time and every failure."""

    def __init__(self):
        self.op_s: list[float] = []
        self.traced_s: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def record(self, seconds, failure, traced=False):
        self.attempted += 1
        (self.traced_s if traced else self.op_s).append(seconds)
        if failure is not None:
            self.failures.append(failure)


def profile(tracer, wl, root) -> dict:
    import tracing
    prof = tracing.op_profile(tracer, root)
    if isinstance(wl, workloads.SemigroupN4096):
        prof["probes.semigroup_step_us"] = prof["op_s"] / wl.implied_steps() * 1e6
    return prof


def exact_counters(prof: dict) -> dict:
    return {k: prof[k] for k in EXACT_COUNTERS if k in prof}


def check_counters(name: str, size: str, first: dict, second: dict) -> None:
    """Fail loudly unless the counters repeat, in this run and across runs."""
    if first != second:
        sys.exit(f"exact counters differ between two traced ops on one input: {first} vs {second}")
    code = [*workloads.SRC.rglob("*.py"), *workloads.BENCH.glob("*.py")]
    path = workloads.OUT / "counters" / workloads.source_digest(code) / f"{name}-{size}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != first:
            sys.exit(f"exact counters differ from an earlier traced run ({path}): {stored} vs {first}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, sort_keys=True) + "\n")


def layer_metrics(own: list[dict], coverage: list[dict], micro: dict, overhead: float) -> dict:
    """Each span metric from the run's own ops if they reach the layer,
    otherwise from the first other workload's traced op that does."""
    metrics = dict(micro)
    names = {k for p in own + coverage for k in p
             if k not in ("op_s", "ffts", "fields")}
    for name in sorted(names):
        source = next(group for group in [own] + [[c] for c in coverage]
                      if any(name in p for p in group))
        metrics[name] = statistics.median(p[name] for p in source if name in p)
    metrics["trace.overhead_frac"] = overhead
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    references = workloads.load_references()
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.size, references)
    setup_s = [IMPORT_S + time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0]}))
        return
    out = {"setup_s": setup_s}

    import resource

    import numpy as np

    loop = Loop()
    keys = wl.draw(args.seed)
    if args.trace:
        import tracing
        micro = tracing.micro_table()
        tracer = tracing.Tracer()

        def traced(w, key):
            with tracer.installed():
                seconds, failure, root = run_op(w, key, tracer)
            loop.record(seconds, failure, traced=True)
            return {} if root is None else profile(tracer, w, root)

        run_op(wl, workloads.WARMUP_KEY)
        own = []
        start = time.perf_counter()
        while loop.attempted == 0 or time.perf_counter() - start < args.seconds:
            key = next(keys)
            loop.record(*run_op(wl, key)[:2])
            own.append(traced(wl, key))
        coverage = []
        for name, cls in workloads.WORKLOADS.items():
            if name != args.workload:
                other = cls(args.size, references)
                run_op(other, workloads.WARMUP_KEY)
                coverage.append(traced(other, workloads.WARMUP_KEY))
        repeats = [exact_counters(traced(wl, workloads.WARMUP_KEY)) for _ in range(2)]
        check_counters(args.workload, args.size, *repeats)
        paired = loop.traced_s[:len(loop.op_s)]
        overhead = statistics.median(paired) / statistics.median(loop.op_s) - 1.0
        out["layers"] = layer_metrics(own, coverage, micro, overhead)
        out["counters"] = repeats[0]
    else:
        run_op(wl, workloads.WARMUP_KEY)
        paused = 0.0
        start = time.perf_counter()
        while loop.attempted == 0 or time.perf_counter() - start - paused < args.seconds:
            loop.record(*run_op(wl, next(keys))[:2])
            due = (len(setup_s) - 1) * args.seconds / SETUP_SAMPLES
            if len(setup_s) <= SETUP_SAMPLES and time.perf_counter() - start - paused >= due:
                t0 = time.perf_counter()
                setup_s.append(fresh_setup_s(args))
                paused += time.perf_counter() - t0

    out.update({
        "op_s": loop.op_s,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "lasw_source_digest": workloads.source_digest(),
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
