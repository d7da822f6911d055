"""Self-test of the benchmark; about a minute.

    python3 perfbench/selftest.py

1. Every workload at toy size, untraced and traced, through run.py: the
   result line must report every metric of BENCHMARK.json and no failed op.
2. A corrupted stored reference must turn a passing op into a failed one.
3. In a directory holding only BENCHMARK.json and perfbench/, without the
   package, run.py must exit non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_toy_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}, result["metrics"]
            print(f"ok   {w['name']} toy trace={trace}: {result['attempted']} ops")


def check_corrupted_reference() -> None:
    sys.path.insert(0, str(BENCH))
    import workloads
    from worker import run_op

    good = workloads.load_references()
    for name in ("run-n128", "kdv-n64"):
        bad = copy.deepcopy(good)
        bad[name]["toy"]["states"][0][3] += 10.0 * bad[name]["toy"]["tolerance"]
        _, failure, _ = run_op(workloads.WORKLOADS[name]("toy", good), 0)
        assert failure is None, failure
        _, failure, _ = run_op(workloads.WORKLOADS[name]("toy", bad), 0)
        assert failure is not None and "reference" in failure, failure
        print(f"ok   {name}: corrupted reference counted as failed ({failure})")


def check_bare_directory(spec: dict) -> None:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok   without src/: exit code {proc.returncode}, no result printed")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory(spec)
    check_corrupted_reference()
    check_toy_runs(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
