"""The benchmark's workloads: inputs from a seed, one op each, output checks.

Importing this module puts the checkout's own ``src/`` first on the path and
refuses any other copy of ``lasw``, so the benchmark always measures the
code it ships with and fails in a directory that does not hold it.

Every op is closed loop: the caller starts the next op only after the
previous one has returned.  Each workload has a ``full`` shape, which the
benchmark measures, and a ``toy`` shape, which the self-test runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lasw  # noqa: E402
from lasw import cli, config, evolve, io, models, probes, spectral  # noqa: E402

if not Path(lasw.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"lasw was imported from {lasw.__file__}, not from {SRC}")

# Profiles with a stored terminal-state reference; op inputs are drawn from
# this pool so that every seed's ops can be checked.  Even seeds draw from
# the first half of the pool and odd seeds from the second, so seeds 1 and 2
# (see README.md) run disjoint inputs.
POOL = {"full": 48, "toy": 8}
# Input key of the untimed warm-up op, which is also the input whose exact
# counters traced runs compare.
WARMUP_KEY = 0

SHAPES = {
    "run-n128": {
        "full": {"grid": 128, "t_end": 0.25, "sample_interval": 0.05, "snapshot_times": [0.125, 0.25]},
        "toy": {"grid": 64, "t_end": 0.1, "sample_interval": 0.05, "snapshot_times": [0.05, 0.1]},
    },
    "ensemble-n128": {
        "full": {"grid": 128, "t_end": 0.05, "dt": 0.0025},
        "toy": {"grid": 32, "t_end": 0.02, "dt": 0.005},
    },
    "semigroup-n4096": {
        "full": {"grid": 4096, "t_end": 0.02},
        "toy": {"grid": 256, "t_end": 0.02},
    },
    "kdv-n64": {
        "full": {"grid": 64, "t_end": 0.0005},
        "toy": {"grid": 32, "t_end": 0.0005},
    },
}

RUN_MODEL = {"preset": "large_amplitude", "eps": 0.2, "delta": 0.1}
RANDOM_PROFILE = {"profile": "random", "max_mode": 10, "decay_exponent": 2.0}
KDV_MODEL = {"preset": "kdv", "eps": 0.5, "delta": 0.5}
ENSEMBLE_ETAS = [1e-2, 1e-3, 1e-4]
MEAN_DRIFT_MAX = 1e-12          # criterion 03
SEMIGROUP_TOLERANCE = 1e-6      # criterion 07
OMEGA_RTOL = 1e-10              # criterion 07


def source_digest(paths=None) -> str:
    """Digest of source files, by default the package's; keys results that depend on them."""
    h = hashlib.sha256()
    for path in sorted(paths if paths is not None else SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def state_error(samples, reference) -> float:
    return float(np.max(np.abs(np.asarray(samples) - np.asarray(reference))))


class Workload:
    """One workload at one shape; subclasses define op, input and check."""

    name = ""
    uses_pool = False

    def __init__(self, size: str, references: dict):
        self.size = size
        self.shape = SHAPES[self.name][size]
        self.references = references
        self.setup()

    def setup(self) -> None:
        """Build the fields and coefficients every op shares."""

    def draw(self, seed: int):
        """Per-op input keys, a deterministic function of the seed."""
        rng = np.random.default_rng(seed)
        if self.uses_pool:
            half = POOL[self.size] // 2
            keys = (seed % 2) * half + rng.permutation(half)
            yield from itertools.cycle(int(k) for k in keys)
        while True:
            yield int(rng.integers(0, 2**31 - 1))

    def prepare(self, key: int):
        """Untimed: turn an input key into the op's argument."""
        return key

    def run(self, arg):
        raise NotImplementedError

    def check(self, key: int, arg, result) -> str | None:
        """None if the output meets the workload's invariant, else why not."""
        raise NotImplementedError

    def reference(self, key: int) -> tuple[list, float]:
        ref = self.references[self.name][self.size]
        return ref["states"][key], ref["tolerance"]


class RunN128(Workload):
    """`lasw run` of the headline large-amplitude config under the CFL step."""

    name = "run-n128"
    uses_pool = True

    def setup(self) -> None:
        self.workdir = OUT / "work" / self.name / self.size
        self.config_path = self.workdir / "config.json"
        self.out_dir = self.workdir / "run"
        self.base = {
            "model": RUN_MODEL,
            "grid": self.shape["grid"],
            "initial_data": RANDOM_PROFILE,
            "t_end": self.shape["t_end"],
            "cfl": 0.5,
            "sample_interval": self.shape["sample_interval"],
            "snapshot_times": self.shape["snapshot_times"],
            "out_dir": str(self.out_dir),
        }
        config.RunConfig.from_dict(self.base)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self, key: int):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.config_path.write_text(json.dumps(dict(self.base, seed=key)))
        return self.config_path

    def run(self, path):
        return cli.run_command(load_run_config(path), quiet=True)

    def check(self, key, path, code):
        if code != 0:
            return f"exit code {code}"
        status = json.loads((self.out_dir / "run.json").read_text())["status"]
        if status != "Completed":
            return f"status {status}"
        means = np.loadtxt(self.out_dir / "diagnostics.csv", delimiter=",", skiprows=1)[:, 1]
        drift = abs(means[-1] - means[0])
        if not drift <= MEAN_DRIFT_MAX:
            return f"mean drift {drift:.3e} > {MEAN_DRIFT_MAX:g}"
        snap = self.out_dir / io.snapshot_filename(self.shape["t_end"])
        u = np.loadtxt(snap, delimiter=",", skiprows=1)[:, 1]
        ref, tol = self.reference(key)
        err = state_error(u, ref)
        if not err <= tol:
            return f"terminal state off the reference by {err:.3e} > {tol:g}"
        return None


def load_run_config(path):
    """The config layer of one `lasw run`: JSON file to validated RunConfig."""
    return config.RunConfig.from_dict(config.load_json(path))


class EnsembleN128(Workload):
    """Criterion-09 continuous-dependence experiments: four fixed-dt solves."""

    name = "ensemble-n128"

    def setup(self) -> None:
        grid = spectral.Grid(self.shape["grid"])
        self.u0 = config.build_initial_field(
            {"profile": "cosine", "amplitude": 0.05, "mode": 1}, grid, 0
        )
        self.coeffs = config.build_coefficients({"preset": "normalized"})

    def run(self, seed):
        return probes.continuous_dependence_experiment(
            self.u0, ENSEMBLE_ETAS, self.shape["t_end"], 2.0, self.coeffs, seed,
            dt=self.shape["dt"],
        )

    def check(self, key, seed, report):
        d = report.values
        if not report.passed:
            return f"report failed, distances {d}"
        if not all(a > b for a, b in zip(d, d[1:])):
            return f"distances not strictly decreasing: {d}"
        return None


class SemigroupN4096(Workload):
    """Criterion-07 semigroup probe: frozen transport by a = sin 2 pi x."""

    name = "semigroup-n4096"
    cfl = 0.5

    def setup(self) -> None:
        self.grid = spectral.Grid(self.shape["grid"])
        self.a = config.build_initial_field(
            {"profile": "sine", "amplitude": 1.0, "mode": 1}, self.grid, 0
        )

    def prepare(self, key):
        return spectral.random_trig_polynomial(self.grid, key, 1, 1.0)

    def run(self, w0):
        return probes.semigroup_probe(self.a, w0, self.shape["t_end"], cfl=self.cfl)

    def check(self, key, w0, report):
        omega = report.details["omega"]
        if not abs(omega - math.pi) <= OMEGA_RTOL * math.pi:
            return f"omega {omega!r} is not pi to {OMEGA_RTOL:g}"
        if not report.max_value <= 1.0 + SEMIGROUP_TOLERANCE:
            return f"max ratio {report.max_value!r} > 1 + {SEMIGROUP_TOLERANCE:g}"
        if not report.passed:
            return "report failed"
        return None

    def implied_steps(self) -> int:
        """RK4 steps the probe's dt implies, landing on its 40 sample times."""
        dt = self.cfl * self.grid.spacing / max(1.0, spectral.sup_norm(self.a))
        t_end, n_samples = self.shape["t_end"], 40
        t, steps = 0.0, 0
        for j in range(n_samples):
            ts = t_end * (j + 1) / n_samples
            while t < ts - 1e-13:
                step = min(dt, ts - t)
                t = ts if ts - (t + step) < 1e-13 else t + step
                steps += 1
        return steps


class KdvN64(Workload):
    """KdV through the direct form and the stiff dt branch of `integrate`."""

    name = "kdv-n64"
    uses_pool = True

    def setup(self) -> None:
        self.grid = spectral.Grid(self.shape["grid"])
        self.coeffs = config.build_coefficients(KDV_MODEL)
        self.controls = evolve.IntegrationControls(sample_interval=self.shape["t_end"])

    def prepare(self, key):
        return config.build_initial_field(RANDOM_PROFILE, self.grid, key)

    def run(self, u0):
        return evolve.integrate(u0, self.coeffs, self.shape["t_end"], self.controls)

    def check(self, key, u0, result):
        status = result.state.status
        if status is not evolve.RunStatus.COMPLETED:
            return f"status {status.value}"
        ref, tol = self.reference(key)
        err = state_error(spectral.to_physical(result.state.u), ref)
        if not err <= tol:
            return f"terminal state off the reference by {err:.3e} > {tol:g}"
        return None


WORKLOADS = {w.name: w for w in (RunN128, EnsembleN128, SemigroupN4096, KdvN64)}
