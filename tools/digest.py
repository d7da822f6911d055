"""Byte-identity digest of lasw's outputs: one `group sha256` line per group.

    python3 tools/digest.py

Run it from two checkouts and compare the lines: an equal line means that
the two trees give the same bits in that group.  It takes no flags and
imports lasw from the `src/` beside this directory.

- rhs: tendency, tendency_direct, flux, transport_field and
  semilinear_term on the eight presets, with their linear terms kept and
  dropped (the stepper's nonlinear part), at n = 32 and 128, seeds 0-2,
  on a single field and on a 2-row stack; a form that rejects a preset
  contributes its error's name.
- integrate: every preset from seeds 0-5 at n = 64, seed k at 2^k times
  the drawn amplitude, so that some runs stop BlowUpSuspected: the
  records, the snapshots, the final state and the blow-up decision.
- probes: each probe's report and the convergence study's, at the command
  line's defaults; and the semigroup probe's report by a = sin 2 pi x with
  cfl 0.5 and t_end 0.02 at the benchmark's shape (n = 4096, mode-1 w0 from
  seeds 0-2) and from a full-spectrum w0 at n = 512.
- run: `lasw run` of a config this script writes, with two snapshots and
  dump_coefficients: every output file, run.json without its timings and
  out_dir.
- ensemble: the continuous dependence report at the benchmark's
  `ensemble-n128` shape (n = 128, the normalized preset, a cosine u0 of
  amplitude 0.05, etas 1e-2, 1e-3 and 1e-4, t_end 0.05, s 2, dt 0.0025),
  seeds 0-2.
- dispersion: the dispersion probe's report at modes 1 and 4 on n = 64.
- unresolved: the ProbeUnresolved message of a continuous dependence call
  at the ensemble shape whose stack stops (eta 300, t_end 0.5).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lasw import cli, config, evolve, models  # noqa: E402
from lasw import probes as lasw_probes  # noqa: E402
from lasw.errors import LaswError, ProbeUnresolved  # noqa: E402
from lasw.evolve import IntegrationControls, integrate  # noqa: E402
from lasw.spectral import Grid, SpectralField, random_trig_polynomial  # noqa: E402

PRESETS = {
    "normalized": {"preset": "normalized"},
    "large_amplitude": {"preset": "large_amplitude", "eps": 0.3, "delta": 0.2},
    "kdv": {"preset": "kdv", "eps": 0.5, "delta": 0.5},
    "bbm": {"preset": "bbm", "eps": 0.5, "delta": 0.5, "beta": -0.25},
    "ch": {"preset": "ch", "kappa": 1.0},
    "dp": {"preset": "dp", "kappa": 1.0},
    "se": {"preset": "se", "eps": 0.5, "delta": 0.4},
    "moderate": {"preset": "moderate", "eps": 0.5, "delta": 0.5, "p": 0.1, "z0": 0.5},
}
FORMS = (models.tendency, models.tendency_direct, models.flux, models.transport_field, models.semilinear_term)


def feed(h, value) -> None:
    """Hash value exactly: arrays by their bytes, floats by repr, containers item by item."""
    if isinstance(value, SpectralField):
        value = value.coef
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, dict):
        h.update(json.dumps(value, sort_keys=True).encode())
    else:
        h.update(repr(value).encode())
    h.update(b";")


def full_band(n: int, seed: int) -> np.ndarray:
    """Half spectrum of a real field with every mode set, the Nyquist mode included."""
    rng = np.random.default_rng([n, seed])
    coef = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    coef *= 0.3 * (1.0 + np.arange(n // 2 + 1)) ** -2.0
    coef[0], coef[-1] = coef[0].real, coef[-1].real
    return coef


def rhs(h) -> None:
    for block in PRESETS.values():
        c = config.build_coefficients(block)
        for coeffs in (c, evolve._nonlinear_part(c)):
            for n in (32, 128):
                for seed in range(3):
                    single = SpectralField(Grid(n), full_band(n, seed))
                    stack = np.stack([full_band(n, seed), full_band(n, seed + 3)])
                    for form in FORMS:
                        for u in (single, stack):
                            try:
                                feed(h, form(u, coeffs))
                            except LaswError as err:
                                feed(h, type(err).__name__)


def integrate_group(h) -> None:
    grid = Grid(64)
    controls = IntegrationControls(sample_interval=0.01, snapshot_times=(0.005,))
    for block in PRESETS.values():
        c = config.build_coefficients(block)
        for seed in range(6):
            u0 = 2.0 ** seed * random_trig_polynomial(grid, seed, 8, 2.0)
            result = integrate(u0, c, 0.05, controls)
            feed(h, [result.records, result.snapshots, result.state, result.blowup])


def probes(h) -> None:
    specs = [({"probe": name}, config.parse_probe_spec) for name in sorted(config._PROBES)]
    specs.append(({}, config.parse_converge_spec))
    for spec, parse in specs:
        if spec.get("probe") in ("commutator", "product"):
            spec = dict(spec, t_exp=1.0, r_exp=2.0)
        fn, kwargs, _ = parse(spec)
        feed(h, json.dumps(dataclasses.asdict(fn(**kwargs)), sort_keys=True))
    sine = {"profile": "sine", "amplitude": 1.0, "mode": 1}
    big, small = Grid(4096), Grid(512)
    draws = [(big, random_trig_polynomial(big, seed, 1, 1.0)) for seed in range(3)]
    draws.append((small, SpectralField(small, full_band(512, 0))))
    for grid, w0 in draws:
        report = lasw_probes.semigroup_probe(config.build_initial_field(sine, grid, 0), w0, 0.02, cfl=0.5)
        feed(h, json.dumps(dataclasses.asdict(report), sort_keys=True))


def run(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        spec = {
            "model": PRESETS["large_amplitude"], "grid": 64, "t_end": 0.05, "sample_interval": 0.01,
            "initial_data": {"profile": "random", "max_mode": 8, "decay_exponent": 2.0},
            "snapshot_times": [0.02, 0.05], "dump_coefficients": True, "seed": 3, "out_dir": str(out),
        }
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(spec))
        try:
            cli.main(["run", "--config", str(path), "--quiet"])
        except SystemExit as exit:
            feed(h, exit.code)
        for file in sorted(out.iterdir()):
            feed(h, file.name)
            if file.name == "run.json":
                info = json.loads(file.read_text())
                del info["timings"], info["config"]["out_dir"]
                feed(h, info)
            else:
                h.update(file.read_bytes())


def ensemble_call(etas, t_end, seed):
    grid = Grid(128)
    u0 = config.build_initial_field({"profile": "cosine", "amplitude": 0.05, "mode": 1}, grid, 0)
    coeffs = config.build_coefficients({"preset": "normalized"})
    return lasw_probes.continuous_dependence_experiment(u0, etas, t_end, 2.0, coeffs, seed, dt=0.0025)


def ensemble(h) -> None:
    for seed in range(3):
        feed(h, json.dumps(dataclasses.asdict(ensemble_call([1e-2, 1e-3, 1e-4], 0.05, seed)), sort_keys=True))


def dispersion(h) -> None:
    for mode in (1, 4):
        report = lasw_probes.dispersion_probe(mode, 1.0, 0.1, 1e-8, n_points=64)
        feed(h, json.dumps(dataclasses.asdict(report), sort_keys=True))


def unresolved(h) -> None:
    try:
        ensemble_call([300.0, 1e-3], 0.5, 0)
        feed(h, "resolved")
    except ProbeUnresolved as err:
        feed(h, str(err))


GROUPS = {"rhs": rhs, "integrate": integrate_group, "probes": probes, "run": run,
          "ensemble": ensemble, "dispersion": dispersion, "unresolved": unresolved}


def digest(group: str) -> str:
    h = hashlib.sha256()
    GROUPS[group](h)
    return h.hexdigest()


if __name__ == "__main__":
    for group in GROUPS:
        print(group, digest(group), flush=True)
