"""Spec schemas: strict JSON parsing and validation for every command.

Each spec kind -- a run configuration, the six probes, a convergence study
and a sweep -- is one table of keys.  A key has a kind, which parses the
value or raises ConfigInvalid naming the key, and a default.  Unknown keys
anywhere raise ConfigSyntax.  A key whose default is OMIT is passed on
only when the spec gives it, so the callee's own default stays the one
source.  See README for the documented schema and defaults.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalid,
    ConfigSyntax,
    GammaRelationViolated,
    InvalidMu,
    InvalidRegime,
    IoError,
    LaswError,
)
from .evolve import BlowupThresholds
from .models import (
    ModelCoefficients,
    RegimeParameters,
    preset_large_amplitude,
    preset_normalized,
    preset_survey,
    validate,
)
from .probes import (
    commutator_probe,
    continuous_dependence_experiment,
    convergence_study,
    dispersion_probe,
    mollified_data_experiment,
    product_probe,
    semigroup_probe,
)
from .spectral import Grid, SpectralField, from_physical, random_trig_polynomial

ENV_OUT_ROOT = "LASW_OUT_ROOT"


@dataclass(frozen=True)
class RunConfig:
    model: dict
    grid: int
    initial_data: dict
    t_end: float
    cfl: float = 0.5
    dt: float | None = None
    sample_interval: float = 0.05
    snapshot_times: tuple[float, ...] = ()
    thresholds: dict = field(default_factory=dict)
    s_exponent: float = 2.0
    seed: int = 0
    out_dir: str = "out"
    dump_coefficients: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        d["snapshot_times"] = list(self.snapshot_times)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return _build_run_config(raw)

    def blowup_thresholds(self) -> BlowupThresholds:
        return BlowupThresholds(**self.thresholds)


# ---------------------------------------------------------------------------
# kinds: each parses one value or raises ConfigInvalid naming it
# ---------------------------------------------------------------------------

REQUIRED = object()  # the spec must give the key
OMIT = object()      # absent keys are left out, so the callee's default applies


def _reject_unknown(raw: dict, allowed, where: str) -> None:
    unknown = [k for k in raw if k not in allowed]
    if unknown:
        raise ConfigSyntax(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(raw, name, *, positive=False, nonneg=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigInvalid(f"{name}: expected a number, got {raw!r}")
    v = float(raw)
    if not math.isfinite(v):
        raise ConfigInvalid(f"{name}: must be finite")
    if positive and v <= 0:
        raise ConfigInvalid(f"{name}: must be positive, got {v}")
    if nonneg and v < 0:
        raise ConfigInvalid(f"{name}: must be nonnegative, got {v}")
    return v


def _integer(raw, name, *, positive=False):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigInvalid(f"{name}: expected an integer, got {raw!r}")
    if positive and raw < 1:
        raise ConfigInvalid(f"{name}: must be positive, got {raw}")
    return raw


_positive = partial(_number, positive=True)
_nonneg = partial(_number, nonneg=True)


def _grid(raw, name):
    """Number of grid points: an even integer >= 8."""
    try:
        return Grid(_integer(raw, name)).n_points
    except ValueError as err:
        raise ConfigInvalid(f"{name}: {err}") from err


def _string(raw, name):
    if not isinstance(raw, str):
        raise ConfigInvalid(f"{name}: expected a string, got {raw!r}")
    return raw


def _boolean(raw, name):
    if not isinstance(raw, bool):
        raise ConfigInvalid(f"{name}: expected a boolean, got {raw!r}")
    return raw


def _object(raw, name):
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{name}: expected an object, got {raw!r}")
    return raw


def _field(raw, name):
    """Field block (see build_initial_field); built once the grid and seed are known."""
    return _object(raw, name)


def _model(raw, name):
    """Model block (see build_coefficients)."""
    return _object(raw, name)


def _optional(kind):
    return lambda raw, name: None if raw is None else kind(raw, name)


def _list_of(kind, *, empty_ok=False):
    def parse(raw, name):
        if not isinstance(raw, list) or not (raw or empty_ok):
            raise ConfigInvalid(f"{name}: expected a {'' if empty_ok else 'non-empty '}list, got {raw!r}")
        return tuple(kind(v, f"{name}[{i}]") for i, v in enumerate(raw))
    return parse


def _block(keys: dict):
    """Nested object kind, parsed against its own table."""
    return lambda raw, name: _parse(raw, keys, name, prefix=f"{name}.")


def _parse(raw, keys: dict, where: str, prefix: str = "") -> dict:
    """Check raw against a table {key: (kind, default, ...)}; parsed values in table order."""
    _reject_unknown(_object(raw, where), keys, where)
    parsed = {}
    for key, (kind, default, *_) in keys.items():
        if key in raw:
            parsed[key] = kind(raw[key], prefix + key)
        elif default is REQUIRED:
            raise ConfigInvalid(f"{prefix}{key}: required field missing")
        elif default is not OMIT:
            parsed[key] = default
    return parsed


# ---------------------------------------------------------------------------
# spec tables
# ---------------------------------------------------------------------------

_COEFFICIENTS = {f.name: (_number, REQUIRED if f.name == "mu" else OMIT) for f in fields(ModelCoefficients)}
_MODEL = {
    "preset": (_string, OMIT),
    "coefficients": (_block(_COEFFICIENTS), OMIT),
    **{k: (_number, OMIT) for k in ("eps", "delta", "p", "z0", "kappa", "beta")},
}

_RUN = {
    "model": (_model, REQUIRED),
    "grid": (_grid, REQUIRED),
    "initial_data": (_field, REQUIRED),
    "t_end": (_positive, REQUIRED),
    "cfl": (_positive, OMIT),
    "dt": (_optional(_positive), OMIT),
    "sample_interval": (_positive, OMIT),
    "snapshot_times": (_list_of(_nonneg, empty_ok=True), OMIT),
    "thresholds": (_block({k: (_positive, OMIT) for k in ("sup_ux_max", "hs_max", "tail_rel_max")}), OMIT),
    "s_exponent": (_number, OMIT),
    "seed": (_integer, OMIT),
    "out_dir": (_string, OMIT),
    "dump_coefficients": (_boolean, OMIT),
}

# Study tables: (kind, CLI default, the callee's parameter or None).
_COSINE = {"profile": "cosine", "amplitude": 0.05, "mode": 1}
_NORMALIZED = {"preset": "normalized"}


def _common(seed=None, grid=None):
    """Keys of every probe; seed and grid name the probe's parameter when it takes one."""
    return {
        "probe": (_string, REQUIRED, None),
        "out_dir": (_string, "out", None),
        "seed": (_integer, 0, seed),
        "grid": (_grid, 128, grid),
    }


_RATIO = {
    **_common(seed="seed", grid="n_points"),
    "t_exp": (_number, REQUIRED, "t_exp"),
    "r_exp": (_number, REQUIRED, "r_exp"),
    "samples": (partial(_integer, positive=True), 50, "samples"),
    "max_mode": (_integer, OMIT, "max_mode"),
    "stability_factor": (_positive, OMIT, "stability_factor"),
}

_PROBES = {
    "semigroup": (semigroup_probe, {
        **_common(),
        "a": (_field, {"profile": "sine", "amplitude": 1.0, "mode": 1}, "a"),
        "w0": (_field, {"profile": "random", "max_mode": 2, "decay_exponent": 1.0}, "w0"),
        "t_end": (_number, 0.25, "t_end"),
        "cfl": (_positive, OMIT, "cfl"),
        "tolerance": (_number, OMIT, "tolerance"),
        "tail_rel_max": (_positive, OMIT, "tail_rel_max"),
    }),
    "commutator": (commutator_probe, _RATIO),
    "product": (product_probe, _RATIO),
    "continuous_dependence": (continuous_dependence_experiment, {
        **_common(seed="seed"),
        "model": (_model, _NORMALIZED, "coeffs"),
        "u0": (_field, _COSINE, "u0"),
        "etas": (_list_of(_number), [1e-2, 1e-3, 1e-4], "perturbation_sizes"),
        "t_end": (_number, 1.0, "t_end"),
        "s_exponent": (_number, 2.0, "s_exp"),
        "dt": (_optional(_positive), OMIT, "dt"),
        "cfl": (_positive, OMIT, "cfl"),
    }),
    "dispersion": (dispersion_probe, {
        **_common(grid="n_points"),
        "mode": (_integer, 1, "mode"),
        "eps": (_number, 1.0, "eps"),
        "delta": (_number, 0.1, "delta"),
        "amplitude": (_number, 1e-8, "amplitude"),
        "window": (_positive, OMIT, "window"),
        "dt": (_optional(_positive), OMIT, "dt"),
        "tolerance": (_number, OMIT, "tolerance"),
    }),
    "mollified_data": (mollified_data_experiment, {
        **_common(),
        "model": (_model, _NORMALIZED, "coeffs"),
        "u0": (_field, {"profile": "random", "decay_exponent": 1.6}, "u0_rough"),
        "n_sequence": (_list_of(_integer), [2, 4, 8, 16], "n_sequence"),
        "t_end": (_number, 0.5, "t_end"),
        "dt": (_optional(_positive), OMIT, "dt"),
        "cfl": (_positive, OMIT, "cfl"),
    }),
}

# A study carries its own grid list; u0 is built on the coarsest grid.
_CONVERGE = {
    "out_dir": (_string, "out", None),
    "seed": (_integer, 0, None),
    "model": (_model, _NORMALIZED, "coeffs"),
    "u0": (_field, _COSINE, "u0"),
    "t_end": (_number, 0.5, "t_end"),
    "grids": (_list_of(_grid), [32, 64, 128], "grids"),
    "dts": (_list_of(_positive), [0.005, 0.0025, 0.00125], "dts"),
}

_SWEEP = {"base": (_object, REQUIRED), "vary": (_object, {}), "out_dir": (_string, OMIT)}


def parse_probe_spec(spec) -> tuple:
    """Probe spec -> (probe function, its keyword arguments, out_dir)."""
    name = _object(spec, "probe spec").get("probe")
    if not isinstance(name, str) or name not in _PROBES:
        raise ConfigInvalid(f"probe: expected one of {sorted(_PROBES)}, got {name!r}")
    fn, keys = _PROBES[name]
    return (fn, *_study_arguments(spec, keys, f"{name} probe spec"))


def parse_converge_spec(spec) -> tuple:
    """Convergence-study spec -> (convergence_study, its keyword arguments, out_dir)."""
    return (convergence_study, *_study_arguments(spec, _CONVERGE, "convergence spec"))


def _study_arguments(spec, keys: dict, where: str) -> tuple[dict, str]:
    parsed = _parse(spec, keys, where)
    grid = Grid(parsed["grid"] if "grid" in parsed else min(parsed["grids"]))
    kwargs = {}
    for key, value in parsed.items():
        kind, _, arg = keys[key]
        if arg is None:
            continue
        if kind is _field:
            value = build_initial_field(value, grid, parsed["seed"], where=key)
        elif kind is _model:
            value = build_coefficients(value)
        kwargs[arg] = value
    return kwargs, parsed["out_dir"]


def parse_sweep_spec(spec) -> tuple[str, list[tuple[dict, RunConfig]]]:
    """Sweep spec -> (output root, [(overrides, RunConfig)] per case of the cross-product).

    Every case is validated before any runs; a bad one raises ConfigInvalid
    naming its index and overrides.
    """
    parsed = _parse(spec, _SWEEP, "sweep spec")
    base, vary = parsed["base"], parsed["vary"]
    out_root = parsed["out_dir"] if "out_dir" in parsed else _string(base.get("out_dir", "out"), "base.out_dir")
    keys = sorted(vary)
    value_lists = [vary[k] if isinstance(vary[k], list) else [vary[k]] for k in keys]
    cases = []
    for idx, values in enumerate(itertools.product(*value_lists)):
        overrides = dict(zip(keys, values))
        try:
            raw = copy.deepcopy(base)
            for key, value in overrides.items():
                _set_dotted(raw, key, value)
            raw["out_dir"] = str(Path(out_root) / f"case_{idx:03d}")
            cases.append((overrides, RunConfig.from_dict(raw)))
        except LaswError as err:
            raise ConfigInvalid(f"case {idx:03d} {overrides}: {type(err).__name__}: {err}") from err
    return out_root, cases


def _set_dotted(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigInvalid(f"vary: path {dotted!r} does not address an object")
    node[parts[-1]] = value


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

_WAVE = {"amplitude": (_number, 1.0), "mode": (_integer, 1), "phase": (_number, 0.0)}
_PROFILES = {
    "constant": {"value": (_number, 0.0)},
    "cosine": _WAVE,
    "sine": _WAVE,
    "random": {
        "max_mode": (_integer, OMIT),  # default: a quarter of the grid
        "decay_exponent": (lambda raw, name: math.inf if raw == "inf" else _nonneg(raw, name), 1.0),
    },
}


def build_coefficients(model: dict) -> ModelCoefficients:
    """Model block -> coefficients; presets or a raw coefficient table."""
    parsed = _parse(model, _MODEL, "model", prefix="model.")
    if ("preset" in parsed) == ("coefficients" in parsed):
        raise ConfigInvalid("model: give exactly one of 'preset' or 'coefficients'")
    try:
        if "coefficients" in parsed:
            # raw tables must pass the solver gate (mu > 0, cubic relation);
            # presets may carry mu = 0 deliberately (the dispersive fallback)
            return validate(ModelCoefficients(**parsed["coefficients"]))
        name = parsed.pop("preset")
        params = RegimeParameters(**parsed)
        if name == "normalized":
            return preset_normalized()
        if name == "large_amplitude":
            return preset_large_amplitude(params)
        return preset_survey(name, params)
    except (InvalidMu, InvalidRegime, GammaRelationViolated, TypeError, ValueError) as err:
        raise ConfigInvalid(f"model: {type(err).__name__}: {err}") from err


def build_initial_field(spec: dict, grid: Grid, seed: int, where: str = "initial_data") -> SpectralField:
    """Field block -> field: named profile, coefficient list, or file."""
    _object(spec, where)
    if "profile" in spec:
        name = spec["profile"]
        if not isinstance(name, str) or name not in _PROFILES:
            raise ConfigInvalid(f"{where}.profile: unknown profile {name!r}")
        p = _parse(spec, {"profile": (_string, REQUIRED), **_PROFILES[name]}, where, prefix=f"{where}.")
        if name == "constant":
            coef = np.zeros(grid.n_points, dtype=np.complex128)
            coef[0] = p["value"]
            return SpectralField(grid, coef)
        if name in ("cosine", "sine"):
            if not 1 <= p["mode"] < grid.n_points // 2:
                raise ConfigInvalid(f"{where}.mode: {p['mode']} not representable")
            arg = 2.0 * math.pi * p["mode"] * grid.x + p["phase"]
            samples = p["amplitude"] * (np.cos(arg) if name == "cosine" else np.sin(arg))
            return from_physical(samples, grid)
        try:
            return random_trig_polynomial(grid, seed, p.get("max_mode", grid.n_points // 4), p["decay_exponent"])
        except Exception as err:
            raise ConfigInvalid(f"{where}: {err}") from err
    if "coefficients" in spec:
        _reject_unknown(spec, {"coefficients"}, where)
        rows = spec["coefficients"]
        if not isinstance(rows, list):
            raise ConfigInvalid(f"{where}.coefficients: expected a list of [mode, re, im] rows")
        coef = np.zeros(grid.n_points, dtype=np.complex128)
        for entry in rows:
            try:
                n, re, im = (_integer(entry[0], "mode"), _number(entry[1], "re"), _number(entry[2], "im"))
            except (LaswError, TypeError, KeyError, IndexError) as err:
                raise ConfigInvalid(f"{where}.coefficients: bad entry {entry!r}") from err
            if not 0 <= n < grid.n_points // 2:
                raise ConfigInvalid(f"{where}.coefficients: mode {n} must be in [0, {grid.n_points // 2})")
            if n == 0 and im != 0.0:
                raise ConfigInvalid(f"{where}.coefficients: mode 0 must be real")
            coef[n] = complex(re, im)
            if n > 0:
                coef[-n % grid.n_points] = complex(re, -im)
        return SpectralField(grid, coef)
    if "samples_file" in spec:
        _reject_unknown(spec, {"samples_file"}, where)
        path = Path(_string(spec["samples_file"], f"{where}.samples_file"))
        if not path.is_file():
            raise ConfigInvalid(f"{where}.samples_file: {path} not found")
        try:
            samples = np.loadtxt(path)
        except ValueError as err:
            raise ConfigInvalid(f"{where}.samples_file: {err}") from err
        if samples.ndim != 1 or samples.shape[0] != grid.n_points:
            raise ConfigInvalid(
                f"{where}.samples_file: expected {grid.n_points} samples, got shape {samples.shape}"
            )
        return from_physical(samples, grid)
    raise ConfigInvalid(
        f"{where}: give one of 'profile', 'coefficients' or 'samples_file'"
    )


def _build_run_config(raw: dict) -> RunConfig:
    config = RunConfig(**_parse(raw, _RUN, "configuration"))
    for ts in config.snapshot_times:
        if ts > config.t_end:
            raise ConfigInvalid(f"snapshot_times: {ts} exceeds t_end={config.t_end}")
    # fail fast: both blocks must construct
    build_coefficients(config.model)
    build_initial_field(config.initial_data, Grid(config.grid), config.seed)
    return config


def load_config(path) -> RunConfig:
    """Load and validate a run configuration from a JSON file."""
    return RunConfig.from_dict(load_json(path))


def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigSyntax(f"{path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigSyntax(f"{path}: top level must be an object")
    return raw


def resolve_out_dir(out_dir: str) -> Path:
    """Relative output paths land under $LASW_OUT_ROOT (default '.')."""
    p = Path(out_dir)
    if p.is_absolute():
        return p
    return Path(os.environ.get(ENV_OUT_ROOT, ".")) / p
