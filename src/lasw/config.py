"""Spec schemas: strict JSON parsing for every command.

Each spec kind -- a run configuration, the six probes, a convergence study
and a sweep -- is one table of keys.  A key has a kind (`kinds.py`), which
parses the value or raises ConfigInvalid naming the key, and a default.
A range is left to the callee's own table, `integrate`'s for a run config.
Unknown keys anywhere raise ConfigSyntax.  A key whose default is OMIT is
passed on only when the spec gives it, so the callee's own default stays
the one source.  See README for the documented schema and defaults.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property, partial
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
from .evolve import BlowupThresholds, IntegrationControls, _check_run
from .kinds import (
    Rejected, _boolean, _grid, _integer, _list_of, _nonneg, _number, _object, _optional, _string, _typed, admit,
)
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
from .spectral import Grid, SpectralField, constant, from_physical, random_trig_polynomial

ENV_OUT_ROOT = "LASW_OUT_ROOT"


@dataclass(frozen=True)
class RunConfig:
    model: dict
    grid: int
    initial_data: dict
    t_end: float
    cfl: float = IntegrationControls.cfl
    dt: float | None = IntegrationControls.dt
    sample_interval: float = IntegrationControls.sample_interval
    snapshot_times: tuple[float, ...] = IntegrationControls.snapshot_times
    thresholds: dict = field(default_factory=dict)
    s_exponent: float = IntegrationControls.s_exponent
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

    # built once, by `from_dict`'s check; not fields, so asdict, == and to_dict skip them
    @cached_property
    def controls(self) -> IntegrationControls:
        return IntegrationControls(self.cfl, self.dt, self.sample_interval, self.snapshot_times,
                                   BlowupThresholds(**self.thresholds), self.s_exponent)

    @cached_property
    def coefficients(self) -> ModelCoefficients:
        return build_coefficients(self.model)

    @cached_property
    def initial_field(self) -> SpectralField:
        return build_initial_field(self.initial_data, Grid(self.grid), self.seed)


# ---------------------------------------------------------------------------
# parsing: a table's kinds, a rejection raised as ConfigInvalid naming the key
# ---------------------------------------------------------------------------

REQUIRED = object()  # the spec must give the key
OMIT = object()      # absent keys are left out, so the callee's default applies

_admit = partial(admit, ConfigInvalid)

# block kinds, told apart by identity: `_study_arguments` builds them on the spec's grid and seed
_field, _model = _typed(dict, "an object"), _typed(dict, "an object")


def _reject_unknown(raw: dict, allowed, where: str) -> None:
    unknown = [k for k in raw if k not in allowed]
    if unknown:
        raise ConfigSyntax(f"unknown key(s) {sorted(unknown)} in {where}")


def _block(keys: dict):
    """Nested object kind, parsed against its own table."""
    return lambda raw, name: _parse(raw, keys, name, prefix=f"{name}.")


def _parse(raw, keys: dict, where: str, prefix: str = "") -> dict:
    """Check raw against a table {key: (kind, default, ...)}; parsed values in table order."""
    _reject_unknown(_admit(_object, raw, where), keys, where)
    parsed = {}
    for key, (kind, default, *_) in keys.items():
        if key in raw:
            parsed[key] = _admit(kind, raw[key], prefix + key)
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
    "t_end": (_number, REQUIRED),
    "cfl": (_number, OMIT),
    "dt": (_optional(_number), OMIT),
    "sample_interval": (_number, OMIT),
    "snapshot_times": (_list_of(_number, least=0), OMIT),
    "thresholds": (_block({k: (_number, OMIT) for k in ("sup_ux_max", "hs_max", "tail_rel_max")}), OMIT),
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
    "samples": (_integer, 50, "samples"),
    "max_mode": (_integer, OMIT, "max_mode"),
    "stability_factor": (_number, OMIT, "stability_factor"),
}

_PROBES = {
    "semigroup": (semigroup_probe, {
        **_common(),
        "a": (_field, {"profile": "sine", "amplitude": 1.0, "mode": 1}, "a"),
        "w0": (_field, {"profile": "random", "max_mode": 2, "decay_exponent": 1.0}, "w0"),
        "t_end": (_number, 0.25, "t_end"),
        "cfl": (_number, OMIT, "cfl"),
        "tolerance": (_number, OMIT, "tolerance"),
        "tail_rel_max": (_number, OMIT, "tail_rel_max"),
    }),
    "commutator": (commutator_probe, _RATIO),
    "product": (product_probe, _RATIO),
    "continuous_dependence": (continuous_dependence_experiment, {
        **_common(seed="seed"),
        "model": (_model, _NORMALIZED, "coeffs"),
        "u0": (_field, _COSINE, "u0"),
        "etas": (_list_of(_number, least=0), [1e-2, 1e-3, 1e-4], "perturbation_sizes"),
        "t_end": (_number, 1.0, "t_end"),
        "s_exponent": (_number, 2.0, "s_exp"),
        "dt": (_optional(_number), OMIT, "dt"),
        "cfl": (_number, OMIT, "cfl"),
    }),
    "dispersion": (dispersion_probe, {
        **_common(grid="n_points"),
        "mode": (_integer, 1, "mode"),
        "eps": (_number, 1.0, "eps"),
        "delta": (_number, 0.1, "delta"),
        "amplitude": (_number, 1e-8, "amplitude"),
        "window": (_number, OMIT, "window"),
        "dt": (_optional(_number), OMIT, "dt"),
        "tolerance": (_number, OMIT, "tolerance"),
    }),
    "mollified_data": (mollified_data_experiment, {
        **_common(),
        "model": (_model, _NORMALIZED, "coeffs"),
        "u0": (_field, {"profile": "random", "decay_exponent": 1.6}, "u0_rough"),
        "n_sequence": (_list_of(_integer, least=0), [2, 4, 8, 16], "n_sequence"),
        "t_end": (_number, 0.2, "t_end"),
        "dt": (_optional(_number), OMIT, "dt"),
        "cfl": (_number, OMIT, "cfl"),
    }),
}

# A study carries its own grid list; u0 is built on the coarsest grid, so the
# CLI parses each grid itself.
_CONVERGE = {
    "out_dir": (_string, "out", None),
    "seed": (_integer, 0, None),
    "model": (_model, _NORMALIZED, "coeffs"),
    "u0": (_field, _COSINE, "u0"),
    "t_end": (_number, 0.5, "t_end"),
    "grids": (_list_of(_grid), [32, 64, 128], "grids"),
    "dts": (_list_of(_number, least=0), [0.005, 0.0025, 0.00125], "dts"),
}

_SWEEP = {"base": (_object, REQUIRED), "vary": (_object, {}), "out_dir": (_string, OMIT)}


def parse_probe_spec(spec) -> tuple:
    """Probe spec -> (probe function, its keyword arguments, out_dir)."""
    name = _admit(_object, spec, "probe spec").get("probe")
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
    out_root = parsed["out_dir"] if "out_dir" in parsed else _admit(
        _string, base.get("out_dir", "out"), "base.out_dir")
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
    except (InvalidMu, InvalidRegime, GammaRelationViolated, TypeError) as err:
        raise ConfigInvalid(f"model: {type(err).__name__}: {err}") from err


def build_initial_field(spec: dict, grid: Grid, seed: int, where: str = "initial_data") -> SpectralField:
    """Field block -> field: named profile, coefficient list, or file."""
    _admit(_object, spec, where)
    if "profile" in spec:
        name = spec["profile"]
        if not isinstance(name, str) or name not in _PROFILES:
            raise ConfigInvalid(f"{where}.profile: unknown profile {name!r}")
        p = _parse(spec, {"profile": (_string, REQUIRED), **_PROFILES[name]}, where, prefix=f"{where}.")
        if name == "constant":
            return constant(grid, p["value"])
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
        half = grid.n_points // 2
        coef = np.zeros(half + 1, dtype=np.complex128)
        for entry in rows:
            try:
                n, re, im = (_integer(entry[0], "mode"), _number(entry[1], "re"), _number(entry[2], "im"))
            except (Rejected, TypeError, KeyError, IndexError) as err:
                raise ConfigInvalid(f"{where}.coefficients: bad entry {entry!r}") from err
            if not (0 <= n < half or n == -half):
                raise ConfigInvalid(f"{where}.coefficients: mode {n} must be in [0, {half}) or be {-half}")
            if n in (0, -half) and im != 0.0:
                raise ConfigInvalid(f"{where}.coefficients: mode {n} must be real")
            coef[abs(n)] = complex(re, im)
        return SpectralField(grid, coef)
    if "samples_file" in spec:
        _reject_unknown(spec, {"samples_file"}, where)
        path = Path(_admit(_string, spec["samples_file"], f"{where}.samples_file"))
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
    # fail fast: both blocks must construct, and `integrate` must take the run
    _check_run(config.coefficients, config.t_end, config.controls)
    config.initial_field
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
