"""Spec schema: every malformed spec ends as a named LaswError with exit 1."""

import ast
import copy
import json
import math
import re
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import HealthCheck, given, settings, strategies as st

import lasw
import lasw.errors
import lasw.evolve
from lasw.cli import sweep_command
from lasw.config import RunConfig
from lasw.errors import ConfigInvalid, InvalidControls, InvalidProbeInput, LaswError
from lasw.evolve import BlowupThresholds, IntegrationControls, IntegrationResult, integrate
from lasw.models import ModelCoefficients, RegimeParameters, preset_normalized
from lasw.probes import (
    ProbeReport,
    commutator_probe,
    continuous_dependence_experiment,
    convergence_study,
    dispersion_probe,
    mollified_data_experiment,
    product_probe,
    semigroup_probe,
)
from lasw.spectral import (
    Grid, SpectralField, constant, derivative, from_physical, lambda_pow, mollify, random_trig_polynomial, resample,
    sobolev_norm,
)

TINY_RUN = {
    "model": {"preset": "large_amplitude", "eps": 0.2, "delta": 0.1},
    "grid": 16,
    "initial_data": {"profile": "cosine", "amplitude": 0.05, "mode": 1},
    "t_end": 0.02,
    "sample_interval": 0.01,
}

# One small valid spec of each kind, as (command, spec).
VALID = {
    "run": ("run", dict(
        TINY_RUN, cfl=0.4, dt=0.005, snapshot_times=[0.01], thresholds={"sup_ux_max": 1e4},
        s_exponent=2.0, seed=1, dump_coefficients=False,
    )),
    "run_coefficients": ("run", dict(
        TINY_RUN,
        model={"coefficients": {
            "mu": 1.0, "alpha2": 1.0, "alpha3": 1.0, "beta1": 1.0, "beta2": 1.0,
            "gamma1": 4.0, "gamma2": 1.0, "gamma3": 1.0,
        }},
        initial_data={"coefficients": [[0, 0.25, 0.0], [2, 0.01, -0.005]]},
    )),
    "semigroup": ("probe", {
        "probe": "semigroup", "grid": 16, "seed": 0, "t_end": 0.01, "cfl": 0.3,
        "tolerance": 1e-6, "tail_rel_max": 1e-2,
        "a": {"profile": "sine", "amplitude": 1.0, "mode": 1, "phase": 0.0},
        "w0": {"profile": "random", "max_mode": 2, "decay_exponent": 1.0},
    }),
    "commutator": ("probe", {
        "probe": "commutator", "grid": 16, "seed": 1, "t_exp": 1.0, "r_exp": 2.0,
        "samples": 2, "max_mode": 3, "stability_factor": 2.0,
    }),
    "product": ("probe", {
        "probe": "product", "grid": 16, "seed": 1, "r_exp": 2.0, "t_exp": 1.0,
        "samples": 2, "max_mode": 3, "stability_factor": 2.0,
    }),
    "continuous_dependence": ("probe", {
        "probe": "continuous_dependence", "grid": 16, "seed": 2, "t_end": 0.01,
        "s_exponent": 2.0, "dt": 0.005, "cfl": 0.4, "etas": [1e-2, 1e-3],
        "model": {"preset": "normalized"},
        "u0": {"profile": "cosine", "amplitude": 0.05, "mode": 1},
    }),
    "dispersion": ("probe", {
        "probe": "dispersion", "grid": 16, "mode": 1, "eps": 1.0, "delta": 0.1,
        "amplitude": 1e-8, "window": 0.01, "tolerance": 1e-6,
    }),
    "mollified_data": ("probe", {
        "probe": "mollified_data", "grid": 16, "t_end": 0.01, "dt": 0.005, "cfl": 0.4,
        "n_sequence": [2, 4], "model": {"preset": "normalized"},
        "u0": {"profile": "random", "max_mode": 4, "decay_exponent": 1.6},
    }),
    "converge": ("converge", {
        "grids": [16, 32, 64], "dts": [0.01, 0.005, 0.0025], "t_end": 0.01, "seed": 0,
        "model": {"preset": "normalized"},
        "u0": {"profile": "cosine", "amplitude": 0.05, "mode": 1},
    }),
    "sweep": ("sweep", {
        "base": TINY_RUN,
        "vary": {"seed": [0, 1], "thresholds.hs_max": [1e8]},  # no base value shadowed
    }),
}

ERROR_LINE = re.compile(r"^error: (\w+): ")


def invoke(tmp_path, command, spec, *args):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return run_cli([command, "--config", str(path), "--quiet", *args])


def assert_named_error(result):
    """Exit 1, one `error: <LaswError subclass>: ...` line, no other exception."""
    assert result.exit_code == 1, (result.exit_code, result.output, result.exception)
    assert isinstance(result.exception, SystemExit)
    match = ERROR_LINE.match(result.stderr)
    assert match, result.stderr
    cls = getattr(lasw.errors, match.group(1))
    assert issubclass(cls, LaswError)
    return cls


def paths(node, prefix=()):
    """Every value position in a JSON tree (object keys and list indices)."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def wrong_values(original, key):
    """JSON values of another type than `original`, and the non-finite numbers."""
    candidates = ["x", None, True, [], {}, [1, "x"], math.nan, math.inf, -math.inf]
    if key == "dt":
        candidates.remove(None)  # dt: null selects the CFL step
    if type(original) in (int, float):
        return candidates  # no finite number among them
    return [c for c in candidates if type(c) is not type(original)]


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_spec_is_accepted(tmp_path, kind):
    command, spec = VALID[kind]
    result = invoke(tmp_path, command, spec, "--out", str(tmp_path / "out"))
    assert result.exit_code in (0, 3), (result.stderr, result.exception)


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=20, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_spec_is_a_named_error(tmp_path, kind, data):
    command, spec = VALID[kind]
    spec = dict(copy.deepcopy(spec), out_dir=str(tmp_path / "out"))
    path = data.draw(st.sampled_from(list(paths(spec))), label="path")
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(wrong_values(node[path[-1]], path[-1])), label="value")
    assert_named_error(invoke(tmp_path, command, spec))


MALFORMED = [
    ("probe", {"probe": "semigroup", "grid": 64, "t_end": math.nan}),
    ("probe", {"probe": "semigroup", "grid": 7}),
    ("probe", {"probe": "semigroup", "seed": "abc"}),
    ("probe", {"probe": "commutator", "t_exp": 1.0, "r_exp": 2.0, "samples": "x"}),
    ("probe", {"probe": "semigroup", "grid": 64, "t_end": -1}),
    ("probe", {"probe": "continuous_dependence", "grid": 16, "etas": [-1]}),
    ("probe", {"probe": "dispersion", "amplitude": 1}),
    ("probe", {"probe": "mollified_data", "grid": 16, "n_sequence": [0]}),
    ("converge", {"grids": [32, 64]}),
    ("converge", {"grids": [7, 64, 128]}),
    ("run", dict(TINY_RUN, initial_data={"profile": "cosine", "mode": "x"})),
    ("run", dict(TINY_RUN, initial_data={"coefficients": 5})),
    ("probe", {"probe": ["semigroup"]}),
    ("probe", {"grid": 16}),
    ("run", dict(TINY_RUN, initial_data={"profile": ["random"]})),
    ("converge", {"grids": []}),
    ("sweep", {"base": 5}),
    # coinciding grids, or dts that round to the same number of steps to t_end
    ("converge", {"dts": [0.01, 0.01, 0.005], "t_end": 0.05}),
    ("converge", {"dts": [0.01, 0.0099, 0.005], "t_end": 0.05}),
    ("converge", {"dts": [0.01, 0.005, 0.005], "t_end": 0.05}),
    ("converge", {"dts": [0.02, 0.01, 0.005], "t_end": 0.005}),
    ("converge", {"grids": [32, 32, 64], "t_end": 0.05}),
    # an integer past the float range was an OverflowError traceback
    ("probe", {"probe": "semigroup", "t_end": 10**400}),
    ("run", dict(TINY_RUN, t_end=-10**400)),
]


@pytest.mark.parametrize("command,spec", MALFORMED)
def test_malformed_spec_exits_1_with_named_error(tmp_path, command, spec):
    assert_named_error(invoke(tmp_path, command, dict(spec, out_dir=str(tmp_path / "out"))))


def test_probe_range_errors_are_named():
    assert issubclass(InvalidProbeInput, LaswError) and issubclass(InvalidProbeInput, ValueError)
    with pytest.raises(InvalidProbeInput):
        dispersion_probe(0, 1.0, 0.1, 1e-8)
    u0 = from_physical([0.0] * 16, Grid(16))
    with pytest.raises(InvalidProbeInput):
        convergence_study(u0, preset_normalized(), 0.1, [16, 32], [0.01, 0.005, 0.0025])


def test_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("[1, 2]")
    result = run_cli(["run", "--config", str(path)])
    assert assert_named_error(result).__name__ == "ConfigSyntax"


class TestSweepPrevalidation:
    def spec(self, out):
        return {"base": TINY_RUN, "vary": {"grid": [16, 32, 7]}, "out_dir": str(out)}

    def test_bad_case_runs_nothing(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ConfigInvalid, match=r"case 002 \{'grid': 7\}"):
            sweep_command(self.spec(out), quiet=True)
        assert not out.exists()

    def test_bad_case_via_cli(self, tmp_path):
        out = tmp_path / "sweep"
        result = invoke(tmp_path, "sweep", self.spec(out))
        assert assert_named_error(result) is ConfigInvalid
        assert "case 002" in result.stderr
        assert not list(tmp_path.glob("**/case_*"))

    def test_case_that_integrate_rejects_runs_nothing(self, tmp_path):
        # a run config is checked by integrate's own table when it is built
        out = tmp_path / "sweep"
        spec = {"base": TINY_RUN, "vary": {"t_end": [0.02, 1e-14]}, "out_dir": str(out)}
        with pytest.raises(ConfigInvalid, match=r"case 001 \{'t_end': 1e-14\}: InvalidControls: "
                                                r"t_end: must exceed the landing tolerance"):
            sweep_command(spec, quiet=True)
        assert not out.exists()

    def test_cli_overrides_reach_every_case(self, tmp_path):
        out = tmp_path / "sweep"
        spec = {"base": TINY_RUN, "vary": {"seed": [0, 1]}}
        result = invoke(tmp_path, "sweep", spec, "--grid", "32", "--out", str(out))
        assert result.exit_code == 0, result.stderr
        for case in json.loads((out / "sweep.json").read_text())["cases"]:
            info = json.loads((tmp_path / case["out_dir"] / "run.json").read_text())
            assert info["config"]["grid"] == 32


class TestStepBudget:
    def test_tiny_dt_fails_fast_via_cli(self, tmp_path):
        spec = dict(TINY_RUN, t_end=1.0, dt=1e-9, out_dir=str(tmp_path / "out"))
        started = time.perf_counter()
        result = invoke(tmp_path, "run", spec)
        assert time.perf_counter() - started < 1.0
        assert assert_named_error(result) is InvalidControls
        assert "1e+09 steps" in result.stderr
        assert not (tmp_path / "out" / "run.json").exists()

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_estimate_precedes_the_first_step(self, dt, monkeypatch):
        monkeypatch.setattr(lasw.evolve, "_MAX_STEPS", 5)
        u0 = from_physical([0.0] * 16, Grid(16))
        controls = IntegrationControls(dt=dt, sample_interval=1.0)  # one sample: the steps overrun
        with pytest.raises(InvalidControls, match="steps of dt=.*over the step budget 5"):
            integrate(u0, preset_normalized(), 1.0, controls)

    def test_budget_that_covers_the_run_passes(self, monkeypatch):
        monkeypatch.setattr(lasw.evolve, "_MAX_STEPS", 12)
        u0 = from_physical([0.0] * 16, Grid(16))
        controls = IntegrationControls(dt=0.01, sample_interval=0.05)
        assert integrate(u0, preset_normalized(), 0.1, controls).state.t == pytest.approx(0.1)

    def test_steps_that_land_on_events_can_exhaust_the_budget_mid_run(self, monkeypatch):
        # 0.1 / 0.01 is 10 steps, within the budget; the snapshot times cut
        # four of them short, and the 11th step is past it
        monkeypatch.setattr(lasw.evolve, "_MAX_STEPS", 10)
        u0 = from_physical([0.0] * 16, Grid(16))
        controls = IntegrationControls(dt=0.01, sample_interval=0.05, snapshot_times=(0.005, 0.015, 0.025))
        with pytest.raises(InvalidControls, match=r"^step budget 10 exhausted at t=0\.09$"):
            integrate(u0, preset_normalized(), 0.1, controls)

    @pytest.mark.parametrize("overrides", [{"t_end": 1e300}, {"t_end": 1.0, "sample_interval": 1e-300}],
                             ids=["huge-t_end", "tiny-sample_interval"])
    def test_more_samples_than_the_budget_fail_fast_via_cli(self, tmp_path, overrides,
                                                           monkeypatch, no_hang):
        # these ran out of time and memory listing one event per sample
        monkeypatch.setattr(lasw.evolve, "_event_times", None)
        spec = dict(TINY_RUN, **overrides, out_dir=str(tmp_path / "out"))
        result = invoke(tmp_path, "run", spec)
        assert assert_named_error(result) is InvalidControls
        assert "samples, over the step budget 20000000" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_semigroup_budget_fails_fast_via_cli(self, tmp_path):
        spec = {
            "probe": "semigroup", "grid": 16, "a": {"profile": "constant", "value": 1.0},
            "t_end": 1e6, "out_dir": str(tmp_path / "out"),
        }
        started = time.perf_counter()
        result = invoke(tmp_path, "probe", spec)
        assert time.perf_counter() - started < 1.0
        assert assert_named_error(result) is InvalidProbeInput
        assert "step budget 20000000" in result.stderr
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command, spec", [
        ("converge", {"t_end": 1e300, "dts": [1e-10, 1e-11, 1e-12]}),
    ], ids=["converge"])
    def test_step_counts_past_the_float_range_fail_fast_via_cli(self, tmp_path, command, spec, no_hang):
        # these raised OverflowError rounding t_end / dt to a step count
        result = invoke(tmp_path, command, dict(spec, out_dir=str(tmp_path / "out")))
        assert assert_named_error(result) is InvalidProbeInput
        assert "about inf steps" in result.stderr and "step budget 20000000" in result.stderr
        assert not (tmp_path / "out" / "report.json").exists()


def test_semigroup_defaults_pass(tmp_path):
    result = invoke(tmp_path, "probe", {"probe": "semigroup"}, "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, (result.stderr, result.exception)
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"]


@pytest.mark.parametrize("t_end", [1e-14, 1e-13])
def test_semigroup_rejects_t_end_within_the_landing_tolerance(tmp_path, t_end):
    # such a t_end takes no step, so every ratio would read exactly 1
    spec = {"probe": "semigroup", "grid": 64, "t_end": t_end, "out_dir": str(tmp_path / "out")}
    result = invoke(tmp_path, "probe", spec)
    assert assert_named_error(result) is InvalidProbeInput
    assert "landing tolerance" in result.stderr
    assert not (tmp_path / "out" / "report.json").exists()


def test_mollified_data_defaults_pass(tmp_path):
    result = invoke(tmp_path, "probe", {"probe": "mollified_data"}, "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, (result.stderr, result.exception)
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"]


@pytest.mark.parametrize("probe", ["continuous_dependence", "mollified_data"])
def test_solution_map_probes_take_the_dispersive_dt_for_mu_zero(tmp_path, probe):
    # kdv has mu = 0, so there is no transport field; dt comes from the KdV bound
    spec = {"probe": probe, "model": {"preset": "kdv", "eps": 0.5, "delta": 0.5},
            "grid": 32, "t_end": 0.001}
    result = invoke(tmp_path, "probe", spec, "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, (result.stderr, result.exception)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"]
    # cfl 0.4 times 2.8 / (|alpha2| * (xi_max/2)^3), alpha2 = -delta^2/6
    kdv_dt = 0.4 * 2.8 / (0.5 ** 2 / 6.0 * (math.pi * 32 / 2) ** 3)
    assert report["details"]["dt"] == pytest.approx(kdv_dt, rel=1e-12)


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=10.0)


@st.composite
def run_configs(draw):
    t_end = draw(positive)
    raw = {
        "model": draw(st.sampled_from([
            {"preset": "normalized"},
            {"preset": "large_amplitude", "eps": 0.2, "delta": 0.1},
            {"preset": "ch", "kappa": 0.5},
        ])),
        "grid": draw(st.sampled_from([8, 16, 32])),
        "initial_data": draw(st.sampled_from([
            {"profile": "constant", "value": 0.5},
            {"profile": "sine", "amplitude": 0.1, "mode": 2, "phase": 0.3},
            {"profile": "random", "max_mode": 3, "decay_exponent": "inf"},
            {"coefficients": [[0, 0.1, 0.0], [1, 0.2, 0.1]]},
        ])),
        "t_end": t_end,
    }
    optional = {
        "cfl": positive,
        "dt": st.none() | positive,
        "sample_interval": positive,
        "snapshot_times": st.lists(st.floats(0.0, 1.0).map(lambda f: f * t_end), max_size=3),
        "thresholds": st.dictionaries(st.sampled_from(["sup_ux_max", "hs_max", "tail_rel_max"]), positive),
        "s_exponent": finite,
        "seed": st.integers(0, 2**31),
        "out_dir": st.text(max_size=8),
        "dump_coefficients": st.booleans(),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(strategy)
    return raw


@settings(max_examples=60, deadline=None, database=None)
@given(raw=run_configs())
def test_run_config_round_trips(raw):
    cfg = RunConfig.from_dict(raw)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


# ---------------------------------------------------------------------------
# the Python API: each public function checks its own table of argument kinds
# ---------------------------------------------------------------------------

G16 = Grid(16)
U0 = from_physical(0.05 * np.cos(2.0 * math.pi * G16.x), G16)


def run_integrate(t_end, cfl, dt, sample_interval, snapshot_times, s_exponent,
                  sup_ux_max, hs_max, tail_rel_max):
    thresholds = BlowupThresholds(sup_ux_max, hs_max, tail_rel_max)
    controls = IntegrationControls(cfl, dt, sample_interval, snapshot_times, thresholds, s_exponent)
    return integrate(U0, preset_normalized(), t_end, controls)


# Each public probe, convergence_study, integrate, field operator, field
# measure and parameter set: (call, every numeric argument of a small valid
# call); the fields, the grids, the seeds and the coefficients stay fixed.
API = {
    "semigroup": (lambda **kw: semigroup_probe(U0, U0, **kw),
                  dict(t_end=0.01, cfl=0.3, tail_rel_max=1e-2, tolerance=1e-6)),
    "commutator": (commutator_probe, dict(t_exp=1.0, r_exp=2.0, samples=2, seed=1, n_points=16,
                                          max_mode=3, stability_factor=2.0)),
    "product": (product_probe, dict(r_exp=2.0, t_exp=1.0, samples=2, seed=1, n_points=16,
                                    max_mode=3, stability_factor=2.0)),
    "continuous_dependence": (
        lambda **kw: continuous_dependence_experiment(U0, coeffs=preset_normalized(), **kw),
        dict(perturbation_sizes=[1e-2, 1e-3], t_end=0.01, s_exp=2.0, seed=1, dt=0.005, cfl=0.4)),
    "dispersion": (dispersion_probe, dict(mode=1, eps=1.0, delta=0.1, amplitude=1e-8, n_points=16,
                                          window=0.01, tolerance=1e-6)),
    "mollified_data": (lambda **kw: mollified_data_experiment(U0, coeffs=preset_normalized(), **kw),
                       dict(n_sequence=[2, 4], t_end=0.01, dt=0.005, cfl=0.4)),
    "convergence": (lambda **kw: convergence_study(U0, preset_normalized(), **kw),
                    dict(t_end=0.01, grids=[16, 32, 64], dts=[0.01, 0.005, 0.0025])),
    "integrate": (run_integrate, dict(t_end=0.02, cfl=0.5, dt=0.005, sample_interval=0.01,
                                      snapshot_times=[0.01], s_exponent=2.0, sup_ux_max=1e4,
                                      hs_max=1e8, tail_rel_max=1e-2)),
    "Grid": (Grid, dict(n_points=16)),
    "derivative": (lambda **kw: derivative(U0, **kw), dict(order=2)),
    "lambda_pow": (lambda **kw: lambda_pow(U0, **kw), dict(s=1.5, mu=0.5)),
    "mollify": (lambda **kw: mollify(U0, **kw), dict(n=4)),
    "random_trig_polynomial": (lambda **kw: random_trig_polynomial(G16, 1, **kw),
                               dict(max_mode=3, decay_exponent=1.0)),
    "sobolev_norm": (lambda **kw: sobolev_norm(U0, **kw), dict(s=1.5)),
    "resample": (lambda **kw: resample(U0, **kw), dict(n_points=32)),
    "constant": (lambda **kw: constant(G16, **kw), dict(value=0.5)),
    "mode": (lambda **kw: U0.mode(**kw), dict(n=1)),
    "ModelCoefficients": (ModelCoefficients, asdict(preset_normalized())),
    "RegimeParameters": (RegimeParameters, dict(eps=0.5, delta=0.3, p=0.0, z0=0.5, kappa=1.0, beta=-0.2)),
    # its samples, by another name: a probe's samples is an integer count
    "from_physical": (lambda values: from_physical(values, G16), dict(values=list(G16.x))),
}
RESULTS = (ProbeReport, IntegrationResult, Grid, SpectralField, float, complex, ModelCoefficients, RegimeParameters)
INTEGER_ARGUMENTS = {"samples", "seed", "n_points", "max_mode", "mode", "n_sequence", "grids", "order", "n"}
EXTREMES = [math.nan, math.inf, -math.inf, 0, -1, 1e-300, 1e300]
WRONG_TYPES = [None, "x", [1], {}, True, object()]
# (function, argument) whose kind admits None
OPTIONAL_ARGUMENTS = {
    *((f, "dt") for f in ("continuous_dependence", "mollified_data", "integrate")),
    ("commutator", "max_mode"), ("product", "max_mode"),
    *(("RegimeParameters", name) for name in ("p", "z0", "kappa", "beta")),
}


def with_value(kwargs, name, value):
    """kwargs with argument name, or the first entry of a list argument, set to value."""
    old = kwargs[name]
    return dict(kwargs, **{name: [value, *old[1:]] if isinstance(old, list) else value})


def api_arguments(integers_only=False):
    return [(f, name) for f, (_, kwargs) in API.items() for name in kwargs
            if name in INTEGER_ARGUMENTS or not integers_only]


@pytest.mark.parametrize("function", sorted(API))
def test_valid_call_returns_a_result(function):
    call, kwargs = API[function]
    assert isinstance(call(**kwargs), RESULTS)


@pytest.fixture
def few_samples(monkeypatch):
    """Fail a run that lists more samples than a step budget allows, rather than
    grow its list of event times until memory runs out."""
    listed = lasw.evolve._event_times

    def bounded(t_end, sample_interval, snapshot_times):
        assert t_end / sample_interval <= 1e6, "samples listed past the step budget"
        return listed(t_end, sample_interval, snapshot_times)
    monkeypatch.setattr(lasw.evolve, "_event_times", bounded)


@pytest.mark.parametrize("function, name", api_arguments())
def test_extreme_argument_is_a_named_error_or_a_result(function, name, no_hang, few_samples):
    call, kwargs = API[function]
    for value in EXTREMES:
        try:
            out = call(**with_value(kwargs, name, value))
        except LaswError:
            continue
        assert isinstance(out, RESULTS), value
        assert not (isinstance(out, float) and math.isnan(out)), value
        assert not (name in INTEGER_ARGUMENTS and isinstance(value, float)), value


@pytest.mark.parametrize("function, name", api_arguments())
def test_wrong_typed_argument_is_a_named_error_or_a_result(function, name, no_hang, few_samples):
    call, kwargs = API[function]
    calls = [(value, dict(kwargs, **{name: value})) for value in WRONG_TYPES]
    if isinstance(kwargs[name], list):  # and each wrong type as the list's first entry
        calls += [(value, with_value(kwargs, name, value)) for value in WRONG_TYPES]
    for value, arguments in calls:
        try:
            out = call(**arguments)
        except LaswError:
            continue
        assert isinstance(out, RESULTS), arguments[name]
        # None is an argument's value only where its kind is optional, and never a list entry
        assert value is not None or (arguments[name] is None and (function, name) in OPTIONAL_ARGUMENTS)


@pytest.mark.parametrize("function, name", api_arguments(integers_only=True))
def test_integer_argument_rejects_a_float(function, name):
    call, kwargs = API[function]
    valid = kwargs[name]
    value = float(valid[0] if isinstance(valid, list) else valid)
    with pytest.raises(LaswError, match="expected an integer"):
        call(**with_value(kwargs, name, value))


def test_no_module_raises_a_builtin_value_error():
    # an argument out of range ends as a named LaswError, never a bare ValueError
    sites = []
    for path in sorted(Path(lasw.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name) and raised.id == "ValueError":
                    sites.append(f"{path.name}:{node.lineno}")
    assert sites == []
