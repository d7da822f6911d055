"""Spec schema: every malformed spec ends as a named LaswError with exit 1."""

import copy
import json
import math
import re
import time

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import lasw.errors
from lasw.cli import main, sweep_command
from lasw.config import RunConfig
from lasw.errors import ConfigInvalid, InvalidControls, InvalidProbeInput, LaswError
from lasw.evolve import IntegrationControls, integrate
from lasw.models import preset_normalized
from lasw.probes import convergence_study, dispersion_probe
from lasw.spectral import Grid, from_physical

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
        "amplitude": 1e-8, "window": 0.01, "dt": 0.001, "tolerance": 1e-6,
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
    return CliRunner().invoke(main, [command, "--config", str(path), "--quiet", *args])


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
    result = CliRunner().invoke(main, ["run", "--config", str(path)])
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
    def test_estimate_precedes_the_first_step(self, dt):
        u0 = from_physical([0.0] * 16, Grid(16))
        controls = IntegrationControls(dt=dt, max_steps=5)
        with pytest.raises(InvalidControls, match="step budget 5"):
            integrate(u0, preset_normalized(), 1.0, controls)

    def test_budget_that_covers_the_run_passes(self):
        u0 = from_physical([0.0] * 16, Grid(16))
        controls = IntegrationControls(dt=0.01, sample_interval=0.05, max_steps=12)
        assert integrate(u0, preset_normalized(), 0.1, controls).state.t == pytest.approx(0.1)

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


def test_semigroup_defaults_pass(tmp_path):
    result = invoke(tmp_path, "probe", {"probe": "semigroup"}, "--out", str(tmp_path / "out"))
    assert result.exit_code == 0, (result.stderr, result.exception)
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"]


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
