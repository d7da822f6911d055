"""The benchmark's tracer rebinds package functions by name; they must exist,
and a traced op of each workload must still reach every layer it measures."""

import importlib
import json
from pathlib import Path

import pytest

from lasw import evolve
from lasw.models import RegimeParameters, preset_large_amplitude, preset_survey
from lasw.spectral import Grid, random_trig_polynomial

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    missing = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _, _ in tracing.TARGETS
        if not callable(getattr(mod, attr, None))
    ]
    assert not missing, f"traced names not found: {missing}"


def test_traced_toy_ops_yield_every_per_layer_metric(monkeypatch, tmp_path):
    """What `--trace 1` reports: the micro-table plus one traced op per workload.

    A layer that stops being called through the names the tracer rebinds,
    or a micro-table call that stops matching a signature, drops or breaks
    a metric here.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "OUT", tmp_path)

    def one_call(fn, *args, **kwargs):
        fn()
        return 1.0

    monkeypatch.setattr(tracing, "per_call_us", one_call)
    names = set(tracing.micro_table())
    references = workloads.load_references()
    for cls in workloads.WORKLOADS.values():
        wl = cls("toy", references)
        tracer = tracing.Tracer()
        with tracer.installed():
            _, failure, root = worker.run_op(wl, workloads.WARMUP_KEY, tracer)
        assert failure is None, (cls.name, failure)
        names |= set(worker.profile(tracer, wl, root))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert not expected - names, f"per-layer metrics not measured: {sorted(expected - names)}"


def test_semigroup_workload_counts_the_probe_steps(monkeypatch):
    """`SemigroupN4096.implied_steps` copies the probe's step rule; it must match it."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    probes = workloads.probes
    transport_step = probes._transport_step
    calls = []

    def counted(*args):
        calls.append(1)
        return transport_step(*args)

    monkeypatch.setattr(probes, "_transport_step", counted)
    references = workloads.load_references()
    for size in ("toy", "full"):
        wl = workloads.SemigroupN4096(size, references)
        calls.clear()
        wl.run(wl.prepare(workloads.WARMUP_KEY))
        assert len(calls) == wl.implied_steps(), size


@pytest.mark.parametrize("name, coeffs, form", [
    ("large_amplitude", preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1)), "tendency"),
    ("se", preset_survey("se", RegimeParameters(eps=0.5, delta=0.4)), "tendency"),
    ("kdv", preset_survey("kdv", RegimeParameters(eps=0.5, delta=0.5)), "tendency_direct"),
])
def test_every_stage_calls_through_the_rebound_names(monkeypatch, name, coeffs, form):
    """The tracer's per-stage spans need each RK4 stage to look its right-hand
    side up as `evolve.tendency` or `evolve.tendency_direct` at call time."""
    calls = {"tendency": 0, "tendency_direct": 0}

    def counted(attr):
        fn = getattr(evolve, attr)

        def wrapped(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapped

    for attr in calls:
        monkeypatch.setattr(evolve, attr, counted(attr))
    u0 = random_trig_polynomial(Grid(32), 1, 5, 2.0)
    dt = 1e-6
    for steps in (1, 3):
        for attr in calls:
            calls[attr] = 0
        result = evolve.integrate(
            u0, coeffs, steps * dt, evolve.IntegrationControls(dt=dt, sample_interval=steps * dt)
        )
        assert result.state.status is evolve.RunStatus.COMPLETED
        other = "tendency" if form == "tendency_direct" else "tendency_direct"
        assert (calls[form], calls[other]) == (4 * steps, 0), name


def test_kdv_workload_meets_its_reference_in_at_most_16_steps(monkeypatch):
    """The `kdv-n64` check at full size on pool keys 0-5, read from the stored
    references and never written: each op lands within 2e-8 of its fine-dt
    reference, through at most 64 right-hand sides (16 steps)."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    direct = evolve.tendency_direct
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return direct(*args, **kwargs)

    monkeypatch.setattr(evolve, "tendency_direct", counted)
    wl = workloads.KdvN64("full", workloads.load_references())
    for key in range(6):
        calls.clear()
        u0 = wl.prepare(key)
        result = wl.run(u0)
        assert wl.reference(key)[1] <= 2e-8
        assert wl.check(key, u0, result) is None, key
        assert len(calls) <= 64, (key, len(calls))


def test_ensemble_op_steps_its_fields_as_one_stack(monkeypatch):
    """A full `ensemble-n128` op on seeds 0-3 passes its check through 80
    `evolve.tendency` calls: 20 ETDRK4 steps of one 4-row stack, where four
    solves of one field each made 320."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tendency = evolve.tendency
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return tendency(*args, **kwargs)

    monkeypatch.setattr(evolve, "tendency", counted)
    wl = workloads.EnsembleN128("full", workloads.load_references())
    for seed in range(4):
        calls.clear()
        report = wl.run(wl.prepare(seed))
        assert wl.check(seed, seed, report) is None, seed
        assert len(calls) == 80, (seed, len(calls))


@pytest.mark.parametrize("name, rows", [("run-n128", 1), ("ensemble-n128", 4)])
def test_one_blowup_check_per_accepted_step(monkeypatch, tmp_path, name, rows):
    """The tracer counts steps as `evolve.detect_blowup` calls and reads each
    step's dt off the call's first argument: a full-size op of a `lasw run`
    and of a stacked probe makes one call per accepted step, with that step's
    dt, and gets one decision per row of the stepped half spectra."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    stepper, detect = evolve._stepper, evolve.detect_blowup
    accepted, checked = [], []

    def counted_stepper(coeffs):
        step = stepper(coeffs)

        def counted(h, dt):
            out = step(h, dt)
            if out is not None:
                accepted.append(dt)
            return out
        return counted

    def counted_detect(state, *args, **kwargs):
        decisions = detect(state, *args, **kwargs)
        assert len(decisions) == (state.u.shape[0] if state.u.ndim == 2 else 1) == rows
        checked.append(state.dt)
        return decisions

    monkeypatch.setattr(evolve, "_stepper", counted_stepper)
    monkeypatch.setattr(evolve, "detect_blowup", counted_detect)
    wl = workloads.WORKLOADS[name]("full", workloads.load_references())
    arg = wl.prepare(workloads.WARMUP_KEY)
    assert wl.check(workloads.WARMUP_KEY, arg, wl.run(arg)) is None
    assert accepted and checked == accepted
