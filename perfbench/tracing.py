"""Spans and counters recorded from outside the package, and the layer micro-table.

`Tracer` rebinds public functions where their callers look them up, so a
call made through `lasw.evolve.tendency` or `lasw.cli.integrate` is seen
even though the calling module imported the name.  Each call becomes a span
(name, parent, start, end) carrying the number of numpy FFTs and
`SpectralField` constructions that happened inside it.  A layer's self
time is its span minus its child spans.

`micro_table` times single calls into each layer at the grids ROADMAP
names and divides the heavy rows by the FFT floor: one rfft/irfft pair on
the padded grid 2n.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from workloads import KDV_MODEL, RUN_MODEL, cli, config, evolve, models, probes, spectral

FFT_NAMES = ("rfft", "irfft", "fft", "ifft")
GRIDS = (64, 128, 1024, 4096)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    ffts: int = 0
    fields: int = 0
    note: float | None = None
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(args, result):
    return float(Path(args[0]).stat().st_size)


def _step_dt(args, result):
    return float(args[0].dt)


# (module, attribute, span name, note taken from the call's args and result)
TARGETS = [
    (workloads, "load_run_config", "config.load", None),
    (cli, "run_command", "cli.run_command", None),
    (cli, "build_coefficients", "config.build", None),
    (cli, "build_initial_field", "config.build", None),
    (cli, "integrate", "evolve.integrate", None),
    (cli, "write_diagnostics_csv", "io.write", _file_bytes),
    (cli, "write_snapshot_csv", "io.write", _file_bytes),
    (cli, "write_json", "io.write", _file_bytes),
    (probes, "continuous_dependence_experiment", "probes.continuous_dependence_experiment", None),
    (probes, "semigroup_probe", "probes.semigroup_probe", None),
    (probes, "integrate", "evolve.integrate", None),
    (evolve, "integrate", "evolve.integrate", None),
    (evolve, "tendency", "models.tendency", None),
    (evolve, "tendency_direct", "models.tendency_direct", None),
    (evolve, "transport_field", "models.transport_field", None),
    (evolve, "sup_norm", "spectral.sup_norm", None),
    (evolve, "detect_blowup", "evolve.detect_blowup", _step_dt),
    (evolve, "diagnose", "evolve.diagnose", None),
]


class Tracer:
    """Records spans while installed; `installed()` restores every name on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.ffts = 0
        self.fields = 0

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            idx = len(self.spans)
            span = Span(name, parent, 0.0)
            self.spans.append(span)
            if parent is not None:
                self.spans[parent].children.append(idx)
            self.stack.append(idx)
            ffts0, fields0 = self.ffts, self.fields
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                span.ffts = self.ffts - ffts0
                span.fields = self.fields - fields0
            if note is not None:
                span.note = note(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        saved += [(np.fft, name, getattr(np.fft, name)) for name in FFT_NAMES]
        post_init = spectral.SpectralField.__post_init__
        try:
            for mod, attr, name, note in TARGETS:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr), note))
            for name in FFT_NAMES:
                setattr(np.fft, name, self._counting_fft(getattr(np.fft, name)))

            def counting_post_init(field_self):
                self.fields += 1
                post_init(field_self)
            spectral.SpectralField.__post_init__ = counting_post_init
            yield self
        finally:
            spectral.SpectralField.__post_init__ = post_init
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _counting_fft(self, fn):
        def counted(*args, **kwargs):
            self.ffts += 1
            return fn(*args, **kwargs)
        return counted

    def traced_op(self, fn, arg):
        """Call fn(arg) under a root span "op"; returns (result, root index)."""
        root = len(self.spans)
        return self._wrap("op", fn, None)(arg), root

    def op_spans(self, root: int) -> list[Span]:
        """The span `root` and all its descendants."""
        out, todo = [], [root]
        while todo:
            span = self.spans[todo.pop()]
            out.append(span)
            todo.extend(span.children)
        return out

    def self_of(self, span: Span, attr: str = "seconds") -> float:
        return getattr(span, attr) - sum(getattr(self.spans[c], attr) for c in span.children)


def op_profile(tracer: Tracer, root: int) -> dict:
    """Per-op layer figures from the spans under one op's root span."""
    spans = tracer.op_spans(root)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total_self(name, attr="seconds"):
        return sum(tracer.self_of(s, attr) for s in by_name.get(name, []))

    def total(name, attr="seconds"):
        return sum(getattr(s, attr) for s in by_name.get(name, []))

    prof = {"op_s": spans[0].seconds,
            "ffts": spans[0].ffts, "fields": spans[0].fields}
    steps = len(by_name.get("evolve.detect_blowup", []))
    if "evolve.integrate" in by_name and steps:
        rhs = ("models.tendency", "models.tendency_direct")
        dts = [s.note for s in by_name["evolve.detect_blowup"]]
        prof.update({
            "evolve.steps_per_op": steps,
            "evolve.tendency_calls_per_op": sum(len(by_name.get(n, [])) for n in rhs),
            "spectral.transforms_per_step":
                (sum(total(n, "ffts") for n in rhs) + total_self("evolve.integrate", "ffts")) / steps,
            "spectral.fields_per_step":
                (sum(total(n, "fields") for n in rhs) + total_self("evolve.integrate", "fields")) / steps,
            "evolve.integrate.self_s": total_self("evolve.integrate"),
            "evolve.detect_blowup.self_s": total_self("evolve.detect_blowup"),
            "evolve.diagnose.self_s": total_self("evolve.diagnose"),
            "evolve.dt_min": min(dts),
            "evolve.dt_max": max(dts),
            "evolve.dt_mean": sum(dts) / len(dts),
        })
    if "models.tendency" in by_name:
        prof["models.tendency.self_s"] = total_self("models.tendency")
    if "models.tendency_direct" in by_name:
        prof["models.tendency_direct.self_s"] = total_self("models.tendency_direct")
    if "cli.run_command" in by_name:
        prof.update({
            "config.load_s": total("config.load"),
            "io.write_s_per_op": total("io.write"),
            "io.bytes_per_op": sum(s.note for s in by_name.get("io.write", [])),
            "cli.run_command.self_s": total_self("cli.run_command"),
        })
    if "probes.continuous_dependence_experiment" in by_name:
        prof["probes.integrate_calls_per_op"] = len(by_name.get("evolve.integrate", []))
    return prof


# ---------------------------------------------------------------------------
# micro-table
# ---------------------------------------------------------------------------

def per_call_us(fn, budget_s: float = 0.08, min_batches: int = 5) -> float:
    """Median wall time of one call, timing batches long enough to read."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    batch = max(1, int(2e-4 / max(once, 1e-9)))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_batches or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples) * 1e6


def micro_table() -> dict:
    """Per-call microseconds for each layer row, and multiples of the FFT floor."""
    coeffs = config.build_coefficients(RUN_MODEL)
    kdv = config.build_coefficients(KDV_MODEL)
    rows: dict[str, float] = {}
    for n in GRIDS:
        grid = spectral.Grid(n)
        u = spectral.random_trig_polynomial(grid, 1, 10, 2.0)
        state = evolve.SimulationState(0.0, u, 0.0)
        x = np.random.default_rng(n).standard_normal(2 * n)
        floor = rows[f"spectral.fft_floor_us.n{n}"] = per_call_us(
            lambda: np.fft.irfft(np.fft.rfft(x), n=2 * n))
        rows[f"models.tendency_us.n{n}"] = per_call_us(lambda: models.tendency(u, coeffs))
        rows[f"evolve.rk4_step_us.n{n}"] = per_call_us(lambda: evolve.step_rk4(state, coeffs, 1e-4))
        rows[f"models.tendency_x_floor.n{n}"] = rows[f"models.tendency_us.n{n}"] / floor
        rows[f"evolve.rk4_step_x_floor.n{n}"] = rows[f"evolve.rk4_step_us.n{n}"] / floor
        if n in (128, 1024):
            rows[f"spectral.product_us.n{n}"] = per_call_us(lambda: spectral.dealiased_product(u, u))
            rows[f"spectral.sup_norm_us.n{n}"] = per_call_us(lambda: spectral.sup_norm(u))
        if n in (64, 128):
            rows[f"models.tendency_direct_us.n{n}"] = per_call_us(lambda: models.tendency_direct(u, kdv))
            rows[f"evolve.detect_blowup_us.n{n}"] = per_call_us(lambda: evolve.detect_blowup(state))
        if n == 128:
            coef = u.coef.copy()
            rows["spectral.field_ctor_us.n128"] = per_call_us(lambda: spectral.SpectralField(grid, coef))
            rows["models.transport_field_us.n128"] = per_call_us(lambda: models.transport_field(u, coeffs))
            rows["evolve.cfl_us.n128"] = per_call_us(
                lambda: spectral.sup_norm(models.transport_field(u, coeffs)))
            rows["evolve.diagnose_us.n128"] = per_call_us(lambda: evolve.diagnose(0.0, u))
    return rows
