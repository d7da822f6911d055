"""Method-of-lines evolution with step control, diagnostics and blow-up watch.

Every model steps with ETDRK4 (Cox & Matthews 2002), which integrates the
linear part L = Lam^{-2}(alpha1*d/dx + alpha2*d^3/dx^3) exactly: for mu > 0
that is the dispersive part of the nonlocal form, whose constant speed
alpha2/mu is most of a(u) on the presets, and for mu = 0 (KdV) the
unsmoothed alpha1*u_x + alpha2*u_xxx.  The nonlinear part is `tendency`
(mu > 0) or `tendency_direct` (mu = 0) less alpha1 and alpha2.  The step
rule bounds accuracy rather than stability, on a power-of-two ladder of
steps, so the cached weights serve a whole run.  The step size is
adjusted to land exactly on sample and snapshot times, so no interpolation
enters the reported records.  Each accepted state is measured once, by the
blow-up check through the public measures of `spectral`, which take the
bare state as it is, and samples reuse that record.

There is one step loop, `_solve`.  It steps a bare half spectrum, or a
(B, n/2+1) stack of them when a probe solves several fields on one grid
at one dt, with one right-hand-side call per stage for all rows and one
`detect_blowup` call per accepted step, and ends at the first state in
which a row stops.  `integrate` is its one-row case: it wraps u0's half
spectrum and builds SpectralFields only for the snapshots and the final
state.  Row-wise FFTs and last-axis sums give each row of a stack the
bits it gets alone, so a probe names the first field to stop by
re-solving the fields one by one.  A step enters np.errstate at most
three times: for the step rule's speed, around its four stages, whose
bare right-hand-side calls set none of their own, and once for its record,
whose bare measure calls set none either.

A run ends in one of four states: Completed (reached t_end),
BlowUpSuspected (a monitored quantity crossed its threshold, wave-breaking
style), NonFinite (overflow/NaN in a step, sup|u_x| or l2), or still Running.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidControls, InvalidField
from .kinds import _LANDING_TOL, _bound, _list_of, _nonneg, _number, _optional, _positive, _span, check
# transport_field is off the step path; perfbench/tracing.py rebinds evolve.transport_field
from .models import (  # noqa: F401
    ModelCoefficients, tendency, tendency_direct, transport_field, validate,
)
from .spectral import (
    SpectralField, _dx_sigma, _lambda_sigma, _points, _to_grid, l2_norm, mean, sobolev_norm, spectral_tail,
    sup_norm, sup_norm_dx,
)


# Step budget of one run; a run whose first step implies more fails at once.
_MAX_STEPS = 20_000_000

# Points on the circle |z - dt*L| = 1 whose mean gives the ETDRK4 weights,
# and the most modes whose points are evaluated as one array: 32 x 256
# complex values stay under the 256 KB past which numpy reuses temporaries
# in place, so the weights keep the bits of a sum taken one point at a time.
_CONTOUR_POINTS = 32
_CONTOUR_CHUNK = 256


class RunStatus(enum.Enum):
    RUNNING = "Running"
    COMPLETED = "Completed"
    BLOWUP_SUSPECTED = "BlowUpSuspected"
    NONFINITE = "NonFinite"


@dataclass(frozen=True)
class SimulationState:
    """A state at time t reached by a step dt; inside the step loop, u is the
    bare half spectrum or (B, n/2+1) stack that `_solve` passes on."""

    t: float
    u: SpectralField | np.ndarray
    dt: float
    status: RunStatus = RunStatus.RUNNING


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Monitored quantities at one sample time.

    tail is the largest coefficient magnitude in the top third of modes
    (the resolution monitor); sup_u accompanies sup_ux so both candidate
    blow-up quantities are on record.
    """

    t: float
    mean: float
    l2: float
    hs: float
    sup_ux: float
    tail: float
    sup_u: float


@dataclass(frozen=True)
class BlowupThresholds:
    sup_ux_max: float = 1e4
    hs_max: float = 1e8
    tail_rel_max: float = 1e-2


@dataclass(frozen=True)
class BlowupDecision:
    status: RunStatus
    trigger: str | None = None
    value: float | None = None
    t: float | None = None
    record: DiagnosticsRecord | None = None  # sup_u nan from detect_blowup; None if already NonFinite


@dataclass(frozen=True)
class IntegrationControls:
    """Knobs for `integrate`; dt=None selects the CFL step."""

    cfl: float = 0.5
    dt: float | None = None
    sample_interval: float = 0.05
    snapshot_times: tuple[float, ...] = ()
    thresholds: BlowupThresholds = field(default_factory=BlowupThresholds)
    s_exponent: float = 2.0


@dataclass(frozen=True)
class IntegrationResult:
    state: SimulationState
    records: list[DiagnosticsRecord]
    snapshots: list[tuple[float, SpectralField]]
    blowup: BlowupDecision | None = None


def _monitor_rows(t: float, h: np.ndarray, s_exponent: float) -> list[DiagnosticsRecord]:
    """The record of a finite half spectrum, or of each row of a (B, n/2+1) stack,
    but sup|u|, which no blow-up test reads: nan until a sample.

    The public measures take h bare, under one errstate, as an overflowing
    state has norms inf; each row gets the bits it gets alone.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        columns = (mean(h), l2_norm(h), sobolev_norm(h, s_exponent), sup_norm_dx(h), spectral_tail(h))
    rows = np.array(columns).T.reshape(-1, len(columns)).tolist()
    # a list, not a generator, under the star: unpacking a generator leaves a
    # resized tuple per call on the interpreter's free list, ~0.15 MB of peak RSS
    return [DiagnosticsRecord(t, *row, math.nan) for row in rows]


def diagnose(t: float, u: SpectralField, s_exponent: float = 2.0) -> DiagnosticsRecord:
    """Every monitored quantity of a state: `detect_blowup`'s record plus sup|u|."""
    [record] = _monitor_rows(t, u.coef, s_exponent)
    return replace(record, sup_u=sup_norm(u))


def detect_blowup(
    state: SimulationState,
    thresholds: BlowupThresholds | None = None,
    s_exponent: float = 2.0,
) -> BlowupDecision | list[BlowupDecision]:
    """Classify the state's record: Running, BlowUpSuspected or NonFinite.

    Non-finite fields take precedence over threshold crossings; the
    decision names the triggering quantity and the time, and carries the
    record, whose sup_u is nan.  A state whose u is a bare half spectrum or
    (B, n/2+1) stack, as the step loop passes it, gets one decision per row.
    """
    if state.status is RunStatus.NONFINITE:
        return BlowupDecision(RunStatus.NONFINITE, t=state.t)
    thresholds = thresholds or BlowupThresholds()
    bare = isinstance(state.u, np.ndarray)
    records = _monitor_rows(state.t, state.u if bare else state.u.coef, s_exponent)
    decisions = [_classify(r, thresholds) for r in records]
    return decisions if bare else decisions[0]


def _classify(r: DiagnosticsRecord, thresholds: BlowupThresholds) -> BlowupDecision:
    """The verdict on one `_monitor_rows` record, u0's too: NonFinite first, then each threshold."""
    if not math.isfinite(r.sup_ux):
        return BlowupDecision(RunStatus.NONFINITE, trigger="sup_ux", t=r.t, record=r)
    if not math.isfinite(r.l2):
        return BlowupDecision(RunStatus.NONFINITE, t=r.t, record=r)
    if r.sup_ux > thresholds.sup_ux_max:
        return BlowupDecision(RunStatus.BLOWUP_SUSPECTED, "sup_ux", r.sup_ux, r.t, r)
    if r.hs > thresholds.hs_max:
        return BlowupDecision(RunStatus.BLOWUP_SUSPECTED, "hs", r.hs, r.t, r)
    if r.tail > thresholds.tail_rel_max * r.l2 and r.l2 > 0.0:
        return BlowupDecision(RunStatus.BLOWUP_SUSPECTED, "spectral_tail", r.tail, r.t, r)
    return BlowupDecision(RunStatus.RUNNING, t=r.t, record=r)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _finite_rows(h: np.ndarray) -> np.ndarray | None:
    """h, one half spectrum or a stack of them, if every entry is finite; else None."""
    return h if np.all(np.isfinite(h)) else None


def _linear_symbol(n: int, coeffs: ModelCoefficients) -> np.ndarray:
    """L = Lam^{-2}(alpha1*d/dx + alpha2*d^3/dx^3) on the half spectrum, 0 at
    mode 0 and at the Nyquist slot; Lam^{-2} is all ones when mu = 0."""
    lin = coeffs.alpha1 * _dx_sigma(n, 1) + coeffs.alpha2 * _dx_sigma(n, 3)
    return lin * _lambda_sigma(n, -2.0, coeffs.mu)


@functools.lru_cache(maxsize=16)
def _etd_weights(n: int, coeffs: ModelCoefficients, dt: float) -> tuple[np.ndarray, ...]:
    """E, E/2, Q, f1, f2, f3 of ETDRK4 for `_linear_symbol`'s L.

    The phi-functions are means over a circle of radius 1 around each dt*L
    (Kassam & Trefethen 2005), which avoids their cancellation near 0.  L is
    imaginary, so the circle is the full one with a complex mean; the half
    circle with a real part holds only for real L.  The contour points make
    one (points, modes) array per chunk of modes, so memory stays O(n), and
    the sums over them run in point order, as one point at a time would.
    """
    roots = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite weight fails the step
        z = dt * _linear_symbol(n, coeffs)
        sums = np.empty((4, z.size), dtype=complex)
        # near-equal chunks: numpy would sum a chunk of one mode pairwise
        edges = np.linspace(0, z.size, -(-z.size // _CONTOUR_CHUNK) + 1).astype(int)
        for lo, hi in zip(edges, edges[1:]):
            w = z[lo:hi] + roots
            ew, w3 = np.exp(w), w ** 3
            sums[:, lo:hi] = [
                np.sum(f, axis=0) for f in (
                    (np.exp(0.5 * w) - 1.0) / w,
                    (-4.0 - w + ew * (4.0 - 3.0 * w + w * w)) / w3,
                    (2.0 + w + ew * (w - 2.0)) / w3,
                    (-4.0 - 3.0 * w - w * w + ew * (4.0 - w)) / w3,
                )
            ]
        q, f1, f2, f3 = (dt / _CONTOUR_POINTS) * sums
        weights = (np.exp(z), np.exp(0.5 * z), q, f1, f2, f3)
    for w in weights:
        w.flags.writeable = False
    return weights


def _etdrk4(h: np.ndarray, nonlinear: Callable, weights) -> np.ndarray | None:
    """One ETDRK4 step (Cox & Matthews 2002) of h' = L h + nonlinear(h); `_finite_rows` of it."""
    e, e2, q, f1, f2, f3 = weights
    with np.errstate(over="ignore", invalid="ignore"):
        nu = nonlinear(h)
        e2h = e2 * h
        a = e2h + q * nu
        na = nonlinear(a)
        b = e2h + q * na
        nb = nonlinear(b)
        c = e2 * a + q * (2.0 * nb - nu)
        nc = nonlinear(c)
        h = e * h + f1 * nu + 2.0 * f2 * (na + nb) + f3 * nc
    return _finite_rows(h)


def _stepper(coeffs: ModelCoefficients) -> Callable:
    """(h, dt) -> the next half spectrum (or stack of them), as `_finite_rows` gives it.

    Every model steps with ETDRK4, exact on `_linear_symbol`'s L, with the
    rest of the right-hand side as its nonlinear part; mu alone picks the
    form: `tendency` when mu > 0, `tendency_direct` when mu = 0.
    """
    nl = _nonlinear_part(coeffs)
    if coeffs.mu == 0.0:
        nonlinear = lambda v: tendency_direct(v, nl)
    else:
        nonlinear = lambda v: tendency(v, nl)

    def etd_step(h, dt):
        return _etdrk4(h, nonlinear, _etd_weights(_points(h), coeffs, dt))
    return etd_step


@functools.lru_cache(maxsize=16)
def _nonlinear_part(coeffs: ModelCoefficients) -> ModelCoefficients:
    """coeffs less alpha1 and alpha2, which ETDRK4 integrates exactly.

    One instance per coefficient set: a new one per run let a process's
    peak RSS creep by ~0.1 MB per thousand short KdV runs.
    """
    return replace(coeffs, alpha1=0.0, alpha2=0.0)


def step_rk4(state: SimulationState, coeffs: ModelCoefficients, dt: float) -> SimulationState:
    """Advance one step of any model that `integrate` accepts, as `integrate` steps it.

    That is one ETDRK4 step, whatever mu; the name is kept from when mu > 0
    stepped with RK4.  The nonlinear part has zero mean and the mean slot of
    L is 0, so the mean of u is preserved to round-off.
    """
    check(InvalidControls, {"dt": _positive}, {"dt": dt})
    if state.status is not RunStatus.RUNNING:
        raise InvalidControls(f"cannot step a state with status {state.status.value}")
    h = _stepper(coeffs)(state.u.coef, dt)
    if h is None:
        return replace(state, dt=dt, status=RunStatus.NONFINITE)
    return SimulationState(state.t + dt, SpectralField(state.u.grid, h), dt, RunStatus.RUNNING)


@functools.lru_cache(maxsize=128)
def _dispersive_step(n: int, coeffs: ModelCoefficients) -> float:
    """The step per unit cfl before halving: 2.8 / max|L(xi)| over the modes
    |xi| <= n/4, or dx when alpha2 = 0.

    2.8 is about the RK4 stability limit on the imaginary axis.  With mu = 0,
    max|L| is read as |alpha2|*(pi*n/2)^3, the dispersive term alone.  A
    step that is not positive and finite, as when max|L| overflows or
    underflows, raises InvalidField.
    """
    c = coeffs
    if c.alpha2 == 0.0:
        return 1.0 / n
    if c.mu == 0.0:
        step = 2.8 / (abs(c.alpha2) * (0.5 * math.pi * n) ** 3)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = float(2.8 / np.max(np.abs(_linear_symbol(n, c)[:n // 4 + 1])))
    if not 0.0 < step < math.inf:
        raise InvalidField(f"the step rule's dispersive step is not positive and finite: {step}")
    return step


def _stable_dt(h: np.ndarray, coeffs: ModelCoefficients, cfl: float) -> float:
    """The ETDRK4 step for the half spectrum h of u; for a (B, n/2+1) stack,
    at its largest speed.

    ETDRK4 is exact on L, so the step bounds its accuracy, not its
    stability: the error grows with the dispersive phase dt*|L(xi)| of the
    modes the nonlinear part couples, and with the nonlinear speed.  dt is
    cfl * `_dispersive_step`, halved until it fits under the advective step
    cfl * dx / s: a run draws its steps, and the cached ETDRK4 weights, from
    a few values.

    With mu > 0, s = sup|(beta2 + gamma2*v)*v|/mu over the 4n samples v of
    u, the speed of a(u) less its linear part alpha2/mu; s = 0 needs no
    halving.  With mu = 0, s = max(1, |alpha1| + |alpha3|*sup|v|).  A speed
    past the float range raises InvalidField.
    """
    n = _points(h)
    spacing = 1.0 / n
    c = coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        v = _to_grid(h, 4 * n)
        if c.mu == 0.0:
            speed = abs(c.alpha1) + abs(c.alpha3) * float(np.max(np.abs(v)))
        else:
            speed = float(np.max(np.abs((c.beta2 + c.gamma2 * v) * v))) / c.mu
    if not math.isfinite(speed):
        raise InvalidField(f"the step rule's speed is not finite: {speed}")
    if c.mu == 0.0:
        speed = max(1.0, speed)
    base = cfl * _dispersive_step(n, c)
    halvings = 0
    if speed > 0.0:
        advective = cfl * (spacing / speed)
        while math.ldexp(base, -halvings) > advective:
            halvings += 1
    return math.ldexp(base, -halvings)


def _event_times(t_end: float, sample_interval: float, snapshot_times) -> list[tuple[float, bool, bool]]:
    """(time, is_sample, is_snapshot) stops the integrator lands on, t = 0 first."""
    samples = {round(t_end, 15)}
    k = 1
    while k * sample_interval < t_end - 1e-12:
        samples.add(round(k * sample_interval, 15))
        k += 1
    snaps = {round(ts, 15) for ts in snapshot_times if ts > 0.0}
    later = [(ev, ev in samples, ev in snaps) for ev in sorted(samples | snaps)]
    return [(0.0, True, 0.0 in snapshot_times), *later]


# integrate's arguments: t_end, the fields of IntegrationControls and of BlowupThresholds
_RUN_ARGUMENTS = dict(t_end=_span, cfl=_positive, dt=_optional(_positive), sample_interval=_positive,
                      snapshot_times=_list_of(_nonneg, least=0), s_exponent=_number,
                      sup_ux_max=_bound, hs_max=_bound, tail_rel_max=_bound)


def _check_run(coeffs: ModelCoefficients, t_end: float, controls: IntegrationControls) -> None:
    """Raise InvalidControls, then GammaRelationViolated, for a run
    `integrate` cannot start.  Every sample costs a step, so a run with more
    samples than the step budget fails here, before `_event_times` lists them."""
    check(InvalidControls, _RUN_ARGUMENTS, {"t_end": t_end, **vars(controls), **vars(controls.thresholds)})
    if any(ts > t_end for ts in controls.snapshot_times):
        raise InvalidControls(f"snapshot_times: {max(controls.snapshot_times)} exceeds t_end={t_end}")
    if t_end / controls.sample_interval > _MAX_STEPS:
        raise InvalidControls(f"t_end / sample_interval is {t_end / controls.sample_interval:.3g} samples, "
                              f"over the step budget {_MAX_STEPS}")
    if coeffs.mu > 0.0:
        validate(coeffs)  # before u0's verdict, which can end a run without a step


def _check_steps(error: type[Exception], t_end: float, dt: float) -> None:
    """Raise error if steps of dt to t_end would overrun the step budget, as
    an inf or nan estimate does: the one budget check of every stepping loop."""
    steps = t_end / dt if dt != 0.0 else math.inf  # a step that underflows to 0 never lands
    if not steps <= _MAX_STEPS:
        raise error(f"about {steps:.3g} steps of dt={dt:.3g} needed, over the step budget {_MAX_STEPS}")


@dataclass(frozen=True)
class _Solve:
    """The last state `_solve` reached and the last step it tried; per sample,
    the record of each row; the (time, h) snapshots; and the decision that
    stopped the loop, None if it reached t_end.  A stop record's sup|u| is nan."""

    t: float
    h: np.ndarray
    dt: float
    records: list[list[DiagnosticsRecord]]
    snapshots: list[tuple[float, np.ndarray]]
    stop: BlowupDecision | None


def _solve(
    h0: np.ndarray,
    coeffs: ModelCoefficients,
    t_end: float,
    controls: IntegrationControls,
) -> _Solve:
    """The one step loop: evolve a half spectrum, or each row of a (B, n/2+1)
    stack, to t_end as `integrate` describes.

    The rows step as one stack: each ETDRK4 stage makes one
    right-hand-side call for all of them, and `detect_blowup` classifies
    each accepted stack in one call, after its mean and Nyquist slots are
    made exactly real, as a SpectralField makes them.  The step is
    controls.dt or `_stable_dt` of the stack.  The loop ends at the first
    state in which a row stops, u0's included, with the decision of the
    first such row, or NonFinite at the last finite state when a step
    overflows.
    """
    _check_run(coeffs, t_end, controls)
    step = _stepper(coeffs)
    t, h, dt_last = 0.0, h0, 0.0
    records: list[list[DiagnosticsRecord]] = []
    snapshots: list[tuple[float, np.ndarray]] = []
    decisions = [_classify(r, controls.thresholds) for r in _monitor_rows(t, h, controls.s_exponent)]
    steps = 0

    for ev, is_sample, is_snap in _event_times(t_end, controls.sample_interval, controls.snapshot_times):
        while True:
            stop = next((d for d in decisions if d.status is not RunStatus.RUNNING), None)
            if stop is not None:
                return _Solve(t, h, dt_last, records, snapshots, stop)
            if t >= ev - _LANDING_TOL:
                break
            steps += 1
            if steps > _MAX_STEPS:
                raise InvalidControls(f"step budget {_MAX_STEPS} exhausted at t={t:.6g}")
            dt = controls.dt if controls.dt is not None else _stable_dt(h, coeffs, controls.cfl)
            dt = min(dt, controls.sample_interval)
            if steps == 1:
                _check_steps(InvalidControls, t_end, dt)
            dt_last = min(dt, ev - t)
            nxt = step(h, dt_last)
            if nxt is None:
                return _Solve(t, h, dt_last, records, snapshots, BlowupDecision(RunStatus.NONFINITE, t=t))
            t = ev if ev - (t + dt_last) < _LANDING_TOL else t + dt_last
            nxt[..., 0] = nxt[..., 0].real
            nxt[..., -1] = nxt[..., -1].real
            h = nxt
            decisions = detect_blowup(
                SimulationState(t, h, dt_last), controls.thresholds, controls.s_exponent
            )
        if is_sample:  # a step's records: sup|u| is paid per sample
            sup = np.atleast_1d(sup_norm(h)).tolist()  # an event no step reaches keeps its time
            records.append([replace(d.record, t=ev, sup_u=v) for d, v in zip(decisions, sup)])
        if is_snap:
            snapshots.append((ev, h))
    return _Solve(t, h, dt_last, records, snapshots, None)


def integrate(
    u0: SpectralField,
    coeffs: ModelCoefficients,
    t_end: float,
    controls: IntegrationControls | None = None,
) -> IntegrationResult:
    """Evolve u0 to t_end with diagnostics at t = 0 and every sample time.

    u0 is classified before the first step, as every later state is: a u0
    whose sup|u_x| or l2 norm overflows ends the run NonFinite at t = 0, and
    one past a blow-up threshold ends it BlowUpSuspected there, each with
    its one diagnostics row.

    Every model steps with ETDRK4 (`_stepper`), at controls.dt or at
    `_stable_dt`'s step for the cfl: cfl times the dispersive step, halved
    to fit under cfl * dx over the nonlinear speed.  The step is capped by
    the sample interval and shortened to land exactly on sample/snapshot
    times.  u0's half spectrum steps through `_solve` as its one row.
    """
    controls = controls or IntegrationControls()
    run = _solve(u0.coef, coeffs, t_end, controls)
    records = [rows[0] for rows in run.records]
    final = SpectralField(u0.grid, run.h)
    status, blowup = RunStatus.RUNNING, None
    if (stop := run.stop) is not None:
        status = stop.status
        if stop.record is not None:  # a step that overflows leaves no record
            stop = replace(stop, record=replace(stop.record, sup_u=sup_norm(final)))
            records.append(stop.record)
        if status is RunStatus.BLOWUP_SUSPECTED:
            blowup = stop
    elif run.t >= t_end - _LANDING_TOL:
        status = RunStatus.COMPLETED
    state = SimulationState(run.t, final, run.dt, status)
    snapshots = [(ev, SpectralField(u0.grid, h)) for ev, h in run.snapshots]
    return IntegrationResult(state, records, snapshots, blowup=blowup)
