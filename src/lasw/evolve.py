"""Method-of-lines evolution with step control, diagnostics and blow-up watch.

The reformulated equation is first order and nonstiff once the inverse
elliptic operator has smoothed the right-hand side, so a classical
explicit RK4 step under an advective CFL condition is enough.  The step
size is adjusted to land exactly on sample and snapshot times, so no
interpolation enters the reported records.  Each accepted state is
measured once, by the blow-up check, and samples reuse that record.

A run ends in one of four states: Completed (reached t_end),
BlowUpSuspected (a monitored quantity crossed its threshold, wave-breaking
style), NonFinite (overflow/NaN during a step), or it is still Running.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidControls, InvalidField, InvalidMu
from .models import ModelCoefficients, tendency, tendency_direct, transport_field
from .spectral import (
    Grid,
    SpectralField,
    mean,
    sobolev_norm,
    spectral_tail,
    sup_norm,
    sup_norm_dx,
)


# Step budget of one run; a run whose first step implies more fails at once.
_MAX_STEPS = 20_000_000


class RunStatus(enum.Enum):
    RUNNING = "Running"
    COMPLETED = "Completed"
    BLOWUP_SUSPECTED = "BlowUpSuspected"
    NONFINITE = "NonFinite"


@dataclass(frozen=True)
class SimulationState:
    t: float
    u: SpectralField
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
    record: DiagnosticsRecord | None = None  # classified, sup_u nan; None if already NonFinite


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
    stiff: bool = False
    blowup: BlowupDecision | None = None


def _monitor(t: float, u: SpectralField, s_exponent: float) -> DiagnosticsRecord:
    """A state's record but sup|u|, which no blow-up test reads: nan until a sample."""
    return DiagnosticsRecord(
        t=t, mean=mean(u), l2=sobolev_norm(u, 0.0), hs=sobolev_norm(u, s_exponent),
        sup_ux=sup_norm_dx(u), tail=spectral_tail(u), sup_u=math.nan,
    )


def diagnose(t: float, u: SpectralField, s_exponent: float = 2.0) -> DiagnosticsRecord:
    """Every monitored quantity of a state: `detect_blowup`'s record plus sup|u|."""
    return replace(_monitor(t, u, s_exponent), sup_u=sup_norm(u))


def detect_blowup(
    state: SimulationState,
    thresholds: BlowupThresholds | None = None,
    s_exponent: float = 2.0,
) -> BlowupDecision:
    """Classify the state's `_monitor` record: Running, BlowUpSuspected or NonFinite.

    Non-finite fields take precedence over threshold crossings; the
    decision names the triggering quantity and the time, and carries the record.
    """
    thresholds = thresholds or BlowupThresholds()
    if state.status is RunStatus.NONFINITE:
        return BlowupDecision(RunStatus.NONFINITE, t=state.t)
    r = _monitor(state.t, state.u, s_exponent)
    if not math.isfinite(r.sup_ux):
        return BlowupDecision(RunStatus.NONFINITE, trigger="sup_ux", t=r.t, record=r)
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

def _rk4(h: np.ndarray, rhs: Callable, dt: float) -> np.ndarray | None:
    """One classical RK4 step of h' = rhs(h) on rfft half spectra.

    Returns None if a stage raised InvalidField or the result is not finite;
    SpectralField repeats that scan, but `semigroup_probe`'s rhs builds no field.
    """
    try:
        k1 = rhs(h)
        k2 = rhs(h + (0.5 * dt) * k1)
        k3 = rhs(h + (0.5 * dt) * k2)
        k4 = rhs(h + dt * k3)
    except InvalidField:
        return None
    h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return h if np.all(np.isfinite(h)) else None


def _tendency_of(grid: Grid, coeffs: ModelCoefficients) -> Callable:
    """h -> du/dt at h, by `tendency` where it applies, else by `tendency_direct`."""
    form = tendency if coeffs.mu > 0.0 and not coeffs.has_extended_terms else tendency_direct
    return lambda h: form(SpectralField(grid, h), coeffs).coef


def step_rk4(state: SimulationState, coeffs: ModelCoefficients, dt: float) -> SimulationState:
    """Advance one RK4 step of any model that `integrate` accepts.

    The tendency has exactly zero mean, and the RK4 update is a linear
    combination of stages, so the mean of u is preserved to round-off.
    """
    if dt <= 0.0:
        raise InvalidControls(f"dt must be positive, got {dt}")
    if state.status is not RunStatus.RUNNING:
        raise InvalidControls(f"cannot step a state with status {state.status.value}")
    h = _rk4(state.u.coef, _tendency_of(state.u.grid, coeffs), dt)
    if h is None:
        return replace(state, dt=dt, status=RunStatus.NONFINITE)
    return SimulationState(state.t + dt, SpectralField(state.u.grid, h), dt, RunStatus.RUNNING)


def _stable_dt(u: SpectralField, coeffs: ModelCoefficients, cfl: float) -> float:
    """Explicit step cfl * dx / max(1, sup|a(u)|), or the dispersive bound when mu = 0.

    With mu = 0 the leading term alpha2*u_xxx needs dt ~ dx^3 (RK4
    imaginary-axis stability) and the advective speed is read off the
    local coefficients.
    """
    grid = u.grid
    if coeffs.mu == 0.0:
        xi_max = math.pi * grid.n_points
        bound = math.inf
        if coeffs.alpha2 != 0.0:
            bound = 2.8 / (abs(coeffs.alpha2) * xi_max ** 3)
        speed = abs(coeffs.alpha1) + abs(coeffs.alpha3) * sup_norm(u)
        bound = min(bound, grid.spacing / max(1.0, speed))
    else:
        bound = grid.spacing / max(1.0, sup_norm(transport_field(u, coeffs)))
    return cfl * bound


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


def integrate(
    u0: SpectralField,
    coeffs: ModelCoefficients,
    t_end: float,
    controls: IntegrationControls | None = None,
) -> IntegrationResult:
    """Evolve u0 to t_end with diagnostics at t = 0 and every sample time.

    The CFL step is dt = cfl * dx / max(1, sup|a(u)|), capped by the
    sample interval and shortened to land exactly on sample/snapshot
    times.  Models with mu = 0 (pure dispersive local form) fall back to
    `tendency_direct` with a dt ~ dx^3 stability bound; such runs are
    marked stiff and cost accordingly.
    """
    controls = controls or IntegrationControls()
    if t_end <= 0.0:
        raise InvalidControls(f"t_end must be positive, got {t_end}")
    if controls.cfl <= 0.0:
        raise InvalidControls(f"cfl must be positive, got {controls.cfl}")
    if controls.sample_interval <= 0.0:
        raise InvalidControls("sample_interval must be positive")
    if controls.dt is not None and controls.dt <= 0.0:
        raise InvalidControls("fixed dt must be positive")
    for ts in controls.snapshot_times:
        if not 0.0 <= ts <= t_end:
            raise InvalidControls(f"snapshot time {ts} outside [0, {t_end}]")

    stiff = coeffs.mu == 0.0
    if coeffs.mu < 0.0:
        raise InvalidMu(f"mu must be nonnegative, got {coeffs.mu}")
    rhs = _tendency_of(u0.grid, coeffs)

    def dt_bound(u: SpectralField) -> float:
        dt = controls.dt if controls.dt is not None else _stable_dt(u, coeffs, controls.cfl)
        return min(dt, controls.sample_interval)

    # the first step's bound doubles as the step-count estimate, so a run the
    # budget cannot cover fails now rather than after _MAX_STEPS steps
    dt_first = dt_bound(u0)
    if t_end / dt_first > _MAX_STEPS:
        raise InvalidControls(
            f"about {t_end / dt_first:.3g} steps of dt={dt_first:.3g} needed, "
            f"over the step budget {_MAX_STEPS}"
        )

    records: list[DiagnosticsRecord] = []
    snapshots: list[tuple[float, SpectralField]] = []
    t, u = 0.0, u0
    record = diagnose(t, u, controls.s_exponent)  # of the latest accepted u
    dt_last = 0.0
    blowup: BlowupDecision | None = None
    status = RunStatus.RUNNING
    steps = 0

    for ev, is_sample, is_snap in _event_times(t_end, controls.sample_interval, controls.snapshot_times):
        while t < ev - 1e-13 and status is RunStatus.RUNNING:
            steps += 1
            if steps > _MAX_STEPS:
                raise InvalidControls(f"step budget {_MAX_STEPS} exhausted at t={t:.6g}")
            dt_last = min(dt_first if steps == 1 else dt_bound(u), ev - t)
            h = _rk4(u.coef, rhs, dt_last)
            if h is None:
                status = RunStatus.NONFINITE
                break
            t = ev if ev - (t + dt_last) < 1e-13 else t + dt_last
            u = SpectralField(u0.grid, h)
            decision = detect_blowup(
                SimulationState(t, u, dt_last), controls.thresholds, controls.s_exponent
            )
            record = decision.record
            if decision.status is not RunStatus.RUNNING:
                status = decision.status
                blowup = decision if decision.status is RunStatus.BLOWUP_SUSPECTED else None
                records.append(replace(record, sup_u=sup_norm(u)))
                break
        if status is not RunStatus.RUNNING:
            break
        if is_sample:
            if math.isnan(record.sup_u):  # a step's record: sup|u| is paid per sample
                record = replace(record, sup_u=sup_norm(u))
            records.append(replace(record, t=ev))  # an event no step reaches keeps its time
        if is_snap:
            snapshots.append((ev, u))

    if status is RunStatus.RUNNING and t >= t_end - 1e-13:
        status = RunStatus.COMPLETED
    state = SimulationState(t, u, dt_last, status)
    return IntegrationResult(state, records, snapshots, stiff=stiff, blowup=blowup)
