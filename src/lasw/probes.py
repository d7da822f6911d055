"""Numerical probes of the operator estimates behind local well-posedness.

Each probe measures a quantity that the underlying theory bounds or
predicts, on concrete sampled inputs:

* `semigroup_probe`     -- L2 growth of the frozen-coefficient transport
  flow w_t = a(x) w_x against the envelope exp(omega*t) with
  omega = sup|a_x| / 2.
* `commutator_probe`    -- sampled ratios ||[Lam^t, M_g] h|| / (||g||_{r+1} ||h||_{t-1}).
* `product_probe`       -- sampled ratios ||f g||_t / (||f||_r ||g||_t).
* `continuous_dependence_experiment` -- shrinking-perturbation response of
  the solution map.
* `dispersion_probe`    -- measured phase speed of a single linear mode
  against (1 + (2 delta^2/9) k^2) / (1 + (7 delta^2/18) k^2).
* `mollified_data_experiment` -- Cauchy behavior of solutions from
  mollified rough data.
* `convergence_study`   -- temporal order and spatial spectral decay.

The solution-map probes (continuous dependence, mollified data,
dispersion, convergence) solve through `_solve_sampled`, which steps all
the fields of one call, on one grid at one dt, as one stack, and only if
the stack stops re-solves them one at a time, to name the first whose own
run stops.

The estimate constants are never known, so the ratio probes assert
boundedness and stability under grid refinement rather than specific
values; that is the strongest falsifiable form available.  All probes are
deterministic functions of (seed, grid, parameters).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidExponents, InvalidProbeInput, ProbeUnresolved
from .evolve import (
    IntegrationControls,
    _check_steps,
    _event_times,
    _finite_rows,
    _solve,
    _stable_dt,
    integrate,  # noqa: F401 -- perfbench/tracing.py traces probes.integrate
)
from .kinds import (
    _LANDING_TOL, _count, _grid, _integer, _list_of, _non_increasing, _number, _optional, _positive,
    _seed, _span, check,
)
from .models import ModelCoefficients, RegimeParameters, preset_large_amplitude
from .spectral import (
    TWO_PI,
    Grid,
    SpectralField,
    _mollify_index,
    _dx_sigma,
    _from_grid,
    _to_grid,
    dealiased_product,
    from_physical,
    l2_norm,
    lambda_pow,
    mollify,
    random_trig_polynomial,
    resample,
    sobolev_norm,
    spectral_tail,
    sup_norm,
    sup_norm_dx,
)

# Sample times per probe run.
_SEMIGROUP_SAMPLES = 40
_DEPENDENCE_SAMPLES = 10
_DISPERSION_RECORDS = 50

# Widest band K of a(x) that the semigroup probe convolves on the half
# spectrum; up to K = 4 that is no slower than the 2n-point FFT pair at every
# n from 64 to 4096 (measured on a 2-vCPU VM).
_BAND_MAX = 4
# Coefficients of a(x) at or under this multiple of eps * max|a_k| are
# round-off (sampling sin 2 pi x leaves ~2.8e-16 * max|a_k| in every mode).
_BAND_FLOOR = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one probe: per-sample values, summary stats, verdict."""

    name: str
    seed: int | None
    sample_count: int
    values: tuple[float, ...]
    max_value: float
    median_value: float
    passed: bool
    details: dict = field(default_factory=dict)


def _summarize(name, seed, values, passed, details) -> ProbeReport:
    vals = tuple(float(v) for v in values)
    return ProbeReport(
        name=name,
        seed=seed,
        sample_count=len(vals),
        values=vals,
        max_value=max(vals) if vals else 0.0,
        median_value=statistics.median(vals) if vals else 0.0,
        passed=bool(passed),
        details=details,
    )


# ---------------------------------------------------------------------------
# frozen-coefficient semigroup growth
# ---------------------------------------------------------------------------

def _band(a: np.ndarray) -> int:
    """Largest mode k with |a[k]| above the round-off floor; 0 if there is none."""
    mag = np.abs(a)
    above = np.flatnonzero(mag > _BAND_FLOOR * np.max(mag))
    return int(above[-1]) if above.size else 0


def _padded_transport(a: np.ndarray, n: int):
    """h -> P_n(a * h_x) through one 2n-point transform pair per call."""
    m = 2 * n
    a_pad = _to_grid(a, m)
    dx = _dx_sigma(n, 1)
    return lambda h: _from_grid(a_pad * _to_grid(h * dx, m), n)


def _banded_transport(a: np.ndarray, n: int):
    """h -> P_n(a * h_x) for a with modes 0..K only (K = len(a) - 1 < n/2).

    The truncated product is a (2K+1)-diagonal convolution: mode k of the
    output is sum_j a_j (i xi_{k-j}) h_{k-j} over |j| <= K, with a_{-j} =
    conj(a_j) and h_{-m} = conj(h_m).  Each diagonal a_j (i xi_{k-j}) is one
    array, made here once; a tap a_j at or under the round-off floor is left
    out (a = 0 keeps its a_0 tap, so 0 * inf stays nan).  The
    first-derivative symbol is zero at the Nyquist entry and past it, so h
    extended by K conjugated modes below 0 and K zeros past n/2 holds every
    h_{k-j} the output needs.  As in `_from_grid`, the +-n/2 pair folds into
    the Nyquist slot and the mean is real.  Each call returns a fresh array.

    h may also be a prefix h[:w] (1 <= w <= n/2 + 1) of a half spectrum that
    is zero past it: the call then returns the first w modes of the full
    call, bit for bit, reading K zeros past the prefix, and folds the Nyquist
    slot only when w = n/2 + 1.  The full call's modes past w + K are exactly
    0, so a state zero past w - K loses nothing to the cut at w.
    """
    band = a.shape[0] - 1
    half = n // 2
    ext = np.zeros(half + 1 + 2 * band, dtype=np.complex128)

    def extend(h):  # ext holds h_m for m = -K..len(h)-1+K, zero past h
        w = h.shape[0]
        ext[band: band + w] = h
        if w <= half:  # the K entries past n/2 are never written: they stay zero
            ext[band + w: 2 * band + w] = 0.0
        ext[:band] = np.conj(ext[2 * band: band: -1])

    floor = _BAND_FLOOR * np.max(np.abs(a))
    # (a_j, start of h_{k-j} in ext) for j = 0, +-1..+-K, round-off left out
    taps = [(a[0], band)] + [(a[j], band - j) for j in range(1, band + 1)]
    taps += [(np.conj(a[j]), band + j) for j in range(1, band + 1)]
    kept = [(coef, start) for coef, start in taps if abs(coef) > floor] or taps[:1]
    extend(_dx_sigma(n, 1))  # ext holds the symbol i xi_m for now, zero at the Nyquist entry
    # (a_j i xi_{k-j}, the view of ext that holds h_{k-j} in each call)
    diagonals = [(coef * ext[start: start + half + 1], ext[start: start + half + 1]) for coef, start in kept]
    # the last call's width and its views: the first diagonal, the rest
    width, (first, first_shifted), rest = half + 1, diagonals[0], diagonals[1:]

    def rhs(h):
        nonlocal width, first, first_shifted, rest
        if h.shape[0] != width:
            width = h.shape[0]
            (first, first_shifted), *rest = [(diagonal[:width], shifted[:width]) for diagonal, shifted in diagonals]
        extend(h)
        out = first * first_shifted
        for diagonal, shifted in rest:
            out += diagonal * shifted
        out[0] = out[0].real
        if width > half:
            out[half] = 2.0 * out[half].real
        return out

    return rhs


def _transport_rhs(a: np.ndarray, n: int):
    """(h -> P_n(a * h_x), reach): banded when a has at most _BAND_MAX modes, else
    padded.  reach is the band K, the modes one call can add past the support of
    h; the padded form takes only full half spectra, and its reach is n/2 + 1."""
    band = _band(a)
    if band <= _BAND_MAX and band < n // 2:
        return _banded_transport(a[: band + 1], n), band
    return _padded_transport(a, n), n // 2 + 1


def _transport_step(h: np.ndarray, rhs, dt: float) -> np.ndarray | None:
    """One RK4 step of the linear flow h' = A h, A = rhs, as RK4's polynomial in
    Horner form, h + dt*A(h + (dt/2)*A(h + (dt/3)*A(h + (dt/4)*A h))): 4 calls and
    no stage sum, each stage formed in place on the fresh array rhs returns, never
    in h.  `_finite_rows` of it: a stage that overflows fails the step.

    With the banded rhs, h may be a prefix h[:w] of a state that is zero past
    w - 4K: each call adds at most K modes, so the step is the full step's first
    w modes, bit for bit, and the full step is exactly 0 past them."""
    g = h
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (0.25 * dt, dt / 3.0, 0.5 * dt, dt):
            g = rhs(g)
            g *= c
            g += h
    return _finite_rows(g)


_SEMIGROUP_ARGUMENTS = {"t_end": _span, "cfl": _positive, "tail_rel_max": _positive, "tolerance": _number}


def semigroup_probe(
    a: SpectralField,
    w0: SpectralField,
    t_end: float,
    *,
    cfl: float = 0.3,
    tail_rel_max: float = 1e-2,
    tolerance: float = 1e-6,
) -> ProbeReport:
    """Check ||w(t)||_0 <= exp(omega*t) ||w0||_0 for w_t = a(x) w_x.

    The linear flow is advanced pseudospectrally with RK4 (`_transport_step`)
    under an advective CFL step; omega = sup|a_x|/2.  The right-hand side
    P_n(a*w_x) is a banded convolution on the half spectrum when a has at most
    _BAND_MAX modes above 64*eps*max|a_k|, else a 2n-point transform pair.
    One banded step adds at most 4K modes to the support of w, K the band of
    a, so each step runs on the first min(n/2 + 1, width + 4K) modes, width
    the last step's (at first, 1 + w0's last nonzero mode); the modes past it
    are exact zeros in a full-width step, so the ratios are the same bits.
    Passing means the ratio ||w(t)|| / (exp(omega*t) ||w0||), sampled at 40
    evenly spaced times, never exceeds 1 + tolerance.
    Raises InvalidProbeInput before any step if sup|a|, sup|a_x| or ||w0||
    is not finite, and ProbeUnresolved once w or ||w|| goes non-finite, or
    if the spectral tail of w crosses tail_rel_max * ||w|| (the grid lost w).
    """
    check(InvalidProbeInput, _SEMIGROUP_ARGUMENTS, locals())
    if a.grid != w0.grid:
        raise GridMismatch("a and w0 must share a grid")
    grid = a.grid
    n = grid.n_points
    sup_a, omega = sup_norm(a), 0.5 * sup_norm_dx(a)
    if not (math.isfinite(sup_a) and math.isfinite(omega)):
        raise InvalidProbeInput(f"a: sup|a| = {sup_a:g} and sup|a_x| = {2.0 * omega:g} must be finite")
    w0_norm = l2_norm(w0)
    if not math.isfinite(w0_norm):
        raise InvalidProbeInput(f"w0: its L2 norm {w0_norm:g} must be finite")

    rhs, reach = _transport_rhs(a.coef, n)
    dt = cfl * grid.spacing / max(1.0, sup_a)
    _check_steps(InvalidProbeInput, t_end, dt)
    sample_ts = [t_end * (j + 1) / _SEMIGROUP_SAMPLES for j in range(_SEMIGROUP_SAMPLES)]
    # the state is zero past its first `width` modes; a step widens that by 4 * reach
    full = n // 2 + 1
    support = np.flatnonzero(w0.coef)
    width = int(support[-1]) + 1 if support.size else 1
    h = w0.coef if width == full else w0.coef.copy()
    t = 0.0
    ratios = [1.0 if w0_norm > 0.0 else 0.0]
    for ts in sample_ts:
        while t < ts - _LANDING_TOL:
            step = min(dt, ts - t)
            width = min(full, width + 4 * reach)
            g = _transport_step(h[:width], rhs, step)
            if g is None:
                raise ProbeUnresolved(f"non-finite evolution at t={t + step:.6g}")
            if width == full:
                h = g
            else:
                h[:width] = g
            t = ts if ts - (t + step) < _LANDING_TOL else t + step
        with np.errstate(over="ignore", invalid="ignore"):
            wn = l2_norm(h)
            lost = wn > 0.0 and spectral_tail(h) > tail_rel_max * wn
        if not math.isfinite(wn):  # finite coefficients whose norm overflows
            raise ProbeUnresolved(f"non-finite evolution at t={t:.6g}")
        if lost:
            raise ProbeUnresolved(
                f"spectral tail exceeded {tail_rel_max:g} * ||w|| at t={t:.6g}"
            )
        ratios.append(wn / (math.exp(omega * t) * w0_norm) if w0_norm > 0.0 else 0.0)

    passed = max(ratios) <= 1.0 + tolerance
    return _summarize(
        "semigroup", None, ratios, passed,
        {
            "omega": omega,
            "t_end": t_end,
            "n_points": n,
            "cfl": cfl,
            "tolerance": tolerance,
            "w0_norm": w0_norm,
        },
    )


# ---------------------------------------------------------------------------
# commutator and product estimate sampling
# ---------------------------------------------------------------------------

def _sampled_ratio(num: float, den: float) -> float:
    """num / den; ProbeUnresolved for an overflowed norm or a vanished field, which
    would pass as a ratio of 0.  num = 0 over den > 0 (as at t_exp = 0) is a true 0."""
    if not (math.isfinite(num) and math.isfinite(den) and den > 0.0):
        raise ProbeUnresolved(f"a sampled ratio is {num:g} over {den:g}")
    return num / den


def _stability_verdict(max_coarse: float, max_fine: float, factor: float) -> tuple[bool, float]:
    if max_coarse == 0.0 and max_fine == 0.0:
        return True, 1.0
    if max_coarse == 0.0 or max_fine == 0.0:
        return False, math.inf
    ratio = max_fine / max_coarse
    return (1.0 / factor <= ratio <= factor), ratio


def _refinement_probe(
    name, ratio, decays, seed, samples, t_exp, r_exp, n_points, max_mode, stability_factor
) -> ProbeReport:
    """Sample ratio(f, g) on the working grid and on its doubling.

    f and g are random fields with coefficient decays `decays`, drawn from
    the same seeds on both grids.  Passing means the max sampled ratio
    moves by less than `stability_factor` under the refinement.
    """
    grids = (Grid(n_points), Grid(2 * n_points))
    max_mode = max_mode if max_mode is not None else n_points // 4

    def sampled(grid: Grid) -> list[float]:
        return [
            ratio(*(random_trig_polynomial(grid, [seed, i, j], max_mode, d)
                    for j, d in enumerate(decays)))
            for i in range(samples)
        ]

    coarse, fine = sampled(grids[0]), sampled(grids[1])
    passed, growth = _stability_verdict(max(coarse), max(fine), stability_factor)
    details = dict(
        t_exp=t_exp, r_exp=r_exp, grids=[g.n_points for g in grids], max_fine=max(fine),
        refinement_growth=growth, stability_factor=stability_factor, max_mode=max_mode,
    )
    return _summarize(name, seed, coarse, passed, details)


_RATIO_ARGUMENTS = {"t_exp": _number, "r_exp": _number, "samples": _count, "seed": _seed, "n_points": _grid,
                    "max_mode": _optional(_integer), "stability_factor": _positive}


def commutator_probe(
    t_exp: float,
    r_exp: float,
    samples: int,
    seed: int,
    *,
    n_points: int = 128,
    max_mode: int | None = None,
    stability_factor: float = 2.0,
) -> ProbeReport:
    """Sample ||[Lam^t, M_g] h||_0 / (||g||_{r+1} ||h||_{t-1}).

    g and h are random fields whose coefficient decay matches membership
    in H^{r+1} and H^{t-1}.  The unknown estimate constant makes a value
    assertion impossible, so the probe instead requires the max sampled
    ratio to move by less than `stability_factor` between the working grid
    and its doubling (same coefficient draws on both).
    """
    check(InvalidProbeInput, _RATIO_ARGUMENTS, locals())
    if r_exp <= 0.5:
        raise InvalidExponents(f"need r > 1/2, got r={r_exp}")
    if not (-0.5 < t_exp <= r_exp + 1.0):
        raise InvalidExponents(f"need -1/2 < t <= r+1, got t={t_exp}, r={r_exp}")

    def one_ratio(g: SpectralField, h: SpectralField) -> float:
        comm = lambda_pow(dealiased_product(g, h), t_exp, 1.0) - dealiased_product(
            g, lambda_pow(h, t_exp, 1.0)
        )
        return _sampled_ratio(
            l2_norm(comm), sobolev_norm(g, r_exp + 1.0) * sobolev_norm(h, t_exp - 1.0)
        )

    decays = (r_exp + 1.0 + 0.51, max(t_exp - 1.0 + 0.51, 0.0))
    return _refinement_probe(
        "commutator", one_ratio, decays, seed, samples, t_exp, r_exp,
        n_points, max_mode, stability_factor,
    )


def product_probe(
    r_exp: float,
    t_exp: float,
    samples: int,
    seed: int,
    *,
    n_points: int = 128,
    max_mode: int | None = None,
    stability_factor: float = 2.0,
) -> ProbeReport:
    """Sample the algebra-property ratios ||f g||_t / (||f||_r ||g||_t)."""
    check(InvalidProbeInput, _RATIO_ARGUMENTS, locals())
    if r_exp <= 0.5:
        raise InvalidExponents(f"need r > 1/2, got r={r_exp}")
    if not (-r_exp < t_exp <= r_exp):
        raise InvalidExponents(f"need -r < t <= r, got t={t_exp}, r={r_exp}")

    def one_ratio(f: SpectralField, g: SpectralField) -> float:
        return _sampled_ratio(
            sobolev_norm(dealiased_product(f, g), t_exp),
            sobolev_norm(f, r_exp) * sobolev_norm(g, t_exp),
        )

    decays = (r_exp + 0.51, max(t_exp + 0.51, 0.0))
    return _refinement_probe(
        "product", one_ratio, decays, seed, samples, t_exp, r_exp,
        n_points, max_mode, stability_factor,
    )


# ---------------------------------------------------------------------------
# solution-map experiments
# ---------------------------------------------------------------------------

def _solve_sampled(fields, coeffs, t_end, dt, sample_ts):
    """The states at sample_ts of each field, as `integrate` at the fixed step dt
    gives them; the fields share one grid and step as one stack.

    t_end is the caller's checked span.  Raises ProbeUnresolved if sample
    times merge, and for the first field, in input order, whose own run does
    not complete, with its status and time, found by re-solving the fields
    one at a time once the stack stops: at a fixed dt each row is bit for bit
    its own run.
    """
    # a completed run lands one snapshot per distinct event, so merged
    # sample times are known before the solve
    landed = sum(is_snap for _, _, is_snap in _event_times(t_end, t_end, sample_ts))
    if landed != len(sample_ts):
        raise ProbeUnresolved(
            f"asked for {len(sample_ts)} sampled states, got {landed}; "
            f"sample times closer than ~1e-15 merge"
        )
    controls = IntegrationControls(
        dt=dt, sample_interval=t_end, snapshot_times=tuple(sample_ts)
    )
    grid = fields[0].grid
    run = _solve(np.stack([u.coef for u in fields]), coeffs, t_end, controls)
    if run.stop is not None:
        own = (_solve(u.coef, coeffs, t_end, controls).stop for u in fields)
        stop = next((s for s in own if s is not None), run.stop)
        raise ProbeUnresolved(f"run ended with status {stop.status.value} at t={stop.t:.6g}")
    return [[SpectralField(grid, h[row]) for _, h in run.snapshots] for row in range(len(fields))]


_DEPENDENCE_ARGUMENTS = {"perturbation_sizes": _non_increasing, "t_end": _span, "s_exp": _number,
                         "seed": _seed, "dt": _optional(_positive), "cfl": _positive}


def continuous_dependence_experiment(
    u0: SpectralField,
    perturbation_sizes,
    t_end: float,
    s_exp: float,
    coeffs: ModelCoefficients,
    seed: int,
    *,
    dt: float | None = None,
    cfl: float = 0.4,
) -> ProbeReport:
    """Response of the solution map to shrinking data perturbations.

    Solves from u0 and from u0 + eta_k * phi for a fixed random unit-H^s
    direction phi (modes up to 10) and records d_k = max over 10 sample
    times of the H^s distance.  Passing requires d_k non-increasing and the
    last response within a factor 10 of linear scaling from the first.
    dt=None takes `integrate`'s first-step bound for u0 at this cfl.
    """
    check(InvalidProbeInput, _DEPENDENCE_ARGUMENTS, locals())
    etas = [float(e) for e in perturbation_sizes]
    grid = u0.grid
    phi = random_trig_polynomial(
        grid, seed, min(10, grid.n_points // 2 - 1), max(s_exp + 0.51, 0.0)
    )
    norm = sobolev_norm(phi, s_exp)
    if not (math.isfinite(norm) and norm > 0.0):
        raise InvalidProbeInput(f"the H^{s_exp} norm of the perturbation direction is {norm}")
    phi = phi / norm

    if dt is None:
        dt = _stable_dt(u0.coef, coeffs, cfl)
    sample_ts = [t_end * (j + 1) / _DEPENDENCE_SAMPLES for j in range(_DEPENDENCE_SAMPLES)]
    fields = [u0] + [u0 + eta * phi for eta in etas]
    base, *perturbed = _solve_sampled(fields, coeffs, t_end, dt, sample_ts)
    distances = [
        max(sobolev_norm(b - p, s_exp) for b, p in zip(base, pert)) for pert in perturbed
    ]

    nonincreasing = all(
        d2 <= d1 * (1.0 + 1e-12) for d1, d2 in zip(distances, distances[1:])
    )
    if etas[0] > 0.0 and distances[0] > 0.0:
        linear_bound = distances[-1] <= 10.0 * etas[-1] * (distances[0] / etas[0])
    else:
        linear_bound = True  # degenerate start (eta=0): nothing to scale against
    passed = nonincreasing and linear_bound
    return _summarize(
        "continuous_dependence", seed, distances, passed,
        {
            "etas": etas,
            "t_end": t_end,
            "s_exp": s_exp,
            "dt": dt,
            "n_points": grid.n_points,
            "response_slopes": [d / e if e > 0.0 else 0.0 for d, e in zip(distances, etas)],
        },
    )


def phase_speed(k: float, delta: float) -> float:
    """Linear phase speed of the large-amplitude model at wavenumber k."""
    k2 = k * k
    return (1.0 + (2.0 * delta * delta / 9.0) * k2) / (
        1.0 + (7.0 * delta * delta / 18.0) * k2
    )


_DISPERSION_ARGUMENTS = {"mode": _count, "eps": _number, "delta": _number, "amplitude": _number,
                         "n_points": _grid, "window": _span, "dt": _optional(_positive), "tolerance": _number}


def dispersion_probe(
    mode: int,
    eps: float,
    delta: float,
    amplitude: float,
    *,
    n_points: int = 64,
    window: float = 0.5,
    dt: float | None = None,
    tolerance: float = 1e-6,
) -> ProbeReport:
    """Measure the phase speed of one small-amplitude mode.

    A single cosine mode is evolved in the (effectively linear) regime and
    the phase of its Fourier coefficient is tracked at 50 times over a
    short window; the fitted speed is compared with the analytic
    dispersion relation.
    dt=None takes one step per record, window/50: ETDRK4 integrates the
    linear part exactly, so the phase error is round-off at any dt.
    """
    check(InvalidProbeInput, _DISPERSION_ARGUMENTS, locals())
    if abs(amplitude) > 1e-6:
        raise InvalidProbeInput("amplitude must stay in the linear regime (|amplitude| <= 1e-6)")
    grid = Grid(n_points)
    if mode >= grid.n_points // 2:
        raise ProbeUnresolved(f"mode {mode} not resolved on {n_points} points")
    coeffs = preset_large_amplitude(RegimeParameters(eps=eps, delta=delta))
    k = TWO_PI * mode
    c_exact = phase_speed(k, delta)

    u0 = from_physical(amplitude * np.cos(k * grid.x), grid)
    record_dt = window / _DISPERSION_RECORDS
    _check_steps(InvalidProbeInput, window, dt or record_dt)
    steps_per_record = 1 if dt is None else max(1, math.ceil(record_dt / dt))
    dt = record_dt / steps_per_record
    sample_ts = [record_dt * (j + 1) for j in range(_DISPERSION_RECORDS)]
    [snapshots] = _solve_sampled([u0], coeffs, window, dt, sample_ts)

    ts = np.array([0.0] + sample_ts)
    phases = np.unwrap([np.angle(u.mode(mode)) for u in [u0, *snapshots]])
    slope = np.polyfit(ts, phases, 1)[0]
    c_measured = -slope / k
    rel_err = abs(c_measured - c_exact) / abs(c_exact)
    return _summarize(
        "dispersion", None, [c_measured], rel_err <= tolerance,
        {
            "mode": mode,
            "eps": eps,
            "delta": delta,
            "amplitude": amplitude,
            "k": k,
            "c_exact": c_exact,
            "c_measured": c_measured,
            "rel_error": rel_err,
            "tolerance": tolerance,
            "dt": dt,
        },
    )


_MOLLIFIED_ARGUMENTS = {"n_sequence": _list_of(_mollify_index), "t_end": _span, "dt": _optional(_positive), "cfl": _positive}


def mollified_data_experiment(
    u0_rough: SpectralField,
    n_sequence,
    t_end: float,
    coeffs: ModelCoefficients,
    *,
    dt: float | None = None,
    cfl: float = 0.4,
) -> ProbeReport:
    """Cauchy behavior of solutions launched from mollified rough data.

    Solves from rho_n * u0 for each n and reports the L2 distances between
    consecutive terminal states; passing means the distances decrease
    monotonically (vacuous for a single n).  dt=None takes the smallest of
    `integrate`'s first-step bounds for the mollified fields at this cfl.
    """
    check(InvalidProbeInput, _MOLLIFIED_ARGUMENTS, locals())
    ns = [int(n) for n in n_sequence]
    fields = [mollify(u0_rough, n) for n in ns]
    if dt is None:
        dt = _stable_dt(np.stack([f.coef for f in fields]), coeffs, cfl)
    terminals = [states[0] for states in _solve_sampled(fields, coeffs, t_end, dt, [t_end])]
    diffs = [l2_norm(a - b) for a, b in zip(terminals, terminals[1:])]
    passed = all(d2 <= d1 * (1.0 + 1e-9) for d1, d2 in zip(diffs, diffs[1:]))
    return _summarize(
        "mollified_data", None, diffs, passed,
        {
            "n_sequence": ns,
            "t_end": t_end,
            "dt": dt,
            "n_points": u0_rough.grid.n_points,
        },
    )


_CONVERGENCE_ARGUMENTS = {"t_end": _span, "grids": _list_of(_grid, least=3), "dts": _list_of(_positive, least=3)}


def convergence_study(
    u0: SpectralField,
    coeffs: ModelCoefficients,
    t_end: float,
    grids,
    dts,
) -> ProbeReport:
    """Temporal order estimate plus spatial spectral-decay curve.

    Temporal: fixed-step runs on the finest grid for each dt (adjusted to
    divide t_end); consecutive terminal differences give the observed
    order, which must lie within 0.2 of 4.  Spatial: runs at each grid with
    the smallest dt; consecutive terminal differences (compared on the finer
    grid) must decay or sit at round-off.  Degenerate zero-error cases
    (e.g. constant data) pass with order reported as None.  The grids, and
    the step counts of the adjusted dts, must be distinct.
    """
    check(InvalidProbeInput, _CONVERGENCE_ARGUMENTS, locals())
    grid_sizes = sorted(int(g) for g in grids)
    dt_list = sorted((float(d) for d in dts), reverse=True)
    _check_steps(InvalidProbeInput, t_end, dt_list[-1])
    steps = [max(1, round(t_end / dt)) for dt in dt_list]
    if len(set(grid_sizes)) < len(grid_sizes) or len(set(steps)) < len(steps):
        raise InvalidProbeInput(
            f"grids must be distinct and dts must give distinct step counts to t_end={t_end:g}; "
            f"got grids {grid_sizes} and {steps} steps"
        )

    def run(u_init, n_steps):
        return _solve_sampled([u_init], coeffs, t_end, t_end / n_steps, [t_end])[0][0]

    fine = grid_sizes[-1]
    u_fine = resample(u0, fine)
    terminals_t = [run(u_fine, n) for n in steps]
    errors_t = [l2_norm(a - b) for a, b in zip(terminals_t, terminals_t[1:])]
    floor = 1e-13 * (1.0 + l2_norm(u_fine))
    if all(e <= floor for e in errors_t):
        order = None
        temporal_pass = True
    else:
        orders = [
            math.log(e1 / e2) / math.log(n2 / n1)
            for e1, e2, n1, n2 in zip(errors_t, errors_t[1:], steps, steps[1:])
            if e2 > 0.0
        ]
        order = orders[-1] if orders else math.nan
        temporal_pass = bool(orders) and abs(order - 4.0) <= 0.2

    # the finest spatial run is the last temporal run
    terminals_s = [run(resample(u0, g), steps[-1]) for g in grid_sizes[:-1]] + terminals_t[-1:]
    # each terminal state against the next, on the finer grid
    errors_s = [l2_norm(resample(ua, gb) - ub)
                for ua, gb, ub in zip(terminals_s, grid_sizes[1:], terminals_s[1:])]
    spatial_pass = all(
        e2 <= e1 * (1.0 + 1e-9) or e2 <= 1e-12 for e1, e2 in zip(errors_s, errors_s[1:])
    )

    return _summarize(
        "convergence", None, errors_s, temporal_pass and spatial_pass,
        {
            "grids": grid_sizes,
            "dts": dt_list,
            "t_end": t_end,
            "temporal_errors": errors_t,
            "temporal_order": order,
            "temporal_pass": temporal_pass,
            "spatial_errors": errors_s,
            "spatial_pass": spatial_pass,
        },
    )
