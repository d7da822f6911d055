"""Time integration: stepping, diagnostics, detection, conservation."""

import functools
import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lasw import evolve
from lasw import models
from lasw import probes
from lasw import spectral
from lasw.errors import (
    GammaRelationViolated, InvalidControls, InvalidField, InvalidMu, ProbeUnresolved,
)
from lasw.evolve import (
    BlowupThresholds,
    IntegrationControls,
    RunStatus,
    SimulationState,
    detect_blowup,
    diagnose,
    integrate,
    step_rk4,
)
from lasw.models import (
    ModelCoefficients,
    RegimeParameters,
    preset_large_amplitude,
    preset_normalized,
    preset_survey,
    tendency,
    tendency_direct,
    time_reversed,
    transport_field,
)
from lasw.spectral import (
    Grid,
    SpectralField,
    constant,
    derivative,
    from_physical,
    l2_norm,
    random_trig_polynomial,
    resample,
    sup_norm,
    to_physical,
)

TWO_PI = 2.0 * math.pi


def cosine(grid, amplitude, mode=1):
    return from_physical(amplitude * np.cos(TWO_PI * mode * grid.x), grid)


def rk4_reference(h, rhs, dt):
    """One classical RK4 step of h' = rhs(h): the reference the steppers are held to."""
    k1 = rhs(h)
    k2 = rhs(h + (0.5 * dt) * k1)
    k3 = rhs(h + (0.5 * dt) * k2)
    k4 = rhs(h + dt * k3)
    return h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestStepRK4:
    def test_constant_fixed_point(self):
        g = Grid(32)
        u0 = constant(g, 0.9)
        state = SimulationState(0.0, u0, 0.0)
        out = step_rk4(state, preset_normalized(), 0.01)
        assert out.t == pytest.approx(0.01)
        assert l2_norm(out.u - u0) < 1e-14

    def test_zero_field(self):
        g = Grid(32)
        state = SimulationState(0.0, constant(g, 0.0), 0.0)
        out = step_rk4(state, preset_normalized(), 0.05)
        assert l2_norm(out.u) == 0.0

    def test_richardson_halving(self):
        # local error drops ~16x per halving measured over a fixed interval
        g = Grid(64)
        c = preset_normalized()
        u0 = cosine(g, 0.05)
        def advance(dt, n):
            s = SimulationState(0.0, u0, 0.0)
            for _ in range(n):
                s = step_rk4(s, c, dt)
            return s.u
        e1 = l2_norm(advance(0.02, 1) - advance(0.01, 2))
        e2 = l2_norm(advance(0.01, 2) - advance(0.005, 4))
        assert 10.0 < e1 / e2 < 22.0

    def test_mean_preserved(self):
        g = Grid(64)
        c = preset_normalized()
        u0 = cosine(g, 0.05) + constant(g, 0.2)
        s = SimulationState(0.0, u0, 0.0)
        for _ in range(20):
            s = step_rk4(s, c, 0.005)
        assert s.u.coef[0].real == pytest.approx(0.2, abs=1e-14)

    def test_preconditions(self):
        g = Grid(32)
        state = SimulationState(0.0, constant(g, 0.0), 0.0)
        with pytest.raises(InvalidControls):
            step_rk4(state, preset_normalized(), 0.0)
        for dt in (math.nan, -0.1, math.inf):  # a nan dt used to return a NonFinite state
            with pytest.raises(InvalidControls, match="dt: must be"):
                step_rk4(state, preset_normalized(), dt)
        done = SimulationState(1.0, constant(g, 0.0), 0.1, RunStatus.COMPLETED)
        with pytest.raises(InvalidControls):
            step_rk4(done, preset_normalized(), 0.1)

    @pytest.mark.parametrize("model", ["normalized", "kdv", "se"])
    def test_steps_every_model_integrate_steps(self, model):
        # one right-hand-side chooser and one ETDRK4 step serve both, bit for bit
        if model == "normalized":
            c = preset_normalized()
        else:
            c = preset_survey(model, RegimeParameters(eps=0.5, delta=0.5))
        u0 = random_trig_polynomial(Grid(32), 5, 8, 2.0)
        dt = 2.0 ** -16
        state = SimulationState(0.0, u0, 0.0)
        for _ in range(8):
            state = step_rk4(state, c, dt)
        res = integrate(u0, c, 8 * dt, IntegrationControls(dt=dt, sample_interval=8 * dt))
        assert res.state.status is RunStatus.COMPLETED
        assert res.state.t == state.t
        assert res.state.u.coef.tobytes() == state.u.coef.tobytes()

    def test_overflow_goes_nonfinite(self):
        g = Grid(32)
        huge = constant(g, 1e160) + cosine(g, 1e160)
        state = SimulationState(0.0, huge, 0.0)
        out = step_rk4(state, preset_normalized(), 0.1)
        assert out.status is RunStatus.NONFINITE


class TestErrstate:
    """One errstate per step covers its stages; a field call has its own at the boundary."""

    # finite norms and samples, but u^3 overflows in the first stage
    HUGE = 1e110
    NO_THRESHOLDS = BlowupThresholds(math.inf, math.inf, math.inf)

    def huge(self):
        g = Grid(32)
        return from_physical(self.HUGE * (1.0 + np.cos(TWO_PI * g.x)), g)

    @pytest.mark.parametrize("name", ["normalized", "kdv"])
    def test_an_overflowing_step_ends_nonfinite_without_a_warning(self, name):
        # huge's first step overflows; overflowing's u0 is NonFinite, and its
        # record's sup|u| overflows too
        c = preset_normalized() if name == "normalized" else KDV
        for u0 in (self.huge(), self.overflowing()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = integrate(u0, c, 0.1, IntegrationControls(dt=0.01, thresholds=self.NO_THRESHOLDS))
            assert res.state.status is RunStatus.NONFINITE and res.state.t == 0.0

    # every one-field function of spectral and models, with its arguments past u
    RHS = [(f, (preset_normalized(),)) for f in (
        models.tendency, models.tendency_direct, models.flux, models.transport_field, models.semilinear_term)]
    MEASURES = [(spectral.sobolev_norm, (2.0,)), (spectral.l2_norm, ()), (spectral.sup_norm, ()),
                (spectral.sup_norm_dx, ()), (spectral.spectral_tail, ())]

    def overflowing(self):
        """Finite coefficients past every measure's float range; the mean,
        mode 0, is 0 and no mean overflows."""
        c = np.zeros(9, dtype=complex)
        c[1], c[2], c[3], c[7] = 1e308, 1e308j, 1e308, 1.5e308 * (1.0 + 1.0j)
        return SpectralField(Grid(16), c)

    @pytest.mark.parametrize("form, args", RHS + MEASURES, ids=[f.__name__ for f, _ in RHS + MEASURES])
    def test_a_field_call_warns_nowhere(self, form, args):
        # a right-hand side's overflow is the field constructor's to report;
        # a measure reads inf or nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if form.__module__ == "lasw.models":
                with pytest.raises(InvalidField, match="non-finite"):
                    form(self.overflowing(), *args)
            else:
                assert not math.isfinite(form(self.overflowing(), *args))

    # np.abs of a complex overflows to inf without a floating-point flag, so a
    # bare spectral_tail, like a bare mean, has no overflow to raise
    @pytest.mark.parametrize("form, args", RHS + MEASURES[:-1], ids=[f.__name__ for f, _ in RHS + MEASURES[:-1]])
    def test_a_bare_call_takes_its_callers_errstate(self, form, args):
        h = self.overflowing().coef
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            form(h, *args)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(form(h, *args)))


KDV = preset_survey("kdv", RegimeParameters(eps=0.5, delta=0.5))


def kdv_symbol(c, n):
    """alpha1*(i xi) + alpha2*(i xi)^3 on the half spectrum, 0 in the Nyquist slot."""
    xi = TWO_PI * np.arange(n // 2 + 1)
    lin = 1j * c.alpha1 * xi - 1j * c.alpha2 * xi ** 3
    lin[-1] = 0.0
    return lin


class TestETDRK4:
    """mu = 0 steps with ETDRK4: exact on alpha1*u_x + alpha2*u_xxx."""

    @pytest.mark.parametrize("dt", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_linear_part_is_exact(self, dt):
        c = replace(KDV, alpha3=0.0)
        u0 = random_trig_polynomial(Grid(64), 2, 20, 1.0)
        out = step_rk4(SimulationState(0.0, u0, 0.0), c, dt).u.coef
        exact = np.exp(dt * kdv_symbol(c, 64)) * u0.coef
        assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(u0.coef))

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    def test_weights_match_their_closed_forms(self, dt):
        # away from z = 0 the phi-functions have no cancellation; a half
        # contour with a real part is off by O(1) at these imaginary z.
        # A phase of |z| up to 1e4 is exact only to about eps*|z|.
        z = dt * kdv_symbol(KDV, 64)
        far = np.abs(z) >= 2.0
        z = z[far]
        ez = np.exp(z)
        closed = (
            ez, np.exp(0.5 * z), dt * (np.exp(0.5 * z) - 1.0) / z,
            dt * (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z ** 3,
            dt * (2.0 + z + ez * (z - 2.0)) / z ** 3,
            dt * (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z ** 3,
        )
        assert far.sum() >= 10
        for w, ref in zip(evolve._etd_weights(64, KDV, dt), closed):
            assert np.max(np.abs(w[far] - ref) / np.abs(ref)) <= 1e-11

    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    def test_without_a_linear_part_it_is_rk4(self, dt):
        c = replace(KDV, alpha1=0.0, alpha2=0.0)
        u0 = random_trig_polynomial(Grid(32), 5, 8, 2.0)
        out = step_rk4(SimulationState(0.0, u0, 0.0), c, dt).u.coef
        rk4 = rk4_reference(u0.coef, lambda h: tendency_direct(h, c), dt)
        assert np.max(np.abs(out - rk4)) <= 1e-15 * np.max(np.abs(u0.coef))

    def test_kdv_richardson_order(self):
        u0 = random_trig_polynomial(Grid(64), 1, 10, 2.0)
        t_end = 5e-4

        def terminal(dt):
            controls = IntegrationControls(dt=dt, sample_interval=t_end)
            return integrate(u0, KDV, t_end, controls).state.u
        e1 = l2_norm(terminal(t_end / 8) - terminal(t_end / 16))
        e2 = l2_norm(terminal(t_end / 16) - terminal(t_end / 32))
        assert 3.8 <= math.log2(e1 / e2) <= 4.2

    def test_small_dt_agrees_with_explicit_rk4(self):
        u0 = random_trig_polynomial(Grid(32), 1, 8, 2.0)
        dt = 2.0 ** -20
        h = u0.coef
        for _ in range(8):
            h = rk4_reference(h, lambda v: tendency_direct(v, KDV), dt)
        res = integrate(u0, KDV, 8 * dt, IntegrationControls(dt=dt, sample_interval=8 * dt))
        assert np.max(np.abs(res.state.u.coef - h)) <= 1e-12 * np.max(np.abs(h))

    def test_advective_steps_reuse_the_cached_weights(self):
        # eps 1, delta 0.01: the advective bound sets dt, and it follows
        # sup|u| from step to step; dt is held to the dispersive step halved,
        # so the run builds the weights for 2 values of dt, not 1 per step
        c = preset_survey("kdv", RegimeParameters(eps=1.0, delta=0.01))
        u0 = random_trig_polynomial(Grid(64), 0, 10, 2.0)
        evolve._etd_weights.cache_clear()
        res = integrate(u0, c, 0.05, IntegrationControls(sample_interval=0.05))
        assert res.state.status is RunStatus.COMPLETED
        info = evolve._etd_weights.cache_info()
        assert info.misses <= 2 < info.hits

    def test_steps_without_alpha2_reuse_the_cached_weights(self):
        # alpha2 = 0 has no dispersive step: dt is cfl * dx halved to fit
        # under the advective step, so it too takes few values
        c = ModelCoefficients(mu=0.0, alpha1=-1.0, alpha3=-1.0)
        u0 = random_trig_polynomial(Grid(64), 0, 10, 2.0)
        dt = evolve._stable_dt(u0.coef, c, 0.5)
        halvings = math.log2(0.5 * Grid(64).spacing / dt)
        assert halvings == int(halvings) >= 1
        evolve._etd_weights.cache_clear()
        res = integrate(u0, c, 0.05, IntegrationControls(sample_interval=0.05))
        assert res.state.status is RunStatus.COMPLETED
        info = evolve._etd_weights.cache_info()
        assert info.misses <= 2 < info.hits

    def test_step_is_the_dispersive_step_halved_to_fit(self):
        # where the dispersive step is the shorter one it is taken as before
        u0 = random_trig_polynomial(Grid(64), 0, 10, 2.0)
        dispersive = 2.8 / (abs(KDV.alpha2) * (0.5 * math.pi * 64) ** 3)
        assert evolve._stable_dt(u0.coef, KDV, 0.5) == 0.5 * dispersive
        fast = replace(KDV, alpha3=-1e3)
        dt = evolve._stable_dt(u0.coef, fast, 0.5)
        advective = 0.5 * (Grid(64).spacing / (1.0 + 1e3 * evolve.sup_norm(u0)))
        halvings = math.log2(0.5 * dispersive / dt)
        assert dt <= advective < 2.0 * dt and halvings == int(halvings) >= 1


MU_PRESETS = {
    "large_amplitude": preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1)),
    "normalized": preset_normalized(),
    "se": preset_survey("se", RegimeParameters(eps=0.2, delta=0.1)),
    "bbm": preset_survey("bbm", RegimeParameters(beta=-0.5)),
    "ch": preset_survey("ch", RegimeParameters(kappa=1.0)),
    "dp": preset_survey("dp", RegimeParameters(kappa=1.0)),
    "moderate": preset_survey("moderate", RegimeParameters(p=0.0, z0=0.0)),
}

# Worst terminal error of `integrate` at its default controls over the six
# inputs of `test_error_is_no_worse_than_rk4s`, measured when mu > 0 models
# stepped with RK4 at cfl*dx/max(1, sup|a(u)|), rounded up.
RK4_ERRORS = {
    "large_amplitude": 9.23e-7, "normalized": 7.10e-6, "se": 3.69e-7, "bbm": 1.50e-6,
    "ch": 2.22e-9,
}


class TestNonlocalETDRK4:
    """mu > 0 steps with ETDRK4 too, exact on L = Lam^{-2}(alpha1*d/dx + alpha2*d^3/dx^3)."""

    @pytest.mark.parametrize("n", [64, 128, 1024])
    @pytest.mark.parametrize("name", sorted(MU_PRESETS))
    def test_symbol_is_the_linear_part_of_tendency(self, name, n):
        c = MU_PRESETS[name]
        linear = ModelCoefficients(mu=c.mu, alpha1=c.alpha1, alpha2=c.alpha2)
        symbol = evolve._linear_symbol(n, c)
        got = tendency(np.ones(n // 2 + 1, dtype=complex), linear)
        assert np.max(np.abs(got - symbol)) <= 1e-15 * np.max(np.abs(symbol))

    @pytest.mark.parametrize("name", sorted(RK4_ERRORS))
    def test_error_is_no_worse_than_rk4s(self, name):
        # against RK4 at 1/8 of the RK4 CFL step for u0, landed on t_end
        c, g, t_end = MU_PRESETS[name], Grid(64), 0.25
        worst = 0.0
        for seed in range(6):
            u0 = 0.5 * random_trig_polynomial(g, seed, 10, 2.0)
            fine = 0.5 * g.spacing / max(1.0, sup_norm(transport_field(u0, c))) / 8
            steps = math.ceil(t_end / fine)
            h = u0.coef
            for _ in range(steps):
                h = rk4_reference(h, lambda v: tendency(v, c), t_end / steps)
            res = integrate(u0, c, t_end)
            assert res.state.status is RunStatus.COMPLETED
            worst = max(worst, np.max(np.abs(res.state.u.coef - h)))
        assert worst <= RK4_ERRORS[name]

    def test_a_second_identical_run_builds_no_weights(self):
        c = MU_PRESETS["large_amplitude"]
        u0 = random_trig_polynomial(Grid(128), 1, 10, 2.0)
        controls = IntegrationControls(sample_interval=0.05, snapshot_times=(0.125, 0.25))
        integrate(u0, c, 0.25, controls)
        misses = evolve._etd_weights.cache_info().misses
        integrate(u0, c, 0.25, controls)
        assert evolve._etd_weights.cache_info().misses == misses

    @pytest.mark.parametrize("name, t_end", [("large_amplitude", 0.25), ("kdv", 5e-4)])
    def test_a_second_identical_run_builds_no_kernel(self, name, t_end):
        # kernels and their product evaluators are built once per (n, coefficients)
        c = MU_PRESETS.get(name, KDV)
        u0 = random_trig_polynomial(Grid(64 if c is KDV else 128), 1, 10, 2.0)
        controls = IntegrationControls(sample_interval=t_end / 2)
        caches = (models._flux_kernel, models._local_kernel, models._padded_sums)
        integrate(u0, c, t_end, controls)
        misses = [cache.cache_info().misses for cache in caches]
        integrate(u0, c, t_end, controls)
        assert [cache.cache_info().misses for cache in caches] == misses


class TestStackedSolve:
    """`_solve` steps a stack as `integrate`, its one-row case, steps each row."""

    MODELS = {
        "large_amplitude": preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1)),
        "normalized": preset_normalized(),
        "ch": preset_survey("ch", RegimeParameters(kappa=1.0)),
        "se": preset_survey("se", RegimeParameters(eps=0.5, delta=0.4)),
        "kdv": KDV,
    }

    @staticmethod
    def expected(fields, c, t_end, controls):
        """Each field's own run, and the first run, in input order, that does not complete."""
        runs = [integrate(u, c, t_end, controls) for u in fields]
        stop = next(
            ((i, r.state.status, r.state.t) for i, r in enumerate(runs)
             if r.state.status is not RunStatus.COMPLETED),
            None,
        )
        return runs, stop

    @staticmethod
    def solve(fields, c, t_end, controls):
        """The snapshot stacks of one stacked solve, and its stop as (status, t)."""
        run = evolve._solve(np.stack([u.coef for u in fields]), c, t_end, controls)
        return [h for _, h in run.snapshots], run.stop and (run.stop.status, run.stop.t)

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_equal_their_own_runs_byte_for_byte(self, name, n):
        c = self.MODELS[name]
        fields = [random_trig_polynomial(Grid(n), seed, n // 4, 2.0) for seed in range(3)]
        controls = IntegrationControls(dt=1e-4, snapshot_times=(0.0, 3.5e-4, 1e-3))
        runs, stop = self.expected(fields, c, 1e-3, controls)
        assert stop is None
        stacks, got = self.solve(fields, c, 1e-3, controls)
        assert got is None and len(stacks) == 3
        for row, run in enumerate(runs):
            assert [h[row].tobytes() for h in stacks] == [
                u.coef.tobytes() for _, u in run.snapshots
            ]

    @pytest.mark.parametrize("rows, first", [
        ((0.3, 0.4, 0.1), (0, RunStatus.BLOWUP_SUSPECTED)),  # row 1 stops first, row 0 later
        ((0.1, "huge", 0.4), (1, RunStatus.NONFINITE)),
        ((0.3, "huge", 0.1), (0, RunStatus.BLOWUP_SUSPECTED)),
        (("huge", 0.3), (0, RunStatus.NONFINITE)),
        ((0.1, 0.15), None),
        ((0.1, 0.4, "huge"), (1, RunStatus.BLOWUP_SUSPECTED)),
        ((0.4, 0.3), (0, RunStatus.BLOWUP_SUSPECTED)),
    ], ids=["later-row-earlier", "nonfinite-row", "nonfinite-then-earlier-row",
            "nonfinite-first", "none", "threshold-then-nonfinite-at-t0", "first-row-at-t0"])
    def test_first_failure_in_row_order(self, rows, first, monkeypatch):
        # the stack stops at the first state in which a row stops, with the
        # first such row's decision; the probe names the first field, in
        # input order, whose own run stops
        g = Grid(64)
        huge = constant(g, 1e160) + cosine(g, 1e160)
        fields = [huge if a == "huge" else cosine(g, a) for a in rows]
        c = preset_normalized()
        thresholds = BlowupThresholds(sup_ux_max=2.0)
        controls = IntegrationControls(
            dt=1e-3, sample_interval=0.1, snapshot_times=(0.05, 0.1), thresholds=thresholds,
        )
        runs, stop = self.expected(fields, c, 0.1, controls)
        assert (stop and stop[:2]) == first
        earliest = min(((r.state.t, i) for i, r in enumerate(runs)
                        if r.state.status is not RunStatus.COMPLETED), default=None)
        _, got = self.solve(fields, c, 0.1, controls)
        assert got == (earliest and (runs[earliest[1]].state.status, earliest[0]))
        if rows[:2] == (0.3, 0.4):
            assert runs[1].state.t < runs[0].state.t

        monkeypatch.setattr(probes, "IntegrationControls",
                            functools.partial(IntegrationControls, thresholds=thresholds))
        stack = np.stack([u.coef for u in fields])
        if stop is None:
            probes._solve_sampled(stack, c, 0.1, 1e-3, [0.05, 0.1])
        else:
            with pytest.raises(ProbeUnresolved) as err:
                probes._solve_sampled(stack, c, 0.1, 1e-3, [0.05, 0.1])
            assert str(err.value) == f"run ended with status {stop[1].value} at t={stop[2]:.6g}"

    def test_rows_past_a_threshold_at_t0_stop_there(self):
        # u0 is classified before the first step, row by row as integrate classifies it
        g = Grid(64)
        fields = [cosine(g, 0.1), cosine(g, 0.4), constant(g, 1e160) + cosine(g, 1e160)]
        c = preset_normalized()
        controls = IntegrationControls(dt=1e-3, sample_interval=0.1,
                                       thresholds=BlowupThresholds(sup_ux_max=2.0))
        runs = [integrate(u, c, 0.1, controls) for u in fields]
        assert [(r.state.status, r.state.t, len(r.records)) for r in runs[1:]] == [
            (RunStatus.BLOWUP_SUSPECTED, 0.0, 1), (RunStatus.NONFINITE, 0.0, 1)]
        assert runs[1].blowup.trigger == "sup_ux" and runs[2].blowup is None
        # a stack stops before its first step, with its first stopping row's decision
        for rows, status, trigger in (((0, 1), RunStatus.BLOWUP_SUSPECTED, "sup_ux"),
                                      ((0, 1, 2), RunStatus.BLOWUP_SUSPECTED, "sup_ux"),
                                      ((0, 2), RunStatus.NONFINITE, None),
                                      ((2, 1), RunStatus.NONFINITE, None)):
            run = evolve._solve(np.stack([fields[i].coef for i in rows]), c, 0.1, controls)
            assert (run.t, run.records, run.stop.status, run.stop.t, run.stop.trigger) == (
                0.0, [], status, 0.0, trigger)

    @pytest.mark.parametrize("s_exponent", [0.0, 2.0, 100.0])
    def test_row_records_equal_monitor(self, s_exponent):
        # s_exponent 100 gives inf weights on the zero top modes; each row's
        # record, and a bare half spectrum's, is diagnose's but for sup|u|,
        # which a sample fills in with sup_norm of the stack: diagnose's bits
        g = Grid(64)
        fields = [random_trig_polynomial(g, seed, 20, 1.0) for seed in range(4)] + [constant(g, 0.0)]
        stack = np.stack([u.coef for u in fields])
        got = evolve._monitor_rows(0.5, stack, s_exponent)
        for u, record in zip(fields, got):
            want = diagnose(0.5, u, s_exponent)
            [alone] = evolve._monitor_rows(0.5, u.coef, s_exponent)
            assert math.isnan(record.sup_u) and math.isnan(alone.sup_u)
            for r in (record, alone):
                assert np.array(astuple(r)[:-1]).tobytes() == np.array(astuple(want)[:-1]).tobytes()
        filled = [replace(r, sup_u=v) for r, v in zip(got, sup_norm(stack).tolist())]
        for u, record in zip(fields, filled):
            want = diagnose(0.5, u, s_exponent)
            assert np.array(astuple(record)).tobytes() == np.array(astuple(want)).tobytes()

    def test_controls_are_checked_as_integrate_checks_them(self):
        h = np.stack([cosine(Grid(32), 0.1).coef] * 2)
        c = preset_normalized()
        for t_end, dt in ((1e-14, 1e-3), (0.1, 0.0), (1.0, 1e-12)):
            with pytest.raises(InvalidControls):
                evolve._solve(h, c, t_end, IntegrationControls(dt=dt, sample_interval=t_end))
        with pytest.raises(GammaRelationViolated):
            evolve._solve(h, replace(c, gamma1=0.0), 0.1, IntegrationControls(dt=1e-3))
        with pytest.raises(InvalidMu):  # a negative mu fails where the set is built
            replace(c, mu=-1.0)

    @pytest.mark.parametrize("name", ["large_amplitude", "normalized", "kdv"])
    def test_stack_step_is_the_smallest_row_step(self, name):
        # _stable_dt of a stack takes its largest speed, which is the
        # smallest of the rows' own steps, bit for bit
        c = self.MODELS[name]
        fields = [2.0 ** k * random_trig_polynomial(Grid(64), k, 10, 2.0) for k in range(4)]
        h = np.stack([u.coef for u in fields])
        assert evolve._stable_dt(h, c, 0.4) == min(evolve._stable_dt(u.coef, c, 0.4) for u in fields)


class TestIntegrate:
    def test_constant_completes_unchanged(self):
        g = Grid(64)
        u0 = constant(g, 0.7)
        res = integrate(u0, preset_normalized(), 1.0)
        assert res.state.status is RunStatus.COMPLETED
        assert l2_norm(res.state.u - u0) <= 1e-13
        l2s = [r.l2 for r in res.records]
        assert max(l2s) - min(l2s) <= 1e-13

    def test_mean_conservation_and_tail(self):
        g = Grid(128)
        res = integrate(
            cosine(g, 0.01), preset_normalized(), 1.0,
            IntegrationControls(sample_interval=0.1),
        )
        assert res.state.status is RunStatus.COMPLETED
        drift = abs(res.records[-1].mean - res.records[0].mean)
        assert drift <= 1e-12
        assert res.records[-1].tail <= 1e-8

    def test_mean_conservation_nonzero_mean(self):
        g = Grid(64)
        c = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.2))
        u0 = cosine(g, 0.02) + constant(g, 0.4)
        res = integrate(u0, c, 1.0)
        drift = abs(res.records[-1].mean - res.records[0].mean)
        assert drift <= 1e-12 * (1.0 + 0.4)

    def test_mean_exact_with_nyquist_mode(self):
        # regression: a truncated a(u)*u_x once carried a mean through the
        # unpaired Nyquist mode, so this run drifted by 2.2e-12 by t = 0.004;
        # tendency's Nyquist slot is 0, so the state keeps u0's Nyquist mode
        u0 = 0.07296554464299441 * random_trig_polynomial(Grid(16), 25830, 4, 1.0671711506109287)
        coef = u0.coef.copy()
        coef[-1] = 1e-5  # below the spectral-tail threshold
        u0 = SpectralField(u0.grid, coef)
        res = integrate(u0, preset_normalized(), 0.004, FIXED_STEPS)
        assert res.state.status is RunStatus.COMPLETED
        assert res.state.u.coef[-1] != 0.0
        assert [r.mean for r in res.records[1:]] == [res.records[0].mean] * 2
        assert res.state.u.coef[-1] == u0.coef[-1]

    def test_spatial_agreement_across_grids(self):
        c = preset_normalized()
        controls = IntegrationControls(dt=1e-3, sample_interval=1.0)
        ra = integrate(cosine(Grid(64), 0.05), c, 1.0, controls)
        rb = integrate(cosine(Grid(128), 0.05), c, 1.0, controls)
        assert l2_norm(resample(ra.state.u, 128) - rb.state.u) <= 1e-9

    def test_snapshots_land_exactly(self):
        g = Grid(64)
        res = integrate(
            cosine(g, 0.03), preset_normalized(), 0.5,
            IntegrationControls(snapshot_times=(0.0, 0.125, 0.5)),
        )
        assert [t for t, _ in res.snapshots] == [0.0, 0.125, 0.5]
        assert res.records[0].t == 0.0
        assert res.records[-1].t == pytest.approx(0.5)

    def test_invalid_controls(self):
        g = Grid(32)
        u0 = cosine(g, 0.01)
        with pytest.raises(InvalidControls):
            integrate(u0, preset_normalized(), -1.0)
        with pytest.raises(InvalidControls):
            integrate(u0, preset_normalized(), 1.0, IntegrationControls(cfl=0.0))
        with pytest.raises(InvalidControls):
            integrate(u0, preset_normalized(), 1.0, IntegrationControls(snapshot_times=(2.0,)))

    @pytest.mark.parametrize("t_end, controls", [
        (math.inf, IntegrationControls()),
        (math.nan, IntegrationControls()),
        (0.1, IntegrationControls(cfl=math.nan)),
        (0.1, IntegrationControls(dt=math.nan)),
        (0.1, IntegrationControls(sample_interval=math.nan)),
        # a nan s_exponent made every hs nan and a nan threshold never fired
        (0.1, IntegrationControls(s_exponent=math.nan)),
        (0.1, IntegrationControls(thresholds=BlowupThresholds(sup_ux_max=math.nan))),
    ], ids=["t_end-inf", "t_end-nan", "cfl-nan", "dt-nan", "sample_interval-nan", "s_exponent-nan",
            "sup_ux_max-nan"])
    def test_non_finite_controls_rejected(self, t_end, controls, monkeypatch, no_hang):
        # checked before the event times, which an infinite t_end never finishes
        monkeypatch.setattr(evolve, "_event_times", None)
        with pytest.raises(InvalidControls):
            integrate(cosine(Grid(32), 0.01), preset_normalized(), t_end, controls)

    @pytest.mark.parametrize("t_end, sample_interval", [(1.0, 0.1), (1e300, 0.05), (1.0, 1e-300)],
                             ids=["over-a-small-budget", "huge-t_end", "tiny-sample_interval"])
    def test_more_samples_than_the_step_budget_rejected(self, t_end, sample_interval,
                                                        monkeypatch, no_hang):
        # every sample costs a step, so the run cannot fit its budget; the
        # check comes before `_event_times` lists one entry per sample
        monkeypatch.setattr(evolve, "_MAX_STEPS", 5)
        monkeypatch.setattr(evolve, "_event_times", None)
        controls = IntegrationControls(sample_interval=sample_interval)
        with pytest.raises(InvalidControls, match="samples, over the step budget 5"):
            integrate(cosine(Grid(32), 0.01), preset_normalized(), t_end, controls)

    @pytest.mark.parametrize("t_end", [1e-13, 1e-14, 1e-16])
    def test_t_end_within_landing_tolerance_rejected(self, t_end):
        # such a run would take no step and report Completed
        with pytest.raises(InvalidControls, match="landing tolerance"):
            integrate(cosine(Grid(32), 0.01), preset_normalized(), t_end)

    def test_temporal_order(self):
        g = Grid(64)
        c = preset_normalized()
        u0 = cosine(g, 0.05)
        def terminal(dt):
            return integrate(
                u0, c, 0.5, IntegrationControls(dt=dt, sample_interval=0.5)
            ).state.u
        e1 = l2_norm(terminal(0.005) - terminal(0.0025))
        e2 = l2_norm(terminal(0.0025) - terminal(0.00125))
        order = math.log2(e1 / e2)
        assert 3.8 <= order <= 4.2

    def test_time_reversibility_linear(self):
        # with the amplitude terms off the flow is linear and unitary
        g = Grid(64)
        lin = ModelCoefficients(mu=7.0 * 0.25 / 18.0, alpha1=-1.0, alpha2=2.0 * 0.25 / 9.0)
        u0 = random_trig_polynomial(g, 3, 10, 2.0)
        controls = IntegrationControls(dt=2e-3, sample_interval=1.0)
        forward = integrate(u0, lin, 1.0, controls)
        back = integrate(forward.state.u, time_reversed(lin), 1.0, controls)
        assert l2_norm(back.state.u - u0) <= 1e-8

    def test_kdv_completes_under_its_step_rule(self):
        g = Grid(32)
        c = preset_survey("kdv", RegimeParameters(eps=1.0, delta=0.5))
        u0 = cosine(g, 0.1)
        res = integrate(u0, c, 0.01, IntegrationControls(sample_interval=0.01))
        assert res.state.status is RunStatus.COMPLETED
        drift = abs(res.records[-1].mean - res.records[0].mean)
        assert drift <= 1e-12

    def test_se_direct_route(self):
        # se steps with ETDRK4 on `tendency`, as every mu > 0 model does
        g = Grid(64)
        c = preset_survey("se", RegimeParameters(eps=0.3, delta=0.3))
        res = integrate(cosine(g, 0.02), c, 0.2)
        assert res.state.status is RunStatus.COMPLETED

    def test_fixed_dt_rejects_nonconservative_sets_with_alpha4(self):
        # every mu > 0 set steps on the nonlocal form, which needs the cubic relation
        c = ModelCoefficients(mu=1.0, alpha2=1.0, gamma1=1.0, alpha4=1.0)
        with pytest.raises(GammaRelationViolated):
            integrate(cosine(Grid(32), 0.02), c, 0.01, IntegrationControls(dt=1e-3))

    def test_nonconservative_set_is_rejected_before_the_verdict_on_u0(self):
        # u0 past a threshold ends a run without a step, so the set is checked first
        c = ModelCoefficients(mu=1.0, alpha2=1.0, gamma1=1.0)
        u0, fixed = cosine(Grid(32), 1e3), IntegrationControls(dt=1e-3)
        for run in (lambda: integrate(u0, c, 0.01, IntegrationControls()),
                    lambda: integrate(u0, c, 0.01, fixed),
                    lambda: evolve._solve(u0.coef[None], c, 0.01, fixed)):
            with pytest.raises(GammaRelationViolated):
                run()


class TestDetection:
    def test_small_data_running(self):
        g = Grid(64)
        state = SimulationState(0.3, cosine(g, 0.01), 1e-3)
        decision = detect_blowup(state)
        assert decision.status is RunStatus.RUNNING

    def test_gradient_trigger(self):
        g = Grid(64)
        state = SimulationState(0.5, cosine(g, 2.0), 1e-3)
        decision = detect_blowup(state, BlowupThresholds(sup_ux_max=5.0))
        assert decision.status is RunStatus.BLOWUP_SUSPECTED
        assert decision.trigger == "sup_ux"
        assert decision.value == pytest.approx(2.0 * TWO_PI, rel=1e-6)
        assert decision.t == 0.5

    def test_tail_trigger(self):
        g = Grid(64)
        u = cosine(g, 1e-3, mode=28)  # all energy in the top third
        state = SimulationState(0.1, u, 1e-3)
        decision = detect_blowup(state, BlowupThresholds(sup_ux_max=1e9))
        assert decision.status is RunStatus.BLOWUP_SUSPECTED
        assert decision.trigger == "spectral_tail"

    def test_nonfinite_takes_precedence(self):
        g = Grid(32)
        huge = constant(g, 1e160) + cosine(g, 1e160)
        stepped = step_rk4(SimulationState(0.0, huge, 0.0), preset_normalized(), 0.1)
        assert stepped.status is RunStatus.NONFINITE
        decision = detect_blowup(stepped, BlowupThresholds(sup_ux_max=1e-30))
        assert decision.status is RunStatus.NONFINITE
        assert decision.trigger is None

    @pytest.mark.parametrize("trigger", [None, "sup_ux", "hs", "spectral_tail"])
    def test_decision_carries_the_classified_record(self, trigger):
        g = Grid(64)
        u, thresholds = {
            None: (cosine(g, 0.01), BlowupThresholds()),
            "sup_ux": (cosine(g, 2.0), BlowupThresholds(sup_ux_max=5.0)),
            "hs": (cosine(g, 1.0), BlowupThresholds(hs_max=1.0)),
            "spectral_tail": (cosine(g, 1e-3, mode=28), BlowupThresholds(sup_ux_max=1e9)),
        }[trigger]
        decision = detect_blowup(SimulationState(0.25, u, 1e-3), thresholds, 3.0)
        assert decision.trigger == trigger
        # every diagnose field but sup_u, which no test reads and a sample fills in
        assert math.isnan(decision.record.sup_u)
        expected = diagnose(0.25, u, 3.0)
        assert replace(decision.record, sup_u=expected.sup_u) == expected
        if trigger is not None:
            assert decision.value == getattr(decision.record, trigger.replace("spectral_", ""))

    def test_an_overflowing_l2_is_nonfinite_in_every_state(self):
        # u0's verdict and every later state's are one function
        r = evolve.DiagnosticsRecord(0.5, 0.0, math.inf, math.inf, 1.0, 0.0, math.nan)
        decision = evolve._classify(r, BlowupThresholds())
        assert (decision.status, decision.trigger, decision.t) == (RunStatus.NONFINITE, None, 0.5)
        assert decision.record is r

    def test_nonfinite_sample_carries_its_record(self):
        coef = np.zeros(17, dtype=complex)
        coef[5] = 1e306  # finite coefficients whose u_x samples overflow
        u = SpectralField(Grid(32), coef)
        with np.errstate(over="ignore", invalid="ignore"):
            decision = detect_blowup(SimulationState(0.1, u, 1e-3))
            expected = diagnose(0.1, u)
        assert decision.status is RunStatus.NONFINITE
        assert decision.trigger == "sup_ux"
        assert math.isnan(decision.record.sup_u)
        np.testing.assert_array_equal(astuple(decision.record)[:-1], astuple(expected)[:-1])

    def test_nonfinite_state_has_no_record(self):
        state = SimulationState(0.1, cosine(Grid(32), 0.01), 1e-3, RunStatus.NONFINITE)
        decision = detect_blowup(state)
        assert decision.status is RunStatus.NONFINITE
        assert decision.record is None

    def test_detection_time_grid_stable(self):
        c = preset_large_amplitude(RegimeParameters(eps=1.0, delta=0.5))
        thresholds = BlowupThresholds(sup_ux_max=20.0)
        times = []
        for n in (128, 256):
            g = Grid(n)
            u0 = from_physical(-0.8 * np.sin(TWO_PI * g.x), g)
            res = integrate(u0, c, 1.0, IntegrationControls(thresholds=thresholds))
            assert res.state.status is RunStatus.BLOWUP_SUSPECTED
            assert res.blowup.trigger == "sup_ux"
            times.append(res.blowup.t)
            assert res.records[-1] == diagnose(res.state.t, res.state.u)  # sup_u filled in
            assert res.blowup.record == res.records[-1]
        assert abs(times[1] - times[0]) <= 0.1 * times[0]


class TestDiagnose:
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    def test_sup_norms_match_separate_transforms(self, n):
        # sup_norm_dx transforms u_x without a derivative field, bit for bit
        g = Grid(n)
        for seed in range(3):
            coef = random_trig_polynomial(g, seed, n // 2 - 1, 0.5).coef.copy()
            coef[0], coef[-1] = 0.3 - seed, 0.7 * seed - 0.2
            u = SpectralField(g, coef)
            record = diagnose(0.0, u)
            assert record.sup_u == np.max(np.abs(to_physical(resample(u, 4 * n))))
            assert record.sup_ux == np.max(np.abs(to_physical(resample(derivative(u), 4 * n))))

    def test_a_sample_costs_one_transform(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft", "fft", "ifft"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k)
            )
        u0 = random_trig_polynomial(Grid(128), 1, 10, 2.0)
        c = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        dt = 2.0 ** -10

        def transforms(sample_interval):
            calls.clear()
            controls = IntegrationControls(dt=dt, sample_interval=sample_interval)
            res = integrate(u0, c, 8 * dt, controls)
            return len(calls), len(res.records)

        # 7 more samples cost 7 sup|u| transforms; the rest of the record is reused
        every, single = transforms(dt), transforms(8 * dt)
        assert (every[1], single[1]) == (9, 2)
        assert every[0] - single[0] == 7

    def test_events_no_step_reaches_keep_their_times(self):
        u0 = cosine(Grid(32), 0.05)
        c = preset_normalized()
        # t_end within the 1e-13 landing tolerance after a snapshot: no step
        # reaches it, and its record is the snapshot's state
        res = integrate(u0, c, 0.1, IntegrationControls(snapshot_times=(0.1 - 5e-14,)))
        [(_, u_snap)] = res.snapshots
        assert res.state.status is RunStatus.COMPLETED
        assert res.records[-1] == diagnose(0.1, u_snap)
        # a sample within 1e-13 after a snapshot is the snapshot's state
        res = integrate(u0, c, 0.1, IntegrationControls(snapshot_times=(0.05 - 5e-14,)))
        [(_, u_snap)] = res.snapshots
        assert [r.t for r in res.records] == [0.0, 0.05, 0.1]
        assert res.records[1] == diagnose(0.05, u_snap)


# ---------------------------------------------------------------------------
# invariants as properties: small grids, a few fixed steps
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None, database=None)

regimes = st.builds(
    RegimeParameters,
    eps=st.floats(min_value=0.05, max_value=1.0),
    delta=st.floats(min_value=0.1, max_value=1.0),
)
# members that `tendency` accepts (conservative, mu > 0)
nonlocal_models = st.one_of(
    st.just(preset_normalized()),
    regimes.map(preset_large_amplitude),
    st.floats(min_value=0.0, max_value=2.0).map(
        lambda kappa: preset_survey("ch", RegimeParameters(kappa=kappa))
    ),
    regimes.map(lambda p: preset_survey("se", p)),
)
# members that only `tendency_direct` accepts (mu = 0)
direct_models = regimes.map(lambda p: preset_survey("kdv", p))
# the models `integrate` steps with a fixed dt, all with ETDRK4
stepped_models = st.one_of(nonlocal_models, direct_models)
FIXED_STEPS = IntegrationControls(dt=1e-3, sample_interval=2e-3, snapshot_times=(0.002, 0.004))


@st.composite
def small_fields(draw):
    """Small wave on a nonzero mean, n <= 32."""
    g = Grid(draw(st.sampled_from([16, 32])))
    wave = random_trig_polynomial(
        g, draw(st.integers(0, 2 ** 16)), draw(st.integers(1, g.n_points // 4)),
        draw(st.floats(min_value=1.0, max_value=3.0)),
    )
    level = draw(st.floats(min_value=-0.5, max_value=0.5))
    return draw(st.floats(min_value=0.0, max_value=0.1)) * wave + constant(g, level)


def assert_hermitian(u):
    """Half spectrum with exactly real mean and Nyquist slots, reproduced by its samples."""
    half = u.grid.n_points // 2
    assert u.coef.shape == (half + 1,)
    assert u.coef[0].imag == 0.0 and u.coef[half].imag == 0.0
    back = from_physical(to_physical(u), u.grid)
    assert np.max(np.abs(back.coef - u.coef)) <= 1e-14 * max(1.0, np.max(np.abs(u.coef)))


class TestInvariants:
    @PROPERTY
    @given(u0=small_fields(), coeffs=nonlocal_models)
    def test_two_forms_agree(self, u0, coeffs):
        # the reformulation oracle; 1e-13 absolute covers constant fields,
        # where both forms are round-off
        got, ref = tendency(u0, coeffs).coef, tendency_direct(u0, coeffs).coef
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)) + 1e-13

    @PROPERTY
    @given(u0=small_fields(), coeffs=nonlocal_models,
           nyquist=st.floats(min_value=-0.1, max_value=0.1))
    def test_etdrk4_keeps_the_mean_and_the_nyquist_slot(self, u0, coeffs, nyquist):
        # mode 0 and the Nyquist slot of L and of `tendency` are 0
        h = u0.coef.copy()
        h[-1] = nyquist
        state = SimulationState(0.0, SpectralField(u0.grid, h), 0.0)
        for _ in range(4):
            state = step_rk4(state, coeffs, evolve._stable_dt(state.u.coef, coeffs, 0.5))
        assert state.status is RunStatus.RUNNING
        assert abs(state.u.coef[0].real - h[0].real) <= 1e-12 * (1.0 + abs(h[0].real))
        assert state.u.coef[-1] == h[-1]

    @PROPERTY
    @given(u0=small_fields(), coeffs=stepped_models)
    def test_integrate_conserves_mean(self, u0, coeffs):
        res = integrate(u0, coeffs, 0.004, FIXED_STEPS)
        assert res.state.status is RunStatus.COMPLETED
        start = res.records[0].mean
        for record in res.records[1:]:
            assert abs(record.mean - start) <= 1e-12 * (1.0 + abs(start))

    @PROPERTY
    @given(
        level=st.floats(min_value=-10.0, max_value=10.0),
        n=st.sampled_from([16, 32]),
        coeffs=nonlocal_models,
        direct=direct_models,
    )
    # se's quartic bracket padded to 80 points read 2.33e-13 here; 96 reads 0
    @example(
        level=-9.734032870971383, n=32,
        coeffs=preset_survey("se", RegimeParameters(eps=0.9420751301695597, delta=0.21241105638382834)),
        direct=preset_survey("kdv", RegimeParameters()),
    )
    def test_constants_are_fixed_points(self, level, n, coeffs, direct):
        u = constant(Grid(n), level)
        for out in (tendency(u, coeffs), tendency_direct(u, coeffs), tendency_direct(u, direct)):
            assert np.max(np.abs(out.coef)) <= 1e-13

    @PROPERTY
    @given(u0=small_fields(), coeffs=nonlocal_models, direct=direct_models)
    def test_output_fields_are_hermitian(self, u0, coeffs, direct):
        assert_hermitian(tendency(u0, coeffs))
        assert_hermitian(tendency_direct(u0, coeffs))
        assert_hermitian(tendency_direct(u0, direct))
        res = integrate(u0, coeffs, 0.004, FIXED_STEPS)
        for u in [res.state.u] + [snap for _, snap in res.snapshots]:
            assert_hermitian(u)

    @PROPERTY
    @given(u0=small_fields(), coeffs=stepped_models)
    def test_rerun_is_byte_identical(self, u0, coeffs):
        first = integrate(u0, coeffs, 0.004, FIXED_STEPS)
        second = integrate(u0, coeffs, 0.004, FIXED_STEPS)
        assert first.records == second.records
        assert first.state.u.coef.tobytes() == second.state.u.coef.tobytes()
        assert [(t, u.coef.tobytes()) for t, u in first.snapshots] == [
            (t, u.coef.tobytes()) for t, u in second.snapshots
        ]


def nonlinear_speed(u, coeffs):
    """s = sup|(beta2 + gamma2*v)*v|/mu over the samples v of u on 4n points."""
    v = to_physical(resample(u, 4 * u.grid.n_points))
    return float(np.max(np.abs((coeffs.beta2 + coeffs.gamma2 * v) * v))) / coeffs.mu


def dispersive_dt(n, coeffs, cfl):
    """cfl * 2.8 / max|L(xi)| over the modes |xi| <= n/4."""
    return cfl * (2.8 / np.max(np.abs(evolve._linear_symbol(n, coeffs)[:n // 4 + 1])))


def ladder_dt(u, coeffs, cfl, speed):
    """The mu > 0 step rule from its parts: the dispersive step, halved until
    it fits under cfl*dx/speed."""
    dt = dispersive_dt(u.grid.n_points, coeffs, cfl)
    while speed > 0.0 and dt > cfl * (u.grid.spacing / speed):
        dt *= 0.5
    return dt


@st.composite
def scaled_fields(draw, n_points, max_mode, sup_max):
    """Random field on one of n_points, modes up to max_mode(n), scaled to sup|u| in (0, sup_max]."""
    g = Grid(draw(st.sampled_from(n_points)))
    u = random_trig_polynomial(
        g, draw(st.integers(0, 2 ** 16)), draw(st.integers(1, max_mode(g.n_points))),
        draw(st.floats(min_value=0.0, max_value=3.0)),
    )
    return (draw(st.floats(min_value=0.01, max_value=sup_max)) / sup_norm(u)) * u


class TestStableDt:
    """The mu > 0 step rule against its reference formula, and its nonlinear
    speed from the 4n samples of u against the one through `transport_field`."""

    @PROPERTY
    @given(u=scaled_fields((64, 128, 1024), lambda n: n // 2 - 1, 2.0),
           cfl=st.floats(min_value=0.05, max_value=1.0))
    def test_pinned_speed_is_bit_identical(self, u, cfl):
        # s <= 0.37 for |u| <= 2, full band or not, which pins dt to the
        # dispersive step or its half: the speed alpha2/mu = 4/7 of a(u) no
        # longer enters
        c = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        dt, base = evolve._stable_dt(u.coef, c, cfl), dispersive_dt(u.grid.n_points, c, cfl)
        assert dt == ladder_dt(u, c, cfl, nonlinear_speed(u, c))
        assert dt in (base, 0.5 * base)

    @PROPERTY
    @given(u=scaled_fields((64, 128, 1024), lambda n: n // 4 - 1, 4.0),
           cfl=st.floats(min_value=0.05, max_value=1.0))
    def test_band_limited_speed_agrees_to_round_off(self, u, cfl):
        # below n/4, u^2 loses nothing to truncation, so the speed of the
        # padded (beta2*u + gamma2*u^2)/mu field differs from the sampled one
        # by round-off alone, on the scale of sup|a(u)| = sup|1 + u + u^2|;
        # dt is the rule's bit for bit
        c = preset_normalized()
        speed = nonlinear_speed(u, c)
        padded = sup_norm(transport_field(u, replace(c, alpha2=0.0)))
        assert abs(speed - padded) <= 1e-15 * sup_norm(transport_field(u, c))
        assert evolve._stable_dt(u.coef, c, cfl) == ladder_dt(u, c, cfl, speed)

    def test_overflowing_speed_raises(self):
        u = cosine(Grid(32), 1e160)
        with pytest.raises(InvalidField):
            evolve._stable_dt(u.coef, preset_normalized(), 0.5)

    @pytest.mark.parametrize("model, params", [
        ("bbm", RegimeParameters(eps=0.5, delta=0.5, beta=-1e308)),  # L reads inf * 0: a nan step
        ("kdv", RegimeParameters(eps=0.5, delta=1e-161)),  # a subnormal alpha2: an inf step, halved forever
        ("kdv", RegimeParameters(eps=0.5, delta=1e153)),  # alpha2*xi^3 overflows: a 0 step
    ], ids=["nan", "inf", "zero"])
    def test_a_step_rule_past_the_float_range_raises(self, model, params, no_hang):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidField, match="dispersive step is not positive and finite"):
                integrate(cosine(Grid(16), 0.05), preset_survey(model, params), 0.02,
                          IntegrationControls(sample_interval=0.01))
