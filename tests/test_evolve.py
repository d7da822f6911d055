"""Time integration: stepping, diagnostics, detection, conservation."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lasw.errors import InvalidControls
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
    to_physical,
)

TWO_PI = 2.0 * math.pi


def cosine(grid, amplitude, mode=1):
    return from_physical(amplitude * np.cos(TWO_PI * mode * grid.x), grid)


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
        done = SimulationState(1.0, constant(g, 0.0), 0.1, RunStatus.COMPLETED)
        with pytest.raises(InvalidControls):
            step_rk4(done, preset_normalized(), 0.1)

    @pytest.mark.parametrize("model", ["normalized", "kdv", "se"])
    def test_steps_every_model_integrate_steps(self, model):
        # one right-hand-side chooser and one RK4 step serve both, bit for bit
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

    def test_kdv_fallback_is_stiff(self):
        g = Grid(32)
        c = preset_survey("kdv", RegimeParameters(eps=1.0, delta=0.5))
        u0 = cosine(g, 0.1)
        res = integrate(u0, c, 0.01, IntegrationControls(sample_interval=0.01))
        assert res.stiff
        assert res.state.status is RunStatus.COMPLETED
        drift = abs(res.records[-1].mean - res.records[0].mean)
        assert drift <= 1e-12

    def test_se_direct_route(self):
        g = Grid(64)
        c = preset_survey("se", RegimeParameters(eps=0.3, delta=0.3))
        res = integrate(cosine(g, 0.02), c, 0.2)
        assert res.state.status is RunStatus.COMPLETED


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
        res = integrate(u0, c, 1e-14)  # below the 1e-13 landing tolerance
        assert res.state.status is RunStatus.COMPLETED
        assert res.records == [diagnose(0.0, u0), diagnose(1e-14, u0)]
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
# members that `tendency` accepts (conservative, mu > 0, no extension slots)
nonlocal_models = st.one_of(
    st.just(preset_normalized()),
    regimes.map(preset_large_amplitude),
    st.floats(min_value=0.0, max_value=2.0).map(
        lambda kappa: preset_survey("ch", RegimeParameters(kappa=kappa))
    ),
)
# members that only `tendency_direct` accepts
direct_models = st.one_of(
    regimes.map(lambda p: preset_survey("se", p)),
    regimes.map(lambda p: preset_survey("kdv", p)),
)
# the models `integrate` steps with a fixed dt (kdv needs its stiff bound)
stepped_models = st.one_of(nonlocal_models, regimes.map(lambda p: preset_survey("se", p)))
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
