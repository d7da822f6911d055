"""Operator-estimate and solution-map probes at desk scale."""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lasw import evolve, probes
from lasw.errors import InvalidExponents, InvalidProbeInput, ProbeUnresolved
from lasw.evolve import BlowupThresholds, IntegrationControls, RunStatus, integrate
from lasw.kinds import _LANDING_TOL
from lasw.models import preset_normalized
from lasw.probes import (
    commutator_probe,
    continuous_dependence_experiment,
    convergence_study,
    dispersion_probe,
    mollified_data_experiment,
    phase_speed,
    product_probe,
    semigroup_probe,
)
from lasw.spectral import (
    Grid,
    SpectralField,
    constant,
    dealiased_product,
    from_physical,
    l2_norm,
    lambda_pow,
    random_trig_polynomial,
    sobolev_norm,
    sup_norm,
    sup_norm_dx,
    zeros,
)
from test_evolve import rk4_reference

TWO_PI = 2.0 * math.pi


class TestSemigroupProbe:
    def test_pure_transport_is_isometry(self):
        g = Grid(256)
        a = constant(g, 1.0)
        w0 = random_trig_polynomial(g, 1, 20, 1.5)
        report = semigroup_probe(a, w0, 1.0)
        assert report.details["omega"] == 0.0
        assert report.max_value <= 1.0 + 1e-6
        assert report.passed

    def test_sine_coefficient_bound(self):
        g = Grid(512)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        w0 = random_trig_polynomial(g, 7, 3, 1.0)
        report = semigroup_probe(a, w0, 0.4)
        assert report.details["omega"] == pytest.approx(math.pi, rel=1e-10)
        assert report.passed

    def test_mixed_smooth_coefficient_bound(self):
        g = Grid(512)
        a = from_physical(0.8 * np.sin(TWO_PI * g.x) + 0.3 * np.cos(2 * TWO_PI * g.x), g)
        w0 = random_trig_polynomial(g, 2, 3, 1.0)
        report = semigroup_probe(a, w0, 0.3)
        assert report.passed
        assert report.max_value <= 1.0 + 1e-6

    def test_zero_initial_state(self):
        g = Grid(128)
        report = semigroup_probe(constant(g, 1.0), zeros(g), 0.5)
        assert report.passed
        assert report.max_value == 0.0

    def test_resolution_loss_raises(self):
        # compression by exp(2*pi*t) outruns a coarse grid quickly
        g = Grid(64)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        w0 = random_trig_polynomial(g, 2, 8, 1.0)
        with pytest.raises(ProbeUnresolved):
            semigroup_probe(a, w0, 1.0)

    def test_non_finite_evolution_raises(self):
        # a step 100x past the CFL limit overflows before the first sample
        g = Grid(64)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        w0 = random_trig_polynomial(g, 2, 8, 1.0)
        with np.errstate(all="ignore"), pytest.raises(ProbeUnresolved, match="non-finite"):
            semigroup_probe(a, w0, 4000.0, cfl=50.0)

    def test_non_finite_step_stops_the_probe(self):
        # the first sample time is 1e4; the run must not step on past the overflow
        g = Grid(64)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        w0 = random_trig_polynomial(g, 2, 8, 1.0)
        with np.errstate(all="ignore"), pytest.raises(ProbeUnresolved) as err:
            semigroup_probe(a, w0, 4e5, cfl=50.0)
        t = float(re.fullmatch(r"non-finite evolution at t=(\S+)", str(err.value)).group(1))
        assert t < 1e4

    def test_overflowing_norm_raises(self):
        # ||w0|| is 1.22e154, just in the float range; the flow grows ||w|| past
        # it, about t = 0.05, while the coefficients stay finite
        g = Grid(64)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        w0 = from_physical(1e154 * (1.0 - np.cos(TWO_PI * g.x)), g)
        with pytest.raises(ProbeUnresolved, match="non-finite evolution at t=0.0"):
            semigroup_probe(a, w0, 0.1)

    @pytest.mark.parametrize("name", ["a", "w0"])
    def test_non_finite_measures_of_the_inputs_are_invalid(self, name):
        # sup|a| and sup|a_x| read nan, or ||w0|| reads inf; max(1, nan) is 1,
        # so the step cfl*dx/max(1, sup|a|) would not see a
        g = Grid(16)
        c = np.zeros(9, dtype=complex)
        c[1], c[2], c[3] = 1e308, 1e308j, 1e308
        inputs = {"a": from_physical(np.sin(TWO_PI * g.x), g), "w0": random_trig_polynomial(g, 1, 3, 1.0)}
        inputs[name] = SpectralField(g, c) if name == "a" else 1e160 * inputs["w0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProbeInput, match=f"^{name}: "):
                semigroup_probe(inputs["a"], inputs["w0"], 0.1)

    def test_step_budget_is_the_solvers(self, monkeypatch):
        # about 11 steps; a budget copied into probes would let the probe pass
        monkeypatch.setattr(evolve, "_MAX_STEPS", 5)
        g = Grid(64)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        with pytest.raises(InvalidProbeInput, match="over the step budget 5"):
            semigroup_probe(a, random_trig_polynomial(g, 1, 3, 1.0), 0.05)

    @pytest.mark.parametrize("case", [
        *((4096, "sine", ("mode-1", seed), 0.02) for seed in range(3)),
        (512, "sine", ("full", 5), 0.02),
        (512, "sine", ("zero", None), 0.02),
        (512, "constant", ("mode-3", 3), 0.05),
        (512, "band-5", ("mode-3", 3), 0.02),
    ], ids=["mode-1-0", "mode-1-1", "mode-1-2", "full-spectrum", "zero", "constant-a", "padded"])
    def test_steps_on_a_prefix_as_at_full_width(self, monkeypatch, case):
        n, a_kind, (w0_kind, seed), t_end = case
        g = Grid(n)
        a = {
            "sine": lambda: from_physical(np.sin(TWO_PI * g.x), g),
            "constant": lambda: constant(g, 1.0),
            "band-5": lambda: random_trig_polynomial(g, 4, 5, 1.0),
        }[a_kind]()
        w0 = {
            "mode-1": lambda: random_trig_polynomial(g, seed, 1, 1.0),
            "mode-3": lambda: random_trig_polynomial(g, seed, 3, 1.0),
            "full": lambda: SpectralField(g, full_band(n // 2, seed) * (1.0 + np.arange(n // 2 + 1)) ** -2.0),
            "zero": lambda: zeros(g),
        }[w0_kind]()
        assert probes._band(a.coef) == {"sine": 1, "constant": 0, "band-5": 5}[a_kind]
        transport_step, widths = probes._transport_step, []

        def stepped(h, rhs, dt):  # the full step of each prefix is 0 past it
            whole = np.zeros(n // 2 + 1, dtype=np.complex128)
            whole[: len(h)] = h
            assert not np.any(transport_step(whole, rhs, dt)[len(h):])
            widths.append(len(h))
            return transport_step(h, rhs, dt)

        monkeypatch.setattr(probes, "_transport_step", stepped)
        before = w0.coef.tobytes()
        report = semigroup_probe(a, w0, t_end, cfl=0.5)
        assert w0.coef.tobytes() == before
        assert widths == sorted(widths)
        # only the banded form from a band-limited w0 steps on a prefix
        assert (widths[0] < n // 2 + 1) == (a_kind != "band-5" and w0_kind != "full")
        monkeypatch.undo()
        ratios = full_width_ratios(a, w0, t_end, cfl=0.5)
        assert report.values == ratios
        assert report.passed == (max(ratios) <= 1.0 + 1e-6)
        assert report.passed

    def test_deterministic(self):
        g = Grid(128)
        a = from_physical(np.sin(TWO_PI * g.x), g)
        w0 = random_trig_polynomial(g, 3, 2, 1.0)
        r1 = semigroup_probe(a, w0, 0.2)
        r2 = semigroup_probe(a, w0, 0.2)
        other = Grid(64)  # a probe at another n between two calls changes neither
        semigroup_probe(
            from_physical(np.sin(TWO_PI * other.x), other), random_trig_polynomial(other, 3, 2, 1.0), 0.2
        )
        r3 = semigroup_probe(a, w0, 0.2)
        assert r1 == r2 == r3
        assert repr(r1) == repr(r2) == repr(r3)


def full_width_ratios(a, w0, t_end, cfl):
    """semigroup_probe's ratios from a loop that steps every mode of the half
    spectrum, the state past the support included."""
    rhs, _ = probes._transport_rhs(a.coef, a.grid.n_points)
    dt = cfl * a.grid.spacing / max(1.0, sup_norm(a))
    omega, w0_norm = 0.5 * sup_norm_dx(a), l2_norm(w0)
    h, t, ratios = w0.coef, 0.0, [1.0 if w0_norm > 0.0 else 0.0]
    for j in range(probes._SEMIGROUP_SAMPLES):
        ts = t_end * (j + 1) / probes._SEMIGROUP_SAMPLES
        while t < ts - _LANDING_TOL:
            step = min(dt, ts - t)
            h = probes._transport_step(h, rhs, step)
            t = ts if ts - (t + step) < _LANDING_TOL else t + step
        ratios.append(l2_norm(h) / (math.exp(omega * t) * w0_norm) if w0_norm > 0.0 else 0.0)
    return tuple(ratios)


def full_band(half, seed):
    """Random half spectrum of modes 0..half with every slot set, half real."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(half + 1) + 1j * rng.standard_normal(half + 1)
    h[0] = h[0].real
    h[half] = h[half].real
    return h


def rel_diff(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


def cut_states(h, reach):
    """(w, h zero past w) for widths w whose prefix of w + reach modes still fits h."""
    fits = len(h) - reach
    for w in sorted({1, 2, 3, fits // 4, fits // 2, fits - 1, fits} & set(range(1, fits + 1))):
        cut = h.copy()
        cut[w:] = 0.0
        yield w, cut


def assert_prefix_is_exact(call, cut, wide):
    """call on the first `wide` modes of cut gives the full call's bits there, and
    the full call is exactly 0 past them; calls at both widths share call's state."""
    part = call(cut[:wide])
    whole = call(cut)
    assert call(cut[:wide]).tobytes() == part.tobytes() == whole[:wide].tobytes(), wide
    assert not np.any(whole[wide:]), wide


class TestTransportRightHandSides:
    """The banded and padded forms of P_n(a * h_x) are each other's oracle."""

    @pytest.mark.parametrize("n", [16, 64, 512, 4096])
    def test_banded_matches_padded(self, n):
        # a_0 at or under the round-off floor is left out, so the band is a's
        # without it, bit for bit; over the floor it is kept.  Leaving out a
        # tap at the floor moves P_n(a * h_x) by up to 64 eps / sqrt(2) of it
        # at band 1 (1.02e-14 at n = 4096), so that case is held to the floor
        for band in range(probes._BAND_MAX + 1):
            a = np.zeros(n // 2 + 1, dtype=np.complex128)
            a[: band + 1] = full_band(band + 1, [n, band])[: band + 1]
            h = full_band(n // 2, [n, band, 1])
            rhs = probes._banded_transport(a[: band + 1], n)
            banded = rhs(h)
            assert rel_diff(banded, probes._padded_transport(a, n)(h)) <= 1e-14, band
            # a state zero past w: the prefix of w + K modes holds every nonzero output
            for w, cut in cut_states(h, band):
                assert_prefix_is_exact(rhs, cut, w + band)
            if band == 0:
                continue
            a[0] = 0.0
            without = probes._banded_transport(a[: band + 1], n)(h)
            floor = probes._BAND_FLOOR * np.max(np.abs(a))
            for scale, bound in ((0.5, 1e-14), (1.0, probes._BAND_FLOOR), (2.0, 1e-14)):
                a[0] = scale * floor
                banded = probes._banded_transport(a[: band + 1], n)(h)
                assert (banded.tobytes() == without.tobytes()) == (scale <= 1.0), (band, scale)
                assert rel_diff(banded, probes._padded_transport(a, n)(h)) <= bound, (band, scale)

    @pytest.mark.parametrize("n", [16, 64, 512, 4096])
    def test_step_is_classical_rk4(self, n):
        # Horner's form of RK4's polynomial rounds apart from the stage sum:
        # at most 1.2e-16 relative over these draws, rounded up
        for band in range(probes._BAND_MAX + 1):
            a = np.zeros(n // 2 + 1, dtype=np.complex128)
            a[: band + 1] = full_band(band + 1, [n, band])[: band + 1]
            h = full_band(n // 2, [n, band, 1])
            dt = 0.3 / n / max(1.0, 2.0 * np.sum(np.abs(a)))  # under the probe's cfl step
            before = h.tobytes()
            banded = probes._banded_transport(a[: band + 1], n)
            for rhs in (banded, probes._padded_transport(a, n)):
                calls = []
                step = probes._transport_step(h, lambda v: calls.append(1) or rhs(v), dt)
                assert len(calls) == 4
                assert h.tobytes() == before  # the stages run in place, never in h
                assert rel_diff(step, rk4_reference(h, rhs, dt)) <= 2e-16, band
            # four banded calls add at most 4K modes to the support
            for w, cut in cut_states(h, 4 * band):
                assert_prefix_is_exact(lambda v: probes._transport_step(v, banded, dt), cut, w + 4 * band)

    @pytest.mark.parametrize("n", [16, 64, 512, 4096])
    def test_sampled_sine_sits_on_the_floor(self, n):
        # sampling leaves round-off in every mode; the floor still finds band 1
        a = from_physical(np.sin(TWO_PI * Grid(n).x), Grid(n)).coef
        assert np.any(a[2:] != 0.0)
        assert probes._band(a) == 1
        h = full_band(n // 2, n)
        rhs, reach = probes._transport_rhs(a, n)
        assert reach == 1
        banded = rhs(h)
        assert rel_diff(banded, probes._padded_transport(a, n)(h)) <= 1e-14

    @pytest.mark.parametrize("a_of, per_stage", [
        (lambda g: from_physical(np.sin(TWO_PI * g.x), g), 0),
        (lambda g: from_physical(
            0.8 * np.sin(TWO_PI * g.x) + 0.3 * np.cos(2 * TWO_PI * g.x), g), 0),
        (lambda g: random_trig_polynomial(g, 4, 20, 1.0), 2),
    ], ids=["sine", "mixed", "twenty-modes"])
    def test_transforms_inside_the_step_loop(self, monkeypatch, a_of, per_stage):
        inside, ffts, steps = [False], [], []
        transport_step = probes._transport_step

        def stepped(*args):
            steps.append(1)
            inside[0] = True
            try:
                return transport_step(*args)
            finally:
                inside[0] = False

        def counted(fn):
            def wrapped(*args, **kwargs):
                if inside[0]:
                    ffts.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        monkeypatch.setattr(probes, "_transport_step", stepped)
        g = Grid(128)
        semigroup_probe(a_of(g), random_trig_polynomial(g, 1, 3, 1.0), 0.02)
        assert steps
        assert len(ffts) == 4 * per_stage * len(steps)

    def test_forced_padded_path_gives_the_same_ratios(self, monkeypatch):
        grid = Grid(4096)
        a = from_physical(np.sin(TWO_PI * grid.x), grid)
        draws = [random_trig_polynomial(grid, seed, 1, 1.0) for seed in range(2)]
        banded = [semigroup_probe(a, w0, 0.05, cfl=0.5) for w0 in draws]
        monkeypatch.setattr(probes, "_BAND_MAX", -1)
        padded = [semigroup_probe(a, w0, 0.05, cfl=0.5) for w0 in draws]
        for rb, rp in zip(banded, padded):
            assert rb.details == rp.details
            np.testing.assert_allclose(rb.values, rp.values, rtol=1e-13, atol=0.0)


class TestEstimateProbes:
    def test_commutator_stability(self):
        report = commutator_probe(1.0, 2.0, 25, seed=0)
        assert report.passed
        assert 0.0 < report.max_value < 1.0
        assert report.details["refinement_growth"] < 2.0

    def test_commutator_constant_g_machine_zero(self):
        g = Grid(128)
        cg = constant(g, 1.3)
        h = random_trig_polynomial(g, 5, 20, 1.0)
        comm = lambda_pow(dealiased_product(cg, h), 1.5, 1.0) - dealiased_product(
            cg, lambda_pow(h, 1.5, 1.0)
        )
        denom = sobolev_norm(cg, 3.0) * sobolev_norm(h, 0.5)
        assert l2_norm(comm) / denom < 1e-12

    def test_commutator_identity_order_exact_zero(self):
        g = Grid(64)
        f = random_trig_polynomial(g, 2, 10, 1.0)
        h = random_trig_polynomial(g, 3, 10, 1.0)
        comm = lambda_pow(dealiased_product(f, h), 0.0, 1.0) - dealiased_product(
            f, lambda_pow(h, 0.0, 1.0)
        )
        assert np.all(comm.coef == 0.0)

    def test_commutator_exponent_ranges(self):
        with pytest.raises(InvalidExponents):
            commutator_probe(1.0, 0.5, 5, 0)
        with pytest.raises(InvalidExponents):
            commutator_probe(3.5, 2.0, 5, 0)
        with pytest.raises(InvalidExponents):
            commutator_probe(-0.5, 2.0, 5, 0)

    def test_product_unit_constant(self):
        g = Grid(64)
        one = constant(g, 1.0)
        h = random_trig_polynomial(g, 4, 10, 1.5)
        ratio = sobolev_norm(dealiased_product(one, h), 1.0) / (
            sobolev_norm(one, 1.0) * sobolev_norm(h, 1.0)
        )
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_product_zero_factor(self):
        g = Grid(64)
        f = random_trig_polynomial(g, 4, 10, 1.5)
        p = dealiased_product(f, zeros(g))
        assert sobolev_norm(p, 1.0) == 0.0

    def test_product_stability(self):
        report = product_probe(1.0, 1.0, 25, seed=1)
        assert report.passed
        assert report.details["refinement_growth"] < 2.0

    def test_product_exponent_ranges(self):
        with pytest.raises(InvalidExponents):
            product_probe(0.5, 0.0, 5, 0)
        with pytest.raises(InvalidExponents):
            product_probe(1.0, 1.5, 5, 0)

    @pytest.mark.parametrize("probe, r_exp", [
        (commutator_probe, 100.0), (product_probe, 100.0),
        (commutator_probe, 1e300), (product_probe, 1e300),
    ])
    def test_overflowing_or_vanishing_norms_are_unresolved(self, probe, r_exp):
        # ||g||_{r+1} overflows at r = 100, and at r = 1e300 the draws
        # vanish; either read as ratios of 0, which passed vacuously
        t_exp = 1.0
        args = (t_exp, r_exp) if probe is commutator_probe else (r_exp, t_exp)
        with pytest.raises(ProbeUnresolved, match="a sampled ratio is"):
            probe(*args, 5, 1, n_points=32)

    def test_vanishing_commutator_passes_at_t_zero(self):
        # Lam^0 is the identity, so every ratio is a true 0
        report = commutator_probe(0.0, 2.0, 5, 1, n_points=32)
        assert report.passed and report.max_value == 0.0 and report.details["max_fine"] == 0.0

    def test_deterministic_reports(self):
        assert commutator_probe(1.0, 2.0, 5, seed=3) == commutator_probe(1.0, 2.0, 5, seed=3)


class TestContinuousDependence:
    def test_shrinking_response(self):
        g = Grid(64)
        u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
        report = continuous_dependence_experiment(
            u0, [1e-2, 1e-3], 0.5, 2.0, preset_normalized(), seed=11
        )
        assert report.passed
        d = report.values
        assert d[1] < d[0]
        assert d[1] == pytest.approx(d[0] / 10.0, rel=0.2)  # near-linear regime

    def test_zero_perturbation_is_exact(self):
        g = Grid(64)
        u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
        report = continuous_dependence_experiment(
            u0, [0.0], 0.3, 2.0, preset_normalized(), seed=1
        )
        assert report.values[0] == 0.0

    def test_self_direction(self):
        g = Grid(64)
        u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
        etas = [1e-2, 1e-3]
        # perturb along u0 itself by adding scaled copies
        from lasw.probes import _solve_sampled
        dt = 2e-3
        ts = [0.1 * (j + 1) for j in range(5)]
        [base] = _solve_sampled([u0], preset_normalized(), 0.5, dt, ts)
        dists = []
        for eta in etas:
            [pert] = _solve_sampled([(1.0 + eta) * u0], preset_normalized(), 0.5, dt, ts)
            dists.append(max(sobolev_norm(b - p, 2.0) for b, p in zip(base, pert)))
        assert dists[1] < dists[0]

    def test_increasing_sizes_rejected(self):
        g = Grid(64)
        u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
        with pytest.raises(ValueError):
            continuous_dependence_experiment(
                u0, [1e-4, 1e-2], 0.3, 2.0, preset_normalized(), seed=0
            )


@pytest.mark.parametrize("t_end", [1e-13, 5e-14, 1e-300])
@pytest.mark.parametrize("probe", ["continuous_dependence", "mollified_data"])
def test_t_end_within_landing_tolerance_is_invalid_probe_input(probe, t_end):
    # as in semigroup_probe, and before any check that sample times merge
    g = Grid(64)
    u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
    run = {
        "continuous_dependence": lambda: continuous_dependence_experiment(
            u0, [1e-2, 1e-3], t_end, 2.0, preset_normalized(), seed=1),
        "mollified_data": lambda: mollified_data_experiment(u0, [4, 8], t_end, preset_normalized()),
    }[probe]
    with pytest.raises(InvalidProbeInput, match="landing tolerance"):
        run()


@pytest.mark.parametrize("probe, kwargs", [
    ("continuous_dependence", {"cfl": -0.4}),
    ("continuous_dependence", {"cfl": 0.0}),
    ("continuous_dependence", {"cfl": math.nan}),
    ("mollified_data", {"cfl": -0.4}),
    ("mollified_data", {"cfl": math.nan}),
    ("semigroup", {"cfl": -0.3}),
    ("semigroup", {"cfl": 0.0}),
    ("semigroup", {"cfl": math.nan}),
    ("semigroup", {"t_end": math.nan}),
    ("semigroup", {"tail_rel_max": math.nan}),
    ("dispersion", {"dt": -1.0}),
    ("mollified_data", {"n_sequence": [2.5, 4]}),
    ("convergence", {"dts": [-1.0, 0.005, 0.0025]}),
])
def test_arguments_that_would_hang_or_pass_vacuously_are_invalid(probe, kwargs, no_hang):
    # a negative cfl halved toward -0.0 never fits under a negative step
    # bound, cfl = 0 divides by zero, and a nan t_end takes no step; a nan
    # tail_rel_max switched the resolution check off, dispersion ran a
    # negative dt as None, n_sequence truncated 2.5 to 2, and a negative dt
    # took one step to t_end
    g = Grid(32)
    u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
    run = {
        "continuous_dependence": lambda t_end=0.1, **kw: continuous_dependence_experiment(
            u0, [1e-2, 1e-3], t_end, 2.0, preset_normalized(), seed=1, **kw),
        "mollified_data": lambda t_end=0.1, n_sequence=(4, 8), **kw: mollified_data_experiment(
            u0, list(n_sequence), t_end, preset_normalized(), **kw),
        "semigroup": lambda t_end=0.1, **kw: semigroup_probe(constant(g, 1.0), u0, t_end, **kw),
        "dispersion": lambda **kw: dispersion_probe(1, 1.0, 0.1, 1e-8, window=0.01, **kw),
        "convergence": lambda **kw: convergence_study(u0, preset_normalized(), 0.01, [16, 32, 64], **kw),
    }[probe]
    with pytest.raises(InvalidProbeInput):
        run(**kwargs)


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.sampled_from([16, 32]), mode=st.integers(1, 2),
       amplitudes=st.lists(st.floats(0.02, 0.6), min_size=2, max_size=4))
def test_a_stacked_solve_is_the_serial_report(n, mode, amplitudes):
    # sup|u_x| of u0 is 2 pi mode a, so the draws fall on both sides of the
    # threshold, at t = 0 or later; the stack returns each field's own
    # snapshots, or raises naming the first field whose own run stops
    g = Grid(n)
    fields = [from_physical(a * np.cos(TWO_PI * mode * g.x), g) for a in amplitudes]
    thresholds = BlowupThresholds(sup_ux_max=2.0)
    c, t_end, dt, ts = preset_normalized(), 0.05, 1e-3, [0.025, 0.05]
    controls = IntegrationControls(dt=dt, sample_interval=t_end, snapshot_times=tuple(ts),
                                   thresholds=thresholds)
    runs = [integrate(u, c, t_end, controls) for u in fields]
    stop = next((r.state for r in runs if r.state.status is not RunStatus.COMPLETED), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probes, "IntegrationControls",
                   functools.partial(IntegrationControls, thresholds=thresholds))
        if stop is not None:
            with pytest.raises(ProbeUnresolved) as err:
                probes._solve_sampled(fields, c, t_end, dt, ts)
            assert str(err.value) == f"run ended with status {stop.status.value} at t={stop.t:.6g}"
            return
        got = probes._solve_sampled(fields, c, t_end, dt, ts)
    for states, run in zip(got, runs):
        assert [u.coef.tobytes() for u in states] == [u.coef.tobytes() for _, u in run.snapshots]


def test_merged_sample_times_are_unresolved():
    # 0.1 and 0.1 + 1e-16 round to one event time, so one state would come back for two
    u0 = from_physical(0.05 * np.cos(TWO_PI * Grid(32).x), Grid(32))
    with pytest.raises(ProbeUnresolved, match="asked for 2 sampled states, got 1"):
        probes._solve_sampled([u0], preset_normalized(), 0.2, 0.01, [0.1, 0.1 + 1e-16])


class TestDispersion:
    def test_low_delta_limit(self):
        assert phase_speed(TWO_PI, 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_mode_one(self):
        report = dispersion_probe(1, 1.0, 0.1, 1e-8)
        assert report.passed
        assert report.details["rel_error"] <= 1e-6

    def test_modes_disperse(self):
        r1 = dispersion_probe(1, 1.0, 0.1, 1e-8)
        r4 = dispersion_probe(4, 1.0, 0.1, 1e-8)
        assert r4.details["c_measured"] < r1.details["c_measured"]

    def test_linear_regime_guard(self):
        with pytest.raises(ValueError):
            dispersion_probe(1, 1.0, 0.1, 1e-3)
        with pytest.raises(ValueError):
            dispersion_probe(1, 1.0, 0.1, -1e-3)

    def test_unresolved_mode(self):
        with pytest.raises(ProbeUnresolved):
            dispersion_probe(40, 1.0, 0.1, 1e-8, n_points=64)

    def test_error_decreases_under_step_refinement(self):
        # ETDRK4 is exact on the linear part, so the phase speed is right to
        # round-off at every step, not only in the dt^4 limit
        for dt in (0.01, 0.005, 0.0025):
            assert dispersion_probe(1, 1.0, 0.1, 1e-8, dt=dt).details["rel_error"] <= 1e-14

    @pytest.mark.parametrize("mode", [1, 4, 10])
    def test_default_step_is_one_per_record(self, mode):
        # ETDRK4 is exact on the linear part, so one step per record is enough
        report = dispersion_probe(mode, 1.0, 0.1, 1e-8, n_points=64)
        assert report.details["dt"] == 0.5 / 50
        assert report.details["rel_error"] <= 1e-14


class TestMollifiedData:
    def test_smooth_data_tiny_differences(self):
        g = Grid(128)
        smooth = 0.05 * random_trig_polynomial(g, 3, 5, 3.0)
        report = mollified_data_experiment(smooth, [64, 128], 0.3, preset_normalized())
        assert report.passed
        assert all(v < 1e-3 for v in report.values)

    def test_rough_data_cauchy_decrease(self):
        g = Grid(128)
        rough = 0.3 * random_trig_polynomial(g, 9, 40, 1.6)
        report = mollified_data_experiment(
            rough, [2, 4, 8, 16, 32], 0.5, preset_normalized()
        )
        assert report.passed
        assert all(b < a for a, b in zip(report.values, report.values[1:]))

    def test_single_n_vacuous(self):
        g = Grid(64)
        rough = 0.1 * random_trig_polynomial(g, 9, 20, 1.6)
        report = mollified_data_experiment(rough, [4], 0.2, preset_normalized())
        assert report.passed
        assert report.values == ()


class TestConvergenceStudy:
    def test_constant_data_trivial(self):
        g = Grid(32)
        report = convergence_study(
            constant(g, 0.5), preset_normalized(), 0.5,
            [32, 64, 128], [0.005, 0.0025, 0.00125],
        )
        assert report.passed
        assert report.details["temporal_order"] is None

    def test_smooth_data_orders(self):
        g = Grid(16)
        u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
        report = convergence_study(
            u0, preset_normalized(), 0.5,
            [16, 32, 64, 128], [0.005, 0.0025, 0.00125],
        )
        assert report.passed
        assert 3.8 <= report.details["temporal_order"] <= 4.2
        spatial = report.details["spatial_errors"]
        assert len(spatial) == 3  # three grid doublings monitored
        assert spatial[0] > 1e-12 > spatial[-1]  # decay down to round-off

    def test_finest_run_is_shared(self, monkeypatch):
        # the last temporal run is the finest spatial run: 3 + 3 - 1 solves
        calls = []
        solve = probes._solve_sampled
        monkeypatch.setattr(probes, "_solve_sampled", lambda *a: calls.append(a) or solve(*a))
        g = Grid(16)
        u0 = from_physical(0.05 * np.cos(TWO_PI * g.x), g)
        report = convergence_study(
            u0, preset_normalized(), 0.05, [16, 32, 64], [0.01, 0.005, 0.0025]
        )
        assert report.passed
        assert len(calls) == 5

    def test_requires_three_each(self):
        g = Grid(32)
        u0 = constant(g, 0.1)
        with pytest.raises(ValueError):
            convergence_study(u0, preset_normalized(), 0.5, [32, 64], [0.01, 0.005, 0.0025])
