"""Model family: presets, validation, the two tendency forms, flux."""

import math

import numpy as np
import pytest

from lasw.errors import GammaRelationViolated, InvalidMu, InvalidRegime
from lasw.evolve import IntegrationControls, integrate
from lasw.models import (
    ModelCoefficients,
    RegimeParameters,
    flux,
    preset_large_amplitude,
    preset_normalized,
    preset_survey,
    semilinear_term,
    tendency,
    tendency_direct,
    transport_field,
    validate,
)
from lasw.spectral import (
    Grid,
    SpectralField,
    constant,
    dealiased_product,
    derivative,
    from_physical,
    l2_norm,
    lambda_pow,
    mean,
    random_trig_polynomial,
    to_physical,
)

TWO_PI = 2.0 * math.pi


class TestValidation:
    def test_large_amplitude_unit_parameters(self):
        c = preset_large_amplitude(RegimeParameters(eps=1.0, delta=1.0))
        assert c.mu == pytest.approx(7.0 / 18.0, rel=1e-15)
        assert c.alpha1 == -1.0
        assert c.alpha2 == pytest.approx(2.0 / 9.0, rel=1e-15)
        assert c.alpha3 == -1.5
        assert c.beta1 == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert c.beta2 == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert c.gamma2 == pytest.approx(-45.0 / 96.0, rel=1e-15)
        assert c.gamma3 == pytest.approx(-154.0 / 96.0, rel=1e-15)
        assert c.gamma1 == pytest.approx(-398.0 / 96.0, rel=1e-14)
        assert c.conservative
        assert validate(c) is c

    def test_gamma_relation_exact_across_regimes(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            eps, delta = rng.uniform(0.01, 2.0, size=2)
            c = preset_large_amplitude(RegimeParameters(eps=eps, delta=delta))
            assert c.gamma1 == 2.0 * (c.gamma2 + c.gamma3)  # bitwise

    def test_gamma_violation_rejected(self):
        c = ModelCoefficients(mu=1.0, gamma1=1.0, gamma2=0.0, gamma3=0.0)
        with pytest.raises(GammaRelationViolated):
            validate(c)

    def test_mu_rejected(self):
        with pytest.raises(InvalidMu):
            validate(ModelCoefficients(mu=0.0))
        with pytest.raises(InvalidMu):
            validate(ModelCoefficients(mu=-0.3))

    def test_regime_parameters(self):
        with pytest.raises(InvalidRegime):
            RegimeParameters(eps=0.0)
        with pytest.raises(InvalidRegime):
            RegimeParameters(delta=-1.0)
        with pytest.raises(InvalidRegime):
            RegimeParameters(z0=1.5)


class TestSurveyPresets:
    def test_ch(self):
        c = preset_survey("ch", RegimeParameters(kappa=1.0))
        assert (c.mu, c.alpha1, c.alpha3, c.beta1, c.beta2) == (1.0, -1.0, -3.0, 2.0, 1.0)
        assert c.conservative  # gammas vanish

    def test_dp(self):
        c = preset_survey("dp", RegimeParameters(kappa=1.0))
        assert (c.mu, c.alpha1, c.alpha3, c.beta1, c.beta2) == (1.0, -1.0, -4.0, 3.0, 1.0)

    def test_moderate_zero_parameters(self):
        # p = 0 with z0^2 = 1/3 makes lambda = 0
        params = RegimeParameters(eps=1.0, delta=1.0, p=0.0, z0=math.sqrt(1.0 / 3.0))
        c = preset_survey("moderate", params)
        assert c.mu == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert c.alpha2 == pytest.approx(0.0, abs=1e-15)
        assert c.beta2 == pytest.approx(-1.0 / 6.0, rel=1e-12)
        assert c.beta1 == pytest.approx(-23.0 / 24.0, rel=1e-12)

    def test_moderate_requires_negative_beta(self):
        with pytest.raises(InvalidMu):
            preset_survey("moderate", RegimeParameters(p=1.0, z0=1.0))

    def test_bbm(self):
        c = preset_survey("bbm", RegimeParameters(eps=1.0, delta=1.0, beta=-0.25))
        assert c.mu == pytest.approx(0.25)
        assert c.alpha2 == pytest.approx(-(1.0 / 6.0 - 0.25))
        with pytest.raises(InvalidMu):
            preset_survey("bbm", RegimeParameters(beta=0.1))
        with pytest.raises(InvalidRegime):
            preset_survey("bbm", RegimeParameters())

    def test_kdv_is_degenerate(self):
        c = preset_survey("kdv", RegimeParameters(eps=1.0, delta=1.0))
        assert c.mu == 0.0
        with pytest.raises(InvalidMu):
            validate(c)

    def test_se_has_extension_slots(self):
        c = preset_survey("se", RegimeParameters(eps=0.5, delta=0.4))
        assert c.alpha4 == pytest.approx(3.0 * 0.25 / 8.0)
        assert c.alpha5 == pytest.approx(-3.0 * 0.125 / 16.0)
        assert c.has_extended_terms and c.conservative

    def test_unknown_model(self):
        with pytest.raises(InvalidRegime):
            preset_survey("swe", RegimeParameters())


class TestRightHandSides:
    def test_transport_on_zero(self):
        g = Grid(32)
        c = preset_large_amplitude(RegimeParameters(eps=0.5, delta=0.3))
        a = transport_field(from_physical(np.zeros(32), g), c)
        assert to_physical(a) == pytest.approx(np.full(32, c.alpha2 / c.mu), rel=1e-14)

    def test_normalized_transport_constant(self):
        g = Grid(32)
        a = transport_field(constant(g, 0.7), preset_normalized())
        assert to_physical(a) == pytest.approx(np.full(32, 1.0 + 0.7 + 0.49), rel=1e-14)

    def test_normalized_transport_pointwise(self):
        g = Grid(64)
        u = from_physical(np.cos(TWO_PI * g.x), g)
        a = transport_field(u, preset_normalized())
        expected = 1.0 + np.cos(TWO_PI * g.x) + np.cos(TWO_PI * g.x) ** 2
        assert np.max(np.abs(to_physical(a) - expected)) < 1e-12

    def test_semilinear_zero_mean_and_constants(self):
        g = Grid(64)
        c = preset_normalized()
        assert l2_norm(semilinear_term(constant(g, 1.3), c)) < 1e-14
        u = random_trig_polynomial(g, 17, 15, 1.0)
        f = semilinear_term(u, c)
        assert f.coef[0] == 0.0

    def test_constants_are_fixed_points(self):
        g = Grid(32)
        presets = [
            preset_normalized(),
            preset_large_amplitude(RegimeParameters(eps=0.4, delta=0.3)),
            preset_survey("ch", RegimeParameters(kappa=1.0)),
        ]
        for c in presets:
            for value in (0.0, 0.7, -1.2):
                assert l2_norm(tendency(constant(g, value), c)) < 1e-13

    def test_reformulation_equivalence(self):
        g = Grid(128)
        for seed, (eps, delta) in enumerate([(1.0, 1.0), (0.3, 0.1), (0.05, 0.2)]):
            c = preset_large_amplitude(RegimeParameters(eps=eps, delta=delta))
            for k in range(3):
                u = random_trig_polynomial(g, 10 * seed + k, 20, 2.0)
                t_nonlocal = tendency(u, c)
                t_local = tendency_direct(u, c)
                assert l2_norm(t_nonlocal - t_local) <= 1e-10 * (1.0 + l2_norm(t_local))

    def test_tendency_zero_mean(self):
        g = Grid(128)
        u = random_trig_polynomial(g, 3, 20, 1.5)
        assert abs(mean(tendency(u, preset_normalized()))) <= 1e-13

    def test_nonconservative_mean_drift(self):
        g = Grid(64)
        c = ModelCoefficients(mu=1.0, alpha2=1.0, gamma1=1.0)
        u = random_trig_polynomial(g, 5, 10, 1.0)
        out = tendency_direct(u, c)
        assert abs(mean(out)) > 1e-8  # cubic terms are not a derivative here

    def test_tendency_rejects_extension_slots(self):
        g = Grid(32)
        c = preset_survey("se", RegimeParameters(eps=0.5, delta=0.4))
        u = random_trig_polynomial(g, 1, 5, 1.0)
        with pytest.raises(InvalidRegime):
            tendency(u, c)
        out = tendency_direct(u, c)  # the supported route
        assert np.all(np.isfinite(out.coef))

    def test_se_constant_fixed_point(self):
        g = Grid(32)
        c = preset_survey("se", RegimeParameters(eps=0.5, delta=0.4))
        assert l2_norm(tendency_direct(constant(g, 0.4), c)) < 1e-13

    def test_kdv_direct_form(self):
        g = Grid(32)
        c = preset_survey("kdv", RegimeParameters(eps=1.0, delta=1.0))
        u = from_physical(np.sin(TWO_PI * g.x), g)
        out = tendency_direct(u, c)
        # mu = 0: no smoothing; check against the analytic linear+nonlinear terms
        expected = (
            -np.cos(TWO_PI * g.x) * TWO_PI
            + (1.0 / 6.0) * (TWO_PI) ** 3 * np.cos(TWO_PI * g.x)
            - (2.0 / 3.0) * np.sin(TWO_PI * g.x) * TWO_PI * np.cos(TWO_PI * g.x)
        )
        assert np.max(np.abs(to_physical(out) - expected)) < 1e-10


class TestFlux:
    def test_zero_field(self):
        g = Grid(32)
        assert l2_norm(flux(from_physical(np.zeros(32), g), preset_normalized())) < 1e-15

    def test_normalized_p_part(self):
        # flux + smoothed bracket == u + u^2/2 + u^3/3 for a(u) = 1+u+u^2
        g = Grid(64)
        c = preset_normalized()
        u = random_trig_polynomial(g, 21, 8, 1.0)
        ux = derivative(u, 1)
        # the bracket of preset_normalized: u + u^2 + u^3/3 - u_x^2 - u*u_x^2
        bracket = (
            u
            + dealiased_product(u, u)
            + dealiased_product(u, u, u) / 3.0
            - dealiased_product(ux, ux)
            - dealiased_product(u, ux, ux)
        )
        p_part = flux(u, c) + lambda_pow(bracket, -2.0, 1.0)
        uu = to_physical(u)
        expected = uu + uu ** 2 / 2.0 + uu ** 3 / 3.0
        assert np.max(np.abs(to_physical(p_part) - expected)) < 1e-12

    def test_flux_identity(self):
        g = Grid(128)
        for c in (
            preset_normalized(),
            preset_large_amplitude(RegimeParameters(eps=0.8, delta=0.6)),
        ):
            u = random_trig_polynomial(g, 8, 20, 2.0)
            t = tendency(u, c)
            residual = t + derivative(flux(u, c), 1)
            assert l2_norm(residual) <= 1e-10 * l2_norm(t)


def direct_reference(u, c):
    """The local form term by term, one dealiased product per coefficient."""
    ux, uxx, uxxx = (derivative(u, k) for k in (1, 2, 3))
    rhs = c.alpha1 * ux + c.alpha2 * uxxx
    for coeff, factors in (
        (c.alpha3, (u, ux)),
        (c.beta1, (ux, uxx)),
        (c.beta2, (u, uxxx)),
        (c.gamma1, (u, ux, uxx)),
        (c.gamma2, (u, u, uxxx)),
        (c.gamma3, (ux, ux, ux)),
        (c.alpha4, (u, u, ux)),
        (c.alpha5, (u, u, u, ux)),
    ):
        if coeff != 0.0:
            rhs = rhs + coeff * dealiased_product(*factors)
    return rhs if c.mu == 0.0 else lambda_pow(rhs, -2.0, c.mu)


def full_band(grid, seed):
    """Random real field with every mode set, the Nyquist mode included."""
    rng = np.random.default_rng(seed)
    half = grid.n_points // 2
    coef = rng.standard_normal(half + 1) + 1j * rng.standard_normal(half + 1)
    coef *= 0.3 * (1.0 + np.arange(half + 1)) ** -2.0
    coef[0], coef[half] = coef[0].real, coef[half].real
    return SpectralField(grid, coef)


LOCAL_FORM_MODELS = {
    "kdv": preset_survey("kdv", RegimeParameters(eps=0.5, delta=0.5)),
    "bbm": preset_survey("bbm", RegimeParameters(eps=0.5, delta=0.5, beta=-0.25)),
    "ch": preset_survey("ch", RegimeParameters(kappa=1.0)),
    "dp": preset_survey("dp", RegimeParameters(kappa=1.0)),
    "se": preset_survey("se", RegimeParameters(eps=0.5, delta=0.4)),
    "moderate": preset_survey("moderate", RegimeParameters(eps=0.5, delta=0.5, p=0.1, z0=0.5)),
    "large_amplitude": preset_large_amplitude(RegimeParameters(eps=0.3, delta=0.2)),
}


class TestPaddedEvaluation:
    @pytest.mark.parametrize("name", sorted(LOCAL_FORM_MODELS))
    def test_direct_form_matches_per_term_reference(self, name):
        # se carries the quartic alpha5 term, which needs the wider padding
        c = LOCAL_FORM_MODELS[name]
        for n in (32, 64):
            for seed in range(3):
                u = full_band(Grid(n), 100 * n + seed)
                ref = direct_reference(u, c)
                assert l2_norm(tendency_direct(u, c) - ref) <= 1e-12 * l2_norm(ref)

    def test_transform_counts(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        u = random_trig_polynomial(Grid(128), 1, 10, 2.0)
        large = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        kdv = LOCAL_FORM_MODELS["kdv"]
        bbm = LOCAL_FORM_MODELS["bbm"]

        def count(fn, c):
            calls.clear()
            fn(u, c)
            return len(calls)

        assert count(tendency, large) == 4
        # constant a(u): only u^2 is padded and truncated
        assert count(tendency, bbm) == 2
        assert count(tendency_direct, large) <= 5
        assert count(tendency_direct, kdv) <= 3

    def test_field_count_per_integrate_step(self, monkeypatch):
        # per fixed-dt step: 4 stage inputs, 4 tendency outputs and the
        # accepted state; the stages are arrays, and detect_blowup transforms
        # u_x without building a derivative field
        built = []
        post_init = SpectralField.__post_init__

        def counting(field):
            built.append(field)
            post_init(field)

        monkeypatch.setattr(SpectralField, "__post_init__", counting)
        u = random_trig_polynomial(Grid(128), 1, 10, 2.0)
        large = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        dt = 2.0 ** -10

        def count(steps):
            built.clear()
            integrate(u, large, steps * dt, IntegrationControls(dt=dt, sample_interval=steps * dt))
            return len(built)

        assert count(3) - count(2) == 9

    @pytest.mark.parametrize(
        "name", ["bbm", "ch", "dp", "large_amplitude", "moderate", "normalized"]
    )
    def test_tendency_matches_direct_form_on_full_band_fields(self, name):
        # -d/dx of the truncated flux is the Galerkin projection that
        # tendency_direct builds term by term, also where u^2 and u^3 fill
        # the top modes; tendency_direct folds the +-n/2 pair into the
        # Nyquist slot, which tendency leaves at 0
        c = preset_normalized() if name == "normalized" else LOCAL_FORM_MODELS[name]
        for n in (32, 128):
            for seed in range(10):
                u = random_trig_polynomial(Grid(n), seed, n // 2 - 1, 1.0)
                got, ref = tendency(u, c).coef[:-1], tendency_direct(u, c).coef
                assert np.max(np.abs(got - ref[:-1])) <= 1e-10 * np.max(np.abs(ref))

    def test_tendency_is_exactly_minus_dx_of_flux(self):
        for c in (preset_normalized(), LOCAL_FORM_MODELS["large_amplitude"]):
            for seed in range(5):
                u = full_band(Grid(32), seed)
                t = tendency(u, c)
                assert t.coef[0] == 0.0 and t.coef[-1] == 0.0
                assert np.all((t + derivative(flux(u, c), 1)).coef == 0.0)

    def test_tendency_mean_is_exactly_zero(self):
        c = preset_normalized()
        for seed in range(5):
            u = full_band(Grid(32), seed)
            assert u.coef[-1] != 0.0
            assert tendency(u, c).coef[0] == 0.0
