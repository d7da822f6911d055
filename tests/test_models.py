"""Model family: presets, validation, the two tendency forms, flux."""

import dataclasses
import math

import numpy as np
import pytest

from lasw import evolve, models
from lasw.errors import GammaRelationViolated, InvalidField, InvalidMu, InvalidRegime
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
    time_reversed,
    transport_field,
    validate,
)
from lasw.spectral import (
    Grid,
    SpectralField,
    _dealias_size,
    _dx_sigma,
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
        with pytest.raises(InvalidMu, match="mu: must be positive, got 0.0"):
            validate(ModelCoefficients(mu=0.0))
        # a negative mu fails where the set is built, so no form ever sees one
        with pytest.raises(InvalidMu, match="mu: must be nonnegative, got -0.3"):
            ModelCoefficients(mu=-0.3)

    def test_non_number_coefficient_is_a_named_error(self):
        # this was a TypeError from math.isfinite
        with pytest.raises(InvalidRegime, match="mu: expected a number, got 'a'"):
            ModelCoefficients(mu="a")
        with pytest.raises(InvalidRegime, match="gamma2: must be finite"):
            ModelCoefficients(mu=1.0, gamma2=math.nan)

    def test_infinite_regime_parameter_is_a_named_error(self):
        # eps = inf was accepted, and failed later as "coefficient alpha3 is not finite"
        with pytest.raises(InvalidRegime, match="eps: must be finite"):
            RegimeParameters(eps=math.inf)
        with pytest.raises(InvalidRegime, match="kappa: expected a number"):
            RegimeParameters(kappa="1")

    def test_equal_sets_hash_equal(self):
        # the hash is taken once, where the set is built; it is not a field
        c = preset_large_amplitude(RegimeParameters(eps=0.3, delta=0.2))
        same = ModelCoefficients(**dataclasses.asdict(c))
        other = preset_large_amplitude(RegimeParameters(eps=0.4, delta=0.2))
        replaced = dataclasses.replace(other, **dataclasses.asdict(c))
        moved = dataclasses.replace(c, mu=c.mu + 1.0)
        assert c == same == replaced and hash(c) == hash(same) == hash(replaced)
        assert hash(c) == hash(tuple(getattr(c, f.name) for f in dataclasses.fields(c)))
        assert moved != c and hash(moved) == hash(dataclasses.replace(moved))
        assert "_hash" not in [f.name for f in dataclasses.fields(c)] and "_hash" not in repr(c)
        assert len({c, same, replaced, moved}) == 2

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
        with pytest.raises(InvalidRegime, match="ch requires the kappa parameter"):
            preset_survey("ch", RegimeParameters())

    def test_dp(self):
        c = preset_survey("dp", RegimeParameters(kappa=1.0))
        assert (c.mu, c.alpha1, c.alpha3, c.beta1, c.beta2) == (1.0, -1.0, -4.0, 3.0, 1.0)
        with pytest.raises(InvalidRegime, match="dp requires the kappa parameter"):
            preset_survey("dp", RegimeParameters())

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

    @pytest.mark.parametrize("given", [{}, {"p": 0.1}, {"z0": 0.5}])
    def test_moderate_requires_p_and_z0(self, given):
        with pytest.raises(InvalidRegime, match="moderate requires the p and z0 parameters"):
            preset_survey("moderate", RegimeParameters(**given))

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
        assert c.conservative

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
    rhs = rhs if c.mu == 0.0 else lambda_pow(rhs, -2.0, c.mu)
    # the unpaired Nyquist mode of every right-hand side is 0, as for odd derivatives
    coef = rhs.coef.copy()
    coef[-1] = 0.0
    return SpectralField(rhs.grid, coef)


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

    @staticmethod
    def counting_ffts(monkeypatch):
        """A list that gets one entry per numpy FFT call from here on."""
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        return calls

    def test_transform_counts(self, monkeypatch):
        calls = self.counting_ffts(monkeypatch)
        u = random_trig_polynomial(Grid(128), 1, 10, 2.0)
        large = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        kdv = LOCAL_FORM_MODELS["kdv"]
        bbm = LOCAL_FORM_MODELS["bbm"]

        def count(fn, c):
            calls.clear()
            fn(u, c)
            return len(calls)

        # one stacked irfft pads u and u_x, one stacked rfft truncates P(u) and the bracket
        assert count(tendency, large) == 2
        # constant a(u): only u^2 is padded and truncated
        assert count(tendency, bbm) == 2
        assert count(tendency_direct, large) <= 5
        assert count(tendency_direct, kdv) == 2

    @pytest.mark.parametrize("rows", [1, 4, 16])
    def test_stack_costs_two_transforms_and_keeps_each_row(self, monkeypatch, rows):
        large = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        h = np.stack([random_trig_polynomial(Grid(128), seed, 40, 1.0).coef for seed in range(rows)])
        calls = self.counting_ffts(monkeypatch)
        out = tendency(h, large)
        assert len(calls) == 2 and out.shape == h.shape
        for row in range(rows):
            assert out[row].tobytes() == tendency(h[row], large).tobytes()

    @pytest.mark.parametrize("dt, per_step", [(None, 10), (2.0 ** -8, 9)], ids=["cfl", "fixed"])
    def test_transforms_per_integrate_step(self, monkeypatch, dt, per_step):
        # 2 per ETDRK4 stage, 1 for sup|u_x| in the blow-up check, and with
        # the CFL step 1 for the samples of u that the nonlinear speed is
        # read from; t_end is a whole number of the steps the rule picks
        u = random_trig_polynomial(Grid(128), 1, 10, 2.0)
        large = preset_large_amplitude(RegimeParameters(eps=0.2, delta=0.1))
        step = dt if dt is not None else evolve._stable_dt(u.coef, large, 0.5)
        calls = self.counting_ffts(monkeypatch)

        def count(steps):
            calls.clear()
            t_end = steps * step
            integrate(u, large, t_end, IntegrationControls(cfl=0.5, dt=dt, sample_interval=t_end))
            return len(calls)

        assert count(3) - count(2) == per_step

    @pytest.mark.parametrize("n", [32, 128, 320])
    @pytest.mark.parametrize("name", ["large_amplitude", "se"])
    def test_nyquist_imaginary_part_is_ignored(self, name, n):
        # a bare half spectrum may carry an imaginary part in slot n/2; the
        # padded evaluation reads only its real part, as a field would hold it
        c = LOCAL_FORM_MODELS[name]
        real = full_band(Grid(n), n).coef
        skewed = real.copy()
        skewed[-1] += 0.3j
        for form in (tendency, tendency_direct):
            assert np.array_equal(form(skewed, c), form(real, c)), form.__name__
        # flux keeps the linear term alpha2/mu*h, which carries the part into slot n/2
        assert np.array_equal(flux(skewed, c)[:-1], flux(real, c)[:-1])

    def test_field_count_per_integrate_step(self, monkeypatch):
        # none per fixed-dt step: the stages pass bare half spectra through
        # the right-hand sides, the step loop classifies the bare accepted
        # state, and integrate builds fields only for snapshots and the end
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

        assert count(3) - count(2) == 0

    @pytest.mark.parametrize(
        "name", ["bbm", "ch", "dp", "large_amplitude", "moderate", "normalized", "se"]
    )
    def test_tendency_matches_direct_form_on_full_band_fields(self, name):
        # -d/dx of the truncated flux is the Galerkin projection that
        # tendency_direct builds term by term, also where u^2 and u^3 fill
        # the top modes; every slot is compared, the Nyquist slot too, which
        # both forms leave at 0
        c = preset_normalized() if name == "normalized" else LOCAL_FORM_MODELS[name]
        for n in (32, 128):
            for seed in range(10):
                u = random_trig_polynomial(Grid(n), seed, n // 2 - 1, 1.0)
                got, ref = tendency(u, c).coef, tendency_direct(u, c).coef
                assert got[-1] == ref[-1] == 0.0
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_tendency_is_exactly_minus_dx_of_flux(self):
        for c in (preset_normalized(), LOCAL_FORM_MODELS["large_amplitude"], LOCAL_FORM_MODELS["se"]):
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


ALL_PRESETS = dict(LOCAL_FORM_MODELS, normalized=preset_normalized())


def forms_of(c):
    """The right-hand sides that accept c: the local form always, flux and
    tendency on mu > 0."""
    return [tendency_direct, flux, tendency] if c.mu > 0.0 else [tendency_direct]


class TestArrayForm:
    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_half_spectrum_in_half_spectrum_out(self, name, n):
        # the stepper's bare-array path is the field path without the fields
        c = ALL_PRESETS[name]
        u = full_band(Grid(n), n)
        for form in forms_of(c):
            out = form(u.coef, c)
            assert type(out) is np.ndarray
            assert np.array_equal(out, form(u, c).coef), form.__name__

    def test_kernels_keep_coefficient_sets_apart(self):
        u = full_band(Grid(64), 7)
        for c in (preset_normalized(), LOCAL_FORM_MODELS["large_amplitude"]):
            for form in (tendency, tendency_direct, flux):
                assert np.array_equal(form(u, time_reversed(c)).coef, -form(u, c).coef)

    @pytest.mark.parametrize("form, c, error", [
        (tendency, dict(mu=0.0, alpha1=1.0), InvalidMu),
        (flux, dict(mu=-1.0, alpha1=1.0), InvalidMu),
        (tendency_direct, dict(mu=-1.0, alpha1=1.0), InvalidMu),
        (tendency, dict(mu=1.0, gamma1=1.0), GammaRelationViolated),
        (flux, dict(mu=1.0, gamma1=1.0), GammaRelationViolated),
    ], ids=["tendency-mu", "flux-mu", "direct-mu", "tendency-gamma", "flux-gamma"])
    def test_bad_coefficients_raise_on_every_call(self, form, c, error):
        # a negative mu raises as the set is built, the rest as the form is called
        u = full_band(Grid(32), 1)
        for arg in (u, u, u.coef, u.coef):
            with pytest.raises(error):
                form(arg, ModelCoefficients(**c))

    def test_flux_accepts_extension_slots(self):
        # -d/dx flux is the local form for se too: u^2*u_x and u^3*u_x are
        # the x-derivatives of u^3/3 and u^4/4 in the bracket of f(u)
        c = LOCAL_FORM_MODELS["se"]
        for n in (32, 128):
            for seed in range(10):
                u = random_trig_polynomial(Grid(n), seed, n // 2 - 1, 1.0)
                ref = tendency_direct(u, c)
                residual = (ref + derivative(flux(u, c), 1)).coef
                assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(ref.coef))


def reference_padded_sums(n, *term_lists):
    """`models._padded_sums` as a walk over the term tables: each sum of
    products is sum(math.prod(factors, start=c)), one term at a time."""
    terms = [t for table in term_lists for t in table]
    if not terms:
        return lambda h: (np.zeros_like(h),) * len(term_lists)
    m = _dealias_size(n, max(len(o) for _, o in terms))
    orders = sorted(set().union(*(o for _, o in terms)))
    half, row = n // 2, {k: i for i, k in enumerate(orders)}
    symbols = np.array([_dx_sigma(n, k) for k in orders]) * m
    symbols[:, half] *= 0.5

    def sums(h):
        spec = h[..., None, :] * symbols
        spec[..., half].imag = 0.0
        grid = np.fft.irfft(spec, n=m)
        out = []
        for table in term_lists:
            if not table:
                out.append(0.0)
                continue
            products = sum(math.prod((grid[..., row[k], :] for k in o), start=c) for c, o in table)
            spec = np.fft.rfft(products)[..., :half + 1] / m
            spec[..., half] = 2.0 * spec[..., half].real
            out.append(spec)
        return tuple(out)
    return sums


class TestStraightLineProducts:
    """The Horner-factored product kernels against the term-table walk they replace."""

    FORMS = {"tendency": tendency, "tendency_direct": tendency_direct, "flux": flux,
             "transport_field": transport_field, "semilinear_term": semilinear_term}

    @staticmethod
    def clear_kernels():
        for cached in (models._flux_kernel, models._local_kernel, models._padded_sums):
            cached.cache_clear()

    def outputs(self, c, u):
        return {name: form(u, c).coef for name, form in self.FORMS.items()
                if c.mu > 0.0 or name == "tendency_direct"}

    @staticmethod
    def fields(n):
        return [full_band(Grid(n), seed) for seed in range(3)] + \
            [random_trig_polynomial(Grid(n), seed, 10, 2.0) for seed in range(3)]

    @staticmethod
    def coefficients(name, linear):
        # "dropped" is the stepper's nonlinear part, alpha1 = alpha2 = 0
        c = ALL_PRESETS[name]
        return evolve._nonlinear_part(c) if linear == "dropped" else c

    @pytest.mark.parametrize("linear", ["kept", "dropped"])
    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_every_sum_matches_the_term_table_walk(self, monkeypatch, name, linear):
        # every list of terms any form's kernel pads, se's quartic one included
        c, built, real = self.coefficients(name, linear), [], models._padded_sums

        def spy(n, *term_lists):
            built.append((n, term_lists))
            return real(n, *term_lists)
        self.clear_kernels()
        try:
            monkeypatch.setattr(models, "_padded_sums", spy)
            for n in (32, 128):
                self.outputs(c, full_band(Grid(n), 0))
        finally:
            monkeypatch.undo()
            self.clear_kernels()
        assert built
        for n, term_lists in built:
            for u in self.fields(n):
                got = models._padded_sums(n, *term_lists)(u.coef)
                want = reference_padded_sums(n, *term_lists)(u.coef)
                for g, w in zip(got, want):
                    assert np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w)), term_lists

    @pytest.mark.parametrize("linear", ["kept", "dropped"])
    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_every_form_matches_the_term_table_walk(self, monkeypatch, name, linear):
        # each form's deviation is its sums' (<= 1e-15 of the largest, above)
        # carried through its output symbol: tendency is -d/dx of flux, and
        # tendency_direct is Lam^{-2} of the local form's sum
        c = self.coefficients(name, linear)
        fields = [u for n in (32, 128) for u in self.fields(n)]
        got = [self.outputs(c, u) for u in fields]
        self.clear_kernels()
        try:
            monkeypatch.setattr(models, "_padded_sums", reference_padded_sums)
            want = [self.outputs(c, u) for u in fields]
        finally:
            monkeypatch.undo()
            self.clear_kernels()
        for u, g, w in zip(fields, got, want):
            xi = TWO_PI * np.arange(u.grid.n_points // 2 + 1)
            scale = {"tendency_direct": np.max(np.abs(w["tendency_direct"] * (1.0 + c.mu * xi ** 2)))}
            if c.mu > 0.0:
                scale["tendency"] = np.max(np.abs(w["flux"])) * xi
            for form, ref in w.items():
                bound = 1e-15 * scale.get(form, np.max(np.abs(ref)))
                assert np.all(np.abs(g[form] - ref) <= bound), form

    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_each_row_of_a_stack_is_the_row_alone(self, name):
        c = ALL_PRESETS[name]
        for n in (32, 128):
            h = np.stack([full_band(Grid(n), seed).coef for seed in range(3)])
            for form in forms_of(c):
                out = form(h, c)
                for row in range(3):
                    assert out[row].tobytes() == form(h[row], c).tobytes(), form.__name__

    def test_a_horner_power_gap_matches_the_term_table_walk(self):
        # u^2*(c0 + u*(u*(u*c1))): no preset skips a power of u in a group
        table = ((1.5, (0, 0)), (0.25, (0, 0, 0, 0, 0)))
        for n in (32, 128):
            for u in self.fields(n):
                (got,) = models._padded_sums(n, table)(u.coef)
                (want,) = reference_padded_sums(n, table)(u.coef)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_each_call_returns_a_fresh_stack(self):
        products = models._product_kernel([0, 1], [((2.0, (0, 1)),), ((0.5, (0, 0)), (3.0, (0, 0, 0)))])
        grid = np.random.default_rng(3).standard_normal((4, 2, 64))
        first, second = products(grid), products(grid)
        assert first.shape == (4, 2, 64)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)

    def test_an_overflowing_coefficient_stays_a_value(self):
        # gamma2/(3*mu) and gamma2/mu overflow to inf, which has no literal in generated code
        c = ModelCoefficients(mu=1e-308, alpha2=1.0, gamma2=100.0, gamma1=200.0)
        assert math.isinf(c.gamma2 / (3.0 * c.mu))
        u = random_trig_polynomial(Grid(32), 2, 5, 2.0)
        with pytest.raises(InvalidField):
            tendency(u, c)
        result = integrate(u, c, 0.01, IntegrationControls(dt=0.001))
        assert result.state.status is evolve.RunStatus.NONFINITE
