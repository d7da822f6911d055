"""Spectral core: transforms, multipliers, dealiasing, norms, mollification."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lasw.errors import (
    GridMismatch,
    InvalidExponents,
    InvalidField,
    InvalidKernel,
    InvalidMu,
    LaswError,
)
from lasw import spectral
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
    mollify,
    random_trig_polynomial,
    resample,
    sobolev_norm,
    spectral_tail,
    sup_norm,
    sup_norm_dx,
    to_physical,
    zeros,
)

TWO_PI = 2.0 * math.pi


def centered_coefficients(field):
    """Coefficients of modes -n/2 .. n/2-1 read through `mode` (test-side helper)."""
    half = field.grid.n_points // 2
    modes = np.arange(-half, half)
    return np.array([field.mode(int(m)) for m in modes]), modes


def convolve_oracle(*fields):
    """Direct convolution of the centered coefficient sequences, truncated to the band.

    Returns modes -n/2 .. n/2-1; the grid's single Nyquist slot -n/2
    receives the sum of the +-n/2 modes of the true product (their grid
    samples coincide).
    """
    full = centered_coefficients(fields[0])[0]
    for f in fields[1:]:
        full = np.convolve(full, centered_coefficients(f)[0])
    half = fields[0].grid.n_points // 2
    zero = len(fields) * half  # index of mode 0 in `full`
    out = full[zero - half: zero + half].copy()
    out[0] += full[zero + half]
    return out


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(GridMismatch, match="n_points: must be an even integer >= 8, got 7"):
            Grid(7)
        with pytest.raises(GridMismatch, match="got 6"):
            Grid(6)
        assert Grid(8).spacing == 0.125

    def test_constant_samples(self):
        g = Grid(16)
        f = from_physical(np.full(16, 3.25), g)
        assert f.coef[0] == pytest.approx(3.25, abs=1e-15)
        assert np.max(np.abs(f.coef[1:])) < 1e-15

    def test_single_cosine_mode(self):
        g = Grid(16)
        f = from_physical(np.cos(TWO_PI * g.x), g)
        assert f.mode(1) == pytest.approx(0.5, abs=1e-15)
        assert f.mode(-1) == pytest.approx(0.5, abs=1e-15)
        assert abs(f.mode(2)) < 1e-15
        for n in (8, -9, 100):  # modes -8..7 on 16 points
            with pytest.raises(GridMismatch, match=f"mode {n} not representable on 16 points"):
                f.mode(n)

    def test_round_trip_random(self):
        g = Grid(128)
        samples = np.random.default_rng(0).standard_normal(128)
        back = to_physical(from_physical(samples, g))
        assert np.max(np.abs(back - samples)) <= 1e-13 * np.max(np.abs(samples))

    def test_parseval(self):
        g = Grid(64)
        samples = np.random.default_rng(1).standard_normal(64)
        f = from_physical(samples, g)
        sample_energy = np.mean(samples ** 2)
        coef_energy = np.sum(np.abs(centered_coefficients(f)[0]) ** 2)
        assert sample_energy == pytest.approx(coef_energy, rel=1e-12)

    @settings(max_examples=50, deadline=None, database=None)
    @given(data=st.data())
    def test_from_physical_stores_scaled_rfft(self, data):
        n = 2 * data.draw(st.integers(4, 128))
        samples = data.draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
        f = from_physical(samples)
        assert f.coef.shape == (n // 2 + 1,)
        assert np.array_equal(f.coef, np.fft.rfft(samples) / n)
        assert f.coef[0].imag == 0.0 and f.coef[n // 2].imag == 0.0

    def test_invalid_samples(self):
        g = Grid(16)
        with pytest.raises(InvalidField):
            from_physical(np.full(16, np.nan), g)
        with pytest.raises(InvalidField):
            from_physical(np.ones(15), g)

    def test_non_hermitian_rejected(self):
        g = Grid(8)
        for slot, value in ((0, 1.0 + 1e-3j), (4, 1.0 + 1e-3j), (1, np.nan), (2, np.inf)):
            coef = np.zeros(5, dtype=complex)
            coef[slot] = value
            with pytest.raises(InvalidField):
                SpectralField(g, coef)
        with pytest.raises(InvalidField):  # a full-length spectrum
            SpectralField(g, np.zeros(8, dtype=complex))
        # round-off in the mean and Nyquist slots is accepted and removed,
        # on a copy of the caller's array
        coef = np.array([2.0 + 1e-12j, 0.5j, 0.0, 0.0, -1.0 - 1e-12j])
        f = SpectralField(g, coef)
        assert f.coef[0] == 2.0 and f.coef[0].imag == 0.0
        assert f.coef[4] == -1.0 and f.coef[4].imag == 0.0
        assert coef[0].imag == 1e-12 and coef.flags.writeable
        assert f.mode(-1) == -0.5j and f.mode(-4) == -1.0

    def test_immutability_and_arithmetic(self):
        g = Grid(16)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        with pytest.raises(ValueError):
            f.coef[0] = 1.0
        h = 2.0 * f - f
        assert np.allclose(h.coef, f.coef)
        with pytest.raises(GridMismatch):
            f + from_physical(np.ones(32), Grid(32))
        with pytest.raises(TypeError):
            f * f
        for scalar in (1.0, np.float64(1.0)):  # a field adds and subtracts fields only
            for combine in (lambda: f + scalar, lambda: f - scalar, lambda: scalar + f, lambda: scalar - f):
                with pytest.raises(TypeError):
                    combine()
        assert np.array_equal((-f).coef, -f.coef)


SCALAR_OPS = {"mul": lambda u, c: u * c, "rmul": lambda u, c: c * u, "div": lambda u, c: u / c}


@pytest.mark.parametrize("op", sorted(SCALAR_OPS))
@pytest.mark.parametrize("scalar", ["x", np.array([1.0, 2.0]), None, True, np.True_, 1j, np.complex128(1.0)],
                         ids=["str", "array", "None", "bool", "numpy-bool", "complex", "numpy-complex"])
def test_a_scalar_that_is_not_a_real_number_is_a_type_error(op, scalar):
    # a string or an array was numpy's ValueError, None a TypeError from float(),
    # and a bool scaled the field as 1
    g = Grid(16)
    u = from_physical(np.cos(TWO_PI * g.x), g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="^only real scalars keep the field real$"):
            SCALAR_OPS[op](u, scalar)


@pytest.mark.parametrize("op", sorted(SCALAR_OPS))
def test_field_arithmetic_that_overflows_is_an_invalid_field_without_a_warning(op):
    # u * 1e308 * 1e10 warned before it raised, and u / 0 was ZeroDivisionError
    g = Grid(16)
    u = from_physical(2.0 * np.cos(TWO_PI * g.x), g)
    big = u * 1e308  # mode 1 holds 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidField, match="non-finite coefficient"):
            SCALAR_OPS[op](big, 1e-10 if op == "div" else 1e10)
        if op == "div":
            with pytest.raises(InvalidField, match="non-finite coefficient"):
                u / 0
        else:
            assert not np.any(SCALAR_OPS[op](u, 0).coef)
        for combine in (lambda: big + big, lambda: big - -1.0 * big):
            with pytest.raises(InvalidField, match="non-finite coefficient"):
                combine()


@pytest.mark.parametrize("op", sorted(SCALAR_OPS))
@pytest.mark.parametrize("digits", [400, 5000])
def test_an_integer_past_the_float_range_is_an_invalid_field(op, digits):
    # u * 10**400, 10**400 * u and u / 10**400 ended in float()'s OverflowError;
    # an integer of 5000 digits has no str() to put in the message
    g = Grid(16)
    u = from_physical(np.cos(TWO_PI * g.x), g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidField, match="^the scalar is an integer past the float range$"):
            SCALAR_OPS[op](u, 10 ** digits)


class TestMultipliers:
    def test_derivative_eigenaction(self):
        g = Grid(64)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        df = derivative(f, 1)
        expected = TWO_PI * np.cos(TWO_PI * g.x)
        assert np.max(np.abs(to_physical(df) - expected)) < 1e-12

    def test_inverse_smoothing_eigenaction(self):
        g = Grid(64)
        f = from_physical(np.cos(TWO_PI * g.x), g)
        out = lambda_pow(f, -2.0, 1.0)
        factor = 1.0 / (1.0 + 4.0 * math.pi ** 2)
        assert np.max(np.abs(to_physical(out) - factor * np.cos(TWO_PI * g.x))) < 1e-14

    def test_derivative_annihilates_constants(self):
        g = Grid(16)
        assert l2_norm(derivative(constant(g, 4.2), 1)) < 1e-15

    def test_lambda_zero_is_identity(self):
        g = Grid(32)
        f = random_trig_polynomial(g, 5, 10, 2.0)
        assert np.array_equal(lambda_pow(f, 0.0, 0.7).coef, f.coef)

    def test_lambda_inverse_pair(self):
        g = Grid(64)
        f = random_trig_polynomial(g, 9, 20, 1.0)
        back = lambda_pow(lambda_pow(f, 2.0, 1.0), -2.0, 1.0)
        assert l2_norm(back - f) <= 1e-13 * l2_norm(f)
        back2 = lambda_pow(lambda_pow(f, 1.3, 0.4), -1.3, 0.4)
        assert l2_norm(back2 - f) <= 1e-12 * l2_norm(f)

    def test_linearity(self):
        g = Grid(32)
        f = random_trig_polynomial(g, 1, 10, 1.0)
        h = random_trig_polynomial(g, 2, 10, 1.0)
        operators = [lambda v: derivative(v, order) for order in (1, 2, 3)]
        operators.append(lambda v: lambda_pow(v, 1.0, 1.0))
        operators.append(lambda v: lambda_pow(v, -2.0, 0.3))
        for op in operators:
            lhs = op(2.0 * f + 0.5 * h)
            rhs = 2.0 * op(f) + 0.5 * op(h)
            scale = max(1.0, l2_norm(op(f)), l2_norm(op(h)))
            assert np.max(np.abs(lhs.coef - rhs.coef)) < 1e-14 * scale

    def test_invalid_mu(self):
        g = Grid(16)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        with pytest.raises(InvalidMu):
            lambda_pow(f, 1.0, 0.0)
        with pytest.raises(InvalidMu):
            lambda_pow(f, 1.0, -0.5)

    @pytest.mark.parametrize("s,mu", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_exponent_or_mu(self, s, mu):
        f = random_trig_polynomial(Grid(16), 4, 5, 1.0)
        with pytest.raises(LaswError):
            lambda_pow(f, s, mu)


class TestDealiasedProducts:
    def test_low_mode_product(self):
        g = Grid(16)
        f = from_physical(np.cos(TWO_PI * g.x), g)
        p = dealiased_product(f, f)
        expected = 0.5 + 0.5 * np.cos(2 * TWO_PI * g.x)
        assert np.max(np.abs(to_physical(p) - expected)) < 1e-14

    def test_aliasing_removed_on_coarse_grid(self):
        # cos(6*pi*x)^2 = 1/2 + cos(12*pi*x)/2: mode 6 unrepresentable on
        # 8 points; a naive product would fold it onto mode -2
        g = Grid(8)
        f = from_physical(np.cos(3 * TWO_PI * g.x), g)
        p = dealiased_product(f, f)
        assert p.mode(0) == pytest.approx(0.5, abs=1e-15)
        assert abs(p.mode(2)) < 1e-15
        assert abs(p.mode(-2)) < 1e-15
        naive = from_physical(np.cos(3 * TWO_PI * g.x) ** 2, g)
        assert abs(naive.mode(-2)) == pytest.approx(0.25, abs=1e-14)  # the alias the padding removed

    def test_zero_factor(self):
        g = Grid(16)
        f = random_trig_polynomial(g, 1, 5, 1.0)
        assert l2_norm(dealiased_product(f, zeros(g))) == 0.0

    def test_matches_convolution_oracle(self):
        g = Grid(32)
        f = random_trig_polynomial(g, 11, 14, 0.5)
        h = random_trig_polynomial(g, 12, 14, 0.5)
        p = dealiased_product(f, h)
        oracle = convolve_oracle(f, h)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(centered_coefficients(p)[0] - oracle)) <= 1e-12 * scale

    def test_ternary_matches_iterated_oracle(self):
        g = Grid(32)
        f = random_trig_polynomial(g, 21, 5, 0.5)
        h = random_trig_polynomial(g, 22, 5, 0.5)
        w = random_trig_polynomial(g, 23, 5, 0.5)
        # bandwidth 15 < 16: the triple product is exactly representable,
        # so iterated exact convolutions are a valid oracle
        p = dealiased_product(f, h, w)
        assert np.max(np.abs(centered_coefficients(p)[0] - convolve_oracle(f, h, w))) <= 1e-12
        # four full-band factors reach mode 60, which 2n = 64 points would
        # fold onto mode -4; the bound (count+1)*n/2 = 80, padded to 96 = 2^5 * 3,
        # keeps the band exact
        factors = [random_trig_polynomial(g, 30 + k, 15, 0.5) for k in range(4)]
        p = dealiased_product(*factors)
        assert np.max(np.abs(centered_coefficients(p)[0] - convolve_oracle(*factors))) <= 1e-12

    def test_padded_sizes_are_the_least_even_2a_3b_at_the_bound(self):
        smooth = sorted(2 ** a * 3 ** b for a in range(1, 16) for b in range(10))
        for n in range(8, 4097, 2):
            for count in range(2, 7):
                bound = max(2 * n, 2 * math.ceil((count + 1) * n / 4))
                m = spectral._dealias_size(n, count)
                assert m == next(s for s in smooth if s >= bound), (n, count)
        assert [spectral._dealias_size(n, 4) for n in (32, 64, 128)] == [96, 162, 324]

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            dealiased_product(
                random_trig_polynomial(Grid(16), 0, 5, 1.0),
                random_trig_polynomial(Grid(32), 0, 5, 1.0),
            )


class TestNorms:
    def test_constant_all_s(self):
        g = Grid(16)
        c = constant(g, -2.5)
        for s in (-1.0, 0.0, 2.0, 3.7):
            assert sobolev_norm(c, s) == pytest.approx(2.5, rel=1e-15)

    def test_sine_norms_by_hand(self):
        # Parseval: coefficients +-i/2 at modes +-1, xi = 2*pi
        g = Grid(64)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        assert sobolev_norm(f, 0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        for s in (0.5, 1.0, 2.0):
            expected = (1.0 + 4.0 * math.pi ** 2) ** (s / 2.0) / math.sqrt(2.0)
            assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_l2_matches_quadrature(self):
        g = Grid(64)
        samples = np.random.default_rng(4).standard_normal(64)
        f = from_physical(samples, g)
        quad = math.sqrt(np.mean(samples ** 2))
        assert sobolev_norm(f, 0.0) == pytest.approx(quad, rel=1e-12)

    def test_overflowing_weight_gives_inf_not_nan(self):
        # (1 + xi^2)^100 passes the float range in the top modes, where the
        # field's coefficients are zero; inf * 0 must not turn the norm into nan
        f = random_trig_polynomial(Grid(32), 1, 10, 2.0)
        assert sobolev_norm(f, 100.0) == math.inf

    def test_nan_exponent_is_a_named_error(self):
        # this norm read nan, silently
        f = random_trig_polynomial(Grid(32), 1, 10, 2.0)
        with pytest.raises(InvalidExponents, match="s: must be finite"):
            sobolev_norm(f, math.nan)
        with pytest.raises(InvalidExponents, match="s: must be finite"):
            sobolev_norm(f.coef, math.inf)

    def test_exponent_is_checked_for_each_type_it_is_cached_under(self):
        # True == 1 for the cache; a bool is still no exponent
        f = random_trig_polynomial(Grid(32), 1, 10, 2.0)
        assert sobolev_norm(f, 1) == sobolev_norm(f, 1.0)
        with pytest.raises(InvalidExponents, match="s: expected a number"):
            sobolev_norm(f, True)
        # an unhashable s cannot key the cache (was TypeError: unhashable type)
        with pytest.raises(InvalidExponents, match="s: expected a number"):
            sobolev_norm(f, [1])
        with pytest.raises(InvalidExponents, match="s: expected a number"):
            sobolev_norm(f.coef, {})

    def test_sup_norm_dx_sine(self):
        g = Grid(64)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        assert sup_norm_dx(f) == pytest.approx(TWO_PI, abs=1e-6)

    def test_sup_norm_off_grid_peak(self):
        g = Grid(32)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        assert sup_norm(f) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("measure, args", [
        (mean, ()), (l2_norm, ()), (sobolev_norm, (2.0,)), (sobolev_norm, (100.0,)),
        (sup_norm, ()), (sup_norm_dx, ()), (spectral_tail, ()),
    ], ids=["mean", "l2", "h2", "h100", "sup", "sup_dx", "tail"])
    def test_a_stack_is_measured_row_by_row(self, measure, args):
        # each row of a bare (B, n/2+1) stack gets its field call's bits; at
        # s = 100 the top weights are inf and the zero row's norm is 0
        g = Grid(64)
        fields = [random_trig_polynomial(g, seed, 20, 1.0) for seed in range(4)] + [zeros(g)]
        with np.errstate(over="ignore", invalid="ignore"):
            rows = measure(np.stack([u.coef for u in fields]), *args)
        assert rows.shape == (len(fields),)
        want = [measure(u, *args) for u in fields]
        assert np.array(rows).tobytes() == np.array(want).tobytes()


class TestMollify:
    def quad_kernel_coefficient(self, k, n):
        """Gauss-Legendre oracle for the symbol at mode k, scale n."""
        nodes, weights = np.polynomial.legendre.leggauss(600)
        y = 0.5 * (nodes + 1.0)  # [0, 1]
        w = 0.5 * weights
        vals = spectral._bump(y)
        xi = TWO_PI * k / n
        return np.sum(w * vals * np.exp(-1j * xi * y))

    def test_constant_unchanged(self):
        g = Grid(32)
        c = constant(g, 1.7)
        for n in (1, 3, 16):
            out = mollify(c, n)
            assert np.max(np.abs(out.coef - c.coef)) < 1e-14

    def test_mean_preserved_exactly(self):
        g = Grid(64)
        f = random_trig_polynomial(g, 5, 20, 1.0) + constant(g, 0.3)
        out = mollify(f, 4)
        assert mean(out) == mean(f)

    def test_l2_convergence(self):
        g = Grid(128)
        rough = random_trig_polynomial(g, 8, 50, 1.2)
        errs = [l2_norm(mollify(rough, n) - rough) for n in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.5 * errs[0]

    def test_single_mode_scaling_matches_quadrature(self):
        g = Grid(64)
        f = from_physical(np.cos(3 * TWO_PI * g.x), g)
        out = mollify(f, 1)
        sigma = self.quad_kernel_coefficient(3, 1)
        assert out.mode(3) == pytest.approx(0.5 * sigma, abs=1e-9)

    def test_no_l2_expansion(self):
        g = Grid(128)
        f = random_trig_polynomial(g, 6, 60, 0.0)
        for n in (1, 2, 7):
            assert l2_norm(mollify(f, n)) <= l2_norm(f) * (1.0 + 1e-10)

    def test_smoothing_decay(self):
        g = Grid(128)
        f = random_trig_polynomial(g, 2, 60, 0.0)  # flat spectrum
        out = mollify(f, 2)
        spectrum = np.abs(out.coef)
        assert spectrum[60] < 1e-6 * spectrum[1]

    def test_invalid_kernel(self, monkeypatch):
        g = Grid(32)
        f = from_physical(np.sin(TWO_PI * g.x), g)
        bump = spectral._bump
        monkeypatch.setattr(spectral, "_bump", lambda y: 2.0 * bump(y))
        with pytest.raises(InvalidKernel):
            mollify(f, 2)
        with pytest.raises(InvalidKernel, match="n: must be positive"):
            mollify(f, 0)

    def test_index_bound_checked_before_allocating(self):
        f = from_physical(np.sin(TWO_PI * Grid(32).x), Grid(32))
        assert spectral._kernel_fine_size(32, spectral._MOLLIFY_INDEX_MAX) == 1 << 22
        tracemalloc.start()
        try:
            with pytest.raises(InvalidKernel, match="n: must be at most 65536"):
                mollify(f, spectral._MOLLIFY_INDEX_MAX + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRandomFields:
    def test_determinism(self):
        g = Grid(64)
        for seed in (42, [1, 2, 3]):  # an integer, or a list of them as the probes pass
            a = random_trig_polynomial(g, seed, 20, 2.0)
            b = random_trig_polynomial(g, seed, 20, 2.0)
            assert np.array_equal(a.coef, b.coef)

    def test_magnitude_bound(self):
        g = Grid(64)
        f = random_trig_polynomial(g, 3, 25, 1.5)
        for m in range(1, 26):
            assert abs(f.mode(m)) <= (1.0 + m) ** -1.5 + 1e-15

    def test_single_mode_flag(self):
        g = Grid(64)
        f = random_trig_polynomial(g, 0, 10, math.inf)
        spectrum, modes = centered_coefficients(f)
        nonzero = modes[np.abs(spectrum) > 0]
        assert len(nonzero) == 2 and nonzero[0] == -nonzero[1]  # one conjugate pair

    def test_cross_grid_consistency(self):
        norms = [
            sobolev_norm(random_trig_polynomial(Grid(n), 9, 20, 2.0), 1.0)
            for n in (64, 128, 256)
        ]
        assert norms[0] == pytest.approx(norms[1], rel=1e-14)
        assert norms[1] == pytest.approx(norms[2], rel=1e-14)

    def test_norm_stability_under_refinement(self):
        # decay 2 keeps H^s sums convergent for s < 1.5 as the band widens
        # with the grid; at s = 2 the sums keep growing
        def norms(s):
            return [
                sobolev_norm(
                    random_trig_polynomial(Grid(n), 9, n // 2 - 1, 2.0), s
                )
                for n in (64, 128, 256, 512)
            ]
        for s in (1.0, 1.4):
            vals = norms(s)
            increments = [abs(b - a) for a, b in zip(vals, vals[1:])]
            assert increments[-1] < increments[0]
            assert increments[-1] < 0.1 * vals[-1]
        rough = norms(2.0)
        assert rough[-1] - rough[-2] > 0.5 * (rough[1] - rough[0])

    def test_max_mode_bounds(self):
        with pytest.raises(GridMismatch):
            random_trig_polynomial(Grid(16), 0, 8, 1.0)

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True, [1, -2], []])
    def test_seed_is_a_nonnegative_integer_or_a_list_of_them(self, seed):
        # -1 was numpy's ValueError, "x" and 1.5 a TypeError from SeedSequence
        with pytest.raises(InvalidField, match="seed"):
            random_trig_polynomial(Grid(8), seed, 2, 1.0)

    def test_non_integer_max_mode_is_a_named_error(self):
        # this was a TypeError from range()
        with pytest.raises(GridMismatch, match="max_mode: expected an integer, got 2.5"):
            random_trig_polynomial(Grid(16), 0, 2.5, 1.0)

    @pytest.mark.parametrize("decay", [-1.0, -math.inf, math.nan, "1"])
    def test_decay_exponent_is_nonnegative_or_inf(self, decay):
        with pytest.raises(InvalidExponents, match="decay_exponent"):
            random_trig_polynomial(Grid(16), 0, 2, decay)


class TestResample:
    def test_round_trip(self):
        g = Grid(32)
        f = random_trig_polynomial(g, 13, 10, 1.0)
        up_down = resample(resample(f, 128), 32)
        assert np.max(np.abs(up_down.coef - f.coef)) < 1e-15

    def test_upsample_preserves_samples(self):
        g = Grid(32)
        f = from_physical(np.cos(TWO_PI * g.x), g)
        fine = resample(f, 64)
        assert to_physical(fine)[::2] == pytest.approx(to_physical(f), abs=1e-14)

    @pytest.mark.parametrize("n, m", [(16, 16), (32, 64), (64, 256), (40, 100), (320, 1280)])
    def test_grid_transforms_equal_resize_then_transform(self, n, m):
        # _to_grid lets irfft zero-pad and _from_grid slices, where both once
        # went through _resize: the same bits, on a half spectrum and a stack,
        # also with an imaginary part in the Nyquist slot
        rng = np.random.default_rng(n + m)
        h = rng.standard_normal((3, n // 2 + 1)) + 1j * rng.standard_normal((3, n // 2 + 1))
        samples = rng.standard_normal((3, m))
        for a, x in ((h, samples), (h[1], samples[1])):
            padded = np.fft.irfft(spectral._resize(a, m) * m, n=m)
            assert spectral._to_grid(a, m).tobytes() == padded.tobytes()
            folded = spectral._resize(np.fft.rfft(x) / m, n)
            assert spectral._from_grid(x, n).tobytes() == folded.tobytes()
