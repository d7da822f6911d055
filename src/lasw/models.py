"""Coefficient bookkeeping for the quasilinear shallow-water family.

The family evolved here is, in local form,

    u_t - mu*u_xxt = alpha1*u_x + alpha2*u_xxx + alpha3*u*u_x
                     + beta1*u_x*u_xx + beta2*u*u_xxx
                     + gamma1*u*u_x*u_xx + gamma2*u^2*u_xxx + gamma3*u_x^3
                     + alpha4*u^2*u_x + alpha5*u^3*u_x.

When the cubic coefficients satisfy gamma1 = 2*(gamma2 + gamma3) the cubic
terms are a perfect x-derivative and the equation can be rewritten, after
inverting (1 - mu*d^2/dx^2), as the nonlocal first-order system

    u_t = -a(u)*u_x + f(u),
    a(u) = (alpha2 + beta2*u + gamma2*u^2) / mu,
    f(u) = Lam^{-2} d/dx [ (alpha1 + alpha2/mu)*u
                           + (alpha3/2 + beta2/(2*mu))*u^2
                           + gamma2/(3*mu)*u^3
                           + (beta1 - 3*beta2)/2*u_x^2
                           + (gamma3 - 2*gamma2)*u*u_x^2
                           + alpha4/3*u^3 + alpha5/4*u^4 ],

with Lam^{-2} = (1 - mu*d^2/dx^2)^{-1}; alpha4*u^2*u_x and alpha5*u^3*u_x
are exact x-derivatives, so they need no relation.  Both forms are
implemented (`tendency` and `tendency_direct`) and agree to round-off on
band-limited fields; the pair doubles as a standing correctness oracle.  In
this form the equation is a scalar conservation law, so the spatial mean is
conserved exactly; `flux` builds the corresponding flux function.

Each right-hand side is one padded evaluation (the transform method) with
one stacked transform per padded grid: one irfft pads u and every
derivative its products use, and one rfft truncates every sum of products
(the powers in a(u) or P(u), the bracket of f(u)) formed on that grid.  A
product is a (coefficient, derivative orders) term, so (beta2, (0, 3)) is
beta2*u*u_xxx; zero coefficients, and zero linear terms, are dropped.  Each
sum is one line of numpy code, generated once per kernel and Horner-factored
in u by derivative factors: d0 * d0 * (c1 + d0 * c2) + c3 * d1 * d1.
`tendency` is -d/dx of the truncated flux, with a Nyquist slot of 0;
`tendency_direct` also returns 0 there, the convention of real Fourier
derivatives, so the two forms agree in every slot.

A right-hand side is built once per (grid size, coefficients): a cached
kernel checks the coefficients, lays out the term tables, the padded size,
the derivative orders and the symbols, and returns a function from half
spectrum to half spectrum.  Every right-hand side is written on bare half
spectra under `spectral._at_the_boundary`, the one field boundary, and
takes a SpectralField or a bare rfft half spectrum and returns the same
kind: a field runs under its own np.errstate; a bare array is the
stepper's, which builds no field inside a step and runs every stage under
its one errstate.  A bare (B, n/2+1) stack goes through the same kernel
and the same two transforms, each row bit for bit as it would go alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import GammaRelationViolated, InvalidMu, InvalidRegime
from .kinds import _nonneg, _number, _optional, _positive, admit, check
from .spectral import _at_the_boundary, _dealias_size, _dx_sigma, _from_grid, _lambda_sigma, _points

GAMMA_RELATION_TOL = 1e-12


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficient tuple of the quasilinear family (all dimensionless).

    alpha4 and alpha5 weigh the local u^2*u_x and u^3*u_x terms of the
    surface-elevation preset; both forms honour them.  Every coefficient is
    a finite number (InvalidRegime) and mu >= 0 (InvalidMu), so every set
    suits the local form; `validate` gates the nonlocal one.
    """

    mu: float
    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma3: float = 0.0
    alpha4: float = 0.0
    alpha5: float = 0.0

    def __post_init__(self):
        check(InvalidRegime, dict.fromkeys(vars(self), _number), vars(self))
        admit(InvalidMu, _nonneg, self.mu, "mu")

    @property
    def conservative(self) -> bool:
        """True iff gamma1 = 2*(gamma2 + gamma3) within 1e-12 (absolute)."""
        return abs(self.gamma1 - 2.0 * (self.gamma2 + self.gamma3)) <= GAMMA_RELATION_TOL


_REGIME = dict(eps=_positive, delta=_positive, **dict.fromkeys(("p", "z0", "kappa", "beta"), _optional(_number)))


@dataclass(frozen=True)
class RegimeParameters:
    """Wave-regime parameters feeding the presets.

    eps is the amplitude parameter, delta the shallowness parameter.  The
    optional entries select members of specific sub-families: (p, z0) for
    the moderate-amplitude family, kappa for the CH/DP pair, beta for BBM.
    """

    eps: float = 1.0
    delta: float = 1.0
    p: float | None = None
    z0: float | None = None
    kappa: float | None = None
    beta: float | None = None

    def __post_init__(self):
        check(InvalidRegime, _REGIME, vars(self))
        if self.z0 is not None and not 0.0 <= self.z0 <= 1.0:
            raise InvalidRegime(f"z0 must lie in [0, 1], got {self.z0}")


def validate(coeffs: ModelCoefficients) -> ModelCoefficients:
    """Gate for the nonlocal solver: mu > 0 and the cubic relation.

    The local form (`tendency_direct`) needs neither and does not call it.
    """
    admit(InvalidMu, _positive, coeffs.mu, "mu")
    if not coeffs.conservative:
        raise GammaRelationViolated(
            f"gamma1={coeffs.gamma1} but 2*(gamma2+gamma3)="
            f"{2.0 * (coeffs.gamma2 + coeffs.gamma3)}"
        )
    return coeffs


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def preset_large_amplitude(params: RegimeParameters) -> ModelCoefficients:
    """Large-amplitude shallow-water model (the central preset).

    gamma1 is computed as 2*(gamma2+gamma3), so the conservative relation
    holds exactly in floating point for every (eps, delta).
    """
    e, d = params.eps, params.delta
    mu = 7.0 * d * d / 18.0
    if mu <= 0.0:
        raise InvalidRegime(f"degenerate dispersion: mu = {mu}")
    e2d2 = e * e * d * d
    gamma2 = -45.0 * e2d2 / 96.0
    gamma3 = -154.0 * e2d2 / 96.0
    return ModelCoefficients(
        mu=mu,
        alpha1=-1.0,
        alpha2=2.0 * d * d / 9.0,
        alpha3=-1.5 * e,
        beta1=e * d * d / 3.0,
        beta2=e * d * d / 6.0,
        gamma1=2.0 * (gamma2 + gamma3),
        gamma2=gamma2,
        gamma3=gamma3,
    )


def preset_normalized() -> ModelCoefficients:
    """Unit-coefficient member with transport speed a(u) = 1 + u + u^2.

    The default preset for generic runs: mu = 1 and every local
    coefficient except alpha1 equals one, which gives the nonlocal form

        u_t = -(1 + u + u^2) u_x
              + Lam^{-2} d/dx [u + u^2 + u^3/3 - u_x^2 - u*u_x^2].

    The u_x^2 slots carry the same (negative) signs as the large-amplitude
    preset; the all-positive variant focuses energy and breaks down in
    finite time even from small data, which makes it useless as a default.
    """
    return ModelCoefficients(
        mu=1.0,
        alpha1=0.0,
        alpha2=1.0,
        alpha3=1.0,
        beta1=1.0,
        beta2=1.0,
        gamma1=4.0,
        gamma2=1.0,
        gamma3=1.0,
    )


_SURVEY_MODELS = ("kdv", "bbm", "ch", "dp", "se", "moderate")


def preset_survey(model: str, params: RegimeParameters) -> ModelCoefficients:
    """Classical shallow-water models mapped into the family's slots.

    kdv has mu = 0 and is usable only through `tendency_direct` (the
    integrator steps it with ETDRK4, exact on alpha1*u_x + alpha2*u_xxx);
    se also carries alpha4/alpha5, which both forms honour.
    """
    e, d = params.eps, params.delta
    if model == "kdv":
        return ModelCoefficients(
            mu=0.0, alpha1=-1.0, alpha2=-d * d / 6.0, alpha3=-2.0 * e / 3.0
        )
    if model == "bbm":
        if params.beta is None:
            raise InvalidRegime("bbm requires the beta parameter")
        beta = params.beta
        if beta >= 0.0:
            raise InvalidMu(f"bbm requires beta < 0 so mu = -delta^2*beta > 0, got beta={beta}")
        alpha = 1.0 / 6.0 + beta
        return ModelCoefficients(
            mu=-d * d * beta, alpha1=-1.0, alpha2=-d * d * alpha, alpha3=-2.0 * e / 3.0
        )
    if model == "ch":
        if params.kappa is None:
            raise InvalidRegime("ch requires the kappa parameter")
        return ModelCoefficients(
            mu=1.0, alpha1=-params.kappa, alpha3=-3.0, beta1=2.0, beta2=1.0
        )
    if model == "dp":
        if params.kappa is None:
            raise InvalidRegime("dp requires the kappa parameter")
        return ModelCoefficients(
            mu=1.0, alpha1=-params.kappa, alpha3=-4.0, beta1=3.0, beta2=1.0
        )
    if model == "se":
        return ModelCoefficients(
            mu=d * d / 12.0,
            alpha1=-1.0,
            alpha2=-d * d / 12.0,
            alpha3=-1.5 * e,
            beta1=-7.0 * e * d * d / 12.0,
            beta2=-7.0 * e * d * d / 24.0,
            alpha4=3.0 * e * e / 8.0,
            alpha5=-3.0 * e ** 3 / 16.0,
        )
    if model == "moderate":
        if params.p is None or params.z0 is None:
            raise InvalidRegime("moderate requires the p and z0 parameters")
        lam = 0.5 * (params.z0 ** 2 - 1.0 / 3.0)
        alpha = params.p + lam
        beta = params.p - 1.0 / 6.0 + lam
        gamma = -1.5 * params.p - 1.0 / 6.0 - 1.5 * lam
        zeta = -4.5 * params.p - 23.0 / 24.0 - 1.5 * lam
        if beta >= 0.0:
            raise InvalidMu(
                f"moderate requires beta < 0 so mu = -delta^2*beta > 0, got beta={beta}"
            )
        return ModelCoefficients(
            mu=-d * d * beta,
            alpha1=-1.0,
            alpha2=-d * d * alpha,
            alpha3=-1.5 * e,
            beta1=e * d * d * zeta,
            beta2=e * d * d * gamma,
        )
    raise InvalidRegime(f"unknown survey model {model!r}; expected one of {_SURVEY_MODELS}")


def time_reversed(coeffs: ModelCoefficients) -> ModelCoefficients:
    """Coefficients of the time-reversed equation (every slot negated)."""
    return replace(
        coeffs,
        alpha1=-coeffs.alpha1, alpha2=-coeffs.alpha2, alpha3=-coeffs.alpha3,
        beta1=-coeffs.beta1, beta2=-coeffs.beta2,
        gamma1=-coeffs.gamma1, gamma2=-coeffs.gamma2, gamma3=-coeffs.gamma3,
        alpha4=-coeffs.alpha4, alpha5=-coeffs.alpha5,
    )


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _terms(*terms):
    return tuple((c, orders) for c, orders in terms if c != 0.0)


def _product_source(table, coefficient) -> str:
    """One list's sum of products over the factors d0 = u, d1 = u_x, ...,
    as one expression; `coefficient(c)` names a coefficient.

    Terms with the same derivative factors form one group, Horner-factored in
    u, so u^2*(c1 + c2*u) + u_x^2*(c3 + c4*u) for four terms; a group of one
    term keeps its own factor order, c*f1*f2...  Products and sums fold left
    to right, as Python reads them, and that order fixes the bits.
    """
    groups: dict[tuple[int, ...], list] = {}
    for c, orders in table:
        groups.setdefault(tuple(k for k in orders if k), []).append((c, orders))
    products = []
    for derivatives, terms in groups.items():
        if len(terms) == 1:
            [(c, orders)] = terms
            products.append(" * ".join([coefficient(c), *(f"d{k}" for k in orders)]))
            continue
        poly: dict[int, float] = {}
        for c, orders in terms:  # the power of u is the number of 0 orders
            poly[orders.count(0)] = poly.get(orders.count(0), 0.0) + c
        low, names = min(poly), {p: coefficient(poly[p]) for p in sorted(poly)}
        horner = names[max(poly)]
        for p in range(max(poly) - 1, low - 1, -1):
            horner = f"d0 * {horner}" if " " not in horner else f"d0 * ({horner})"
            if p in names:
                horner = f"{names[p]} + {horner}"
        products.append(" * ".join(["d0"] * low + [f"d{k}" for k in derivatives]
                                   + [f"({horner})" if " + " in horner else horner]))
    return " + ".join(products)


def _product_kernel(orders, tables):
    """grid -> sums: each table's sum of products of the padded factors
    grid[..., i, :] (derivative order orders[i]), stacked as sums[..., j, :].

    Straight-line numpy code, built once per kernel, one line per sum; the
    coefficients are names in its namespace, as inf has no literal.
    """
    coefficients: list[float] = []

    def coefficient(c: float) -> str:
        coefficients.append(c)
        return f"c{len(coefficients) - 1}"
    lines = [f"    d{k} = grid[..., {i}, :]" for i, k in enumerate(orders)]
    lines.append(f"    out = np.empty(grid.shape[:-2] + ({len(tables)}, grid.shape[-1]))")
    lines += [f"    out[..., {j}, :] = {_product_source(table, coefficient)}" for j, table in enumerate(tables)]
    namespace = {"np": np, **{f"c{i}": c for i, c in enumerate(coefficients)}}
    exec("def products(grid):\n" + "\n".join(lines) + "\n    return out", namespace)
    return namespace["products"]


@functools.lru_cache(maxsize=128)
def _padded_sums(n: int, *term_lists):
    """h -> the half spectrum on n points of each list's sum of products: 0.0
    for an empty list, or zeros shaped as h if every list is empty.

    One irfft pads h and every derivative the terms use, as a (..., k, n/2+1)
    stack: each row of the symbol is an order's `_dx_sigma` times m, with its
    Nyquist entry halved, as padding splits that mode between +-n/2, and
    irfft's own zero padding fills the modes past n/2.  `_product_kernel`
    returns the nonempty sums as one (..., k, m) stack, and one rfft
    truncates it, folding the +-n/2 pair onto the Nyquist slot.
    """
    tables = [table for table in term_lists if table]
    if not tables:
        return lambda h: (np.zeros_like(h),) * len(term_lists)
    m = _dealias_size(n, max(len(o) for table in tables for _, o in table))
    orders = sorted({k for table in tables for _, o in table for k in o})
    half = n // 2
    symbols = np.array([_dx_sigma(n, k) for k in orders]) * m
    symbols[:, half] *= 0.5
    products = _product_kernel(orders, tables)
    # row of each list's sum in the truncated stack, None for an empty list
    slots = [sum(map(bool, term_lists[:j])) if table else None for j, table in enumerate(term_lists)]

    def sums(h):
        spec = h[..., None, :] * symbols
        spec[..., half].imag = 0.0  # the Nyquist coefficient is real
        spec = _from_grid(products(np.fft.irfft(spec, n=m)), n)
        return tuple(0.0 if j is None else spec[..., j, :] for j in slots)
    return sums


def _square(c: ModelCoefficients):
    return _terms((c.gamma2 / c.mu, (0, 0)))


def _bracket(c: ModelCoefficients):
    mu = c.mu
    return _terms(
        (0.5 * c.alpha3 + 0.5 * c.beta2 / mu, (0, 0)),
        (c.gamma2 / (3.0 * mu), (0, 0, 0)),
        (0.5 * (c.beta1 - 3.0 * c.beta2), (1, 1)),
        (c.gamma3 - 2.0 * c.gamma2, (0, 1, 1)),
        (c.alpha4 / 3.0, (0, 0, 0)),
        (c.alpha5 / 4.0, (0, 0, 0, 0)),
    )


@functools.lru_cache(maxsize=128)
def _flux_kernel(n: int, c: ModelCoefficients):
    """h -> half spectrum of Phi = P(u) - Lam^{-2}[semilinear bracket] on n points.

    The linear terms alpha2/mu*u of P(u) and (alpha1 + alpha2/mu)*u of the
    bracket are left out when they are zero, as in the stepper's nonlinear part.
    """
    validate(c)
    powers = _terms((0.5 * c.beta2 / c.mu, (0, 0)), (c.gamma2 / (3.0 * c.mu), (0, 0, 0)))
    sums, smoothing = _padded_sums(n, powers, _bracket(c)), _lambda_sigma(n, -2.0, c.mu)
    linear, bracket_linear = c.alpha2 / c.mu, c.alpha1 + c.alpha2 / c.mu

    def phi(h):
        t_p, t_b = sums(h)
        if linear:
            t_p = linear * h + t_p
        if bracket_linear:
            t_b = bracket_linear * h + t_b
        return t_p - t_b * smoothing
    return phi


@functools.lru_cache(maxsize=128)
def _local_kernel(n: int, c: ModelCoefficients):
    """h -> half spectrum of the smoothed local form on n points, 0 at the Nyquist slot.

    The linear terms alpha1*u_x and alpha2*u_xxx are left out when they are zero.
    """
    sums = _padded_sums(n, _terms(
        (c.alpha3, (0, 1)), (c.beta1, (1, 2)), (c.beta2, (0, 3)), (c.gamma1, (0, 1, 2)),
        (c.gamma2, (0, 0, 3)), (c.gamma3, (1, 1, 1)), (c.alpha4, (0, 0, 1)),
        (c.alpha5, (0, 0, 0, 1)),
    ))
    linear = [(a, _dx_sigma(n, k)) for a, k in ((c.alpha1, 1), (c.alpha2, 3)) if a]
    # Lam^{-2} (all ones when mu = 0), with 0 in the unpaired Nyquist mode as
    # the odd derivatives of `tendency` have there
    smoothing = _lambda_sigma(n, -2.0, c.mu).copy()
    smoothing[-1] = 0.0

    def rhs(h):
        (products,) = sums(h)
        if linear:
            products = sum(a * (h * dx) for a, dx in linear) + products
        return products * smoothing
    return rhs


@_at_the_boundary
def transport_field(h, coeffs: ModelCoefficients):
    """Local transport speed a(u) = (alpha2 + beta2*u + gamma2*u^2)/mu."""
    validate(coeffs)
    (squared,) = _padded_sums(_points(h), _square(coeffs))(h)
    a = (coeffs.beta2 / coeffs.mu) * h + squared
    a[..., 0] += coeffs.alpha2 / coeffs.mu
    return a


@_at_the_boundary
def semilinear_term(h, coeffs: ModelCoefficients):
    """Smoothing part f(u) of the nonlocal form; its mean is exactly zero."""
    validate(coeffs)
    n = _points(h)
    (bracket,) = _padded_sums(n, _bracket(coeffs))(h)
    smoothed = ((coeffs.alpha1 + coeffs.alpha2 / coeffs.mu) * h + bracket) * _lambda_sigma(n, -2.0, coeffs.mu)
    return smoothed * _dx_sigma(n, 1)


@_at_the_boundary
def tendency(h, coeffs: ModelCoefficients):
    """du/dt of the nonlocal form: f(u) - a(u)*u_x = -d/dx of `flux`.

    Requires validated conservative coefficients with mu > 0.  The
    first-derivative symbol vanishes at mode 0 and at the Nyquist mode, so
    both slots of the output are exactly zero.
    A SpectralField gives a SpectralField; a bare rfft half spectrum, as
    the stepper passes, gives a bare half spectrum and builds no field.
    """
    n = _points(h)
    return -_flux_kernel(n, coeffs)(h) * _dx_sigma(n, 1)


@_at_the_boundary
def tendency_direct(h, coeffs: ModelCoefficients):
    """du/dt from the local form, smoothed by (1 - mu*d^2/dx^2)^{-1}.

    Works for every coefficient set, as each has mu >= 0 (mu = 0 skips the smoothing
    and leaves the local equation, whose alpha2*u_xxx term is stiff;
    the integrator treats alpha1*u_x + alpha2*u_xxx exactly there and
    passes the rest through this function), conservative or not.  On
    conservative sets it matches `tendency` to round-off in every slot,
    which is the standing reformulation oracle: like `tendency`, it returns
    0 in the Nyquist slot rather than folding the +-n/2 pair of its
    products into it.  Takes and returns fields or bare half spectra, as
    `tendency` does.
    """
    return _local_kernel(_points(h), coeffs)(h)


@_at_the_boundary
def flux(h, coeffs: ModelCoefficients):
    """Flux Phi with tendency(u) = -d/dx Phi(u).

    Phi = P(u) - Lam^{-2}[semilinear bracket], where P is the exact
    u-antiderivative of a(u): P(u) = (alpha2*u + beta2*u^2/2 + gamma2*u^3/3)/mu.
    Takes and returns fields or bare half spectra, as `tendency` does.
    """
    return _flux_kernel(_points(h), coeffs)(h)
