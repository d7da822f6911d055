"""Coefficient bookkeeping for the quasilinear shallow-water family.

The family evolved here is, in local form,

    u_t - mu*u_xxt = alpha1*u_x + alpha2*u_xxx + alpha3*u*u_x
                     + beta1*u_x*u_xx + beta2*u*u_xxx
                     + gamma1*u*u_x*u_xx + gamma2*u^2*u_xxx + gamma3*u_x^3.

When the cubic coefficients satisfy gamma1 = 2*(gamma2 + gamma3) the cubic
terms are a perfect x-derivative and the equation can be rewritten, after
inverting (1 - mu*d^2/dx^2), as the nonlocal first-order system

    u_t = -a(u)*u_x + f(u),
    a(u) = (alpha2 + beta2*u + gamma2*u^2) / mu,
    f(u) = Lam^{-2} d/dx [ (alpha1 + alpha2/mu)*u
                           + (alpha3/2 + beta2/(2*mu))*u^2
                           + gamma2/(3*mu)*u^3
                           + (beta1 - 3*beta2)/2*u_x^2
                           + (gamma3 - 2*gamma2)*u*u_x^2 ],

with Lam^{-2} = (1 - mu*d^2/dx^2)^{-1}.  Both forms are implemented
(`tendency` and `tendency_direct`) and agree to round-off on band-limited
fields; the pair doubles as a standing correctness oracle.  In this form
the equation is a scalar conservation law, so the spatial mean is
conserved exactly; `flux` builds the corresponding flux function.

Each right-hand side is one padded evaluation (the transform method): u
and the derivatives its products use are padded once, and the products
(the powers in a(u) or P(u), the bracket of f(u)) are summed on that grid
and truncated once.  A product is a (coefficient, derivative orders) term,
so (beta2, (0, 3)) is beta2*u*u_xxx; zero coefficients are dropped before
padding.  `tendency` is -d/dx of the truncated flux, with a Nyquist slot of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import GammaRelationViolated, InvalidMu, InvalidRegime
from .spectral import (
    SpectralField,
    _dealias_size,
    _dx_sigma,
    _from_grid,
    _lambda_sigma,
    _to_grid,
)

GAMMA_RELATION_TOL = 1e-12


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficient tuple of the quasilinear family (all dimensionless).

    alpha4 and alpha5 are extension slots for local u^2*u_x and u^3*u_x
    terms that fall outside the family proper; they are honored only by
    `tendency_direct` (the surface-elevation preset needs them).
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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"coefficient {f.name} is not finite")

    @property
    def conservative(self) -> bool:
        """True iff gamma1 = 2*(gamma2 + gamma3) within 1e-12 (absolute)."""
        return abs(self.gamma1 - 2.0 * (self.gamma2 + self.gamma3)) <= GAMMA_RELATION_TOL

    @property
    def has_extended_terms(self) -> bool:
        return self.alpha4 != 0.0 or self.alpha5 != 0.0


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
        if not (self.eps > 0.0):
            raise InvalidRegime(f"eps must be positive, got {self.eps}")
        if not (self.delta > 0.0):
            raise InvalidRegime(f"delta must be positive, got {self.delta}")
        if self.z0 is not None and not 0.0 <= self.z0 <= 1.0:
            raise InvalidRegime(f"z0 must lie in [0, 1], got {self.z0}")


def validate(coeffs: ModelCoefficients) -> ModelCoefficients:
    """Gate for the nonlocal solver: mu > 0 and the cubic relation.

    The local form (`tendency_direct`) needs neither and does not call it.
    """
    if coeffs.mu <= 0.0:
        raise InvalidMu(f"mu must be positive, got {coeffs.mu}")
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
    integrator falls back to a small-step explicit scheme for it); se
    carries the extension slots alpha4/alpha5 and is likewise restricted
    to the direct form.
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
    return [(c, orders) for c, orders in terms if c != 0.0]


def _pad(u: SpectralField, terms) -> dict:
    """Samples on the padded grid of each derivative of u the terms use."""
    n = u.grid.n_points
    m = _dealias_size(n, max((len(o) for _, o in terms), default=2))
    needed = set().union(*(o for _, o in terms))
    return {k: _to_grid(u.coef * _dx_sigma(n, k) if k else u.coef, m) for k in needed}


def _truncated_sum(grid: dict, terms, n: int):
    """Half spectrum on n points of the sum of the terms' products; 0.0 if none."""
    if not terms:
        return 0.0
    return _from_grid(sum(math.prod((grid[k] for k in o), start=c) for c, o in terms), n)


def _square(c: ModelCoefficients):
    return _terms((c.gamma2 / c.mu, (0, 0)))


def _bracket(c: ModelCoefficients):
    mu = c.mu
    return _terms(
        (0.5 * c.alpha3 + 0.5 * c.beta2 / mu, (0, 0)),
        (c.gamma2 / (3.0 * mu), (0, 0, 0)),
        (0.5 * (c.beta1 - 3.0 * c.beta2), (1, 1)),
        (c.gamma3 - 2.0 * c.gamma2, (0, 1, 1)),
    )


def _transport(u: SpectralField, c: ModelCoefficients, grid: dict):
    """Half spectrum of a(u), with u^2 truncated."""
    a = (c.beta2 / c.mu) * u.coef + _truncated_sum(grid, _square(c), u.grid.n_points)
    a[0] += c.alpha2 / c.mu
    return a


def _semilinear_bracket(u: SpectralField, c: ModelCoefficients, grid: dict):
    """Half spectrum of Lam^{-2} applied to the bracket of f(u)."""
    n = u.grid.n_points
    bracket = (c.alpha1 + c.alpha2 / c.mu) * u.coef + _truncated_sum(grid, _bracket(c), n)
    return bracket * _lambda_sigma(n, -2.0, c.mu)


def transport_field(u: SpectralField, coeffs: ModelCoefficients) -> SpectralField:
    """Local transport speed a(u) = (alpha2 + beta2*u + gamma2*u^2)/mu."""
    validate(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        return SpectralField(u.grid, _transport(u, coeffs, _pad(u, _square(coeffs))))


def semilinear_term(u: SpectralField, coeffs: ModelCoefficients) -> SpectralField:
    """Smoothing part f(u) of the nonlocal form; its mean is exactly zero."""
    validate(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        smoothed = _semilinear_bracket(u, coeffs, _pad(u, _bracket(coeffs)))
        return SpectralField(u.grid, smoothed * _dx_sigma(u.grid.n_points, 1))


def tendency(u: SpectralField, coeffs: ModelCoefficients) -> SpectralField:
    """du/dt of the nonlocal form: f(u) - a(u)*u_x = -d/dx of `flux`.

    Requires validated conservative coefficients with mu > 0 and no
    extension slots.  The first-derivative symbol vanishes at mode 0 and
    at the Nyquist mode, so both slots of the output are exactly zero.
    """
    validate(coeffs)
    if coeffs.has_extended_terms:
        raise InvalidRegime(
            "extension slots alpha4/alpha5 are outside the nonlocal form; "
            "use tendency_direct"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return SpectralField(u.grid, -_flux(u, coeffs) * _dx_sigma(u.grid.n_points, 1))


def tendency_direct(u: SpectralField, coeffs: ModelCoefficients) -> SpectralField:
    """du/dt from the local form, smoothed by (1 - mu*d^2/dx^2)^{-1}.

    Works for any coefficient set with mu >= 0 (mu = 0 skips the smoothing
    and leaves the stiff local equation), conservative or not.  On
    conservative sets it matches `tendency` to round-off for band-limited
    fields, which is the standing reformulation oracle.
    """
    c = coeffs
    if c.mu < 0.0:
        raise InvalidMu(f"mu must be nonnegative, got {c.mu}")
    n = u.grid.n_points
    products = _terms(
        (c.alpha3, (0, 1)), (c.beta1, (1, 2)), (c.beta2, (0, 3)), (c.gamma1, (0, 1, 2)),
        (c.gamma2, (0, 0, 3)), (c.gamma3, (1, 1, 1)), (c.alpha4, (0, 0, 1)),
        (c.alpha5, (0, 0, 0, 1)),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = c.alpha1 * (u.coef * _dx_sigma(n, 1)) + c.alpha2 * (u.coef * _dx_sigma(n, 3))
        rhs = rhs + _truncated_sum(_pad(u, products), products, n)
        if c.mu != 0.0:
            rhs = rhs * _lambda_sigma(n, -2.0, c.mu)
        return SpectralField(u.grid, rhs)


def _flux(u: SpectralField, c: ModelCoefficients):
    """Half spectrum of Phi = P(u) - Lam^{-2}[semilinear bracket]."""
    powers = _terms((0.5 * c.beta2 / c.mu, (0, 0)), (c.gamma2 / (3.0 * c.mu), (0, 0, 0)))
    grid = _pad(u, _bracket(c) + powers)
    p = (c.alpha2 / c.mu) * u.coef + _truncated_sum(grid, powers, u.grid.n_points)
    return p - _semilinear_bracket(u, c, grid)


def flux(u: SpectralField, coeffs: ModelCoefficients) -> SpectralField:
    """Flux Phi with tendency(u) = -d/dx Phi(u).

    Phi = P(u) - Lam^{-2}[semilinear bracket], where P is the exact
    u-antiderivative of a(u): P(u) = (alpha2*u + beta2*u^2/2 + gamma2*u^3/3)/mu.
    """
    validate(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        return SpectralField(u.grid, _flux(u, coeffs))
