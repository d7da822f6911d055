"""Fourier representation of real periodic fields on the unit circle.

A field u is stored through its Fourier coefficients u_hat[n] for integer
modes -n_points/2 <= n < n_points/2, with

    u(x) = sum_n u_hat[n] * exp(2*pi*i*n*x),        x in [0, 1).

The angular frequency of mode n is xi_n = 2*pi*n (period-1 convention).
The linear operators :func:`derivative` and :func:`lambda_pow` act
diagonally on the coefficients through symbol arrays cached per grid
size (Fourier multipliers); nonlinear terms go through the n-ary
:func:`dealiased_product`, which zero-pads to at least twice the grid
before multiplying pointwise, so the retained modes of products carry no
aliasing error.

Fields are immutable value objects and every operation is a pure function,
so they can be shared freely across threads or processes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GridMismatch,
    InvalidExponents,
    InvalidField,
    InvalidKernel,
    InvalidMu,
)

TWO_PI = 2.0 * math.pi

# Hermitian-symmetry slack for constructed coefficient arrays; round-off
# from transforms stays many orders below this.
_HERMITIAN_RTOL = 1e-9


@functools.lru_cache(maxsize=128)
def _conj_index(n: int) -> np.ndarray:
    """Index map sending the slot of mode k to the slot of mode -k."""
    idx = (-np.arange(n)) % n
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class Grid:
    """Equispaced periodic grid on [0, 1) with points x_j = j / n_points.

    n_points must be even and at least 8; powers of two keep the
    transforms fastest but are not required.
    """

    n_points: int

    def __post_init__(self):
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n < 8 or n % 2 != 0:
            raise ValueError(f"n_points must be an even integer >= 8, got {n!r}")
        object.__setattr__(self, "n_points", int(n))

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points

    @property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1."""
        return np.fft.fftfreq(self.n_points, 1.0 / self.n_points).astype(int)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n_points


@dataclass(frozen=True)
class SpectralField:
    """Real periodic field stored by its Fourier coefficients (FFT order).

    The constructor validates finiteness and Hermitian symmetry
    (coef[-n] == conj(coef[n])), then symmetrizes exactly so downstream
    reality is guaranteed.  The coefficient array is frozen.
    """

    grid: Grid
    coef: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        coef = np.asarray(self.coef, dtype=np.complex128)
        if coef.shape != (n,):
            raise InvalidField(
                f"expected {n} coefficients, got shape {coef.shape}"
            )
        if not np.all(np.isfinite(coef)):
            raise InvalidField("non-finite coefficient")
        mirror = np.conj(coef[_conj_index(n)])
        scale = max(1.0, float(np.max(np.abs(coef))))
        if float(np.max(np.abs(coef - mirror))) > _HERMITIAN_RTOL * scale:
            raise InvalidField("coefficients are not Hermitian-symmetric")
        coef = 0.5 * (coef + mirror)
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    def mode(self, n: int) -> complex:
        """Coefficient of mode n (raises GridMismatch if unrepresentable)."""
        half = self.grid.n_points // 2
        if not -half <= n < half:
            raise GridMismatch(f"mode {n} not representable on {self.grid.n_points} points")
        return complex(self.coef[n % self.grid.n_points])

    # -- value-object arithmetic ------------------------------------------

    def _same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise GridMismatch(
                f"grids differ: {self.grid.n_points} vs {other.grid.n_points}"
            )

    def __add__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        self._same_grid(other)
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        self._same_grid(other)
        return SpectralField(self.grid, self.coef - other.coef)

    def __mul__(self, scalar):
        if isinstance(scalar, SpectralField):
            raise TypeError("use dealiased_product for field*field")
        if not np.isreal(scalar):
            raise TypeError("only real scalars keep the field real")
        return SpectralField(self.grid, self.coef * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __neg__(self):
        return SpectralField(self.grid, -self.coef)


# ---------------------------------------------------------------------------
# half-spectrum plumbing (rfft layout, coefficient normalization)
# ---------------------------------------------------------------------------

def _half(coef: np.ndarray) -> np.ndarray:
    """Modes 0..n/2 of a full spectrum; slot n/2 holds the -n/2 coefficient."""
    n = coef.shape[0]
    h = np.empty(n // 2 + 1, dtype=np.complex128)
    h[: n // 2] = coef[: n // 2]
    h[n // 2] = coef[n // 2]
    return h

def _full_from_half(h: np.ndarray, n: int) -> np.ndarray:
    coef = np.empty(n, dtype=np.complex128)
    coef[: n // 2] = h[: n // 2]
    coef[n // 2] = h[n // 2].real
    coef[n // 2 + 1:] = np.conj(h[1: n // 2][::-1])
    return coef

def _pad_half(h: np.ndarray, n: int, m: int) -> np.ndarray:
    """Zero-pad to m points; the unpaired Nyquist coefficient is split in two."""
    hp = np.zeros(m // 2 + 1, dtype=np.complex128)
    hp[: n // 2] = h[: n // 2]
    hp[n // 2] = 0.5 * h[n // 2]
    return hp

def _truncate_half(hp: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of _pad_half: fold the +-n/2 pair back onto the Nyquist slot."""
    h = np.empty(n // 2 + 1, dtype=np.complex128)
    h[: n // 2] = hp[: n // 2]
    h[n // 2] = 2.0 * hp[n // 2].real
    return h

def _phys(h: np.ndarray, m: int) -> np.ndarray:
    """Physical samples on m points from a coefficient-normalized half spectrum."""
    return np.fft.irfft(h * m, n=m)

def _half_from_phys(samples: np.ndarray) -> np.ndarray:
    return np.fft.rfft(samples) / samples.shape[0]

def _padded_samples(field: SpectralField, m: int) -> np.ndarray:
    """Samples of the field on a refined grid of m >= n_points points."""
    return _phys(_pad_half(_half(field.coef), field.grid.n_points, m), m)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def from_physical(samples, grid: Grid | None = None) -> SpectralField:
    """Field from real samples at the collocation points.

    The inverse of :func:`to_physical`; the round trip reproduces the
    samples to machine precision and Parseval holds between sample energy
    mean(u_j^2) and coefficient energy sum |u_hat|^2.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise InvalidField("samples must be a one-dimensional real sequence")
    if not np.all(np.isfinite(samples)):
        raise InvalidField("non-finite sample")
    if grid is None:
        grid = Grid(samples.shape[0])
    elif samples.shape[0] != grid.n_points:
        raise InvalidField(
            f"expected {grid.n_points} samples, got {samples.shape[0]}"
        )
    return SpectralField(grid, _full_from_half(_half_from_phys(samples), grid.n_points))


def to_physical(field: SpectralField) -> np.ndarray:
    """Real samples of the field at the collocation points."""
    return _phys(_half(field.coef), field.grid.n_points)


def zeros(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_points, dtype=np.complex128))


def constant(grid: Grid, value: float) -> SpectralField:
    coef = np.zeros(grid.n_points, dtype=np.complex128)
    coef[0] = float(value)
    return SpectralField(grid, coef)


def mean(field: SpectralField) -> float:
    """Spatial mean, i.e. the mode-0 coefficient."""
    return float(field.coef[0].real)


def resample(field: SpectralField, n_points: int) -> SpectralField:
    """Spectral interpolation (pad) or truncation to a new grid size."""
    new = Grid(n_points)
    old = field.grid.n_points
    if n_points == old:
        return field
    h = _half(field.coef)
    if n_points > old:
        h = _pad_half(h, old, n_points)
    else:
        h = _truncate_half(h, n_points)
    return SpectralField(new, _full_from_half(h, n_points))


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

def _real_sigma(values: np.ndarray, n: int) -> np.ndarray:
    """Frozen symbol with sigma(-k) == conj(sigma(k)); Nyquist keeps its real part."""
    values = 0.5 * (values + np.conj(values[_conj_index(n)]))
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=128)
def _dx_sigma(n: int, order: int) -> np.ndarray:
    """Symbol (i*xi_n)^order of d^order/dx^order."""
    return _real_sigma((1j * TWO_PI * Grid(n).modes) ** order, n)


@functools.lru_cache(maxsize=128)
def _lambda_sigma(n: int, s: float, mu: float) -> np.ndarray:
    """Symbol (1 + mu*xi_n^2)^(s/2) of the smoothing scale operator."""
    return _real_sigma((1.0 + mu * (TWO_PI * Grid(n).modes) ** 2) ** (s / 2.0) + 0.0j, n)


def derivative(field: SpectralField, order: int = 1) -> SpectralField:
    """Spectral derivative d^order/dx^order.

    The unpaired Nyquist mode uses the single-sided convention
    sigma(-n/2) -> Re sigma(-n/2), which zeroes the Nyquist output of
    odd-order derivatives.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("derivative order must be a positive integer")
    n = field.grid.n_points
    return SpectralField(field.grid, field.coef * _dx_sigma(n, int(order)))


def lambda_pow(field: SpectralField, s: float, mu: float = 1.0) -> SpectralField:
    """Apply (1 - mu * d^2/dx^2)^(s/2); negative s is smoothing."""
    if mu <= 0:
        raise InvalidMu(f"mu must be positive, got {mu}")
    s = float(s)
    mu = float(mu)
    if not math.isfinite(mu):
        raise InvalidMu(f"mu must be finite, got {mu}")
    if not math.isfinite(s):
        raise InvalidExponents(f"s must be finite, got {s}")
    n = field.grid.n_points
    return SpectralField(field.grid, field.coef * _lambda_sigma(n, s, mu))


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------

def dealiased_product(f: SpectralField, g: SpectralField, *more: SpectralField) -> SpectralField:
    """Fourier truncation of the pointwise product f*g*..., free of aliasing.

    Every factor is zero-padded to m points, multiplied pointwise and
    truncated back, which equals the exact truncated convolution of the
    coefficient sequences.  m = 2*n_points suffices for quadratic and
    cubic terms on the retained band; higher powers need (count+1)*n/2.
    """
    fields = (f, g, *more)
    for other in fields[1:]:
        f._same_grid(other)
    n = f.grid.n_points
    m = max(2 * n, 2 * math.ceil((len(fields) + 1) * n / 4))
    # overflow is allowed to propagate: the field constructor turns it
    # into InvalidField, which the integrator maps to a NonFinite status
    with np.errstate(over="ignore", invalid="ignore"):
        prod = _padded_samples(f, m)
        for other in fields[1:]:
            prod = prod * _padded_samples(other, m)
        h = _truncate_half(_half_from_phys(prod), n)
    return SpectralField(f.grid, _full_from_half(h, n))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def sobolev_norm(field: SpectralField, s: float) -> float:
    """H^s norm: sqrt(sum_n (1 + xi_n^2)^s |u_hat[n]|^2) with xi_n = 2*pi*n."""
    xi = TWO_PI * field.grid.modes.astype(np.float64)
    weight = (1.0 + xi * xi) ** float(s)
    power = field.coef.real ** 2 + field.coef.imag ** 2
    return float(math.sqrt(np.sum(weight * power)))


def l2_norm(field: SpectralField) -> float:
    return sobolev_norm(field, 0.0)


def sup_norm(field: SpectralField, refinement: int = 4) -> float:
    """max |u| evaluated on a refined grid (default refinement factor 4)."""
    if refinement < 1:
        raise ValueError("refinement factor must be at least 1")
    m = refinement * field.grid.n_points
    return float(np.max(np.abs(_padded_samples(field, m))))


def sup_norm_dx(field: SpectralField, refinement: int = 4) -> float:
    """max |u_x| on the refined grid; the wave-breaking monitor."""
    return sup_norm(derivative(field, 1), refinement)


def spectral_tail(field: SpectralField) -> float:
    """Largest coefficient magnitude in the top third of representable modes."""
    n = field.grid.n_points
    cutoff = int(math.ceil(n / 3))
    mask = np.abs(field.grid.modes) >= cutoff
    return float(np.max(np.abs(field.coef[mask])))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mollifier:
    """Smooth kernel supported in [0, 1] with unit integral.

    ``profile`` is evaluated on arrays of points in [0, 1] and must vanish
    at both endpoints (all derivatives included) for spectral accuracy of
    the quadrature used here.
    """

    name: str
    profile: Callable[[np.ndarray], np.ndarray]


def _bump_raw(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    inside = (y > 0.0) & (y < 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out[inside] = np.exp(-1.0 / (y[inside] * (1.0 - y[inside])))
    return out


@functools.lru_cache(maxsize=1)
def default_mollifier() -> Mollifier:
    """The standard bump exp(-1/(y(1-y))), numerically normalized to mass 1."""
    m = 1 << 16
    mass = float(np.mean(_bump_raw(np.arange(m) / m)))
    scale = 1.0 / mass
    return Mollifier("bump", lambda y: scale * _bump_raw(np.asarray(y, dtype=np.float64)))


def _kernel_fine_size(n_points: int, n: int) -> int:
    target = max(8192, 16 * n_points, 64 * n)
    return 1 << max(13, int(math.ceil(math.log2(target))))


def kernel_coefficients(kernel: Mollifier, n: int, m: int) -> np.ndarray:
    """Fourier coefficients of the rescaled kernel n*rho(n*x) on a fine grid."""
    x = np.arange(m) / m
    y = n * x
    vals = np.zeros(m)
    mask = y <= 1.0
    vals[mask] = n * kernel.profile(y[mask])
    return np.fft.rfft(vals) / m


def mollify(field: SpectralField, n: int, kernel: Mollifier | None = None) -> SpectralField:
    """Periodic convolution with the rescaled kernel rho_n(x) = n*rho(n*x).

    The kernel must carry unit mass to within 1e-10 (InvalidKernel
    otherwise); after an exact renormalization the mean of the field is
    preserved bit-for-bit.  Output coefficients decay super-algebraically.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"mollification index must be a positive integer, got {n!r}")
    if kernel is None:
        kernel = default_mollifier()
    npts = field.grid.n_points
    fine = _kernel_fine_size(npts, int(n))
    sig = kernel_coefficients(kernel, int(n), fine)
    mass = sig[0].real
    if abs(mass - 1.0) > 1e-10:
        raise InvalidKernel(
            f"kernel {kernel.name!r} has integral {mass:.12g}, expected 1 within 1e-10"
        )
    sig = sig / mass
    ny = npts // 2
    mult = sig[: ny + 1].copy()
    mult[ny] = mult[ny].real
    h = _half(field.coef) * mult
    return SpectralField(field.grid, _full_from_half(h, npts))


# ---------------------------------------------------------------------------
# reproducible random fields
# ---------------------------------------------------------------------------

def random_trig_polynomial(
    grid: Grid,
    seed,
    max_mode: int,
    decay_exponent: float,
) -> SpectralField:
    """Zero-mean random real trigonometric polynomial.

    Coefficient magnitude at mode n is bounded by (1+|n|)^(-decay_exponent).
    Draws depend only on (seed, max_mode, decay_exponent), so the same seed
    reproduces the same field on any grid that can represent max_mode.
    Passing decay_exponent = math.inf selects a single random low mode.
    """
    if max_mode < 1 or max_mode >= grid.n_points // 2:
        raise GridMismatch(
            f"max_mode must satisfy 1 <= max_mode < {grid.n_points // 2}, got {max_mode}"
        )
    if not math.isinf(decay_exponent) and decay_exponent < 0:
        raise ValueError("decay_exponent must be nonnegative (or math.inf)")
    rng = np.random.default_rng(seed)
    n = grid.n_points
    coef = np.zeros(n, dtype=np.complex128)
    if math.isinf(decay_exponent):
        m = int(rng.integers(1, max_mode + 1))
        phase = rng.uniform(0.0, TWO_PI)
        coef[m] = 0.5 * np.exp(1j * phase)
    else:
        for m in range(1, max_mode + 1):
            amp = rng.uniform(0.25, 1.0)
            phase = rng.uniform(0.0, TWO_PI)
            coef[m] = 0.5 * amp * (1.0 + m) ** (-decay_exponent) * np.exp(1j * phase)
    coef[n // 2 + 1:] = np.conj(coef[1: n // 2][::-1])
    return SpectralField(grid, coef)
