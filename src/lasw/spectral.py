"""Fourier representation of real periodic fields on the unit circle.

A field u on n points is determined by its Fourier coefficients u_hat[k]
for integer modes -n/2 <= k < n/2, with

    u(x) = sum_k u_hat[k] * exp(2*pi*i*k*x),        x in [0, 1).

A real field has u_hat[-k] = conj(u_hat[k]), so only the rfft half
spectrum is stored: modes 0 .. n/2-1, then the real coefficient of the
unpaired mode -n/2 in slot n/2 (the Nyquist slot).  The angular frequency
of mode k is xi_k = 2*pi*k (period-1 convention).

The linear operators :func:`derivative` and :func:`lambda_pow` act
diagonally on the coefficients through symbol arrays cached per grid
size (Fourier multipliers).  Products are formed on a grid zero-padded to
at least twice the size, so their retained modes carry no aliasing error:
`_to_grid` scales a half spectrum by m, splits its Nyquist coefficient
between modes +-n/2 and lets irfft zero-pad it; `_from_grid` transforms
back and folds that pair onto the Nyquist slot.  :func:`dealiased_product`
pads each factor.  The model right-hand sides fold the same scale into
their derivative symbols, make one stacked transform per padded grid, and
truncate all their sums in one rfft.
:func:`mollify` convolves with one built-in kernel, the rescaled bump
exp(-1/(y(1-y))) on [0, 1].

The field boundary is one decorator, `_at_the_boundary`, on the measures
here and the right-hand sides in `models`: a SpectralField runs under its
own np.errstate and gets a field, or a float for a measure; a bare half
spectrum or (B, n/2+1) stack runs under its caller's errstate and gets the
bare result, each row the bits it gets alone.

Fields are immutable value objects and every operation is a pure function,
so they can be shared freely across threads or processes.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    InvalidExponents,
    InvalidField,
    InvalidKernel,
    InvalidMu,
)
from .kinds import _count, _decay, _entropy, _grid, _integer, _number, _positive, admit

TWO_PI = 2.0 * math.pi

# Relative slack for the imaginary part of the mean and Nyquist
# coefficients; round-off from transforms stays many orders below this.
_HERMITIAN_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Equispaced periodic grid on [0, 1) with points x_j = j / n_points.

    n_points must be an even integer of at least 8 (GridMismatch
    otherwise); powers of two keep the transforms fastest but are not required.
    """

    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "n_points", admit(GridMismatch, _grid, self.n_points, "n_points"))

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points

    @property
    def modes(self) -> np.ndarray:
        """Integer mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1.

        The first n/2 + 1 label the slots of `SpectralField.coef`.
        """
        return np.fft.fftfreq(self.n_points, 1.0 / self.n_points).astype(int)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n_points


@dataclass(frozen=True)
class SpectralField:
    """Real periodic field stored by its half spectrum (rfft layout).

    coef has n_points/2 + 1 entries: modes 0 .. n/2-1, then the Nyquist
    mode -n/2; negative modes k > -n/2 are conj(coef[-k]).  The
    constructor validates the shape, finiteness and that the mean and
    Nyquist coefficients are real to within round-off, then makes those
    two exactly real.  The coefficient array is a frozen copy.
    """

    grid: Grid
    coef: np.ndarray
    # an ndarray or numpy scalar operand defers to the field's own operators
    __array_ufunc__ = None

    def __post_init__(self):
        half = self.grid.n_points // 2
        coef = np.array(self.coef, dtype=np.complex128)
        if coef.shape != (half + 1,):
            raise InvalidField(
                f"expected {half + 1} coefficients (modes 0..{half}), got shape {coef.shape}"
            )
        if not np.all(np.isfinite(coef)):
            raise InvalidField("non-finite coefficient")
        # slack is _HERMITIAN_RTOL * max(1, max|coef|); scan coef only past its floor
        imag = max(abs(coef[0].imag), abs(coef[half].imag))
        if imag > _HERMITIAN_RTOL and imag > _HERMITIAN_RTOL * float(np.max(np.abs(coef))):
            raise InvalidField("mean and Nyquist coefficients must be real")
        coef[0] = coef[0].real
        coef[half] = coef[half].real
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    def mode(self, n: int) -> complex:
        """Coefficient of mode n (raises GridMismatch if unrepresentable)."""
        half = self.grid.n_points // 2
        if not -half <= admit(GridMismatch, _integer, n, "n") < half:
            raise GridMismatch(f"mode {n} not representable on {self.grid.n_points} points")
        return complex(self.coef[n] if n >= 0 else np.conj(self.coef[-n]))

    # -- value-object arithmetic ------------------------------------------

    def _same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise GridMismatch(
                f"grids differ: {self.grid.n_points} vs {other.grid.n_points}"
            )

    def _combine(self, other, op):
        """self op other, a field on the same grid; an overflow is InvalidField, with no warning."""
        if not isinstance(other, SpectralField):
            return NotImplemented
        self._same_grid(other)
        with np.errstate(over="ignore"):
            return SpectralField(self.grid, op(self.coef, other.coef))

    __add__ = functools.partialmethod(_combine, op=np.add)
    __sub__ = functools.partialmethod(_combine, op=np.subtract)

    def __mul__(self, scalar, divide=False):
        """The field times a real scalar, or over it if divide; a bool or other value is a
        TypeError, and an overflow or a zero divisor InvalidField, with no warning."""
        if isinstance(scalar, SpectralField):
            raise TypeError("use dealiased_product for field*field")
        if isinstance(scalar, bool) or not isinstance(scalar, numbers.Real):
            raise TypeError("only real scalars keep the field real")
        factor = float(scalar)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return SpectralField(self.grid, self.coef * (np.divide(1.0, factor) if divide else factor))

    __rmul__ = __mul__
    __truediv__ = functools.partialmethod(__mul__, divide=True)

    def __neg__(self):
        return SpectralField(self.grid, -self.coef)


# ---------------------------------------------------------------------------
# half-spectrum plumbing (padding, coefficient normalization)
# ---------------------------------------------------------------------------

def _points(h: np.ndarray) -> int:
    """Grid size of a half spectrum, or of each row of a (B, n/2+1) stack."""
    return 2 * (h.shape[-1] - 1)


def _resize(h: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum h zero-padded or truncated to n points (h itself if unchanged).

    Padding splits the unpaired Nyquist coefficient between modes +-n_h/2;
    truncation, its adjoint, folds the +-n/2 pair back onto the Nyquist slot.
    A (B, n_h/2+1) stack is resized row by row.
    """
    old = _points(h)
    if n == old:
        return h
    half = min(n, old) // 2
    out = np.zeros(h.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    out[..., :half] = h[..., :half]
    out[..., half] = (0.5 if n > old else 2.0) * h[..., half].real
    return out


def _to_grid(h: np.ndarray, m: int) -> np.ndarray:
    """Samples on m points of the half spectrum h of a field on at most m points.

    Like `_from_grid`, it acts on the last axis, so a stack goes row by row.
    """
    scaled = h * m
    if m > _points(h):  # split the Nyquist coefficient between modes +-n/2
        scaled[..., -1] = 0.5 * scaled[..., -1].real
    return np.fft.irfft(scaled, n=m)


def _from_grid(samples: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum on n points of real samples on at least n points."""
    m = samples.shape[-1]
    h = np.fft.rfft(samples)[..., : n // 2 + 1] / m
    if n < m:  # fold the +-n/2 pair onto the Nyquist slot
        h[..., -1] = 2.0 * h[..., -1].real
    return h


def _at_the_boundary(fn):
    """fn of a bare half spectrum -> one that also takes a SpectralField, whose
    overflow is the field constructor's to report, or reads inf or nan in a
    measure; a bare call gets fn's result as it is."""
    @functools.wraps(fn)
    def either(u, *args, **kwargs):
        if not isinstance(u, SpectralField):
            return fn(u, *args, **kwargs)
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(u.coef, *args, **kwargs)
            return float(out) if np.ndim(out) == 0 else SpectralField(u.grid, out)
    return either


def _dealias_size(n: int, count: int) -> int:
    """Padded size free of aliasing for products of `count` factors on n points: the
    least even 2^a * 3^b at or above the alias-free bound.  The radix-2 and radix-3
    passes of an rfft cancel equal samples exactly, so a constant state is an exact
    fixed point of a right-hand side; a radix-5 pass does not (80 points left
    2.3e-13 in se's tendency of a constant)."""
    bound = max(2 * n, 2 * math.ceil((count + 1) * n / 4))
    best, three = 2 * bound, 1
    while 2 * three < best:
        m = 2 * three
        while m < bound:
            m *= 2
        best, three = min(best, m), 3 * three
    return best


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def from_physical(samples, grid: Grid | None = None) -> SpectralField:
    """Field from real samples at the collocation points.

    The inverse of :func:`to_physical`; the round trip reproduces the
    samples to machine precision and Parseval holds between sample energy
    mean(u_j^2) and coefficient energy sum |u_hat|^2.  Anything but a
    one-dimensional sequence of real numbers (a string, complex or boolean
    samples, a ragged nesting) is InvalidField.
    """
    try:
        samples = np.asarray(samples)
    except ValueError:  # a ragged nesting
        samples = None
    if samples is None or samples.ndim != 1 or samples.dtype.kind not in "iuf":
        raise InvalidField("samples must be a one-dimensional real sequence")
    samples = samples.astype(np.float64, copy=False)
    if not np.all(np.isfinite(samples)):
        raise InvalidField("non-finite sample")
    if grid is None:
        grid = Grid(samples.shape[0])
    elif samples.shape[0] != grid.n_points:
        raise InvalidField(
            f"expected {grid.n_points} samples, got {samples.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the constructor's to report
        return SpectralField(grid, _from_grid(samples, grid.n_points))


def to_physical(field: SpectralField) -> np.ndarray:
    """Real samples of the field at the collocation points."""
    return _to_grid(field.coef, field.grid.n_points)


def zeros(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_points // 2 + 1, dtype=np.complex128))


def constant(grid: Grid, value: float) -> SpectralField:
    coef = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
    coef[0] = admit(InvalidField, _number, value, "value")
    return SpectralField(grid, coef)


def resample(field: SpectralField, n_points: int) -> SpectralField:
    """Spectral interpolation (pad) or truncation to a new grid size."""
    return SpectralField(Grid(n_points), _resize(field.coef, n_points))


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------

def _real_sigma(values: np.ndarray, n: int) -> np.ndarray:
    """Frozen half-spectrum symbol from values at Grid(n).modes.

    Symmetrized as 0.5*(sigma(k) + conj(sigma(-k))), so the Nyquist entry
    keeps the real part of sigma(-n/2).
    """
    values = 0.5 * (values + np.conj(values[(-np.arange(n)) % n]))
    values = values[: n // 2 + 1].copy()
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
    order = admit(InvalidExponents, _count, order, "order")
    return SpectralField(field.grid, field.coef * _dx_sigma(field.grid.n_points, order))


def lambda_pow(field: SpectralField, s: float, mu: float = 1.0) -> SpectralField:
    """Apply (1 - mu * d^2/dx^2)^(s/2); negative s is smoothing."""
    mu = admit(InvalidMu, _positive, mu, "mu")
    s = admit(InvalidExponents, _number, s, "s")
    n = field.grid.n_points
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the constructor's to report
        return SpectralField(field.grid, field.coef * _lambda_sigma(n, s, mu))


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------

def dealiased_product(f: SpectralField, g: SpectralField, *more: SpectralField) -> SpectralField:
    """Fourier truncation of the pointwise product f*g*..., free of aliasing.

    Every factor is zero-padded to m points, multiplied pointwise and
    truncated back, which equals the exact truncated convolution of the
    coefficient sequences.  m = 2*n_points suffices for quadratic and
    cubic terms on the retained band; higher powers need (count+1)*n/2,
    rounded up to an even 2^a * 3^b (`_dealias_size`).
    """
    fields = (f, g, *more)
    for other in fields[1:]:
        f._same_grid(other)
    n = f.grid.n_points
    m = _dealias_size(n, len(fields))
    # overflow is allowed to propagate: the field constructor turns it
    # into InvalidField
    with np.errstate(over="ignore", invalid="ignore"):
        prod = _to_grid(f.coef, m)
        for other in fields[1:]:
            prod = prod * _to_grid(other.coef, m)
        h = _from_grid(prod, n)
    return SpectralField(f.grid, h)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=128, typed=True)
def _sobolev_weight(n: int, s) -> tuple[np.ndarray, bool]:
    """(1 + xi_k^2)^s on the half spectrum, doubled where mode k stands for -k too,
    and whether any weight is past the float range (inf).  s is checked here,
    once per (n, s) and type of s, so a cached call checks nothing."""
    s = admit(InvalidExponents, _number, s, "s")
    half = n // 2
    xi = TWO_PI * np.arange(half + 1)
    with np.errstate(over="ignore"):
        weight = (1.0 + xi * xi) ** s
        weight[1:half] *= 2.0
    weight.flags.writeable = False
    return weight, bool(np.isinf(weight).any())


@_at_the_boundary
def mean(h):
    """Spatial mean, i.e. the mode-0 coefficient."""
    return h[..., 0].real


@_at_the_boundary
def sobolev_norm(h, s: float):
    """H^s norm: sqrt(sum_n (1 + xi_n^2)^s |u_hat[n]|^2) with xi_n = 2*pi*n.

    The sum runs over all modes -n/2 <= n < n/2; each stored mode
    0 < k < n/2 stands for itself and its conjugate -k.  An overflowing
    field has norm inf.
    """
    power = h.real ** 2 + h.imag ** 2
    try:
        weight, overflows = _sobolev_weight(_points(h), s)
    except TypeError:  # an unhashable s cannot key the cache; its kind names it
        admit(InvalidExponents, _number, s, "s")
        raise
    if overflows:  # an inf weight on a zero mode adds 0, not nan
        return np.sqrt((weight * power).sum(-1, where=power > 0.0))
    return np.sqrt((weight * power).sum(-1))


def l2_norm(u):
    return sobolev_norm(u, 0.0)


@_at_the_boundary
def sup_norm(h):
    """max |u| evaluated on the grid refined by a factor 4."""
    return np.max(np.abs(_to_grid(h, 4 * _points(h))), axis=-1)


@_at_the_boundary
def sup_norm_dx(h):
    """max |u_x| on the refined grid; the wave-breaking monitor."""
    n = _points(h)
    return np.max(np.abs(_to_grid(h * _dx_sigma(n, 1), 4 * n)), axis=-1)


@_at_the_boundary
def spectral_tail(h):
    """Largest coefficient magnitude in the top third of representable modes."""
    return np.max(np.abs(h[..., math.ceil(_points(h) / 3):]), axis=-1)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _bump_raw(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    inside = (y > 0.0) & (y < 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out[inside] = np.exp(-1.0 / (y[inside] * (1.0 - y[inside])))
    return out


@functools.lru_cache(maxsize=1)
def _bump_scale() -> float:
    m = 1 << 16
    return 1.0 / float(np.mean(_bump_raw(np.arange(m) / m)))


def _bump(y: np.ndarray) -> np.ndarray:
    """Mollifier profile: the bump exp(-1/(y(1-y))) on [0, 1], normalized to mass 1.

    The mass is computed numerically.  The bump vanishes with all its
    derivatives at both endpoints, which makes the quadrature in `mollify`
    spectrally accurate.
    """
    return _bump_scale() * _bump_raw(y)


# Largest mollification index: its share 64*n of the quadrature grid stays within 2^22 points.
_MOLLIFY_INDEX_MAX = 1 << 16
_mollify_index = functools.partial(_count, at_most=_MOLLIFY_INDEX_MAX)


def _kernel_fine_size(n_points: int, n: int) -> int:
    target = max(8192, 16 * n_points, 64 * n)
    return 1 << max(13, int(math.ceil(math.log2(target))))


def mollify(field: SpectralField, n: int) -> SpectralField:
    """Periodic convolution with the rescaled bump rho_n(x) = n*rho(n*x).

    rho is the built-in bump kernel exp(-1/(y(1-y))) on [0, 1] (`_bump`).
    Its symbol comes from a quadrature on a fine grid; the quadrature must
    give unit mass to within 1e-10 (InvalidKernel otherwise).  After an
    exact renormalization the mean of the field is preserved bit-for-bit.
    Output coefficients decay super-algebraically.  n runs from 1 to
    2^16; on fields of up to 2^18 points that keeps the quadrature grid
    within 2^22 points (~150 MB peak), and larger fields set it themselves.
    """
    n = admit(InvalidKernel, _mollify_index, n, "n")
    npts = field.grid.n_points
    m = _kernel_fine_size(npts, n)
    y = n * (np.arange(m) / m)
    vals = np.zeros(m)
    mask = y <= 1.0
    vals[mask] = n * _bump(y[mask])
    sig = np.fft.rfft(vals) / m
    mass = sig[0].real
    if abs(mass - 1.0) > 1e-10:
        raise InvalidKernel(f"bump kernel has integral {mass:.12g}, expected 1 within 1e-10")
    sig = sig / mass
    ny = npts // 2
    mult = sig[: ny + 1].copy()
    mult[ny] = mult[ny].real
    return SpectralField(field.grid, field.coef * mult)


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
    reproduces the same field on any grid that can represent max_mode.  seed is
    a nonnegative integer or a non-empty list of them (InvalidField otherwise).
    Passing decay_exponent = math.inf selects a single random low mode.
    """
    if not 1 <= admit(GridMismatch, _integer, max_mode, "max_mode") < grid.n_points // 2:
        raise GridMismatch(
            f"max_mode must satisfy 1 <= max_mode < {grid.n_points // 2}, got {max_mode}"
        )
    admit(InvalidExponents, _decay, decay_exponent, "decay_exponent")
    rng = np.random.default_rng(admit(InvalidField, _entropy, seed, "seed"))
    coef = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
    if math.isinf(decay_exponent):
        m = int(rng.integers(1, max_mode + 1))
        phase = rng.uniform(0.0, TWO_PI)
        coef[m] = 0.5 * np.exp(1j * phase)
    else:
        for m in range(1, max_mode + 1):
            amp = rng.uniform(0.25, 1.0)
            phase = rng.uniform(0.0, TWO_PI)
            coef[m] = 0.5 * amp * (1.0 + m) ** (-decay_exponent) * np.exp(1j * phase)
    return SpectralField(grid, coef)
