"""Exponentially weighted time spaces and the operator calculus on them.

A signal u lives in the discrete shadow of H_{nu,0}(R, C^m), the Hilbert
space with inner product integral(conj(f) g exp(-2 nu t) dt), nu > 0.  The
Fourier-Laplace transform

    (L_nu u)(xi) = (1/sqrt(2 pi)) integral( exp(-i xi t) exp(-nu t) u(t) dt )

is unitary from H_{nu,0} onto L^2(R).  Bounded analytic functions M of the
inverse time derivative act by multiplication with M(1/(i xi + nu)) in the
transformed picture.  The causal antiderivative has operator norm 1/nu.

Discretely, a uniform window [t_start, t_start + n dt) carries the samples,
the transform is an FFT of the exp(-nu t)-weighted samples, and the trailing
pad_fraction of the window is kept zero so circular wraparound of causal
tails is suppressed by exp(-nu T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ZERO_TIME_TOL = 1e-9
SUPPORTED_NORM_ORDERS = (-2, -1, 0, 1, 2)


class UnsupportedOrder(ValueError):
    """Requested derivative order outside the realized range {-2, ..., 2}."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling window with a zero-padded tail.

    Attributes
    ----------
    t_start : float
        Time of the first sample.
    dt : float
        Sample spacing, > 0.
    n_samples : int
        Number of samples, >= 2 (powers of two recommended for the FFT).
    pad_fraction : float
        Fraction in [0, 1) of the window reserved as zero padding at the
        tail; signals declared causal-on-window must vanish there.
    """

    t_start: float
    dt: float
    n_samples: int
    pad_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 0.0 <= self.pad_fraction < 1.0:
            raise ValueError(f"pad_fraction must lie in [0, 1), got {self.pad_fraction}")

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    @property
    def t_end(self) -> float:
        return self.t_start + self.dt * self.n_samples

    @property
    def n_pad(self) -> int:
        return int(round(self.pad_fraction * self.n_samples))

    @property
    def n_core(self) -> int:
        return self.n_samples - self.n_pad

    @property
    def core_end_time(self) -> float:
        """First time of the padded tail (exclusive end of the core window)."""
        return self.t_start + self.dt * self.n_core

    @property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies xi_m of the discrete transform, fftfreq order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, self.dt)

    @cached_property
    def zero_index(self) -> int:
        """Index of the first sample at t >= 0 (within ZERO_TIME_TOL); n_samples if none.

        Causal data vanish before this row and every time-domain solver
        leaves the rows before it exactly zero.  Computed once per grid; not
        a field, so equality and hashing ignore it.
        """
        return int(np.count_nonzero(self.times < -ZERO_TIME_TOL))

    def require_zero(self, error: type[Exception] = ValueError) -> None:
        """Raise error unless the first sample at t >= 0, where every solver starts, is t = 0."""
        if self.zero_index == self.n_samples or abs(self.times[self.zero_index]) > ZERO_TIME_TOL:
            raise error("time window must contain t = 0 as a sample: t_start must be a multiple of dt")

    def index_at(self, t: float, *, tol: float = 1e-9) -> int:
        """Grid index of time t; t must be grid-aligned within tol."""
        i = int(round((t - self.t_start) / self.dt))
        if not 0 <= i < self.n_samples:
            raise ValueError(f"time {t} outside window [{self.t_start}, {self.t_end})")
        if abs(self.t_start + i * self.dt - t) > tol * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not grid-aligned (dt={self.dt})")
        return i


def _grid_samples(grid: TimeGrid, nu: float, samples: np.ndarray) -> np.ndarray:
    """Samples as a complex (n_samples, channels) array; validates nu and the row count."""
    if not nu > 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    arr = np.asarray(samples, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"samples must be 1-d or 2-d, got shape {arr.shape}")
    if arr.shape[0] != grid.n_samples:
        raise ValueError(f"samples rows {arr.shape[0]} != grid n_samples {grid.n_samples}")
    return arr


@dataclass
class WeightedSignal:
    """Sampled element of H_{nu,0}(R, C^channels) on a TimeGrid."""

    grid: TimeGrid
    nu: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = _grid_samples(self.grid, self.nu, self.samples)

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def with_samples(self, samples: np.ndarray) -> "WeightedSignal":
        return WeightedSignal(self.grid, self.nu, samples)


@dataclass
class Spectrum:
    """Discrete Fourier-Laplace transform values on the grid's frequencies."""

    grid: TimeGrid
    nu: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = _grid_samples(self.grid, self.nu, self.samples)

    def ell2_norm(self) -> float:
        """sqrt(sum |S_m|^2 dxi); equals the H_{nu,0} norm of the signal."""
        dxi = 2.0 * np.pi / (self.grid.n_samples * self.grid.dt)
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * dxi))


@dataclass
class MaterialSymbol:
    """Matrix polynomial in z plus causal delay terms, analytic on B(r, r).

    Represents z -> sum_j poly_coeffs[j] z^j + sum_i delays[i][1] exp(h_i / z)
    with every delay offset h_i <= 0.  On the ball B(r, r) one has
    Re(1/z) > 1/(2r), so each delay factor is bounded by exp(h_i/(2r)) and
    the symbol is bounded analytic there.  Evaluation at z = 1/(i t + nu)
    requires nu > 1/(2 radius).
    """

    dim: int
    poly_coeffs: list[np.ndarray] = field(default_factory=list)
    delays: list[tuple[float, np.ndarray]] = field(default_factory=list)
    radius: float = math.inf

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        self.poly_coeffs = [self._check_coeff(M) for M in self.poly_coeffs]
        checked = []
        for h, C in self.delays:
            if h > 0:
                raise ValueError(f"delay offset must be <= 0 (causal), got {h}")
            checked.append((float(h), self._check_coeff(C)))
        self.delays = checked

    def _check_coeff(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=np.complex128)
        if M.shape != (self.dim, self.dim):
            raise ValueError(f"coefficient shape {M.shape} != ({self.dim}, {self.dim})")
        return M

    @classmethod
    def identity(cls, dim: int) -> "MaterialSymbol":
        return cls(dim=dim, poly_coeffs=[np.eye(dim, dtype=np.complex128)])

    @classmethod
    def zero(cls, dim: int) -> "MaterialSymbol":
        return cls(dim=dim, poly_coeffs=[])

    @classmethod
    def inverse_derivative(cls, dim: int = 1) -> "MaterialSymbol":
        """The symbol z itself: multiplication realizes the causal antiderivative."""
        z1 = np.eye(dim, dtype=np.complex128)
        return cls(dim=dim, poly_coeffs=[np.zeros((dim, dim), dtype=np.complex128), z1])

    @classmethod
    def delay(cls, h: float, coefficient: np.ndarray | None = None, dim: int = 1) -> "MaterialSymbol":
        """The time translation exp(h / z), h <= 0."""
        if coefficient is None:
            coefficient = np.eye(dim, dtype=np.complex128)
        coefficient = np.atleast_2d(np.asarray(coefficient, dtype=np.complex128))
        return cls(dim=coefficient.shape[0], delays=[(h, coefficient)])

    def min_nu(self) -> float:
        """Smallest admissible weight: nu must exceed 1/(2 radius)."""
        return 0.0 if math.isinf(self.radius) else 1.0 / (2.0 * self.radius)

    def evaluate(self, z: np.ndarray | complex) -> np.ndarray:
        """Symbol values M(z); returns shape z.shape + (dim, dim)."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros(z.shape + (self.dim, self.dim), dtype=np.complex128)
        for M in reversed(self.poly_coeffs):
            out = out * z[..., None, None] + M
        for h, C in self.delays:
            out = out + np.exp(h / z)[..., None, None] * C
        return out

    def sup_norm(self, nu: float, frequencies: np.ndarray) -> float:
        """max spectral norm of M(1/(i xi + nu)) over the given frequencies."""
        z = 1.0 / (1j * frequencies + nu)
        vals = self.evaluate(z)
        if self.dim == 1:
            return float(np.max(np.abs(vals)))
        return float(np.max(np.linalg.svd(vals, compute_uv=False)))


def laplace_forward(u: WeightedSignal) -> Spectrum:
    """Discrete Fourier-Laplace transform of u.

    S_m = dt/sqrt(2 pi) exp(-i xi_m t_start) FFT(exp(-nu t_j) u_j)_m with
    xi_m = 2 pi fftfreq(n, dt).  The discrete Plancherel identity
    weighted_norm(u, 0) = Spectrum.ell2_norm() holds to rounding.
    """
    w = np.exp(-u.nu * u.times)[:, None] * u.samples
    xi = u.grid.frequencies
    phase = np.exp(-1j * xi * u.grid.t_start)[:, None]
    S = (u.grid.dt / np.sqrt(2.0 * np.pi)) * phase * np.fft.fft(w, axis=0)
    return Spectrum(u.grid, u.nu, S)


def running_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative trapezoid integral of y along axis 0, starting at 0.

    Same operations in the same order as scipy's
    cumulative_trapezoid(y, dx=dx, axis=0, initial=0), so the output
    matches it bit for bit.
    """
    y = np.asarray(y)
    body = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0, axis=0)
    out = np.zeros(y.shape, dtype=body.dtype)
    out[1:] = body
    return out


def running_simpson(y: np.ndarray, dx: float, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative composite Simpson integral of y along axis 0, starting at 0.

    Each interval's integral comes from the quadratic through three
    neighbouring samples: the one ahead for even intervals and the one
    behind for odd ones (and for the last), each evaluated only where kept,
    into the output that is then summed in place.  Same operations in the
    same order as scipy's cumulative_simpson(y, dx=dx, axis=0, initial=0),
    which falls back to the trapezoid below three samples and adds its
    initial 0 to every running sum (turning -0.0 into +0.0).  Complex input
    is integrated as separate real and imaginary parts, as scipy does, in one
    pass over the interleaved (re, im) float view: in complex arithmetic an
    infinite part would make the other NaN.  out, an array of y's shape that
    does not overlap y, receives the result when given.
    """
    y = np.asarray(y)
    if out is None:
        out = np.empty(y.shape, dtype=np.result_type(y, dx))
    if np.iscomplexobj(y):
        running_simpson(y[..., None].view(y.real.dtype), dx, out[..., None].view(out.real.dtype))
        return out
    n = y.shape[0]
    if n < 3:
        out[...] = running_trapezoid(y, dx)
        out[1:] += 0.0
        return out
    f1, f2, f3 = y[:-2:2], y[1:-1:2], y[2::2]
    out[0] = 0.0
    cells = out[1:]
    cells[:-1:2] = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    cells[1::2] = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    cells[-1:] = dx / 3 * (5 * y[-1:] / 4 + 2 * y[-2:-1] - y[-3:-2] / 4)
    np.cumsum(cells, axis=0, out=cells)
    cells += 0.0
    return out


def weighted_norm(u: WeightedSignal, k: int = 0) -> float:
    """Discrete H_{nu,k} norm: |(d/dt)^k u| in the weighted space.

    k = 0 is the direct weighted quadrature sqrt(dt sum exp(-2 nu t)|u|^2);
    other orders multiply the transform by (i xi + nu)^k, matching the
    definition of the norm through the normal operator d/dt + nu.
    Only k in {-2, ..., 2} is realized.
    """
    if k not in SUPPORTED_NORM_ORDERS:
        raise UnsupportedOrder(f"order k={k} outside supported range {SUPPORTED_NORM_ORDERS}")
    if k == 0:
        w2 = np.exp(-2.0 * u.nu * u.times)
        return float(np.sqrt(u.grid.dt * np.sum(w2[:, None] * np.abs(u.samples) ** 2)))
    s = laplace_forward(u)
    mult = (1j * u.grid.frequencies + u.nu) ** k
    dxi = 2.0 * np.pi / (u.grid.n_samples * u.grid.dt)
    return float(np.sqrt(np.sum(np.abs(mult[:, None] * s.samples) ** 2) * dxi))
