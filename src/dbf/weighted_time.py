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

import numpy as np

NU_INDEP_TOL = 1e-6
SUPPORTED_NORM_ORDERS = (-2, -1, 0, 1, 2)


class NuTooSmall(ValueError):
    """The weight nu lies outside the symbol's declared analyticity region."""


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
    def window_length(self) -> float:
        return self.dt * self.n_samples

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

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    @property
    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies

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
    def constant(cls, M: np.ndarray, radius: float = math.inf) -> "MaterialSymbol":
        M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
        return cls(dim=M.shape[0], poly_coeffs=[M], radius=radius)

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


def laplace_inverse(s: Spectrum) -> WeightedSignal:
    """Inverse (adjoint) of laplace_forward on the same grid and weight."""
    xi = s.grid.frequencies
    phase = np.exp(1j * xi * s.grid.t_start)[:, None]
    w = np.fft.ifft(phase * s.samples, axis=0) * (np.sqrt(2.0 * np.pi) / s.grid.dt)
    u = np.exp(s.nu * s.grid.times)[:, None] * w
    return WeightedSignal(s.grid, s.nu, u)


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


def running_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative composite Simpson integral of y along axis 0, starting at 0.

    Each interval's integral comes from the quadratic through three
    neighbouring samples: the one ahead for even intervals and the one
    behind for odd ones (and for the last).  Same operations in the same
    order as scipy's cumulative_simpson(y, dx=dx, axis=0, initial=0),
    which falls back to the trapezoid below three samples and adds its
    initial 0 to every running sum (turning -0.0 into +0.0).
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < 3:
        out = running_trapezoid(y, dx)
        out[1:] += 0.0
        return out
    f1, f2, f3 = y[:-2], y[1:-1], y[2:]
    ahead = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    behind = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    cells = np.empty((n - 1,) + y.shape[1:], dtype=ahead.dtype)
    cells[:-1:2] = ahead[::2]
    cells[1::2] = behind[::2]
    cells[-1] = behind[-1]
    out = np.zeros(y.shape, dtype=cells.dtype)
    out[1:] = np.cumsum(cells, axis=0) + 0.0
    return out


def apply_inverse_derivative(u: WeightedSignal, *, method: str = "trapezoid") -> WeightedSignal:
    """Causal running integral of u, the action of the inverse time derivative.

    The primary path is the cumulative trapezoid in the time domain, which is
    exactly causal (output vanishes wherever u has not yet been supported).
    method="spectral" divides by (i xi + nu) in the transformed picture and
    is kept for cross-checks only; its wraparound is suppressed by
    exp(-nu T) on padded windows.
    """
    if method == "trapezoid":
        return u.with_samples(running_trapezoid(u.samples, u.grid.dt))
    if method == "spectral":
        return apply_symbol(MaterialSymbol.inverse_derivative(u.channels), u)
    raise ValueError(f"unknown method {method!r}")


def apply_symbol(M: MaterialSymbol, u: WeightedSignal) -> WeightedSignal:
    """Apply M(inverse time derivative) to u by frequency multiplication."""
    if u.nu <= M.min_nu():
        raise NuTooSmall(
            f"nu={u.nu} must exceed 1/(2 radius)={M.min_nu()} for this symbol"
        )
    if u.channels != M.dim:
        raise ValueError(f"signal channels {u.channels} != symbol dim {M.dim}")
    s = laplace_forward(u)
    z = 1.0 / (1j * u.grid.frequencies + u.nu)
    vals = M.evaluate(z)
    out = np.einsum("fij,fj->fi", vals, s.samples)
    return laplace_inverse(Spectrum(u.grid, u.nu, out))


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


def check_nu_independence(
    M: MaterialSymbol,
    u_smooth: WeightedSignal,
    nu1: float,
    nu2: float,
) -> float:
    """Sup deviation between apply_symbol at weights nu1 and nu2.

    The operator calculus is independent of the weight as long as both nu
    exceed 1/(2 radius); on well-resolved, compactly supported inputs the
    two discrete realizations agree to NU_INDEP_TOL.  The sup is taken over
    the core (unpadded) window, where the comparison is meaningful.
    """
    for nu in (nu1, nu2):
        if nu <= M.min_nu():
            raise NuTooSmall(f"nu={nu} must exceed 1/(2 radius)={M.min_nu()}")
    out1 = apply_symbol(M, WeightedSignal(u_smooth.grid, nu1, u_smooth.samples))
    out2 = apply_symbol(M, WeightedSignal(u_smooth.grid, nu2, u_smooth.samples))
    core = slice(0, u_smooth.grid.n_core)
    dev = np.abs(out1.samples[core] - out2.samples[core])
    return float(np.max(dev)) if dev.size else 0.0
