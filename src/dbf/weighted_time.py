"""Exponentially weighted time spaces and the material symbols on them.

A signal u lives in the discrete shadow of H_{nu,0}(R, C^m), the Hilbert
space with inner product integral(conj(f) g exp(-2 nu t) dt), nu > 0.
Bounded analytic functions M of the inverse time derivative act at
frequency xi by multiplication with M(1/(i xi + nu)); the causal
antiderivative has operator norm 1/nu.  The solvers step in time and read
only the order-0 weighted norm; dbf.paper states the Fourier-Laplace
transform, the calculus through it and the norms of other orders.

Discretely, a uniform window [t_start, t_start + n dt) carries the samples,
and the trailing pad_fraction of the window is a tail outside the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ZERO_TIME_TOL = 1e-9


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
        Number of samples, >= 2.
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
    def n_pad(self) -> int:
        return int(round(self.pad_fraction * self.n_samples))

    @property
    def n_core(self) -> int:
        return self.n_samples - self.n_pad

    @property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies xi_m = 2 pi m / (n dt) that the window resolves, fftfreq order."""
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
    def times(self) -> np.ndarray:
        return self.grid.times


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


def weighted_norm(u: WeightedSignal) -> float:
    """Discrete H_{nu,0} norm by the direct weighted quadrature sqrt(dt sum exp(-2 nu t)|u|^2)."""
    w2 = np.exp(-2.0 * u.nu * u.times)
    return float(np.sqrt(u.grid.dt * np.sum(w2[:, None] * np.abs(u.samples) ** 2)))
