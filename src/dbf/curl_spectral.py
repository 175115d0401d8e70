"""Exact diagonal realization of curl on the periodic 3-torus.

The selfadjoint curl on [0, 2pi)^3 has pure point spectrum {0, +|k|, -|k|}
with Beltrami eigenfields p(k, s) exp(i k.x), s = +-1, satisfying
i k x p = s |k| p.  Gradient modes (p parallel to k) and the three constant
fields (the torus analogue of harmonic Neumann fields) span the kernel.

All inner products use the normalized Haar measure (mean over the torus),
so a constant field of unit amplitude has unit norm and the mode family is
orthonormal.  The chiral operators of the model are diagonal here: the
projector P_eta onto the closed range of (1 + eta curl) simply zeroes the
modes with 1 + eta lambda = 0, the reduced resolvent divides by
(1 + eta lambda), and the bounded generator acts per mode by
c_lambda = lambda / (1 + eta lambda) composed with the symplectic rotation.
dbf.paper states these operators on a SpectralField; the classical setup of
dbf_model applies them mode by mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

KERNEL_TOL = 1e-9
MAX_MODES = 4096

HELICITY_PLUS = "plus"
HELICITY_MINUS = "minus"
HELICITY_GRAD = "grad"
HELICITY_CONST = "const"
HELICITIES = (HELICITY_PLUS, HELICITY_MINUS, HELICITY_GRAD, HELICITY_CONST)


class TruncationTooLarge(ValueError):
    """Requested basis exceeds the configured mode budget."""


@dataclass(frozen=True)
class Mode:
    """One curl eigenmode: integer wavevector, helicity tag, eigenvalue.

    helicity "plus"/"minus" are the Beltrami fields with eigenvalue +-|k|,
    "grad" the curl-free gradient direction (lambda = 0), and "const" the
    three spatially constant fields at k = 0 (component_index selects the
    coordinate axis).
    """

    k: tuple[int, int, int]
    helicity: str
    eigenvalue: float
    component_index: int | None = None

    def __post_init__(self) -> None:
        if self.helicity not in HELICITIES:
            raise ValueError(f"unknown helicity {self.helicity!r}")
        kk = sum(c * c for c in self.k)
        if self.helicity == HELICITY_CONST:
            if kk != 0:
                raise ValueError("const modes require k = 0")
            if self.component_index not in (0, 1, 2):
                raise ValueError("const modes need component_index in {0, 1, 2}")
        else:
            if kk == 0:
                raise ValueError(f"helicity {self.helicity!r} requires k != 0")
        expected = {HELICITY_PLUS: 1.0, HELICITY_MINUS: -1.0}.get(self.helicity, 0.0) * np.sqrt(float(kk))
        if self.eigenvalue != expected:
            raise ValueError(
                f"eigenvalue {self.eigenvalue} inconsistent with {self.helicity} at k={self.k}"
            )

    def key(self) -> tuple:
        return (self.k, self.helicity, self.component_index)


def _frame(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame (e1, e2, khat) with deterministic e1.

    e1 is built from the smallest coordinate axis not parallel to k, so the
    basis is reproducible across runs and implementations.
    """
    khat = k / np.linalg.norm(k)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        proj = e - np.dot(e, khat) * khat
        norm = np.linalg.norm(proj)
        if norm > 1e-12:
            e1 = proj / norm
            break
    # khat x e1 written out: the same products and differences as np.cross, without its overhead.
    e2 = np.array([khat[1] * e1[2] - khat[2] * e1[1], khat[2] * e1[0] - khat[0] * e1[2],
                   khat[0] * e1[1] - khat[1] * e1[0]])
    return e1, e2, khat


@dataclass
class ModeTable:
    """Truncated orthonormal curl eigenbasis: all 0 < |k|^2 <= K^2 plus constants."""

    K: int
    modes: list[Mode]
    amplitudes: np.ndarray = field(repr=False)
    kvectors: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {m.key(): i for i, m in enumerate(self.modes)}

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def position(self, k: tuple[int, int, int], helicity: str, component_index: int | None = None) -> int:
        key = (tuple(int(c) for c in k), helicity, component_index)
        if key not in self._index:
            raise KeyError(f"mode {key} not in table (K={self.K})")
        return self._index[key]

    def kernel_mask(self, eta: float) -> np.ndarray:
        """Boolean mask of modes in the kernel of (1 + eta curl): |1 + eta lambda| <= KERNEL_TOL."""
        return np.abs(1.0 + eta * self.eigenvalues) <= KERNEL_TOL

    def to_json(self) -> str:
        doc = {
            "K": self.K,
            "modes": [
                {
                    "k": list(m.k),
                    "helicity": m.helicity,
                    "eigenvalue": m.eigenvalue,
                    "component_index": m.component_index,
                }
                for m in self.modes
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _table_from_modes(K: int, modes: list[Mode]) -> ModeTable:
    """Table over modes in the given order; the frame of each wavevector is built once."""
    frames = {}
    for k in dict.fromkeys(m.k for m in modes if m.helicity != HELICITY_CONST):
        e1, e2, khat = _frame(np.asarray(k, dtype=float))
        frames[k] = {HELICITY_PLUS: (e1 + 1j * e2) / np.sqrt(2.0), HELICITY_MINUS: (e1 - 1j * e2) / np.sqrt(2.0),
                     HELICITY_GRAD: khat.astype(np.complex128)}
    amplitudes = np.array([np.eye(3, dtype=np.complex128)[m.component_index] if m.helicity == HELICITY_CONST
                           else frames[m.k][m.helicity] for m in modes])
    kvectors = np.array([m.k for m in modes], dtype=int)
    eigenvalues = np.array([m.eigenvalue for m in modes])
    return ModeTable(K=K, modes=modes, amplitudes=amplitudes, kvectors=kvectors, eigenvalues=eigenvalues)


def build_basis(K: int) -> ModeTable:
    """Truncated eigenbasis: 3 constant modes, then (plus, minus, grad) per k.

    Wavevectors run over 0 < |k|^2 <= K^2 sorted by (|k|^2, kx, ky, kz);
    the mode count is 3 #{k} + 3.  Eigenvalues are the floating-point
    square roots of the integer |k|^2.  A truncation of more than
    MAX_MODES modes raises TruncationTooLarge.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    # The cube |kx|, |ky|, |kz| <= a, 3 a^2 <= K^2, lies in the ball: a lower bound before enumerating.
    least = 3 * (2 * math.isqrt(K * K // 3) + 1) ** 3
    if least > MAX_MODES:
        raise TruncationTooLarge(f"K={K} yields at least {least} modes, exceeding the budget of {MAX_MODES}")
    kvecs = []
    for kx in range(-K, K + 1):
        for ky in range(-K, K + 1):
            for kz in range(-K, K + 1):
                kk = kx * kx + ky * ky + kz * kz
                if 0 < kk <= K * K:
                    kvecs.append((kk, kx, ky, kz))
    kvecs.sort()
    n_modes = 3 * len(kvecs) + 3
    if n_modes > MAX_MODES:
        raise TruncationTooLarge(f"K={K} yields {n_modes} modes, exceeding the budget of {MAX_MODES}")
    modes = [Mode(k=(0, 0, 0), helicity=HELICITY_CONST, eigenvalue=0.0, component_index=c) for c in range(3)]
    for kk, kx, ky, kz in kvecs:
        k = (kx, ky, kz)
        lam = np.sqrt(float(kk))
        modes.append(Mode(k=k, helicity=HELICITY_PLUS, eigenvalue=lam))
        modes.append(Mode(k=k, helicity=HELICITY_MINUS, eigenvalue=-lam))
        modes.append(Mode(k=k, helicity=HELICITY_GRAD, eigenvalue=0.0))
    return _table_from_modes(K, modes)


@dataclass
class SpectralField:
    """One 3-component vector field as coefficients over a ModeTable."""

    table: ModeTable
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.table.n_modes,):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} != ({self.table.n_modes},)"
            )


@dataclass
class FieldPair:
    """The 6-component pair, (E, H) or (D, B), over one ModeTable."""

    e_part: SpectralField
    h_part: SpectralField

    def __post_init__(self) -> None:
        if self.e_part.table is not self.h_part.table:
            raise ValueError("FieldPair components must share one ModeTable")

    @property
    def table(self) -> ModeTable:
        return self.e_part.table
