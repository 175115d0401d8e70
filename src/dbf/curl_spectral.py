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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

KERNEL_TOL = 1e-9
DEFAULT_MAX_MODES = 4096

HELICITY_PLUS = "plus"
HELICITY_MINUS = "minus"
HELICITY_GRAD = "grad"
HELICITY_CONST = "const"
HELICITIES = (HELICITY_PLUS, HELICITY_MINUS, HELICITY_GRAD, HELICITY_CONST)


class TruncationTooLarge(ValueError):
    """Requested basis exceeds the configured mode budget."""


class NyquistViolation(ValueError):
    """Synthesis grid too coarse to resolve the truncated basis."""


class NotInRange(ValueError):
    """Field has significant coefficients on kernel modes of (1 + eta curl)."""


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
    e2 = np.cross(khat, e1)
    return e1, e2, khat


def _amplitude(mode: Mode) -> np.ndarray:
    """Complex 3-vector amplitude p of the mode, |p| = 1."""
    if mode.helicity == HELICITY_CONST:
        p = np.zeros(3, dtype=np.complex128)
        p[mode.component_index] = 1.0
        return p
    k = np.asarray(mode.k, dtype=float)
    e1, e2, khat = _frame(k)
    if mode.helicity == HELICITY_PLUS:
        return (e1 + 1j * e2) / np.sqrt(2.0)
    if mode.helicity == HELICITY_MINUS:
        return (e1 - 1j * e2) / np.sqrt(2.0)
    return khat.astype(np.complex128)


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

    def kernel_mask(self, eta: float, kernel_tol: float = KERNEL_TOL) -> np.ndarray:
        """Boolean mask of modes in the kernel of (1 + eta curl)."""
        return np.abs(1.0 + eta * self.eigenvalues) <= kernel_tol

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

    @classmethod
    def from_json(cls, text: str) -> "ModeTable":
        doc = json.loads(text)
        modes = [
            Mode(
                k=tuple(int(c) for c in m["k"]),
                helicity=m["helicity"],
                eigenvalue=float(m["eigenvalue"]),
                component_index=m["component_index"],
            )
            for m in doc["modes"]
        ]
        return _table_from_modes(int(doc["K"]), modes)


def _table_from_modes(K: int, modes: list[Mode]) -> ModeTable:
    amplitudes = np.array([_amplitude(m) for m in modes])
    kvectors = np.array([m.k for m in modes], dtype=int)
    eigenvalues = np.array([m.eigenvalue for m in modes])
    return ModeTable(K=K, modes=modes, amplitudes=amplitudes, kvectors=kvectors, eigenvalues=eigenvalues)


def build_basis(K: int, *, max_modes: int = DEFAULT_MAX_MODES) -> ModeTable:
    """Truncated eigenbasis: 3 constant modes, then (plus, minus, grad) per k.

    Wavevectors run over 0 < |k|^2 <= K^2 sorted by (|k|^2, kx, ky, kz);
    the mode count is 3 #{k} + 3.  Eigenvalues are the floating-point
    square roots of the integer |k|^2.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    kvecs = []
    for kx in range(-K, K + 1):
        for ky in range(-K, K + 1):
            for kz in range(-K, K + 1):
                kk = kx * kx + ky * ky + kz * kz
                if 0 < kk <= K * K:
                    kvecs.append((kk, kx, ky, kz))
    kvecs.sort()
    n_modes = 3 * len(kvecs) + 3
    if n_modes > max_modes:
        raise TruncationTooLarge(
            f"K={K} yields {n_modes} modes, exceeding the budget of {max_modes}"
        )
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
    unit: str = ""

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.table.n_modes,):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} != ({self.table.n_modes},)"
            )

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.table, coeffs, self.unit)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_real_representable(self, tol: float = 1e-12) -> bool:
        """Coefficient symmetry of a real-valued vector field.

        With the deterministic frame convention, conj(p(k, s)) = p(-k, s) for
        the Beltrami modes, p(-k, grad) = -p(k, grad), and const amplitudes
        are real.  A real field therefore satisfies c(-k, s) = conj(c(k, s)),
        c(-k, grad) = -conj(c(k, grad)), and real const coefficients.
        """
        t = self.table
        for i, m in enumerate(t.modes):
            c = self.coeffs[i]
            if m.helicity == HELICITY_CONST:
                if abs(c.imag) > tol:
                    return False
                continue
            mk = tuple(-x for x in m.k)
            j = t.position(mk, m.helicity, m.component_index)
            sign = -1.0 if m.helicity == HELICITY_GRAD else 1.0
            if abs(self.coeffs[j] - sign * np.conj(c)) > tol:
                return False
        return True


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

    def with_coeffs(self, e: np.ndarray, h: np.ndarray) -> "FieldPair":
        return FieldPair(self.e_part.with_coeffs(e), self.h_part.with_coeffs(h))

    def norm(self) -> float:
        return float(np.sqrt(self.e_part.norm() ** 2 + self.h_part.norm() ** 2))


def curl_apply(f: SpectralField) -> SpectralField:
    """Diagonal curl action: coefficient at each mode scaled by its eigenvalue."""
    return f.with_coeffs(f.table.eigenvalues * f.coeffs)


def projector_P(eta: float, f: SpectralField, *, kernel_tol: float = KERNEL_TOL) -> SpectralField:
    """Orthogonal projector onto the closed range of (1 + eta curl).

    Zeroes the coefficients of modes with |1 + eta lambda| <= kernel_tol and
    leaves all others unchanged.  eta is taken exactly as given; near-resonant
    values are flagged by the tolerance, never snapped.
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    out = f.coeffs.copy()
    out[f.table.kernel_mask(eta, kernel_tol)] = 0.0
    return f.with_coeffs(out)


def _assert_in_range(eta: float, coeffs: np.ndarray, table: ModeTable, kernel_tol: float) -> np.ndarray:
    mask = table.kernel_mask(eta, kernel_tol)
    over = mask & (np.abs(coeffs) > kernel_tol * max(float(np.linalg.norm(coeffs)), 1.0))
    if np.any(over):
        offenders = [table.modes[i].key() for i in np.nonzero(over)[0]]
        raise NotInRange(f"kernel-mode coefficients exceed tolerance for eta={eta}: {offenders}")
    return mask


def reduced_resolvent(eta: float, f: SpectralField, *, kernel_tol: float = KERNEL_TOL) -> SpectralField:
    """Inverse of (1 + eta curl) on the range of the projector.

    Divides each coefficient by (1 + eta lambda); kernel modes must carry no
    significant coefficient (NotInRange otherwise) and stay zero.
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    mask = _assert_in_range(eta, f.coeffs, f.table, kernel_tol)
    out = np.zeros_like(f.coeffs)
    keep = ~mask
    out[keep] = f.coeffs[keep] / (1.0 + eta * f.table.eigenvalues[keep])
    return f.with_coeffs(out)


def bounded_generator_C(eta: float, u: FieldPair, *, kernel_tol: float = KERNEL_TOL) -> FieldPair:
    """The bounded generator of the reduced evolution.

    Per mode with eigenvalue lambda, (e, h) -> c (-h, e) with
    c = lambda / (1 + eta lambda), identically eta^{-1} - eta^{-1}/(1 + eta lambda).
    Inputs must lie in the range subspace of (1 + eta curl).
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    _assert_in_range(eta, u.e_part.coeffs, u.table, kernel_tol)
    _assert_in_range(eta, u.h_part.coeffs, u.table, kernel_tol)
    c = generator_coefficients(eta, u.table, kernel_tol=kernel_tol)
    return u.with_coeffs(-c * u.h_part.coeffs, c * u.e_part.coeffs)


def generator_coefficients(eta: float, table: ModeTable, *, kernel_tol: float = KERNEL_TOL) -> np.ndarray:
    """Per-mode scalars c = lambda/(1 + eta lambda); zero on kernel modes."""
    mask = table.kernel_mask(eta, kernel_tol)
    c = np.zeros(table.n_modes)
    keep = ~mask
    c[keep] = table.eigenvalues[keep] / (1.0 + eta * table.eigenvalues[keep])
    return c


def synthesize_on_grid(f: SpectralField, n_grid: int) -> np.ndarray:
    """Pointwise field values on the uniform n_grid^3 torus grid.

    Returns shape (n_grid, n_grid, n_grid, 3).  Quadrature inner products
    (means over the grid) reproduce coefficient inner products exactly for
    trigonometric polynomials below the Nyquist limit, which requires
    n_grid >= 2K + 2.
    """
    K = f.table.K
    if n_grid < 2 * K + 2:
        raise NyquistViolation(f"n_grid={n_grid} < 2K+2={2 * K + 2} for K={K}")
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    out = np.zeros((n_grid, n_grid, n_grid, 3), dtype=np.complex128)
    # Group modes by wavevector so each phase grid is built once.
    by_k: dict[tuple[int, int, int], list[int]] = {}
    for i, m in enumerate(f.table.modes):
        if f.coeffs[i] != 0:
            by_k.setdefault(m.k, []).append(i)
    for k, idxs in by_k.items():
        amp = np.zeros(3, dtype=np.complex128)
        for i in idxs:
            amp += f.coeffs[i] * f.table.amplitudes[i]
        if k == (0, 0, 0):
            out += amp
            continue
        phase = np.exp(1j * (k[0] * x[:, None, None] + k[1] * x[None, :, None] + k[2] * x[None, None, :]))
        out += phase[..., None] * amp
    return out


def grid_inner_product(fvals: np.ndarray, gvals: np.ndarray) -> complex:
    """Mean-over-grid quadrature of <f, g> in the normalized torus measure."""
    return complex(np.sum(np.conj(fvals) * gvals) / (fvals.shape[0] * fvals.shape[1] * fvals.shape[2]))


def sample_basis_fields(table: ModeTable, n_grid: int) -> np.ndarray:
    """All basis fields sampled on the n_grid^3 grid, shape (n_modes, n_pts, 3)."""
    if n_grid < 2 * table.K + 2:
        raise NyquistViolation(f"n_grid={n_grid} < 2K+2={2 * table.K + 2}")
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    n_pts = n_grid ** 3
    fields = np.empty((table.n_modes, n_pts, 3), dtype=np.complex128)
    phases: dict[tuple[int, int, int], np.ndarray] = {}
    for i, m in enumerate(table.modes):
        if m.k == (0, 0, 0):
            fields[i] = table.amplitudes[i]
            continue
        if m.k not in phases:
            k = m.k
            ph = np.exp(1j * (k[0] * x[:, None, None] + k[1] * x[None, :, None] + k[2] * x[None, None, :]))
            phases[m.k] = ph.reshape(-1)
        fields[i] = phases[m.k][:, None] * table.amplitudes[i]
    return fields


def gram_matrix(table: ModeTable, n_grid: int) -> np.ndarray:
    """Quadrature Gram matrix of the basis on an n_grid^3 grid."""
    fields = sample_basis_fields(table, n_grid)
    # Blocked BLAS accumulation keeps roundoff well below the orthonormality
    # tolerance even on large grids; a naive sum does not.
    flat = fields.reshape(table.n_modes, -1)
    return (np.conj(flat) @ flat.T) / fields.shape[1]
