"""The paper's identities, stated over the runtime's types for the tests to check.

No `dbf` command runs this module, and no runtime module imports it: the
package's runtime (weighted_time, curl_spectral, evo_solver, dbf_model,
csv_cells, cli) is what `run`, `verify`, `sweep` and `basis` execute.  Here
are the statements of the paper that the tests check against it:

- the H_{nu,0} calculus: the Fourier-Laplace transform and its inverse, the
  weighted norms of orders other than 0, the causal antiderivative,
  material symbols (z and the delays exp(h/z)) applied by frequency
  multiplication, and the independence of that calculus from the weight nu;
- the chiral operators over the curl eigenbasis: curl itself, the
  projector onto the range of (1 + eta curl), its reduced resolvent, the
  bounded generator C with its per-mode coefficients, and the basis
  sampled on a grid of the torus;
- one causal initial value problem block (AbstractIVP) with its one-block
  solvers, the jump response of the semigroup, the weak residual, and the
  initial-value, regularity and causality checks;
- the degenerate naive (D, B) formulation, the flux pair recovered from
  (E, H), the weak residual and uniqueness probe of a stored solve, and
  the dense cross-coupling matrix of k_cross.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curl_spectral import KERNEL_TOL, FieldPair, ModeTable, SpectralField
from .dbf_model import I2, DBFScenario, FieldHistory, PieceFold, _cross_block, _wavevector_blocks, flux_factors
from .evo_solver import (
    DEFAULT_FP_TOL,
    DEFAULT_MAX_ITER,
    HERMITICITY_TOL,
    J2,
    SOURCE_CAUSALITY_TOL,
    WrongCase,
    _apply_symbol_time,
    _check_hermitian_posdef,
    _check_skew,
    _jump_response,
    _poly_coeffs,
    _rotation_constant,
    rotation_closed_form,
    solve_fixed_point_blocks,
    solve_propagator_blocks,
)
from .weighted_time import (
    MaterialSymbol,
    TimeGrid,
    WeightedSignal,
    _grid_samples,
    running_simpson,
    running_trapezoid,
    weighted_norm,
)

NU_INDEP_TOL = 1e-6
SUPPORTED_NORM_ORDERS = (-2, -1, 0, 1, 2)


class NuTooSmall(ValueError):
    """The weight nu lies outside the symbol's declared analyticity region."""


class UnsupportedOrder(ValueError):
    """Requested derivative order outside the realized range {-2, ..., 2}."""


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


def laplace_forward(u: WeightedSignal) -> Spectrum:
    """Discrete Fourier-Laplace transform of u.

    The transform (L_nu u)(xi) = (1/sqrt(2 pi)) integral(exp(-i xi t) exp(-nu t) u(t) dt)
    is unitary from H_{nu,0} onto L^2(R).  Discretely it is an FFT of the
    exp(-nu t)-weighted samples, S_m = dt/sqrt(2 pi) exp(-i xi_m t_start)
    FFT(exp(-nu t_j) u_j)_m with xi_m = 2 pi fftfreq(n, dt), and the window's
    zero tail suppresses the circular wraparound of causal tails by
    exp(-nu T).  The discrete Plancherel identity weighted_norm(u) =
    Spectrum.ell2_norm() holds to rounding.
    """
    w = np.exp(-u.nu * u.times)[:, None] * u.samples
    xi = u.grid.frequencies
    phase = np.exp(-1j * xi * u.grid.t_start)[:, None]
    S = (u.grid.dt / np.sqrt(2.0 * np.pi)) * phase * np.fft.fft(w, axis=0)
    return Spectrum(u.grid, u.nu, S)


def sobolev_norm(u: WeightedSignal, k: int) -> float:
    """Discrete H_{nu,k} norm: |(d/dt)^k u| in the weighted space.

    k = 0 is the runtime's weighted_norm; other orders multiply the
    transform by (i xi + nu)^k, matching the definition of the norm through
    the normal operator d/dt + nu.  Only k in {-2, ..., 2} is realized.
    """
    if k not in SUPPORTED_NORM_ORDERS:
        raise UnsupportedOrder(f"order k={k} outside supported range {SUPPORTED_NORM_ORDERS}")
    if k == 0:
        return weighted_norm(u)
    s = laplace_forward(u)
    mult = (1j * u.grid.frequencies + u.nu) ** k
    dxi = 2.0 * np.pi / (u.grid.n_samples * u.grid.dt)
    return float(np.sqrt(np.sum(np.abs(mult[:, None] * s.samples) ** 2) * dxi))


def inverse_derivative_symbol() -> MaterialSymbol:
    """The symbol z itself: multiplication realizes the causal antiderivative."""
    return MaterialSymbol(1, [np.zeros((1, 1)), np.eye(1)])


def delay_symbol(h: float, coefficient=((1.0,),)) -> MaterialSymbol:
    """The time translation exp(h / z), h <= 0, times a square coefficient matrix."""
    return MaterialSymbol(len(coefficient), delays=[(h, coefficient)])


def laplace_inverse(s: Spectrum) -> WeightedSignal:
    """Inverse (adjoint) of laplace_forward on the same grid and weight."""
    xi = s.grid.frequencies
    phase = np.exp(1j * xi * s.grid.t_start)[:, None]
    w = np.fft.ifft(phase * s.samples, axis=0) * (np.sqrt(2.0 * np.pi) / s.grid.dt)
    u = np.exp(s.nu * s.grid.times)[:, None] * w
    return WeightedSignal(s.grid, s.nu, u)


def apply_inverse_derivative(u: WeightedSignal) -> WeightedSignal:
    """Causal running integral of u (the inverse time derivative) by the cumulative trapezoid: exactly causal."""
    return WeightedSignal(u.grid, u.nu, running_trapezoid(u.samples, u.grid.dt))


def apply_symbol(M: MaterialSymbol, u: WeightedSignal) -> WeightedSignal:
    """Apply M(inverse time derivative) to u by frequency multiplication."""
    min_nu = 1.0 / (2.0 * M.radius)
    if u.nu <= min_nu:
        raise NuTooSmall(f"nu={u.nu} must exceed 1/(2 radius)={min_nu} for this symbol")
    if u.samples.shape[1] != M.dim:
        raise ValueError(f"signal channels {u.samples.shape[1]} != symbol dim {M.dim}")
    s = laplace_forward(u)
    z = 1.0 / (1j * u.grid.frequencies + u.nu)
    vals = M.evaluate(z)
    out = np.einsum("fij,fj->fi", vals, s.samples)
    return laplace_inverse(Spectrum(u.grid, u.nu, out))


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
    apply_symbol raises NuTooSmall for a weight outside that region.
    """
    out1 = apply_symbol(M, WeightedSignal(u_smooth.grid, nu1, u_smooth.samples))
    out2 = apply_symbol(M, WeightedSignal(u_smooth.grid, nu2, u_smooth.samples))
    core = slice(0, u_smooth.grid.n_core)
    dev = np.abs(out1.samples[core] - out2.samples[core])
    return float(np.max(dev)) if dev.size else 0.0


class NyquistViolation(ValueError):
    """Synthesis grid too coarse to resolve the truncated basis."""


class NotInRange(ValueError):
    """Field has significant coefficients on kernel modes of (1 + eta curl)."""


def curl_apply(f: SpectralField) -> SpectralField:
    """Diagonal curl action: coefficient at each mode scaled by its eigenvalue."""
    return SpectralField(f.table, f.table.eigenvalues * f.coeffs)


def projector_P(eta: float, f: SpectralField) -> SpectralField:
    """Orthogonal projector onto the closed range of (1 + eta curl).

    Zeroes the coefficients of modes with |1 + eta lambda| <= KERNEL_TOL and
    leaves all others unchanged.  eta is taken exactly as given; near-resonant
    values are flagged by the tolerance, never snapped.
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    out = f.coeffs.copy()
    out[f.table.kernel_mask(eta)] = 0.0
    return SpectralField(f.table, out)


def _assert_in_range(eta: float, coeffs: np.ndarray, table: ModeTable) -> np.ndarray:
    mask = table.kernel_mask(eta)
    over = mask & (np.abs(coeffs) > KERNEL_TOL * max(float(np.linalg.norm(coeffs)), 1.0))
    if np.any(over):
        offenders = [table.modes[i].key() for i in np.nonzero(over)[0]]
        raise NotInRange(f"kernel-mode coefficients exceed tolerance for eta={eta}: {offenders}")
    return mask


def reduced_resolvent(eta: float, f: SpectralField) -> SpectralField:
    """Inverse of (1 + eta curl) on the range of the projector.

    Divides each coefficient by (1 + eta lambda); kernel modes must carry no
    significant coefficient (NotInRange otherwise) and stay zero.
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    mask = _assert_in_range(eta, f.coeffs, f.table)
    out = np.zeros_like(f.coeffs)
    keep = ~mask
    out[keep] = f.coeffs[keep] / (1.0 + eta * f.table.eigenvalues[keep])
    return SpectralField(f.table, out)


def generator_coefficients(eta: float, table: ModeTable) -> np.ndarray:
    """Per-mode scalars c = lambda/(1 + eta lambda); zero on kernel modes."""
    keep, c = ~table.kernel_mask(eta), np.zeros(table.n_modes)
    c[keep] = table.eigenvalues[keep] / (1.0 + eta * table.eigenvalues[keep])
    return c


def bounded_generator_C(eta: float, u: FieldPair) -> FieldPair:
    """The bounded generator of the reduced evolution.

    Per mode with eigenvalue lambda, (e, h) -> c (-h, e) with
    c = lambda / (1 + eta lambda), identically eta^{-1} - eta^{-1}/(1 + eta lambda).
    Inputs must lie in the range subspace of (1 + eta curl).
    """
    if eta == 0:
        raise ValueError("eta must be nonzero")
    _assert_in_range(eta, u.e_part.coeffs, u.table)
    _assert_in_range(eta, u.h_part.coeffs, u.table)
    c = generator_coefficients(eta, u.table)
    return FieldPair(SpectralField(u.table, -c * u.h_part.coeffs), SpectralField(u.table, c * u.e_part.coeffs))


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


@dataclass
class AbstractIVP:
    """One causal initial value problem block.

    source must vanish on t < 0 (the Dirac datum carries the jump); this is
    validated at construction together with selfadjointness of M0, its
    strictly positive spectral floor, and skewness of A.  M1 is a polynomial:
    the solvers and weak_residual raise WrongCase on a delay term.
    """

    dim: int
    M0: np.ndarray
    M1: MaterialSymbol
    A: np.ndarray
    source: WeightedSignal
    W0: np.ndarray

    def __post_init__(self) -> None:
        self.M0 = np.asarray(self.M0, dtype=np.complex128)
        _check_hermitian_posdef(self.M0)
        if self.M0.shape != (self.dim, self.dim):
            raise ValueError(f"M0 shape {self.M0.shape} != dim {self.dim}")
        if self.M1.dim != self.dim:
            raise ValueError(f"M1 dim {self.M1.dim} != {self.dim}")
        self.A = _check_skew(self.A, self.dim)
        if self.source.samples.shape[1] != self.dim:
            raise ValueError(f"source channels {self.source.samples.shape[1]} != dim {self.dim}")
        self.W0 = np.asarray(self.W0, dtype=np.complex128).reshape(self.dim)
        if np.any(np.abs(self.source.samples[:self.source.grid.zero_index]) > SOURCE_CAUSALITY_TOL):
            raise ValueError("source must vanish on t < 0")


@dataclass
class SolveReport:
    """Solver output with convergence and verification diagnostics."""

    solution: WeightedSignal
    iterations: int
    final_residual: float
    contraction_estimate: float
    nu_used: float
    initial_value_error: float
    update_ratios: list[float] = field(default_factory=list)


def _solution(obj) -> WeightedSignal:
    if isinstance(obj, SolveReport):
        return obj.solution
    if isinstance(obj, WeightedSignal):
        return obj
    raise TypeError(f"expected SolveReport or WeightedSignal, got {type(obj)!r}")


def semigroup_apply(M0: np.ndarray, A: np.ndarray, w0: np.ndarray, grid: TimeGrid, nu: float) -> WeightedSignal:
    """Jump response chi_{t>=0} sqrt(M0)^-1 exp(-t A') sqrt(M0)^-1 w0.

    A' = sqrt(M0)^-1 A sqrt(M0)^-1.  The right limit at 0 is M0^-1 w0 and is
    stored at the t = 0 sample; samples before 0 are exactly zero.
    """
    inv_sqrt, _, _ = _check_hermitian_posdef(M0)
    A = _check_skew(A, len(w0))
    jump = _jump_response(inv_sqrt @ A @ inv_sqrt, inv_sqrt, np.asarray(w0)[None], grid)[:, 0]
    return WeightedSignal(grid, nu, jump @ inv_sqrt.T)


def weak_residual(p: AbstractIVP, u: WeightedSignal) -> tuple[WeightedSignal, float]:
    """Back-substitution residual of the time-integrated equation on t >= 0.

    Integrating the equation once removes the Dirac datum:
    R(t) = M0 U(t) + int_0^t (M1(I) U + A U - J) ds - W0 for t >= 0, zero
    before.  The running integral uses the composite Simpson rule; the
    returned norm is the weighted L2 norm of R.
    """
    grid = u.grid
    z = grid.zero_index
    sol = u.samples[z:]
    integrand = _apply_symbol_time(p.M1, u.samples, grid)[z:] + sol @ p.A.T - p.source.samples[z:]
    r = np.zeros_like(u.samples)
    r[z:] = sol @ p.M0.T + running_simpson(integrand, grid.dt) - p.W0[None, :]
    r_sig = WeightedSignal(grid, u.nu, r)
    return r_sig, weighted_norm(r_sig)


def solve_fixed_point(p: AbstractIVP, nu: float, max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_FP_TOL) -> SolveReport:
    """Picard iteration of one block: solve_fixed_point_blocks with B = 1.

    The report adds the weak residual and the initial-value error of the
    solution.  NotContractive is raised when the contraction estimate
    reaches 1 and NoConvergence when max_iter is exhausted.
    """
    samples, iterations, estimate, ratios = solve_fixed_point_blocks(
        p.M0, p.M1, p.A, p.source.samples[:, None], p.W0[None], p.source.grid, nu, max_iter, tol)
    u = WeightedSignal(p.source.grid, nu, samples[:, 0])
    return SolveReport(u, int(iterations[0]), weak_residual(p, u)[1], estimate, nu,
                       verify_initial_value(u, p.M0, p.W0), ratios[0])


def solve_modal_exact(p: AbstractIVP, nu: float) -> WeightedSignal:
    """Closed-form solution of one 2x2 rotation block: rotation_closed_form with B = 1."""
    eps, mu, c = _rotation_constant(p.M0, p.M1, p.A)
    source = (np.array([0]), p.source.samples[:, None])
    ue, uh = rotation_closed_form(eps, mu, np.array([c]), p.W0[None, :], p.source.grid, source)
    return WeightedSignal(p.source.grid, nu, np.hstack([ue, uh]))


def solve_integrator(p: AbstractIVP, nu: float) -> WeightedSignal:
    """Exact propagator of one block (solve_propagator_blocks, B = 1), the skew A added to M1's order-zero term."""
    coeffs = _poly_coeffs(p.M1) or [np.zeros((p.dim, p.dim), dtype=np.complex128)]
    M1 = MaterialSymbol(p.dim, [coeffs[0] + p.A] + coeffs[1:])
    samples, _ = solve_propagator_blocks(p.M0, M1, p.source.samples[:, None], p.W0[None], p.source.grid)
    return WeightedSignal(p.source.grid, nu, samples[:, 0])


def verify_initial_value(report, M0: np.ndarray, W0: np.ndarray) -> float:
    """Distance of the right limit U(0+), the stored t = 0 row, from M0^-1 W0."""
    u = _solution(report)
    if u.grid.zero_index == u.grid.n_samples:
        raise ValueError("grid has no samples at t >= 0")
    _, inv, _ = _check_hermitian_posdef(M0)
    target = inv @ np.asarray(W0, dtype=np.complex128)
    return float(np.linalg.norm(u.samples[u.grid.zero_index] - target))


def verify_regularity_ode(report, M0: np.ndarray, W0: np.ndarray, A: np.ndarray | None = None) -> float:
    """Weighted first-order norm of the solution minus its initial jump.

    Valid only for A = 0, where U - chi_{t>=0} M0^-1 W0 has one more order
    of time regularity than U itself; the returned norm stays bounded under
    grid refinement while the unsplit first-order norm diverges.
    """
    if A is not None and np.max(np.abs(np.asarray(A))) > HERMITICITY_TOL:
        raise WrongCase("regularity split requires A = 0")
    u = _solution(report)
    _, inv, _ = _check_hermitian_posdef(M0)
    target = inv @ np.asarray(W0, dtype=np.complex128)
    jump = np.zeros_like(u.samples)
    jump[u.grid.zero_index:] = target[None, :]
    return sobolev_norm(WeightedSignal(u.grid, u.nu, u.samples - jump), 1)


def verify_causality(report) -> float:
    """Sup of |U| over t < 0; exact zero for the direct methods."""
    u = _solution(report)
    return float(np.max(np.abs(u.samples[:u.grid.zero_index]), initial=0.0))


@dataclass
class DiagnosticReport:
    """Leading coefficients of the naive one-field formulation and verdict."""

    z0_coefficient: np.ndarray
    z1_coefficient: np.ndarray
    z1_real_part: np.ndarray
    z2_coefficient: np.ndarray
    degenerate: bool
    verdict: str


def naive_symbol_value(epsilon: float, mu: float, eta: float, z: np.ndarray | complex) -> np.ndarray:
    """Formal symbol of the naive (D, B)-only formulation at z.

    With w = z / (eta sqrt(eps mu)) and J the quarter-turn matrix the symbol
    is w J (1 + w J)^-1 = (w J + w^2 I) / (1 + w^2).  Vectorized over z;
    returns shape z.shape + (2, 2).
    """
    a = 1.0 / (eta * np.sqrt(epsilon * mu))
    w = np.asarray(z, dtype=np.complex128) * a
    denom = 1.0 + w * w
    return (w[..., None, None] * J2 + (w * w)[..., None, None] * I2) / denom[..., None, None]


def diagnose_naive_formulation(epsilon: float, mu: float, eta: float) -> DiagnosticReport:
    """Expansion coefficients showing the one-field formulation is degenerate.

    The zeroth coefficient vanishes and the first is skew, so the real part
    of the leading pencil has no strictly positive lower bound; the equation
    is not a perturbed time derivative in these variables.  The real part
    reported is the selfadjoint part, the one that enters positivity.
    """
    if not epsilon > 0 or not mu > 0:
        raise ValueError(f"epsilon, mu must be > 0, got {epsilon}, {mu}")
    if eta == 0:
        raise ValueError("eta must be nonzero")
    a = 1.0 / (eta * np.sqrt(epsilon * mu))
    z0 = np.zeros((2, 2))
    z1 = a * J2
    z1_real = 0.5 * (z1 + z1.conj().T)
    z2 = a * a * I2.copy()
    return DiagnosticReport(
        z0_coefficient=z0,
        z1_coefficient=z1,
        z1_real_part=z1_real,
        z2_coefficient=z2,
        degenerate=True,
        verdict="degenerate: fails strict positivity",
    )


def recover_DB(E, H, s: DBFScenario):
    """Flux pair from the field pair: coefficients scaled by flux_factors.

    Accepts SpectralField inputs or coefficient arrays with modes on the
    last axis, and returns the same kind.
    """
    fe, fh = flux_factors(s)
    if isinstance(E, SpectralField):
        return SpectralField(E.table, fe * E.coeffs), SpectralField(H.table, fh * H.coeffs)
    E = np.asarray(E, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    return fe * E, fh * H


def verify_dbf_equation(history: FieldHistory, s) -> float:
    """Weak residual of the coupled evolution over the solved window (see PieceFold).

    The history is folded as one piece, cut into column chunks as verify's
    pieces are, so both compute one residual.  Works for both scenario kinds
    since only data and eigenvalues enter, and reads only the attributes
    the fold needs, so column subsets can be passed as plain namespaces.
    """
    fold = PieceFold(s, history.grid, history.table.eigenvalues)
    fold.add(slice(None), history.E, history.H, history.D, history.B)
    return fold.close().weak_residual


def uniqueness_energy_probe(history: FieldHistory, s: DBFScenario) -> float:
    """Weighted material energy scaled by nu; zero data must yield zero.

    The range part realizes the identity nu <P u | diag(eps, mu) P u> that
    forces the projected solution of the homogeneous problem to vanish; the
    kernel part covers the complementary rotation identity.  Any nonzero
    field makes the probe strictly positive.
    """
    wt = np.exp(-2.0 * s.nu * history.grid.times)
    density = s.epsilon * np.abs(history.E) ** 2 + s.mu * np.abs(history.H) ** 2
    kernel = history.table.kernel_mask(s.eta)
    range_part = float(np.sum(wt[:, None] * density[:, ~kernel]) * history.grid.dt)
    kernel_part = float(np.sum(wt[:, None] * density[:, kernel]) * history.grid.dt)
    return s.nu * (range_part + kernel_part)


def cross_coupling_matrix(k_cross: np.ndarray, table: ModeTable) -> np.ndarray:
    """Dense matrix of f -> k_cross x f over the basis.

    k_cross x (p exp(i k.x)) = (k_cross x p) exp(i k.x) keeps the wavevector,
    so the matrix is block diagonal per wavevector with the closed-form
    entries <p_i, k_cross x p_j> of the mode amplitudes; it is
    skew-Hermitian because the cross product with a real vector is skew.
    """
    k_cross = np.asarray(k_cross, dtype=float).reshape(3)
    X = np.zeros((table.n_modes, table.n_modes), dtype=np.complex128)
    for idx in _wavevector_blocks(table):
        X[np.ix_(idx, idx)] = _cross_block(k_cross, table.amplitudes[idx])
    return X
