"""Chiral material scenarios on the torus: reduction, solving, verification.

The classical material law couples the fields through (1 + eta curl): the
flux pair is (D, B) = (1 + eta curl) diag(eps, mu) (E, H).  Written as a
first order evolution in (D, B) alone the formal symbol starts at order
one in the antiderivative, with a skew leading coefficient, so no strictly
positive zeroth coefficient exists (see diagnose_naive_formulation).  The
workable route inverts (1 + eta curl) on its range per curl eigenmode,
which yields one small causal initial value problem per mode with a bounded
rotation coupling c_lambda = lambda / (1 + eta lambda).

The generalized law replaces the scalars by operator pairs: with curl
diagonalized, mode lambda obeys

    d/dt (kappa(Dinv) + lambda) Mstar(Dinv) u + lambda J u = j + (Dirac) W0,

Dinv the causal antiderivative, kappa(z) = kappa0 + z kappa1(z) and
Mstar(z) = Mstar0 + z Mstar1(z).  Multiplying by the truncated expansion
N(z) of (kappa(z) + lambda)^-1 produces a standard block

    d/dt Mstar0 u + [Mstar1(Dinv) + lambda N(Dinv) J] u
        = N(Dinv) j + R(Dinv) (chi W0) + (Dirac) N(0) W0,

with R(z) = (N(z) - N(0)) / z and chi the Heaviside step.  The expansion
N(z) = sum_p (-N0 z kappa1(z))^p N0, N0 = (kappa0 + lambda)^-1, is
accumulated at the coefficient level and its terms are monitored on the
realized frequency grid; divergence is raised, never silently truncated.
The flux pair is recovered by the product symbol (kappa(z) + lambda)
Mstar(z), which reproduces W0 exactly at t = 0+.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curl_spectral import (
    FieldPair,
    ModeTable,
    SpectralField,
    generator_coefficients,
)
from .evo_solver import (
    SOURCE_CAUSALITY_TOL,
    ZERO_TIME_TOL,
    DEFAULT_FP_TOL,
    DEFAULT_MAX_ITER,
    J2,
    AbstractIVP,
    WrongCase,
    _apply_symbol_time,
    _causal_mask,
    _check_hermitian_posdef,
    _cumsimp,
    _right_limit,
    rotation_closed_form,
    solve_fixed_point,
    solve_integrator,
    solve_modal_exact,
)
from .weighted_time import MaterialSymbol, TimeGrid, WeightedSignal

RANGE_TOL = 1e-12
NEAR_KERNEL_BAND = 1e-3
NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 200
NEUMANN_GROWTH_RUN = 5
HYPOTHESIS_TOL = 1e-9

I2 = np.eye(2)

DBF_METHODS = ("exact", "fixed_point", "integrator")
GENERALIZED_METHODS = ("auto",) + DBF_METHODS


class RangeViolation(ValueError):
    """Data loads kernel modes of (1 + eta curl); no solution exists there."""


class HypothesisViolated(ValueError):
    """-lambda is (numerically) in the spectrum of kappa0 for some mode."""


class NeumannDiverges(RuntimeError):
    """The inversion series for (kappa + lambda)^-1 does not contract."""


class NonFiniteSolution(RuntimeError):
    """The solved fields or their diagnostics hold NaN or infinity."""


@dataclass
class PairSeries:
    """Time series of paired (e, h) coefficients over one ModeTable.

    Rows follow the grid, columns the table; used for sources and data that
    are field pairs at every sample.
    """

    table: ModeTable
    grid: TimeGrid
    nu: float
    e: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_samples, self.table.n_modes)
        self.e = np.asarray(self.e, dtype=np.complex128)
        self.h = np.asarray(self.h, dtype=np.complex128)
        for name, arr in (("e", self.e), ("h", self.h)):
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != {shape}")

    @classmethod
    def zeros(cls, table: ModeTable, grid: TimeGrid, nu: float) -> "PairSeries":
        shape = (grid.n_samples, table.n_modes)
        return cls(table, grid, nu, np.zeros(shape, dtype=np.complex128), np.zeros(shape, dtype=np.complex128))

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.e), initial=0.0), np.max(np.abs(self.h), initial=0.0)))

    def is_causal(self, tol: float = SOURCE_CAUSALITY_TOL) -> bool:
        pre = self.grid.times < -ZERO_TIME_TOL
        return bool(np.all(np.abs(self.e[pre]) <= tol) and np.all(np.abs(self.h[pre]) <= tol))


def _check_scenario_data(table: ModeTable, K: int, grid: TimeGrid, nu: float,
                         W0: FieldPair, source_J: PairSeries | None) -> None:
    if not nu > 0:
        raise ValueError(f"nu must be > 0, got {nu}")
    if table.K != K:
        raise ValueError(f"W0 table truncation {table.K} != K={K}")
    if source_J is not None:
        if source_J.table is not table:
            raise ValueError("source_J must live on the W0 mode table")
        if source_J.grid != grid:
            raise ValueError("source_J grid differs from the scenario grid")
        if not source_J.is_causal():
            raise ValueError("source_J must vanish on t < 0")


@dataclass
class DBFScenario:
    """Classical chiral run: constants (epsilon, mu, eta), data, and grid."""

    epsilon: float
    mu: float
    eta: float
    nu: float
    K: int
    grid: TimeGrid
    W0: FieldPair
    source_J: PairSeries | None = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0 or not self.mu > 0:
            raise ValueError(f"epsilon, mu must be > 0, got {self.epsilon}, {self.mu}")
        if self.eta == 0:
            raise ValueError("eta must be nonzero; eta = 0 is the achiral limit")
        _check_hermitian_posdef(np.diag([self.epsilon, self.mu]))
        _check_scenario_data(self.table, self.K, self.grid, self.nu, self.W0, self.source_J)

    @property
    def table(self) -> ModeTable:
        return self.W0.table


def block_scalar_matrix(M: np.ndarray) -> np.ndarray:
    """Compress a 6x6 blockwise scalar-times-identity matrix to its 2x2 core.

    2x2 input passes through.  Each 3x3 block of a 6x6 input must equal a
    scalar multiple of the identity; anything else has no per-mode reduction
    over the scalar eigenbasis and is rejected.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.shape == (2, 2):
        return M
    if M.shape != (6, 6):
        raise ValueError(f"expected a 2x2 block-scalar matrix or a 6x6 matrix, got {M.shape}")
    out = np.empty((2, 2), dtype=np.complex128)
    for bi in range(2):
        for bj in range(2):
            blk = M[3 * bi:3 * bi + 3, 3 * bj:3 * bj + 3]
            s = np.trace(blk) / 3.0
            if not np.allclose(blk, s * np.eye(3), atol=1e-12 * max(1.0, abs(s))):
                raise ValueError("6x6 block is not scalar times identity; cannot reduce per mode")
            out[bi, bj] = s
    return out


@dataclass
class GeneralizedScenario:
    """Operator material law run: kappa/Mstar pairs and optional cross coupling.

    kappa0 and Mstar0 are selfadjoint with positive spectral floor, given as
    the 2x2 block-scalar core (6x6 blockwise scalar-times-identity input is
    compressed).  kappa1 and Mstar1 are polynomial symbols in the causal
    antiderivative; delay terms are out of scope here.  k_cross, when set,
    is the fixed coupling vector of the constant term f -> k_cross x f added
    to Mstar1 at order zero (any physical prefactors are premultiplied into
    the vector, which is treated as dimensionless).  The term keeps the
    wavevector, so it couples only the three modes sharing one.
    """

    kappa0: np.ndarray
    Mstar0: np.ndarray
    nu: float
    K: int
    grid: TimeGrid
    W0: FieldPair
    kappa1: MaterialSymbol | None = None
    Mstar1: MaterialSymbol | None = None
    k_cross: np.ndarray | None = None
    source_J: PairSeries | None = None

    def __post_init__(self) -> None:
        self.kappa0 = block_scalar_matrix(self.kappa0)
        self.Mstar0 = block_scalar_matrix(self.Mstar0)
        _check_hermitian_posdef(self.kappa0)
        _check_hermitian_posdef(self.Mstar0)
        for name, sym in (("kappa1", self.kappa1), ("Mstar1", self.Mstar1)):
            if sym is None:
                continue
            if sym.dim != 2:
                raise ValueError(f"{name} must have dim 2, got {sym.dim}")
            if sym.delays:
                raise ValueError(f"{name} must be polynomial; delay terms are not supported")
        if self.k_cross is not None:
            self.k_cross = np.asarray(self.k_cross, dtype=float).reshape(3)
            if not np.any(self.k_cross):
                self.k_cross = None
        _check_scenario_data(self.table, self.K, self.grid, self.nu, self.W0, self.source_J)

    @property
    def table(self) -> ModeTable:
        return self.W0.table


@dataclass
class FieldHistory:
    """Solved run: E, H, D, B coefficient series plus solver diagnostics.

    Arrays are (n_samples, n_modes); the t = 0 row stores right limits and
    rows before 0 are exactly zero for causal data.
    """

    table: ModeTable
    grid: TimeGrid
    nu: float
    E: np.ndarray
    H: np.ndarray
    D: np.ndarray
    B: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = (self.grid.n_samples, self.table.n_modes)
        for name in ("E", "H", "D", "B"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != {shape}")
            setattr(self, name, arr)


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


@dataclass
class Verdict:
    """Outcome of the kernel-mode data check, with offenders listed."""

    passed: bool
    offending: list
    max_violation: float
    range_tol: float


def check_data_range(eta: float, source: PairSeries | None, W0: FieldPair, table: ModeTable,
                     range_tol: float = RANGE_TOL) -> Verdict:
    """Verify the data never loads kernel modes of (1 + eta curl).

    Solvability requires source and initial datum to lie in the closed range,
    which over the truncated table means zero coefficients on every mode with
    1 + eta lambda = 0.  The tolerance is relative to the largest data
    coefficient (floor 1).
    """
    kernel = table.kernel_mask(eta)
    scale = max(1.0, float(np.max(np.abs(W0.e_part.coeffs), initial=0.0)),
                float(np.max(np.abs(W0.h_part.coeffs), initial=0.0)))
    if source is not None:
        scale = max(scale, source.max_abs())
    offending: list[tuple[str, float]] = []
    worst = 0.0
    for i in np.nonzero(kernel)[0]:
        load = max(abs(W0.e_part.coeffs[i]), abs(W0.h_part.coeffs[i]))
        if source is not None:
            load = max(load, float(np.max(np.abs(source.e[:, i]), initial=0.0)),
                       float(np.max(np.abs(source.h[:, i]), initial=0.0)))
        load = float(load)
        if load > range_tol * scale:
            offending.append((str(table.modes[i].key()), load))
            worst = max(worst, load)
    return Verdict(passed=not offending, offending=offending, max_violation=worst, range_tol=range_tol)


@dataclass
class ReducedSystem:
    """Per-mode reduction of a classical scenario: 1 + eta lambda, c_lambda and masks.

    Kernel positions carry no block (their solution coefficients are exactly
    zero); near-kernel positions are retained but flagged stiff.  blocks,
    built on first use, pairs each retained position with its 2x2 problem.
    """

    scenario: DBFScenario
    factors: np.ndarray
    coupling: np.ndarray
    kernel: np.ndarray
    near: np.ndarray

    @cached_property
    def blocks(self) -> list:
        s = self.scenario
        M0 = np.diag([s.epsilon, s.mu]).astype(np.complex128)
        A = np.zeros((2, 2))
        blocks: list[tuple[int, AbstractIVP]] = []
        for i in np.nonzero(~self.kernel)[0]:
            c, f = self.coupling[i], self.factors[i]
            M1 = MaterialSymbol(dim=2, poly_coeffs=[c * J2]) if c != 0.0 else MaterialSymbol.zero(2)
            samples = (np.stack([s.source_J.e[:, i], s.source_J.h[:, i]], axis=1) / f if s.source_J is not None
                       else np.zeros((s.grid.n_samples, 2), dtype=np.complex128))
            w0 = np.array([s.W0.e_part.coeffs[i], s.W0.h_part.coeffs[i]]) / f
            blocks.append((int(i), AbstractIVP(dim=2, M0=M0, M1=M1, A=A,
                                               source=WeightedSignal(s.grid, s.nu, samples), W0=w0)))
        return blocks


def assemble_reduced_ivp(s: DBFScenario) -> ReducedSystem:
    """Reduce a classical scenario to one 2x2 problem per non-kernel mode.

    Mode lambda gets M0 = diag(eps, mu), rotation coefficient
    c_lambda = lambda / (1 + eta lambda), and data divided by (1 + eta
    lambda), the inverse of (1 + eta curl) on its range.  Near-kernel modes
    (|1 + eta lambda| <= 1e-3) make c_lambda stiff; they are flagged so the
    solver can force the closed-form method.
    """
    table = s.table
    verdict = check_data_range(s.eta, s.source_J, s.W0, table)
    if not verdict.passed:
        raise RangeViolation(
            f"data loads {len(verdict.offending)} kernel mode(s) of (1 + eta curl): "
            f"{verdict.offending[:4]}, max |coeff| = {verdict.max_violation:.3g}"
        )
    factors = 1.0 + s.eta * table.eigenvalues
    kernel = table.kernel_mask(s.eta)
    near = (~kernel) & (np.abs(factors) <= NEAR_KERNEL_BAND)
    if np.any(near):
        warnings.warn(
            f"{np.count_nonzero(near)} mode(s) within {NEAR_KERNEL_BAND} of the kernel of (1 + eta curl); "
            "rotation coefficients are stiff, forcing the exact modal method",
            stacklevel=2,
        )
    return ReducedSystem(s, factors, generator_coefficients(s.eta, table), kernel, near)


def _history_checks(history: FieldHistory, W0: FieldPair) -> tuple[float, float]:
    """Initial-value proxy error and causality sup of a solved history.

    The initial value compares the flux pair right limit against W0 in the
    proxy norm with per-mode weight (1 + lambda^2)^(-1/2); causality is the
    largest field coefficient before t = 0.
    """
    lam = history.table.eigenvalues
    d0 = _right_limit(history.D, history.grid)
    b0 = _right_limit(history.B, history.grid)
    w = 1.0 / (1.0 + lam**2)
    iv = float(np.sqrt(np.sum(w * (np.abs(d0 - W0.e_part.coeffs) ** 2 + np.abs(b0 - W0.h_part.coeffs) ** 2))))
    pre = history.grid.times < -ZERO_TIME_TOL
    caus = max(float(np.max(np.abs(arr[pre]), initial=0.0)) for arr in (history.E, history.H, history.D, history.B))
    return iv, caus


def _solve_block(ivp: AbstractIVP, method: str, nu: float, fp_tol: float, max_iter: int):
    """One block solve; returns (samples, iterations, contraction_estimate).

    "auto" tries the closed form and falls back to the fixed point when the
    block is outside its structural case; under "exact" WrongCase propagates.
    """
    if not np.any(ivp.W0 != 0) and not np.any(ivp.source.samples != 0):
        # Zero data gives the zero solution (uniqueness), with no contraction test.
        return np.zeros((ivp.grid.n_samples, ivp.dim), dtype=np.complex128), 0, 0.0
    if method in ("auto", "exact"):
        try:
            return solve_modal_exact(ivp, nu).samples, 0, 0.0
        except WrongCase:
            if method == "exact":
                raise
    elif method == "integrator":
        return solve_integrator(ivp, nu).samples, 0, 0.0
    report = solve_fixed_point(ivp, nu, max_iter=max_iter, tol=fp_tol)
    return report.solution.samples, report.iterations, report.contraction_estimate


def _solved_history(s, method: str, E, H, D, B, iterations: int, contraction: float,
                    kernel: list = (), near_kernel: list = (), **extra) -> FieldHistory:
    """Wrap solved series in a FieldHistory with the diagnostics both models share.

    kernel and near_kernel are table positions reported by mode key; extra
    holds the model's own diagnostic keys.  NonFiniteSolution is raised when
    a field series or a numeric diagnostic is NaN or infinite.
    """
    table = s.table
    history = FieldHistory(table, s.grid, s.nu, E, H, D, B)
    iv, caus = _history_checks(history, s.W0)
    history.diagnostics = {
        "method": method,
        "n_modes": int(table.n_modes),
        "kernel_modes": [str(table.modes[i].key()) for i in kernel],
        "near_kernel_modes": [str(table.modes[i].key()) for i in near_kernel],
        "iterations": int(iterations),
        "contraction_estimate": float(contraction),
        "initial_value_error": iv,
        "causality_sup": caus,
        "weak_residual": verify_dbf_equation(history, s),
        "nu": float(s.nu),
        **extra,
    }
    bad = [name for name in ("E", "H", "D", "B") if not np.all(np.isfinite(getattr(history, name)))]
    bad += [key for key, v in history.diagnostics.items() if isinstance(v, (int, float)) and not np.isfinite(v)]
    if bad:
        raise NonFiniteSolution(f"non-finite values in {', '.join(bad)}")
    return history


def solve_dbf(s: DBFScenario, method: str = "exact", *, fp_tol: float = DEFAULT_FP_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> FieldHistory:
    """Solve a classical scenario mode by mode and lift to (E, H, D, B).

    One stacked closed-form pass solves every mode with data under "exact",
    and the near-kernel modes under any method; fixed_point and integrator
    solve their other modes one AbstractIVP at a time.  Modes without data
    and kernel coefficients stay exactly zero, realizing the projection onto
    the solvable range.  Diagnostics record the flux-pair initial-value proxy
    error, the causality sup, the weak residual and Picard iterations.
    """
    if method not in DBF_METHODS:
        raise ValueError(f"method must be one of {DBF_METHODS}, got {method!r}")
    reduced = assemble_reduced_ivp(s)
    grid, m = s.grid, s.table.n_modes
    keep, factors = ~reduced.kernel, reduced.factors
    w0 = np.zeros((m, 2), dtype=np.complex128)
    w0[keep] = np.stack([s.W0.e_part.coeffs[keep], s.W0.h_part.coeffs[keep]], axis=1) / factors[keep, None]
    data = np.any(w0 != 0, axis=1)
    src = np.zeros(0, dtype=int)
    if s.source_J is not None:
        src = np.nonzero(keep & (np.any(s.source_J.e != 0, axis=0) | np.any(s.source_J.h != 0, axis=0)))[0]
        se, sh = s.source_J.e[:, src] / factors[src], s.source_J.h[:, src] / factors[src]
        pre = grid.times < -ZERO_TIME_TOL
        if np.any(np.abs(se[pre]) > SOURCE_CAUSALITY_TOL) or np.any(np.abs(sh[pre]) > SOURCE_CAUSALITY_TOL):
            raise ValueError("source must vanish on t < 0")
        data[src] |= np.any(se != 0, axis=0) | np.any(sh != 0, axis=0)
    closed = data & (reduced.near | (method == "exact"))
    cols = np.nonzero(closed)[0]
    E, H = np.zeros((2, grid.n_samples, m), dtype=np.complex128)
    on = closed[src]
    source = (np.searchsorted(cols, src[on]), se[:, on], sh[:, on]) if np.any(on) else None
    # + 0.0: a -0.0 coupling acts as +0.0, as in the per-mode blocks.
    E[:, cols], H[:, cols] = rotation_closed_form(s.epsilon, s.mu, reduced.coupling[cols] + 0.0, w0[cols], grid, source)
    rest = np.nonzero(data & ~closed)[0]
    blocks = dict(reduced.blocks) if rest.size else {}
    iterations, contraction = 0, 0.0
    for i in rest:
        samples, iters, cest = _solve_block(blocks[i], method, s.nu, fp_tol, max_iter)
        E[:, i], H[:, i] = samples[:, 0], samples[:, 1]
        iterations, contraction = max(iterations, iters), max(contraction, cest)
    D, B = recover_DB(E, H, s)
    return _solved_history(s, method, E, H, D, B, iterations, contraction,
                           np.nonzero(reduced.kernel)[0], np.nonzero(reduced.near)[0])


def recover_DB(E, H, s: DBFScenario):
    """Flux pair from the field pair: coefficients scaled by (1 + eta lambda) eps / mu.

    Accepts SpectralField inputs or coefficient arrays with modes on the
    last axis, and returns the same kind.
    """
    lam = s.table.eigenvalues
    fe = (1.0 + s.eta * lam) * s.epsilon
    fh = (1.0 + s.eta * lam) * s.mu
    if isinstance(E, SpectralField):
        return E.with_coeffs(fe * E.coeffs), H.with_coeffs(fh * H.coeffs)
    E = np.asarray(E, dtype=np.complex128)
    H = np.asarray(H, dtype=np.complex128)
    return fe * E, fh * H


def verify_dbf_equation(history: FieldHistory, s) -> float:
    """Weak residual of the coupled evolution over the solved window.

    Integrating the equation once in time removes the Dirac datum: for
    t >= 0 the residual pair is (D, B)(t) + int_0^t [lambda J (E, H) - J_src]
    - W0, evaluated per mode with the composite Simpson rule.  Per-mode
    weighted L2 norms in time are scaled by (1 + lambda^2)^(-1/2), the proxy
    for the dual norm where the equation holds, and summed.  Works for both
    scenario kinds since only data and eigenvalues enter.
    """
    grid = history.grid
    mask = _causal_mask(grid)
    lam = history.table.eigenvalues
    if s.source_J is not None:
        je = s.source_J.e[mask]
        jh = s.source_J.h[mask]
    else:
        je = jh = 0.0
    integrand_e = -lam[None, :] * history.H[mask] - je
    integrand_h = lam[None, :] * history.E[mask] - jh
    r_e = history.D[mask] + _cumsimp(integrand_e, grid.dt) - s.W0.e_part.coeffs[None, :]
    r_h = history.B[mask] + _cumsimp(integrand_h, grid.dt) - s.W0.h_part.coeffs[None, :]
    wt = np.exp(-2.0 * s.nu * grid.times[mask])
    per_mode = np.sqrt(grid.dt * np.sum(wt[:, None] * (np.abs(r_e) ** 2 + np.abs(r_h) ** 2), axis=0))
    return float(np.sum(per_mode / np.sqrt(1.0 + lam**2)))


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


def material_energy_series(history: FieldHistory, s) -> np.ndarray:
    """Instantaneous material energy per sample, summed over modes.

    Classical scenarios use eps |E|^2 + mu |H|^2; generalized scenarios use
    the quadratic form of Mstar0 (the memoryless part of the law).
    """
    if isinstance(s, DBFScenario):
        return (s.epsilon * np.sum(np.abs(history.E) ** 2, axis=1)
                + s.mu * np.sum(np.abs(history.H) ** 2, axis=1))
    M = s.Mstar0
    ee = np.sum(np.abs(history.E) ** 2, axis=1)
    hh = np.sum(np.abs(history.H) ** 2, axis=1)
    cross = np.sum(np.conj(history.E) * history.H, axis=1)
    return (M[0, 0].real * ee + M[1, 1].real * hh + 2.0 * np.real(M[0, 1] * cross))


def _wavevector_blocks(table: ModeTable) -> list:
    """Table positions grouped by wavevector in table order; the const modes share k = 0."""
    groups: dict[tuple, list] = {}
    for i, k in enumerate(map(tuple, table.kvectors)):
        groups.setdefault(k, []).append(i)
    return list(groups.values())


def _cross_block(k_cross: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Entries conj(p_i) . (k_cross x p_j) over the amplitudes of one wavevector."""
    return np.conj(amplitudes) @ np.cross(k_cross, amplitudes).T


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


def _symbol_values(coeff_map: dict, z: np.ndarray) -> np.ndarray:
    out = np.zeros(z.shape + (2, 2), dtype=np.complex128)
    for d, C in coeff_map.items():
        out += (z**d)[..., None, None] * C
    return out


def _neumann_coefficients(kappa0: np.ndarray, kappa1: MaterialSymbol | None, lam: float,
                          z: np.ndarray, nu: float) -> tuple[list, int, float]:
    """Polynomial coefficients of the truncated inverse of kappa(z) + lambda.

    Accumulates sum_p (-N0 z kappa1(z))^p N0 at the coefficient level.  Each
    term's Frobenius sup over the realized frequency grid controls the stop
    (below NEUMANN_TOL) and the divergence detector (growth on
    NEUMANN_GROWTH_RUN consecutive terms); additionally the first correction
    sup |N0 z kappa1(z)| >= 1 aborts immediately.  Returns (coefficients,
    terms used, first-correction sup).
    """
    N0 = np.linalg.inv(kappa0 + lam * I2)
    kcoeffs = [np.asarray(C, dtype=np.complex128) for C in (kappa1.poly_coeffs if kappa1 else [])]
    if not kcoeffs or all(not np.any(C) for C in kcoeffs):
        return [N0], 1, 0.0
    q_vals = np.matmul(N0, z[..., None, None] * kappa1.evaluate(z))
    q_sup = float(np.max(np.linalg.svd(q_vals, compute_uv=False)))
    if q_sup >= 1.0:
        raise NeumannDiverges(
            f"inversion series for kappa + lambda has first-correction sup {q_sup:.4g} >= 1 "
            f"at nu={nu} for eigenvalue lambda={lam}; increase nu"
        )
    premult = [-(N0 @ C) for C in kcoeffs]
    coeffs: dict[int, np.ndarray] = {0: N0.copy()}
    term: dict[int, np.ndarray] = {0: N0}
    prev_sup = None
    growth = 0
    terms_used = 1
    for _ in range(1, NEUMANN_MAX_TERMS + 1):
        nxt: dict[int, np.ndarray] = {}
        for d, T in term.items():
            for j, PC in enumerate(premult):
                dd = d + 1 + j
                contrib = PC @ T
                if dd in nxt:
                    nxt[dd] = nxt[dd] + contrib
                else:
                    nxt[dd] = contrib
        term = nxt
        vals = _symbol_values(term, z)
        sup = float(np.sqrt(np.max(np.sum(np.abs(vals) ** 2, axis=(-2, -1)))))
        for d, T in term.items():
            coeffs[d] = coeffs[d] + T if d in coeffs else T.copy()
        terms_used += 1
        if sup < NEUMANN_TOL:
            break
        if prev_sup is not None and sup > prev_sup:
            growth += 1
            if growth >= NEUMANN_GROWTH_RUN:
                raise NeumannDiverges(
                    f"inversion series terms grew {NEUMANN_GROWTH_RUN} consecutive times "
                    f"(last sup {sup:.4g}) at nu={nu} for eigenvalue lambda={lam}; increase nu"
                )
        else:
            growth = 0
        prev_sup = sup
    else:
        warnings.warn(
            f"inversion series truncated at {NEUMANN_MAX_TERMS} terms with last sup {prev_sup:.3g}",
            stacklevel=2,
        )
    top = max(coeffs)
    zero = np.zeros((2, 2), dtype=np.complex128)
    return [coeffs.get(d, zero) for d in range(top + 1)], terms_used, q_sup


def _merged_coeff_list(*lists: list) -> list:
    """Elementwise sum of coefficient lists of possibly different lengths."""
    top = max(len(lst) for lst in lists)
    return [sum(np.asarray(lst[d], dtype=np.complex128) for lst in lists if d < len(lst)) for d in range(top)]


def _convolve_coeff_lists(a: list, b: list) -> list:
    """Coefficient list of the product symbol a(z) b(z), order preserved."""
    dim = a[0].shape[0]
    out = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(len(a) + len(b) - 1)]
    for i, A in enumerate(a):
        for j, Bc in enumerate(b):
            out[i + j] = out[i + j] + A @ Bc
    return out


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of the given square blocks, exact zeros elsewhere."""
    blocks = [np.asarray(b) for b in blocks]
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size), dtype=np.result_type(*blocks))
    r = 0
    for b in blocks:
        out[r:r + b.shape[0], r:r + b.shape[0]] = b
        r += b.shape[0]
    return out


def _block_diag_coeffs(lists: list) -> list:
    """Coefficient list of the block-diagonal symbol with these per-mode lists."""
    if len(lists) == 1:
        return lists[0]
    zero = np.zeros((2, 2), dtype=np.complex128)
    top = max(len(lst) for lst in lists)
    return [_block_diag(lst[d] if d < len(lst) else zero for lst in lists) for d in range(top)]


def _hypothesis_scan(kappa0: np.ndarray, lam_values: np.ndarray) -> float:
    """Smallest relative singular-value margin of kappa0 + lambda over modes.

    Raises HypothesisViolated when any eigenvalue makes the shifted block
    numerically singular.
    """
    margin = np.inf
    bad: list[tuple[float, float]] = []
    for lv in np.unique(lam_values):
        smin = float(np.linalg.svd(kappa0 + lv * I2, compute_uv=False)[-1])
        rel = smin / max(1.0, abs(lv))
        margin = min(margin, rel)
        if rel <= HYPOTHESIS_TOL:
            bad.append((float(lv), rel))
    if bad:
        raise HypothesisViolated(
            f"kappa0 + lambda is numerically singular for eigenvalue(s) {[b[0] for b in bad]}; "
            f"relative margin(s) {[f'{b[1]:.2g}' for b in bad]} <= {HYPOTHESIS_TOL}"
        )
    return float(margin)


def _reduced_mode_source(g: GeneralizedScenario, i: int, N: list) -> tuple[np.ndarray, np.ndarray]:
    """Reduced source and jump datum of one mode: N applied to j and W0.

    The Dirac datum splits into N(0) W0 at the jump plus the polynomial
    remainder R(z) = (N(z) - N(0)) / z applied to the Heaviside step of W0.
    """
    grid = g.grid
    n = grid.n_samples
    w0 = np.array([g.W0.e_part.coeffs[i], g.W0.h_part.coeffs[i]], dtype=np.complex128)
    samples = np.zeros((n, 2), dtype=np.complex128)
    if g.source_J is not None:
        jvec = np.stack([g.source_J.e[:, i], g.source_J.h[:, i]], axis=1)
        if np.any(jvec):
            samples = samples + _apply_symbol_time(MaterialSymbol(dim=2, poly_coeffs=N), jvec, grid)
    if len(N) > 1 and np.any(w0):
        chi = np.zeros((n, 2), dtype=np.complex128)
        chi[_causal_mask(grid)] = w0
        samples = samples + _apply_symbol_time(MaterialSymbol(dim=2, poly_coeffs=N[1:]), chi, grid)
    return samples, N[0] @ w0


def solve_generalized(g: GeneralizedScenario, method: str = "auto", *, fp_tol: float = DEFAULT_FP_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> FieldHistory:
    """Solve an operator-law scenario and recover the flux pair.

    The reduction is per block: the truncated inverse of kappa(z) + lambda
    shapes one 2x2 block per mode, solved by the closed form when the
    coupling degenerates to a real rotation (method "auto" tries it first)
    and by the fixed-point solver otherwise.  A nonzero k_cross couples the
    three modes of each wavevector (the const modes form the k = 0 block),
    so each wavevector is then solved as one 6x6 block.  Blocks without data
    are skipped and the contraction test applies per block.  The flux pair
    follows by applying the product symbol (kappa(z) + lambda) Mstar(z) in
    the time domain, which reproduces W0 exactly at t = 0+.
    """
    if method not in GENERALIZED_METHODS:
        raise ValueError(f"method must be one of {GENERALIZED_METHODS}, got {method!r}")
    table, grid = g.table, g.grid
    lam = table.eigenvalues
    margin = _hypothesis_scan(g.kappa0, lam)
    z = 1.0 / (1j * grid.frequencies + g.nu)
    mstar1_coeffs = [np.asarray(C, dtype=np.complex128) for C in (g.Mstar1.poly_coeffs if g.Mstar1 else [])]
    kappa1_coeffs = [np.asarray(C, dtype=np.complex128) for C in (g.kappa1.poly_coeffs if g.kappa1 else [])]

    per_lam: dict[float, dict] = {}
    neumann_terms = 0
    q_sup = 0.0
    for lv in np.unique(lam):
        N, terms, q0 = _neumann_coefficients(g.kappa0, g.kappa1, float(lv), z, g.nu)
        coupling = [float(lv) * (Nd @ J2) for Nd in N] if lv != 0.0 else []
        m1 = _merged_coeff_list(mstar1_coeffs, coupling) if (mstar1_coeffs or coupling) else []
        product = _convolve_coeff_lists([g.kappa0 + float(lv) * I2] + kappa1_coeffs,
                                        [g.Mstar0] + mstar1_coeffs)
        per_lam[float(lv)] = {"N": N, "M1": m1, "P": product}
        neumann_terms = max(neumann_terms, terms)
        q_sup = max(q_sup, q0)

    n, m = grid.n_samples, table.n_modes
    E = np.zeros((n, m), dtype=np.complex128)
    H = np.zeros((n, m), dtype=np.complex128)
    D = np.zeros((n, m), dtype=np.complex128)
    B = np.zeros((n, m), dtype=np.complex128)
    iterations = 0
    contraction = 0.0
    blocks = [[i] for i in range(m)] if g.k_cross is None else _wavevector_blocks(table)
    for idx in blocks:
        modes = [per_lam[float(lam[i])] for i in idx]
        m1 = _block_diag_coeffs([data["M1"] for data in modes])
        product = _block_diag_coeffs([data["P"] for data in modes])
        if g.k_cross is not None:
            # f -> k_cross x f enters M1 at order zero and Mstar at order one.
            cross = np.kron(_cross_block(g.k_cross, table.amplitudes[idx]), I2)
            kappa = _block_diag_coeffs([[g.kappa0 + lam[i] * I2] + kappa1_coeffs for i in idx])
            m1 = _merged_coeff_list(m1, [cross])
            product = _merged_coeff_list(product, _convolve_coeff_lists(kappa, [0 * cross, cross]))
        reduced = [_reduced_mode_source(g, i, data["N"]) for i, data in zip(idx, modes)]
        dim = 2 * len(idx)
        ivp = AbstractIVP(dim=dim, M0=_block_diag([g.Mstar0] * len(idx)),
                          M1=MaterialSymbol(dim=dim, poly_coeffs=m1) if m1 else MaterialSymbol.zero(dim),
                          A=np.zeros((dim, dim)),
                          source=WeightedSignal(grid, g.nu, np.hstack([r[0] for r in reduced])),
                          W0=np.concatenate([r[1] for r in reduced]))
        sol, iters, cest = _solve_block(ivp, method, g.nu, fp_tol, max_iter)
        db = _apply_symbol_time(MaterialSymbol(dim=dim, poly_coeffs=product), sol, grid)
        E[:, idx], H[:, idx] = sol[:, 0::2], sol[:, 1::2]
        D[:, idx], B[:, idx] = db[:, 0::2], db[:, 1::2]
        iterations = max(iterations, iters)
        contraction = max(contraction, cest)

    return _solved_history(g, method, E, H, D, B, iterations, contraction, hypothesis_margin=margin,
                           neumann_terms=int(neumann_terms), q0_sup=float(q_sup))
