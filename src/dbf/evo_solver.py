"""Solvers for abstract causal initial value problems with memory.

The governing equation is

    (d/dt) M0 U + M1(I) U + A U = J + (Dirac at 0) W0,

where I denotes causal time integration, M0 is selfadjoint positive
definite, M1 = sum_i C_i I^i is a polynomial in I, and A is skew.  Writing
V = sqrt(M0) U turns the equation into (d/dt + A') V = F - M1' V with the
skew A' = sqrt(M0)^-1 A sqrt(M0)^-1, M1' the conjugated symbol, and
F = sqrt(M0)^-1 (J + (Dirac at 0) W0).  The resolvent (d/dt + A')^-1 is the
causal convolution with the unitary group exp(-t A'); applied to the Dirac
part it gives the jump  chi_{t>=0} exp(-t A') sqrt(M0)^-1 W0, and its gain
on the weighted space with weight nu is 1/nu, which makes the fixed-point
map a contraction once nu exceeds the symbol bound of M1' .

Three solvers are provided: a closed form for stacked 2x2 rotation blocks
(exact for jump, step, and delayed-step data), the Picard iteration
realizing the contraction argument, and an exact propagator: with A = 0
and M1 = sum_i C_i I^i, y = (U, I U, ..., I^{p+1} U) obeys a linear ODE
that one matrix exponential steps exactly, with no contraction, weight
condition or stop tolerance.  Each solves a stack of blocks sharing one
operator, every block bit for bit as alone (solve_fixed_point,
solve_integrator and solve_modal_exact are the one-block forms).

The solve window is the rows from TimeGrid.zero_index, the first sample at
t >= 0: every time-domain helper computes those rows only and leaves the
rows before it exactly zero, whatever its input holds there.  So M1 is a
polynomial: _poly_coeffs raises WrongCase for a delay, which acts only
through weighted_time.apply_symbol.  The t = 0 row is U(0+): every method
stores the right limit there, and the initial-value checks read it as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .weighted_time import (
    ZERO_TIME_TOL,
    MaterialSymbol,
    TimeGrid,
    WeightedSignal,
    running_simpson,
    running_trapezoid,
    weighted_norm,
)

HERMITICITY_TOL = 1e-12
SOURCE_CAUSALITY_TOL = 1e-14
DEFAULT_FP_TOL = 1e-10
DEFAULT_MAX_ITER = 64

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _cumsimp(values: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson antiderivative along axis 0 (trapezoid below 3 samples).

    Complex input is integrated as separate real and imaginary parts: a
    single complex pass can give zero entries the opposite sign, which
    changes the written CSV bytes.
    """
    values = np.asarray(values)
    if values.shape[0] < 3:
        return running_trapezoid(values, dx)
    if np.iscomplexobj(values):
        return running_simpson(values.real, dx) + 1j * running_simpson(values.imag, dx)
    return running_simpson(values, dx)


class NotContractive(ValueError):
    """Contraction estimate >= 1: the weight nu is too small for M1."""


class NoConvergence(RuntimeError):
    """Fixed-point iteration exhausted max_iter before reaching tol in block `block` of a stack."""

    block = 0


class WrongCase(ValueError):
    """Verification or method applied outside its structural assumptions."""


def _check_hermitian_posdef(M0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (sqrt(M0)^-1, M0^-1, spectral floor c0), validating M0."""
    M0 = np.asarray(M0, dtype=np.complex128)
    if M0.ndim != 2 or M0.shape[0] != M0.shape[1]:
        raise ValueError(f"M0 must be square, got shape {M0.shape}")
    if np.max(np.abs(M0 - M0.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(M0))):
        raise ValueError("M0 is not selfadjoint")
    w, Q = np.linalg.eigh(M0)
    c0 = float(np.min(w))
    if c0 <= 0:
        raise ValueError(f"M0 spectral floor {c0} is not strictly positive")
    if c0 < np.finfo(float).tiny:
        raise ValueError(f"M0 spectral floor {c0} is subnormal; its inverse overflows")
    inv_sqrt = (Q * (1.0 / np.sqrt(w))) @ Q.conj().T
    inv = (Q * (1.0 / w)) @ Q.conj().T
    if not (np.all(np.isfinite(inv_sqrt)) and np.all(np.isfinite(inv))):
        raise ValueError(f"M0 spectral floor {c0} gives a non-finite inverse")
    return inv_sqrt, inv, c0


def _check_skew(A: np.ndarray, dim: int) -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (dim, dim):
        raise ValueError(f"A must be {dim}x{dim}, got {A.shape}")
    if np.max(np.abs(A + A.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(A))):
        raise ValueError("A is not skew-selfadjoint")
    return A


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
        if self.source.channels != self.dim:
            raise ValueError(f"source channels {self.source.channels} != dim {self.dim}")
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


def _rows_at(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M over the last axis as one flat 2-D product: stacked (n, B, d)
    blocks then match per-block products bit for bit, unlike a 3-D matmul."""
    return (x.reshape(-1, x.shape[-1]) @ M).reshape(x.shape[:-1] + M.shape[1:])


def causal_resolvent(A_prime: np.ndarray, samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Apply (d/dt + A')^-1 as the causal convolution with exp(-t A').

    Diagonalizes the skew A' and integrates each channel by the cumulative
    trapezoid from the t = 0 row; the rows before it are exactly zero and
    their input is never read.  samples is (n, d) or B stacked blocks (n, B, d).
    """
    theta, W = np.linalg.eigh(1j * np.asarray(A_prime, dtype=np.complex128))  # A' = W diag(-i theta) W*
    z = grid.zero_index
    phase = np.exp(-1j * np.outer(grid.times[z:], theta))[:, None, :]
    g = _rows_at(samples[z:].reshape(len(phase), -1, len(theta)), np.conj(W))
    # The t = 0 row stores the right limit U(0+), so the cell ending at 0 must
    # not see it: the running integral restarts at that row.
    integ = running_trapezoid(phase * g, grid.dt)
    out = np.zeros_like(samples, dtype=np.complex128)
    out[z:] = _rows_at(np.conj(phase) * integ, W.T).reshape(out[z:].shape)
    return out


def _jump_response(A_prime: np.ndarray, inv_sqrt: np.ndarray, w0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Samples (n, B, d) of chi_{t>=0} exp(-t A') sqrt(M0)^-1 w0_b for the rows of w0, zero before 0."""
    theta, W = np.linalg.eigh(1j * np.asarray(A_prime, dtype=np.complex128))
    z = grid.zero_index
    # One matrix-vector product per block: a stacked product changes the last bits.
    coeff = np.array([W.conj().T @ (inv_sqrt @ v) for v in np.asarray(w0, dtype=np.complex128)])
    out = np.zeros((grid.n_samples,) + coeff.shape, dtype=np.complex128)
    out[z:] = _rows_at(np.exp(1j * np.outer(grid.times[z:], theta))[:, None, :] * coeff, W.T)
    return out


def semigroup_apply(M0: np.ndarray, A: np.ndarray, w0: np.ndarray, grid: TimeGrid, nu: float) -> WeightedSignal:
    """Jump response chi_{t>=0} sqrt(M0)^-1 exp(-t A') sqrt(M0)^-1 w0.

    A' = sqrt(M0)^-1 A sqrt(M0)^-1.  The right limit at 0 is M0^-1 w0 and is
    stored at the t = 0 sample; samples before 0 are exactly zero.
    """
    inv_sqrt, _, _ = _check_hermitian_posdef(M0)
    A = _check_skew(A, len(w0))
    jump = _jump_response(inv_sqrt @ A @ inv_sqrt, inv_sqrt, np.asarray(w0)[None], grid)[:, 0]
    return WeightedSignal(grid, nu, jump @ inv_sqrt.T)


def _poly_coeffs(M1: MaterialSymbol) -> list:
    """M1's coefficients C_0, ..., C_p; WrongCase for a delay term, which would read rows before t = 0."""
    if M1.delays:
        raise WrongCase("the time-domain solvers need a polynomial symbol M1")
    return M1.poly_coeffs


def _apply_symbol_time(sym: MaterialSymbol, samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Time-domain action of a polynomial symbol, iterated causal integrals (a delay acts only through
    weighted_time.apply_symbol).  Reads and writes only the rows from the t = 0 row on, so the rows
    before stay zero; samples is (n, d) or B stacked blocks (n, B, d)."""
    out = np.zeros(samples.shape, dtype=np.complex128)
    z = grid.zero_index
    power = samples[z:]
    for j, C in enumerate(_poly_coeffs(sym)):
        if j > 0:
            # The running integral restarts at the t = 0 row, which stores the right limit.
            power = running_trapezoid(power, grid.dt)
        out[z:] += _rows_at(power, C.T)
    return out


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
    r[z:] = sol @ p.M0.T + _cumsimp(integrand, grid.dt) - p.W0[None, :]
    r_sig = WeightedSignal(grid, u.nu, r)
    return r_sig, weighted_norm(r_sig, 0)


def solve_fixed_point_blocks(M0: np.ndarray, M1: MaterialSymbol, A: np.ndarray, source: np.ndarray,
                             w0: np.ndarray, grid: TimeGrid, nu: float, max_iter: int = DEFAULT_MAX_ITER,
                             tol: float = DEFAULT_FP_TOL) -> tuple[np.ndarray, np.ndarray, float, list]:
    """Picard iteration of B blocks with data source (n, B, d), w0 (B, d) sharing (M0, M1, A).

    Iterates (d/dt + A') V = F - M1' V from the guess that drops M1.  The
    map has gain at most sup|M1| / (nu c0) on the weighted space; this
    estimate is computed once and NotContractive raised when it reaches 1.
    Each block stops on its own weighted update, so its iterates and stop
    are those of the block solved alone.  Returns (solution (n, B, d),
    iterations per block, estimate, update ratios per block).
    """
    coeffs = _poly_coeffs(M1)
    inv_sqrt, _, c0 = _check_hermitian_posdef(M0)
    A = _check_skew(A, M1.dim)
    estimate = M1.sup_norm(nu, grid.frequencies) / (nu * c0)
    if estimate >= 1.0:
        raise NotContractive(f"contraction estimate {estimate:.3g} >= 1 at nu={nu}; increase nu")
    A_prime = inv_sqrt @ A @ inv_sqrt
    v0 = causal_resolvent(A_prime, _rows_at(source, inv_sqrt.T), grid) + _jump_response(A_prime, inv_sqrt, w0, grid)
    m1_conj = MaterialSymbol(M1.dim, [inv_sqrt @ C @ inv_sqrt for C in coeffs])

    v = v0.copy()
    iterations = np.zeros(v.shape[1], dtype=int)
    ratios: list[list[float]] = [[] for _ in iterations]
    update = np.full(v.shape[1], np.inf)
    active = np.arange(v.shape[1])
    for sweep in range(1, max_iter + 1):
        v_active = v[:, active]
        v_next = v0[:, active] - causal_resolvent(A_prime, _apply_symbol_time(m1_conj, v_active, grid), grid)
        diff = v_next - v_active
        for j, b in enumerate(active):
            prev, update[b] = update[b], weighted_norm(WeightedSignal(grid, nu, diff[:, j]), 0)
            if sweep > 1 and prev > 0:
                ratios[b].append(float(update[b] / prev))
        v[:, active] = v_next
        iterations[active] = sweep
        active = active[~(update[active] <= tol)]
        if not active.size:
            break
    else:
        err = NoConvergence(f"no convergence after {max_iter} iterations, last update {update[active[0]]:.3g}")
        err.block = int(active[0])
        raise err
    return _rows_at(v, inv_sqrt.T), iterations, estimate, ratios


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


def _rotation_constant(M0: np.ndarray, M1: MaterialSymbol, A: np.ndarray) -> tuple[float, float, float]:
    """Extract (epsilon, mu, c) from a 2x2 operator with M0 diagonal, M1 = c J, c real, A = 0."""
    if M1.dim != 2:
        raise WrongCase(f"modal closed form needs dim 2, got {M1.dim}")
    if np.max(np.abs(A)) > HERMITICITY_TOL:
        raise WrongCase("modal closed form needs A = 0")
    if np.max(np.abs(M0 - np.diag(np.diag(M0)))) > 0 or np.max(np.abs(np.diag(M0).imag)) > 0:
        raise WrongCase("modal closed form needs M0 = diag(eps, mu) real")
    eps, mu = float(M0[0, 0].real), float(M0[1, 1].real)
    coeffs = _poly_coeffs(M1) or [np.zeros((2, 2))]
    if len(coeffs) > 1:
        raise WrongCase("modal closed form needs a constant coupling symbol")
    c = coeffs[0][1, 0]
    if np.max(np.abs(coeffs[0] - c * J2)) > 0:
        raise WrongCase("coupling matrix is not a multiple of [[0,-1],[1,0]]")
    if abs(c.imag) > 0:
        raise WrongCase("coupling constant must be real")
    return eps, mu, float(c.real)


def _cos_sinc(omega: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega tau), sin(omega tau)/omega per column (1, tau at omega = 0); tau (n, 1) or (n, B)."""
    zero = omega == 0
    arg = tau * omega
    cos_t, sinc_t = np.cos(arg), np.sin(arg, out=arg)
    sinc_t /= np.where(zero, 1.0, omega)
    cos_t[:, zero] = 1.0
    sinc_t[:, zero] = np.broadcast_to(tau, arg.shape)[:, zero]
    return cos_t, sinc_t


def _rotate(eps: float, mu: float, c: np.ndarray, omega: np.ndarray, s: np.ndarray,
            ve: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of exp(-s B) v = cos v - sinc B v, with B v = (-c vh / eps, c ve / mu)."""
    cos_t, sinc_t = _cos_sinc(omega, s)
    e = cos_t * ve
    e += -sinc_t * (-c * vh / eps)
    h = cos_t * vh
    h += -sinc_t * (c * ve / mu)
    return e, h


def step_columns(samples: np.ndarray) -> tuple:
    """Per column of source rows (rows, k, channels) from t = 0: the first row with a nonzero channel, the
    channels there (k, channels), the mask (rows, k) of the rows before it, and whether the column is a
    step (zero, then constant)."""
    first = np.argmax(np.any(samples != 0, axis=2), axis=0)
    at = samples[first, np.arange(samples.shape[1])]
    before = np.arange(len(samples))[:, None] < first
    return first, at, before, np.all(np.all(samples == at, axis=2) | before, axis=0)


def rotation_closed_form(eps: float, mu: float, c: np.ndarray, w0: np.ndarray, grid: TimeGrid,
                         source: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of B stacked 2x2 rotation blocks sharing M0 = diag(eps, mu).

    Column b solves (d/dt) M0 u + c_b J u = J_b + (Dirac at 0) w0_b; c is
    (B,) and w0 (B, 2).  The propagator is the rotation exp(-t B_b) with
    B_b = M0^-1 c_b J and B_b^2 = -omega_b^2, omega_b = c_b / sqrt(eps mu).
    source is (idx, samples): columns idx carry the (e, h) source samples
    (n_samples, len(idx), 2), the others none.  Jump data and step and
    delayed-step sources (detected per column) integrate exactly; other
    sources fall back to a Duhamel convolution with Simpson quadrature of
    exp(s B) M0^-1 J(s).
    Returns the (e, h) components, each (n_samples, B), zero before t = 0.
    """
    c = np.asarray(c, dtype=float)
    omega = c / np.sqrt(eps * mu)
    z = grid.zero_index
    tau = grid.times[z:]
    tau = np.where(np.abs(tau) < ZERO_TIME_TOL, 0.0, tau)[:, None]
    ue, uh = _rotate(eps, mu, c, omega, tau, w0[:, 0] / eps, w0[:, 1] / mu)
    idx, (se, sh) = source[0], np.moveaxis(source[1][z:], -1, 0)
    first, at, before, step = step_columns(source[1][z:])
    ae, ah = at.T
    pe, ph = np.zeros((2,) + se.shape, dtype=np.complex128)
    # A step a != 0 adds v - exp(-s B) v, v = B^-1 M0^-1 a = -B M0^-1 a / omega^2 with
    # omega^2 by libm pow (as a scalar power), or s M0^-1 a where omega = 0.
    k = np.nonzero(step & ((ae != 0) | (ah != 0)))[0]
    shifted, fe, fh, ck, wk = tau - tau[first[k], 0], ae[k] / eps, ah[k] / mu, c[idx[k]], omega[idx[k]]
    w2 = np.array([float(w) ** 2 if w else 1.0 for w in wk])
    ve, vh = ck * fh / eps / w2, -ck * fe / mu / w2
    re, rh = _rotate(eps, mu, ck, wk, shifted, ve, vh)
    qe, qh = ve - re, vh - rh
    flat = wk == 0
    qe[:, flat], qh[:, flat] = shifted[:, flat] * fe[flat], shifted[:, flat] * fh[flat]
    qe[before[:, k]] = qh[before[:, k]] = 0.0
    pe[:, k], ph[:, k] = qe, qh
    # Other sources: Duhamel, with G the Simpson integral of exp(s B) M0^-1 J(s).
    d = np.nonzero(~step)[0]
    cd, (cos_d, sinc_d) = c[idx[d]], _cos_sinc(omega[idx[d]], tau)
    fe, fh = se[:, d] * (1.0 / eps), sh[:, d] * (1.0 / mu)
    Ge = _cumsimp(cos_d * fe + sinc_d * (-cd * fh / eps), grid.dt)
    Gh = _cumsimp(cos_d * fh + sinc_d * (cd * fe / mu), grid.dt)
    pe[:, d] = cos_d * Ge - sinc_d * (-cd * Gh / eps)
    ph[:, d] = cos_d * Gh - sinc_d * (cd * Ge / mu)
    pe += ue[:, idx]
    ph += uh[:, idx]
    # Adding the zero particular part turns -0.0 into +0.0, as for sourced columns.
    ue += 0.0
    uh += 0.0
    ue[:, idx], uh[:, idx] = pe, ph
    pad = np.zeros((z, len(c)))
    return np.concatenate([pad, ue]), np.concatenate([pad, uh])


def solve_modal_exact(p: AbstractIVP, nu: float) -> WeightedSignal:
    """Closed-form solution of one 2x2 rotation block: rotation_closed_form with B = 1."""
    eps, mu, c = _rotation_constant(p.M0, p.M1, p.A)
    source = (np.array([0]), p.source.samples[:, None])
    ue, uh = rotation_closed_form(eps, mu, np.array([c]), p.W0[None, :], p.source.grid, source)
    return WeightedSignal(p.source.grid, nu, np.hstack([ue, uh]))


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring of the [13/13] Pade approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)."""
    norm, theta13 = np.linalg.norm(A, 1), 5.371920351148152  # the 1-norm up to which no scaling is needed
    s = int(np.ceil(np.log2(norm / theta13))) if norm > theta13 else 0
    A = A / 2.0**s
    b = [float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k))) for k in range(14)]
    A2, eye = A @ A, np.eye(len(A))
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def solve_propagator_blocks(M0: np.ndarray, M1: MaterialSymbol, source: np.ndarray, w0: np.ndarray,
                            grid: TimeGrid, lift: list | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact propagator of B blocks sharing (M0, M1) with A = 0 and M1 = sum_i C_i T^i a polynomial.

    With T the exact running integral from t = 0, y = (u, T u, ..., T^{p+1} u) obeys
    y' = F y + G J: F has the first block row -M0^-1 C_i and identities on the block
    subdiagonal, G = (M0^-1, 0, ..., 0).  A step h maps y_k to e^{hF} y_k
    + h phi1(hF) G J_k + h phi2(hF) G (J_{k+1} - J_k), exact for jump data and for
    sources linear between samples; a step column (zero, then constant) holds J_k
    over each cell, so step and delayed-step sources are exact too.  One _expm of
    [[hF, hG, 0], [0, 0, I], [0, 0, 0]] gives all three (Van Loan 1978).  The blocks
    march as columns from y = (M0^-1 w0, 0, ...) at the t = 0 row.  lift, coefficients
    P_0, ..., P_q with q <= p + 1, adds the flux sum_i P_i T^i u to the same product.
    source is (n, B, d) and w0 (B, d); returns (u, flux), each (n, B, d) and exactly
    zero before t = 0, flux None without lift.
    """
    coeffs = _poly_coeffs(M1)
    _, inv, _ = _check_hermitian_posdef(M0)
    d, z, n_blocks, h = M1.dim, grid.zero_index, len(w0), grid.dt
    width = d * (len(coeffs) + 1)  # u, T u, ..., T^{p+1} u
    aug = np.zeros((width + 2 * d,) * 2, dtype=np.complex128)
    aug[:d, :width - d] = -h * (inv @ np.hstack([np.zeros((d, 0)), *coeffs]))
    aug[d:width, :width - d] = h * np.eye(width - d)
    aug[:d, width:width + d] = h * inv
    aug[width:width + d, width + d:] = np.eye(d)
    X = _expm(aug)[:width]
    step = np.vstack([(X[:, width:width + d] - X[:, width + d:]).T, X[:, width + d:].T, X[:, :width].T])
    start = np.hstack([inv.T, np.zeros((d, width - d))])
    if lift is not None:
        read = np.zeros((width, d), dtype=np.complex128)  # flux = y @ read
        read[:len(lift) * d] = np.vstack([np.asarray(P, dtype=np.complex128).T for P in lift])
        step, start = np.hstack([step, step @ read]), np.hstack([start, start @ read])
    # Row k holds (J_k, J_{k+1}, y_k, flux_k) for every block; the step maps its first
    # 2d + width columns to the rest of row k + 1.  The stack is padded to two blocks at
    # least: a one-row product takes another BLAS path, whose last bits differ.
    xs = np.zeros((grid.n_samples - z, max(n_blocks, 2), 2 * d + step.shape[1]), dtype=np.complex128)
    xs[:, :n_blocks, :d] = source[z:]
    # A column that is zero and then constant is a step at its first nonzero sample, as in
    # rotation_closed_form: J_k is held over each cell instead of ramping into the onset.
    held = step_columns(source[z:])[3][:, None]
    xs[:-1, :n_blocks, d:2 * d] = np.where(held, source[z:-1], source[z + 1:])
    np.matmul(np.pad(w0, ((0, xs.shape[1] - n_blocks), (0, 0))), start, out=xs[0, :, 2 * d:])
    for k in range(1, len(xs)):
        np.matmul(xs[k - 1, :, :2 * d + width], step, out=xs[k, :, 2 * d:])
    out = np.zeros((grid.n_samples, n_blocks, step.shape[1]), dtype=np.complex128)
    out[z:] = xs[:, :n_blocks, 2 * d:]
    return out[..., :d], None if lift is None else out[..., width:]


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
    return weighted_norm(u.with_samples(u.samples - jump), 1)


def verify_causality(report) -> float:
    """Sup of |U| over t < 0; exact zero for the direct methods."""
    u = _solution(report)
    return float(np.max(np.abs(u.samples[:u.grid.zero_index]), initial=0.0))
