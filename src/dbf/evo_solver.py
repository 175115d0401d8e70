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
operator, every block bit for bit as alone (dbf.paper's solve_fixed_point,
solve_integrator and solve_modal_exact are the one-block forms).

The solve window is the rows from TimeGrid.zero_index, the first sample at
t >= 0: every time-domain helper computes those rows only and leaves the
rows before it exactly zero, whatever its input holds there.  So M1 is a
polynomial: _poly_coeffs raises WrongCase for a delay, which acts only
through dbf.paper.apply_symbol.  The t = 0 row is U(0+): every method
stores the right limit there, and the initial-value checks read it as is.
"""

from __future__ import annotations

import math

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


def _rows_at(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x @ M over the last axis as one flat 2-D product: stacked (n, B, d)
    blocks then match per-block products bit for bit, unlike a 3-D matmul."""
    return (x.reshape(-1, x.shape[-1]) @ M).reshape(x.shape[:-1] + M.shape[1:])


def causal_resolvent(A_prime: np.ndarray, samples: np.ndarray, grid: TimeGrid,
                     onsets: np.ndarray = ()) -> np.ndarray:
    """Apply (d/dt + A')^-1 as the causal convolution with exp(-t A').

    Diagonalizes the skew A' and integrates each channel by the cumulative
    trapezoid from the t = 0 row; the rows before it are exactly zero and
    their input is never read.  samples is (n, d) or B stacked blocks (n, B, d).
    onsets (B,) holds, for a block that is a step switching on after t = 0,
    its first nonzero row counted from the t = 0 row, and 0 for any other
    block.  A step is held over each cell, J_{k-1} at its right end, so the
    cell that ends at the onset adds nothing instead of a ramp into it.
    """
    theta, W = np.linalg.eigh(1j * np.asarray(A_prime, dtype=np.complex128))  # A' = W diag(-i theta) W*
    z = grid.zero_index
    phase = np.exp(-1j * np.outer(grid.times[z:], theta))[:, None, :]
    g = _rows_at(samples[z:].reshape(len(phase), -1, len(theta)), np.conj(W))
    # The t = 0 row stores the right limit U(0+), so the cell ending at 0 must
    # not see it: the running integral restarts at that row.
    y = phase * g
    integ = running_trapezoid(y, grid.dt)
    for b in np.flatnonzero(onsets):  # drop the onset cell's dt y_f / 2
        integ[onsets[b]:, b] -= grid.dt * y[onsets[b], b] / 2.0
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


def _poly_coeffs(M1: MaterialSymbol) -> list:
    """M1's coefficients C_0, ..., C_p; WrongCase for a delay term, which would read rows before t = 0."""
    if M1.delays:
        raise WrongCase("the time-domain solvers need a polynomial symbol M1")
    return M1.poly_coeffs


def _apply_symbol_time(sym: MaterialSymbol, samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Time-domain action of a polynomial symbol, iterated causal integrals (a delay acts only through
    dbf.paper.apply_symbol).  Reads and writes only the rows from the t = 0 row on, so the rows
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
    first, _, _, step = step_columns(source[grid.zero_index:])  # the source's steps are held, as in the other solvers
    v0 = (causal_resolvent(A_prime, _rows_at(source, inv_sqrt.T), grid, np.where(step, first, 0))
          + _jump_response(A_prime, inv_sqrt, w0, grid))
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
            prev, update[b] = update[b], weighted_norm(WeightedSignal(grid, nu, diff[:, j]))
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
    """cos(omega tau), sin(omega tau)/omega per column (1, tau at omega = 0); tau (n, 1) or (n, B).
    With tau (n, 1), the columns sharing an omega share its libm evaluations, the bulk of the closed form."""
    distinct = sorted(set(omega.tolist())) if tau.shape[1] == 1 else omega  # not np.unique: it imports numpy.ma
    if len(distinct) < len(omega) and not np.isnan(omega).any():  # a NaN does not sort
        return tuple(part[:, np.searchsorted(distinct, omega)] for part in _cos_sinc(np.array(distinct), tau))
    zero = omega == 0
    arg = tau * omega
    cos_t, sinc_t = np.cos(arg), np.sin(arg, out=arg)
    sinc_t /= np.where(zero, 1.0, omega)
    cos_t[:, zero] = 1.0
    sinc_t[:, zero] = np.broadcast_to(tau, arg.shape)[:, zero]
    return cos_t, sinc_t


def _rotate(eps: float, mu: float, c: np.ndarray, omega: np.ndarray, s: np.ndarray,
            ve: np.ndarray, vh: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Columns of exp(-s B) v = cos v - sinc B v, B v = (-c vh / eps, c ve / mu), into out (2, rows, cols)."""
    cos_t, sinc_t = _cos_sinc(omega, s)
    np.negative(sinc_t, out=sinc_t)
    term = np.empty(out.shape[1:], dtype=out.dtype)
    for part, v, bv in zip(out, (ve, vh), (-c * vh / eps, c * ve / mu)):
        np.multiply(cos_t, v, out=part)
        part += np.multiply(sinc_t, bv, out=term)
    return out


def step_columns(samples: np.ndarray) -> tuple:
    """Per column of source rows (rows, k, channels) from t = 0: the first row with a nonzero channel, the
    channels there (k, channels), the mask (rows, k) of the rows before it, and whether the column is a
    step (zero, then constant)."""
    first = np.argmax(np.any(samples != 0, axis=2), axis=0)
    at = samples[first, np.arange(samples.shape[1])]
    before = np.arange(len(samples))[:, None] < first
    return first, at, before, np.all(np.all(samples == at, axis=2) | before, axis=0)


def rotation_closed_form(eps: float, mu: float, c: np.ndarray, w0: np.ndarray, grid: TimeGrid,
                         source: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Closed form of B stacked 2x2 rotation blocks sharing M0 = diag(eps, mu).

    Column b solves (d/dt) M0 u + c_b J u = J_b + (Dirac at 0) w0_b; c is
    (B,) and w0 (B, 2).  The propagator is the rotation exp(-t B_b) with
    B_b = M0^-1 c_b J and B_b^2 = -omega_b^2, omega_b = c_b / sqrt(eps mu).
    source is (idx, samples): columns idx carry the (e, h) source samples
    (n_samples, len(idx), 2), the others none.  Jump data and step and
    delayed-step sources (detected per column) integrate exactly; other
    sources fall back to a Duhamel convolution with Simpson quadrature of
    exp(s B) M0^-1 J(s).
    Returns out, (2, n_samples, B) complex with zero rows before t = 0,
    holding the (e, h) components.
    """
    out = np.zeros((2, grid.n_samples, len(c)), dtype=np.complex128) if out is None else out
    c = np.asarray(c, dtype=float)
    omega = c / np.sqrt(eps * mu)
    z = grid.zero_index
    tau = grid.times[z:]
    tau = np.where(np.abs(tau) < ZERO_TIME_TOL, 0.0, tau)[:, None]
    ue, uh = _rotate(eps, mu, c, omega, tau, w0[:, 0] / eps, w0[:, 1] / mu, out[:, z:])
    idx, (se, sh) = source[0], np.moveaxis(source[1][z:], -1, 0)
    first, at, before, step = step_columns(source[1][z:])
    ae, ah = at.T
    pe, ph = particular = np.zeros((2,) + se.shape, dtype=np.complex128)
    # A step a != 0 adds v - exp(-s B) v, v = B^-1 M0^-1 a = -B M0^-1 a / omega^2 with
    # omega^2 by libm pow (as a scalar power), or s M0^-1 a where omega = 0.
    k = np.nonzero(step & ((ae != 0) | (ah != 0)))[0]
    shifted, fe, fh, ck, wk = tau - tau[first[k], 0], ae[k] / eps, ah[k] / mu, c[idx[k]], omega[idx[k]]
    w2 = np.array([float(w) ** 2 if w else 1.0 for w in wk])
    ve, vh = ck * fh / eps / w2, -ck * fe / mu / w2
    re, rh = _rotate(eps, mu, ck, wk, shifted, ve, vh, np.empty((2,) + shifted.shape, dtype=np.complex128))
    qe, qh = ve - re, vh - rh
    flat = wk == 0
    qe[:, flat], qh[:, flat] = shifted[:, flat] * fe[flat], shifted[:, flat] * fh[flat]
    qe[before[:, k]] = qh[before[:, k]] = 0.0
    pe[:, k], ph[:, k] = qe, qh
    # Other sources: Duhamel, with G the Simpson integral of exp(s B) M0^-1 J(s).
    d = np.nonzero(~step)[0]
    cd, (cos_d, sinc_d) = c[idx[d]], _cos_sinc(omega[idx[d]], tau)
    fe, fh = se[:, d] * (1.0 / eps), sh[:, d] * (1.0 / mu)
    Ge = running_simpson(cos_d * fe + sinc_d * (-cd * fh / eps), grid.dt)
    Gh = running_simpson(cos_d * fh + sinc_d * (cd * fe / mu), grid.dt)
    pe[:, d] = cos_d * Ge - sinc_d * (-cd * Gh / eps)
    ph[:, d] = cos_d * Gh - sinc_d * (cd * Ge / mu)
    particular += out[:, z:, idx]
    # Adding the zero particular part turns -0.0 into +0.0, as for sourced columns.
    out[:, z:] += 0.0
    out[:, z:, idx] = particular
    return out


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
