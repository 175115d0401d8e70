"""Solvers for abstract causal initial value problems with memory.

The governing equation is

    (d/dt) M0 U + M1(I) U + A U = J + (Dirac at 0) W0,

where I denotes causal time integration, M0 is selfadjoint positive
definite, M1 is a representable material symbol, and A is skew.  Writing
V = sqrt(M0) U turns the equation into (d/dt + A') V = F - M1' V with the
skew A' = sqrt(M0)^-1 A sqrt(M0)^-1, M1' the conjugated symbol, and
F = sqrt(M0)^-1 (J + (Dirac at 0) W0).  The resolvent (d/dt + A')^-1 is the
causal convolution with the unitary group exp(-t A'); applied to the Dirac
part it gives the jump  chi_{t>=0} exp(-t A') sqrt(M0)^-1 W0, and its gain
on the weighted space with weight nu is 1/nu, which makes the fixed-point
map a contraction once nu exceeds the symbol bound of M1' .

Three fidelity levels are provided: a closed form for stacked 2x2
rotation blocks (exact for jump, step, and delayed-step data), a one-step
exponential integrator, and the Picard iteration realizing the contraction
argument.  All methods store the right limit U(0+) at the t = 0 sample and
return exact zeros for t < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weighted_time import (
    MaterialSymbol,
    NuTooSmall,
    TimeGrid,
    WeightedSignal,
    running_simpson,
    running_trapezoid,
    weighted_norm,
)

HERMITICITY_TOL = 1e-12
SOURCE_CAUSALITY_TOL = 1e-14
ZERO_TIME_TOL = 1e-9
DEFAULT_FP_TOL = 1e-10
DEFAULT_MAX_ITER = 64
CONTRACTION_SAFETY = 1.0

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
    """Fixed-point iteration exhausted max_iter before reaching tol."""


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
    strictly positive spectral floor, and skewness of A.
    """

    dim: int
    M0: np.ndarray
    M1: MaterialSymbol
    A: np.ndarray
    source: WeightedSignal
    W0: np.ndarray
    inv_sqrt_M0: np.ndarray = field(init=False, repr=False)
    inv_M0: np.ndarray = field(init=False, repr=False)
    c0: float = field(init=False)

    def __post_init__(self) -> None:
        self.M0 = np.asarray(self.M0, dtype=np.complex128)
        self.inv_sqrt_M0, self.inv_M0, self.c0 = _check_hermitian_posdef(self.M0)
        if self.M0.shape != (self.dim, self.dim):
            raise ValueError(f"M0 shape {self.M0.shape} != dim {self.dim}")
        if self.M1.dim != self.dim:
            raise ValueError(f"M1 dim {self.M1.dim} != {self.dim}")
        self.A = _check_skew(self.A, self.dim)
        if self.source.channels != self.dim:
            raise ValueError(f"source channels {self.source.channels} != dim {self.dim}")
        self.W0 = np.asarray(self.W0, dtype=np.complex128).reshape(self.dim)
        pre = self.source.grid.times < -ZERO_TIME_TOL
        if np.any(np.abs(self.source.samples[pre]) > SOURCE_CAUSALITY_TOL):
            raise ValueError("source must vanish on t < 0")

    @property
    def grid(self) -> TimeGrid:
        return self.source.grid


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


def _causal_mask(grid: TimeGrid) -> np.ndarray:
    return grid.times >= -ZERO_TIME_TOL


def _right_limit(arr: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Value at t = 0+ by linear extrapolation through the first two t >= 0 rows.

    On zero-aligned grids this is the stored t = 0 row; a grid with a single
    sample at t >= 0 returns that sample.
    """
    idx = np.nonzero(_causal_mask(grid))[0]
    if idx.size == 0:
        raise ValueError("grid has no samples at t >= 0")
    if idx.size == 1:
        return arr[idx[0]]
    i0, i1 = int(idx[0]), int(idx[1])
    t0, t1 = grid.times[i0], grid.times[i1]
    return arr[i0] + (arr[i1] - arr[i0]) * ((0.0 - t0) / (t1 - t0))


def _causal_cumtrapz(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Running trapezoid antiderivative that respects the jump at t = 0.

    The t = 0 sample stores a right limit, so the cell ending at 0 must not
    see it: integration restarts at the t = 0 node and the negative-time
    accumulation is carried across with a flat continuation.  For inputs that
    vanish on t < 0 the crossing contributes exactly zero instead of the
    dt/2 * jump smear of a plain cumulative trapezoid.
    """
    mask = _causal_mask(grid)
    out = np.zeros_like(values)
    carry = np.zeros(values.shape[1:], dtype=values.dtype)
    n_neg = int(np.count_nonzero(~mask))
    if n_neg:
        pre = running_trapezoid(values[:n_neg], grid.dt)
        out[:n_neg] = pre
        carry = pre[-1] + grid.dt * values[n_neg - 1]
    if n_neg < values.shape[0]:
        out[n_neg:] = carry + running_trapezoid(values[n_neg:], grid.dt)
    return out


def _unitary_group_factors(A_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition A' = W diag(-i theta) W* of the skew matrix."""
    H = 1j * np.asarray(A_prime, dtype=np.complex128)
    theta, W = np.linalg.eigh(H)
    return theta, W


def _group_apply(theta: np.ndarray, W: np.ndarray, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Samples of exp(-tau A') v, shape (len(tau), dim)."""
    coeff = W.conj().T @ v
    return np.exp(1j * np.outer(tau, theta)) * coeff @ W.T


def causal_resolvent(A_prime: np.ndarray, samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Apply (d/dt + A')^-1 as the causal convolution with exp(-t A').

    Diagonalizes the skew A' and integrates each channel by the cumulative
    trapezoid from the window start, so outputs vanish identically before
    the support of the input.
    """
    theta, W = _unitary_group_factors(A_prime)
    g = samples @ np.conj(W)
    phase = np.exp(-1j * np.outer(grid.times, theta))
    integ = _causal_cumtrapz(phase * g, grid)
    return (np.conj(phase) * integ) @ W.T


def _jump_response(A_prime: np.ndarray, inv_sqrt: np.ndarray, w0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Samples of chi_{t>=0} exp(-t A') sqrt(M0)^-1 w0, exactly zero before 0."""
    theta, W = _unitary_group_factors(A_prime)
    mask = _causal_mask(grid)
    out = np.zeros((grid.n_samples, len(w0)), dtype=np.complex128)
    out[mask] = _group_apply(theta, W, grid.times[mask], inv_sqrt @ np.asarray(w0, dtype=np.complex128))
    return out


def semigroup_apply(M0: np.ndarray, A: np.ndarray, w0: np.ndarray, grid: TimeGrid, nu: float) -> WeightedSignal:
    """Jump response chi_{t>=0} sqrt(M0)^-1 exp(-t A') sqrt(M0)^-1 w0.

    A' = sqrt(M0)^-1 A sqrt(M0)^-1.  The right limit at 0 is M0^-1 w0 and is
    stored at the t = 0 sample; samples before 0 are exactly zero.
    """
    inv_sqrt, _, _ = _check_hermitian_posdef(M0)
    A = _check_skew(A, len(w0))
    jump = _jump_response(inv_sqrt @ A @ inv_sqrt, inv_sqrt, w0, grid)
    return WeightedSignal(grid, nu, jump @ inv_sqrt.T)


def _apply_symbol_time(sym: MaterialSymbol, samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Time-domain action of a symbol: iterated causal integrals plus shifts.

    Exactly causal by construction.  Delay offsets must be grid-aligned.
    """
    out = np.zeros_like(samples)
    if sym.poly_coeffs:
        power = samples
        for j, C in enumerate(sym.poly_coeffs):
            if j > 0:
                power = _causal_cumtrapz(power, grid)
            out = out + power @ np.asarray(C, dtype=np.complex128).T
    for h, C in sym.delays:
        steps = -h / grid.dt
        m = int(round(steps))
        if abs(steps - m) > 1e-9:
            raise ValueError(f"delay h={h} is not grid-aligned at dt={grid.dt}")
        shifted = np.zeros_like(samples)
        if m == 0:
            shifted = samples
        else:
            shifted[m:] = samples[:-m]
        out = out + shifted @ np.asarray(C, dtype=np.complex128).T
    return out


def weak_residual(p: AbstractIVP, u: WeightedSignal) -> tuple[WeightedSignal, float]:
    """Back-substitution residual of the time-integrated equation on t >= 0.

    Integrating the equation once removes the Dirac datum:
    R(t) = M0 U(t) + int_0^t (M1(I) U + A U - J) ds - W0 for t >= 0, zero
    before.  The running integral uses the composite Simpson rule; the
    returned norm is the weighted L2 norm of R.
    """
    grid = u.grid
    mask = _causal_mask(grid)
    integrand = _apply_symbol_time(p.M1, u.samples, grid) + u.samples @ p.A.T - p.source.samples
    sub = integrand[mask]
    cum = _cumsimp(sub, grid.dt)
    r = np.zeros_like(u.samples)
    r[mask] = u.samples[mask] @ p.M0.T + cum - p.W0[None, :]
    r_sig = WeightedSignal(grid, u.nu, r)
    return r_sig, weighted_norm(r_sig, 0)


def solve_fixed_point(p: AbstractIVP, nu: float, max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_FP_TOL) -> SolveReport:
    """Picard iteration for the transformed equation (d/dt + A') V = F - M1' V.

    The iteration map has gain at most sup|M1| / (nu c0) on the weighted
    space, so updates contract geometrically; NotContractive is raised when
    that estimate reaches 1 and NoConvergence when max_iter is exhausted.
    The initial guess drops M1 entirely (jump response plus Duhamel term).
    """
    min_nu = p.M1.min_nu()
    if nu <= min_nu:
        raise NuTooSmall(f"nu={nu} <= 1/(2 radius)={min_nu} for M1")
    grid = p.grid
    sup_m1 = p.M1.sup_norm(nu, grid.frequencies)
    estimate = sup_m1 / (nu * p.c0)
    if estimate >= 1.0 / CONTRACTION_SAFETY:
        raise NotContractive(
            f"contraction estimate {estimate:.3g} >= 1 at nu={nu}; increase nu"
        )
    inv_sqrt = p.inv_sqrt_M0
    A_prime = inv_sqrt @ p.A @ inv_sqrt
    f = p.source.samples @ inv_sqrt.T
    v0 = causal_resolvent(A_prime, f, grid) + _jump_response(A_prime, inv_sqrt, p.W0, grid)

    m1_conj = MaterialSymbol(
        dim=p.dim,
        poly_coeffs=[inv_sqrt @ np.asarray(C, dtype=np.complex128) @ inv_sqrt for C in p.M1.poly_coeffs],
        delays=[(h, inv_sqrt @ np.asarray(C, dtype=np.complex128) @ inv_sqrt) for h, C in p.M1.delays],
        radius=p.M1.radius,
    )

    v = v0
    iterations = 0
    ratios: list[float] = []
    update = np.inf
    prev_update = None
    for iterations in range(1, max_iter + 1):
        v_next = v0 - causal_resolvent(A_prime, _apply_symbol_time(m1_conj, v, grid), grid)
        update = weighted_norm(WeightedSignal(grid, nu, v_next - v), 0)
        if prev_update is not None and prev_update > 0:
            ratios.append(update / prev_update)
        prev_update = update
        v = v_next
        if update <= tol:
            break
    else:
        raise NoConvergence(
            f"no convergence after {max_iter} iterations, last update {update:.3g}"
        )

    u = WeightedSignal(grid, nu, v @ inv_sqrt.T)
    _, residual = weak_residual(p, u)
    iv_err = verify_initial_value(u, p.M0, p.W0)
    return SolveReport(
        solution=u,
        iterations=iterations,
        final_residual=residual,
        contraction_estimate=estimate,
        nu_used=nu,
        initial_value_error=iv_err,
        update_ratios=ratios,
    )


def _rotation_constant(p: AbstractIVP) -> tuple[float, float, float]:
    """Extract (epsilon, mu, c) from a 2x2 block with M0 diagonal, M1 = c J, c real."""
    if p.dim != 2:
        raise WrongCase(f"modal closed form needs dim 2, got {p.dim}")
    if np.max(np.abs(p.A)) > HERMITICITY_TOL:
        raise WrongCase("modal closed form needs A = 0")
    if np.max(np.abs(p.M0 - np.diag(np.diag(p.M0)))) > 0 or np.max(np.abs(np.diag(p.M0).imag)) > 0:
        raise WrongCase("modal closed form needs M0 = diag(eps, mu) real")
    eps, mu = float(p.M0[0, 0].real), float(p.M0[1, 1].real)
    if p.M1.delays or len(p.M1.poly_coeffs) > 1:
        raise WrongCase("modal closed form needs a constant coupling symbol")
    if not p.M1.poly_coeffs:
        return eps, mu, 0.0
    C = np.asarray(p.M1.poly_coeffs[0], dtype=np.complex128)
    c = C[1, 0]
    if np.max(np.abs(C - c * J2)) > 0:
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


def rotation_closed_form(eps: float, mu: float, c: np.ndarray, w0: np.ndarray, grid: TimeGrid,
                         source: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of B stacked 2x2 rotation blocks sharing M0 = diag(eps, mu).

    Column b solves (d/dt) M0 u + c_b J u = J_b + (Dirac at 0) w0_b; c is
    (B,) and w0 (B, 2).  The propagator is the rotation exp(-t B_b) with
    B_b = M0^-1 c_b J and B_b^2 = -omega_b^2, omega_b = c_b / sqrt(eps mu).
    source is None or (idx, se, sh): columns idx carry the samples se, sh of
    shape (n_samples, len(idx)).  Jump data and step and delayed-step sources
    (detected per column) integrate exactly; other sources fall back to a
    Duhamel convolution with Simpson quadrature of exp(s B) M0^-1 J(s).
    Returns the (e, h) components, each (n_samples, B), zero before t = 0.
    """
    c = np.asarray(c, dtype=float)
    omega = c / np.sqrt(eps * mu)
    mask = _causal_mask(grid)
    tau = grid.times[mask]
    tau = np.where(np.abs(tau) < ZERO_TIME_TOL, 0.0, tau)[:, None]
    ue, uh = _rotate(eps, mu, c, omega, tau, w0[:, 0] / eps, w0[:, 1] / mu)
    if source is not None:
        idx, se, sh = source[0], source[1][mask], source[2][mask]
        first = np.argmax((se != 0) | (sh != 0), axis=0)
        ae, ah = se[first, np.arange(len(idx))], sh[first, np.arange(len(idx))]
        before = np.arange(len(tau))[:, None] < first
        step = np.all((se == ae) & (sh == ah) | before, axis=0)
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
    if source is not None:
        ue[:, idx], uh[:, idx] = pe, ph
    pad = np.zeros((grid.n_samples - len(tau), len(c)))
    return np.concatenate([pad, ue]), np.concatenate([pad, uh])


def solve_modal_exact(p: AbstractIVP, nu: float) -> WeightedSignal:
    """Closed-form solution of one 2x2 rotation block: rotation_closed_form with B = 1."""
    eps, mu, c = _rotation_constant(p)
    source = (np.array([0]), p.source.samples[:, :1], p.source.samples[:, 1:])
    ue, uh = rotation_closed_form(eps, mu, np.array([c]), p.W0[None, :], p.grid, source)
    return WeightedSignal(p.grid, nu, np.hstack([ue, uh]))


def solve_integrator(p: AbstractIVP, nu: float) -> WeightedSignal:
    """One-step exponential integrator for constant-coefficient blocks.

    Requires M1 to be a constant matrix (no memory): the block is then the
    ODE M0 U' + (M1(0) + A) U = J.  Steps with the exact propagator
    exp(-dt B) and a trapezoidal Duhamel term, second order in dt.
    """
    from scipy.linalg import expm  # only this method needs scipy; keep it off start-up

    if p.M1.delays or len(p.M1.poly_coeffs) > 1:
        raise WrongCase("exponential integrator needs a constant symbol M1")
    if p.M1.poly_coeffs:
        C = np.asarray(p.M1.poly_coeffs[0], dtype=np.complex128)
    else:
        C = np.zeros((p.dim, p.dim), dtype=np.complex128)
    B = p.inv_M0 @ (C + p.A)
    E = expm(-p.grid.dt * B)
    grid = p.grid
    mask = _causal_mask(grid)
    idx = np.nonzero(mask)[0]
    f = p.source.samples @ p.inv_M0.T
    out = np.zeros((grid.n_samples, p.dim), dtype=np.complex128)
    u = p.inv_M0 @ p.W0
    out[idx[0]] = u
    half_dt = 0.5 * grid.dt
    for j in range(len(idx) - 1):
        i0, i1 = idx[j], idx[j + 1]
        u = E @ u + half_dt * (E @ f[i0] + f[i1])
        out[i1] = u
    return WeightedSignal(grid, nu, out)


def verify_initial_value(report, M0: np.ndarray, W0: np.ndarray) -> float:
    """Distance of the right limit U(0+) from M0^-1 W0.

    U(0+) is the linear extrapolation of _right_limit; on zero-aligned grids
    this reproduces the stored right limit exactly.
    """
    u = _solution(report)
    if np.count_nonzero(_causal_mask(u.grid)) < 2:
        raise ValueError("need at least two samples at t >= 0")
    _, inv, _ = _check_hermitian_posdef(M0)
    target = inv @ np.asarray(W0, dtype=np.complex128)
    return float(np.linalg.norm(_right_limit(u.samples, u.grid) - target))


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
    jump[_causal_mask(u.grid)] = target[None, :]
    return weighted_norm(u.with_samples(u.samples - jump), 1)


def verify_causality(report) -> float:
    """Sup of |U| over t < 0; exact zero for the direct methods."""
    u = _solution(report)
    pre = u.grid.times < -ZERO_TIME_TOL
    if not np.any(pre):
        return 0.0
    return float(np.max(np.abs(u.samples[pre])))
