"""Independent reference computations for the test suite.

Everything here is written from first principles (explicit Runge-Kutta
loops, finite-difference stencils, brute-force lattice enumeration,
closed-form transforms and rotations) and avoids the package's own
numerical paths, so agreement between the two is evidence rather than
tautology.
"""

from __future__ import annotations

import json

import numpy as np

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rk4_solve(rhs, u0: np.ndarray, t0: float, dt: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order Runge-Kutta for u' = rhs(t, u).

    Returns the (n_steps + 1, dim) array of states at t0 + j dt.
    """
    u = np.asarray(u0, dtype=np.complex128).copy()
    out = np.empty((n_steps + 1, u.size), dtype=np.complex128)
    out[0] = u
    for j in range(n_steps):
        t = t0 + j * dt
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * dt, u + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, u + 0.5 * dt * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[j + 1] = u
    return out


def rotation_solution(epsilon: float, mu: float, c: float, w0: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Closed-form solution of diag(eps, mu) u' + c J u = 0, u(0+) = M0^-1 w0.

    B = c M0^-1 J squares to -omega^2 I with omega = c / sqrt(eps mu), so
    exp(-t B) = cos(omega t) I - sin(omega t)/omega B.  Zero before t = 0.
    """
    w0 = np.asarray(w0, dtype=np.complex128)
    u0 = np.array([w0[0] / epsilon, w0[1] / mu])
    B = c * np.array([[0.0, -1.0 / epsilon], [1.0 / mu, 0.0]])
    omega = c / np.sqrt(epsilon * mu)
    out = np.zeros((times.size, 2), dtype=np.complex128)
    mask = times >= 0.0
    t = times[mask]
    if omega == 0.0:
        out[mask] = u0[None, :]
        return out
    rot = (np.cos(omega * t)[:, None, None] * np.eye(2)
           - (np.sin(omega * t) / omega)[:, None, None] * B)
    out[mask] = np.einsum("tij,j->ti", rot, u0)
    return out


def scalar_step_response(alpha: float, times: np.ndarray) -> np.ndarray:
    """Exact solution of u' + alpha u = step(t), u(0-) = 0."""
    out = np.zeros_like(times, dtype=float)
    mask = times >= 0.0
    t = times[mask]
    if alpha == 0.0:
        out[mask] = t
    else:
        out[mask] = (1.0 - np.exp(-alpha * t)) / alpha
    return out


def gaussian_weighted_transform(xi: np.ndarray, nu: float, t0: float, sigma: float) -> np.ndarray:
    """Analytic Fourier-Laplace transform of exp(-(t-t0)^2 / (2 sigma^2)).

    (1/sqrt(2 pi)) int exp(-s t) g(t) dt = sigma exp(-s t0 + s^2 sigma^2 / 2)
    with s = i xi + nu.
    """
    s = 1j * np.asarray(xi) + nu
    return sigma * np.exp(-s * t0 + 0.5 * (s * sigma) ** 2)


def lattice_count(K: int) -> int:
    """#{k integer 3-vector : 0 < |k|^2 <= K^2} by brute force."""
    count = 0
    for kx in range(-K, K + 1):
        for ky in range(-K, K + 1):
            for kz in range(-K, K + 1):
                n2 = kx * kx + ky * ky + kz * kz
                if 0 < n2 <= K * K:
                    count += 1
    return count


def mode_amplitude(k: tuple, helicity: str, component_index: int | None = None) -> np.ndarray:
    """Unit amplitude of one mode, built alone from its own frame.

    e1 is the first coordinate axis not parallel to k, made orthogonal to
    khat; e2 = khat x e1.  Plus and minus are (e1 +- i e2)/sqrt(2), grad is
    khat and const the unit axis component_index.
    """
    if helicity == "const":
        p = np.zeros(3, dtype=np.complex128)
        p[component_index] = 1.0
        return p
    kv = np.asarray(k, dtype=float)
    khat = kv / np.linalg.norm(kv)
    for axis in range(3):
        proj = np.eye(3)[axis] - khat[axis] * khat
        if np.linalg.norm(proj) > 1e-12:
            e1 = proj / np.linalg.norm(proj)
            break
    e2 = np.cross(khat, e1)
    sign = {"plus": 1.0, "minus": -1.0}.get(helicity)
    return khat.astype(np.complex128) if sign is None else (e1 + sign * 1j * e2) / np.sqrt(2.0)


def basis_doc(text: str) -> tuple:
    """(K, mode keys, eigenvalues) of a mode table written as JSON, read without the package."""
    doc = json.loads(text)
    keys = [(tuple(m["k"]), m["helicity"], m["component_index"]) for m in doc["modes"]]
    return doc["K"], keys, np.array([m["eigenvalue"] for m in doc["modes"]])


def fd_curl(samples: np.ndarray) -> np.ndarray:
    """Sixth-order central-difference curl on a periodic n^3 grid of [0, 2 pi)^3.

    samples has shape (n, n, n, 3) with axis a varying coordinate x_a.
    """
    n = samples.shape[0]
    h = 2.0 * np.pi / n
    weights = ((1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0))

    def deriv(f, axis):
        out = np.zeros_like(f)
        for off, w in weights:
            out += w * (np.roll(f, -off, axis=axis) - np.roll(f, off, axis=axis))
        return out / h

    cx = deriv(samples[..., 2], 1) - deriv(samples[..., 1], 2)
    cy = deriv(samples[..., 0], 2) - deriv(samples[..., 2], 0)
    cz = deriv(samples[..., 1], 0) - deriv(samples[..., 0], 1)
    return np.stack([cx, cy, cz], axis=-1)


def bump(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """Smooth compactly supported bump on (a, b), peak value 1."""
    t = np.asarray(t, dtype=float)
    x = (2.0 * t - a - b) / (b - a)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def dbf_mode_rk4(epsilon: float, mu: float, c: float, w0: np.ndarray,
                 dt: float, n_steps: int, forcing=None) -> np.ndarray:
    """RK4 time stepping of diag(eps, mu) u' + c J u = j(t), u(0+) = M0^-1 w0."""
    inv = np.array([1.0 / epsilon, 1.0 / mu])
    u0 = inv * np.asarray(w0, dtype=np.complex128)

    def rhs(t, u):
        coup = c * (J2 @ u)
        if forcing is not None:
            return inv * (forcing(t) - coup)
        return inv * (-coup)

    return rk4_solve(rhs, u0, 0.0, dt, n_steps)


def generalized_beta_rk4(kappa0: np.ndarray, Mstar0: np.ndarray, beta: float,
                         lam: float, w0: np.ndarray, dt: float, n_steps: int,
                         forcing=None) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force oracle for the single-memory material law on one mode.

    The flux is v(t) = (kappa0 + lam) Mstar0 u(t) + beta Mstar0 int_0^t u,
    and v' + lam J u = j with v(0+) = w0.  Differentiating gives the plain
    ODE A u' + (beta Mstar0 + lam J) u = j with A = (kappa0 + lam) Mstar0
    and u(0+) = A^-1 w0.  The state is augmented with the running integral
    so the flux series comes out alongside.  Returns (u, v) histories.
    """
    A = (kappa0 + lam * np.eye(2)) @ Mstar0
    u0 = np.linalg.solve(A, np.asarray(w0, dtype=np.complex128))
    C = beta * Mstar0 + lam * J2

    def rhs(t, y):
        u = y[:2]
        du = np.linalg.solve(A, (forcing(t) if forcing is not None else 0.0) - C @ u)
        return np.concatenate([du, u])

    y = rk4_solve(rhs, np.concatenate([u0, np.zeros(2)]), 0.0, dt, n_steps)
    u = y[:, :2]
    v = u @ A.T + beta * (y[:, 2:] @ Mstar0.T)
    return u, v


def unreduced_trapezoid_solve(kappa0: np.ndarray, kappa1: list, Mstar0: np.ndarray, Mstar1: list,
                              lam: float, w0: np.ndarray, source: np.ndarray, dt: float) -> np.ndarray:
    """Dense solve of the integrated law of one mode, with no reduction.

    On the n samples from t = 0, T is the lower-triangular matrix of the
    running trapezoid integral (row k: dt/2, dt, ..., dt, dt/2).  With
    kappa(T) = kappa0 + sum_i T^(i+1) kappa1[i] and Mstar(T) likewise, the
    stacked u (n, 2) solves (kappa(T) + lam) Mstar(T) u + lam J T u
    = W0 + T j in one np.linalg.solve.  source is j on the same samples.
    """
    return unreduced_trapezoid_block_solve(kappa0, kappa1, Mstar0, Mstar1, [lam], None, w0, source, dt)


def unreduced_trapezoid_block_solve(kappa0: np.ndarray, kappa1: list, Mstar0: np.ndarray, Mstar1: list,
                                    lams, X: np.ndarray | None, w0: np.ndarray, source: np.ndarray,
                                    dt: float) -> np.ndarray:
    """Dense solve of the integrated law of one block of modes, with no reduction.

    The block holds the modes with eigenvalues lams, each an (e, h) pair,
    mode-major.  kappa_b and Mstar_b repeat the 2x2 coefficients on the
    diagonal, Lambda and Lambda J carry lams, and X (2 len(lams) square, or
    None) is added to Mstar_b at order one.  With T the running trapezoid
    matrix of unreduced_trapezoid_solve, the stacked u (n, 2 len(lams))
    solves (kappa_b(T) + Lambda) Mstar_b(T) u + Lambda J T u = W0 + T j in
    one np.linalg.solve.  w0 and the source samples use the block layout.
    """
    n, w = len(source), len(lams)
    d = 2 * w
    T = dt * (np.tril(np.ones((n, n))) - 0.5 * np.eye(n))
    T[:, 0] -= 0.5 * dt
    T[0, 0] = 0.0

    def diag(blocks):
        out = np.zeros((d, d), dtype=np.complex128)
        for b, C in enumerate(blocks):
            out[2 * b:2 * b + 2, 2 * b:2 * b + 2] = C
        return out

    def symbol(c0, coeffs):
        op, power = np.kron(np.eye(n), c0), np.eye(n)
        for C in coeffs:
            power = power @ T
            op = op + np.kron(power, C)
        return op

    kappa = symbol(diag([kappa0 + lam * np.eye(2) for lam in lams]), [diag([C] * w) for C in kappa1])
    mstar1 = [diag([C] * w) for C in Mstar1]
    if X is not None:
        mstar1 = [mstar1[0] + X if mstar1 else X] + mstar1[1:]
    A = kappa @ symbol(diag([Mstar0] * w), mstar1) + np.kron(T, diag([lam * J2 for lam in lams]))
    rhs = np.tile(np.asarray(w0, dtype=np.complex128), n) + (T @ np.asarray(source, dtype=np.complex128)).ravel()
    return np.linalg.solve(A, rhs).reshape(n, d)


def joint_kcross_rk4(kappa0: np.ndarray, Mstar0: np.ndarray, lam: np.ndarray,
                     X: np.ndarray, w0_big: np.ndarray, dt: float,
                     n_steps: int, j_big: np.ndarray | None = None) -> np.ndarray:
    """Dense time stepping of the cross-coupled constant-coefficient system.

    With constant kappa and Mstar(z) = Mstar0 + z k-cross the flux is
    V = (kappa0 + Lam) Mstar0 U + (kappa0 + Lam) X int U, giving the ODE
    A U' + C U = j, C = (kappa0 + Lam) X_big + Lam_J, on the stacked state
    (mode-major, channel pairs), U(0+) = A^-1 w0.  j_big is the constant
    source for t > 0 in the same layout, zero when None.
    """
    m = lam.size
    dim = 2 * m
    Kb = np.zeros((dim, dim), dtype=np.complex128)
    Mb = np.zeros((dim, dim), dtype=np.complex128)
    Jb = np.zeros((dim, dim), dtype=np.complex128)
    Xb = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(m):
        s = slice(2 * i, 2 * i + 2)
        Kb[s, s] = kappa0 + lam[i] * np.eye(2)
        Mb[s, s] = Mstar0
        Jb[s, s] = lam[i] * J2
    for i in range(m):
        for j in range(m):
            Xb[2 * i:2 * i + 2, 2 * j:2 * j + 2] = X[i, j] * np.eye(2)
    A = Kb @ Mb
    C = Kb @ Xb + Jb
    u0 = np.linalg.solve(A, np.asarray(w0_big, dtype=np.complex128))
    Ainv_C = np.linalg.solve(A, C)
    Ainv_j = np.zeros(dim) if j_big is None else np.linalg.solve(A, np.asarray(j_big, dtype=np.complex128))

    def rhs(t, u):
        return Ainv_j - Ainv_C @ u

    return rk4_solve(rhs, u0, 0.0, dt, n_steps)


def dense_source(table, wave: np.ndarray, amplitude, entries: list) -> tuple:
    """(e, h) samples (n, n_modes) of a scenario file's source over every table column.

    Each entry [k, helicity, e, h] (a fifth element is the component of a
    constant mode) adds amplitude * (e, h) * wave to its mode's column, in
    file order; a number is written as x or as [re, im].
    """
    value = lambda v: complex(v) if isinstance(v, (int, float)) else complex(v[0], v[1])
    e, h = np.zeros((2, wave.size, table.n_modes), dtype=np.complex128)
    for entry in entries:
        i = table.position(tuple(entry[0]), entry[1], entry[4] if len(entry) == 5 else None)
        e[:, i] += value(amplitude) * value(entry[2]) * wave
        h[:, i] += value(amplitude) * value(entry[3]) * wave
    return e, h


def dbf_weak_residual(history, s) -> float:
    """Weak residual of the coupled evolution in one pass over all modes.

    For t >= 0 the residual pair is (D, B)(t) + int_0^t [lambda J (E, H) -
    J_src] - W0; scipy's cumulative Simpson rule integrates the real and
    imaginary parts, and the per-mode weighted L2 norms, scaled by
    (1 + lambda^2)^(-1/2), are summed.  Reads only attributes, so column
    subsets of a solved history can be passed as plain namespaces.
    """
    from scipy.integrate import cumulative_simpson

    def running(values):
        # scipy returns Fortran-ordered arrays here; in that layout numpy would sum over time pairwise.
        return np.ascontiguousarray(cumulative_simpson(values.real, dx=grid.dt, axis=0, initial=0)
                                    + 1j * cumulative_simpson(values.imag, dx=grid.dt, axis=0, initial=0))

    grid, lam = history.grid, history.table.eigenvalues
    z = grid.zero_index
    je = jh = 0.0
    if s.source_J is not None:
        je, jh = np.zeros((2, grid.n_samples - z, lam.size), dtype=np.complex128)
        je[:, s.source_J.modes], jh[:, s.source_J.modes] = np.moveaxis(s.source_J.samples[z:], -1, 0)
    r_e = history.D[z:] + running(-lam[None, :] * history.H[z:] - je) - s.W0.e_part.coeffs[None, :]
    r_h = history.B[z:] + running(lam[None, :] * history.E[z:] - jh) - s.W0.h_part.coeffs[None, :]
    wt = np.exp(-2.0 * s.nu * grid.times[z:])
    per_mode = np.sqrt(grid.dt * np.sum(wt[:, None] * (np.abs(r_e) ** 2 + np.abs(r_h) ** 2), axis=0))
    return float(np.sum(per_mode / np.sqrt(1.0 + lam**2)))


def material_energy_series(history, s) -> np.ndarray:
    """Instantaneous material energy per sample, summed over modes, in one pass over the whole table.

    Classical scenarios (those with an epsilon) use eps |E|^2 + mu |H|^2;
    generalized scenarios use the quadratic form of Mstar0 (the memoryless
    part of the law).
    """
    ee = np.sum(np.abs(history.E) ** 2, axis=1)
    hh = np.sum(np.abs(history.H) ** 2, axis=1)
    if hasattr(s, "epsilon"):
        return s.epsilon * ee + s.mu * hh
    M = s.Mstar0
    cross = np.sum(np.conj(history.E) * history.H, axis=1)
    return M[0, 0].real * ee + M[1, 1].real * hh + 2.0 * np.real(M[0, 1] * cross)


def tracked_indices(history, s) -> list:
    """Table positions with any nonzero (or NaN) E, H, D or B value, or with W0 or source data, in table order."""
    active = np.zeros(history.table.n_modes, dtype=bool)
    for arr in (history.E, history.H, history.D, history.B):
        active |= np.any(np.asarray(arr) != 0, axis=0)
    active |= (s.W0.e_part.coeffs != 0) | (s.W0.h_part.coeffs != 0)
    if s.source_J is not None:
        active[s.source_J.modes] = True
    return [int(i) for i in np.nonzero(active)[0]]
