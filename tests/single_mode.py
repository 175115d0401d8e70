"""Single-mode reference problems: each mode's own AbstractIVP.

The solvers solve every group of modes that share one operator in one
call.  These builders set up the problem of one mode alone, as a
mode-by-mode solver would, so that tests can compare each column of a
grouped solve with that mode solved by itself.  solve_march_blocks is the
limit of the Picard iteration, the oracle for explicit fixed_point.
source_series builds a scenario source from per-mode samples.
"""

from __future__ import annotations

import numpy as np

from dbf.dbf_model import PairSeries, _block_law
from dbf.evo_solver import J2, WrongCase, _check_hermitian_posdef, _rows_at
from dbf.paper import AbstractIVP
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, running_trapezoid


def source_series(table, grid: TimeGrid, columns: dict) -> PairSeries:
    """Source loading the given table positions: columns maps a position to its (e, h) samples,
    each an array over the grid rows or one number for every row."""
    modes = sorted(columns)
    samples = np.zeros((grid.n_samples, len(modes), 2), dtype=np.complex128)
    for k, i in enumerate(modes):
        samples[:, k, 0], samples[:, k, 1] = columns[i]
    return PairSeries(table, grid, np.array(modes, dtype=np.intp), samples)


def source_column(s, i: int) -> np.ndarray:
    """The (e, h) source samples (n, 2) of table position i of scenario s, zero where it has none."""
    src = s.source_J
    if src is None or i not in src.modes:
        return np.zeros((s.grid.n_samples, 2), dtype=np.complex128)
    return src.samples[:, np.searchsorted(src.modes, i)]


def dbf_blocks(s) -> dict:
    """Table position -> 2x2 problem of every non-kernel mode of a classical scenario.

    Mode lambda has M0 = diag(eps, mu), M1 = c_lambda J with
    c_lambda = lambda / (1 + eta lambda), and its data divided by
    1 + eta lambda.  The kernel modes, 1 + eta lambda = 0, have none.
    """
    lam = s.table.eigenvalues
    M0 = np.diag([s.epsilon, s.mu]).astype(np.complex128)
    blocks = {}
    for i in np.nonzero(~s.table.kernel_mask(s.eta))[0]:
        f = 1.0 + s.eta * lam[i]
        c = lam[i] / f
        M1 = MaterialSymbol(dim=2, poly_coeffs=[c * J2]) if c != 0.0 else MaterialSymbol.zero(2)
        samples = (source_column(s, i) / f if s.source_J is not None
                   else np.zeros((s.grid.n_samples, 2), dtype=np.complex128))
        w0 = np.array([s.W0.e_part.coeffs[i], s.W0.h_part.coeffs[i]]) / f
        blocks[int(i)] = AbstractIVP(dim=2, M0=M0, M1=M1, A=np.zeros((2, 2)),
                                     source=WeightedSignal(s.grid, s.nu, samples), W0=w0)
    return blocks


def generalized_block(g, i: int) -> AbstractIVP:
    """The 2x2 problem of mode i of a generalized scenario without k_cross.

    With N0 = (kappa0 + lambda)^-1 the mode has
    M1 = Mstar1 + lambda N0 J + N0 kappa1 Mstar, the source N0 j and the
    jump datum N0 W0.
    """
    grid, lam = g.grid, float(g.table.eigenvalues[i])
    N0 = np.linalg.inv(g.kappa0 + lam * np.eye(2))
    M1, _ = _block_law(g, [lam], [N0])
    w0 = np.array([g.W0.e_part.coeffs[i], g.W0.h_part.coeffs[i]], dtype=np.complex128)
    samples, z = np.zeros((grid.n_samples, 2), dtype=np.complex128), grid.zero_index
    samples[z:] += source_column(g, i)[z:] @ N0.T
    return AbstractIVP(dim=2, M0=g.Mstar0, M1=M1, A=np.zeros((2, 2)), source=WeightedSignal(grid, g.nu, samples),
                       W0=N0 @ w0)


def solve_march_blocks(M0: np.ndarray, M1: MaterialSymbol, source: np.ndarray, w0: np.ndarray,
                       grid: TimeGrid) -> np.ndarray:
    """Limit of the Picard iteration of B blocks sharing (M0, M1) with A = 0, in one forward pass.

    With A = 0 and M1' = sum_j C'_j T^j a polynomial in the running trapezoid
    integral T, the fixed point of solve_fixed_point_blocks solves the
    lower-triangular system v = v0 - T(sum_j C'_j T^j v) with
    v0 = sqrt(M0)^-1 (w0 + T J).  The states x = (v, T v, ..., T^{p+1} v)
    obey one trapezoid step L x_{k+1} = R x_k + E v0_{k+1}, solved once for
    P = L^-1 R and Q = L^-1 E; the blocks then march as columns from
    x = (v0, 0, ..., 0) at the t = 0 row, where T restarts.  This needs no
    weight nu, no contraction and no stop tolerance.  source is (n, B, d)
    and w0 (B, d); returns (n, B, d), exactly zero before t = 0.
    """
    if M1.delays:
        raise WrongCase("marching needs a polynomial symbol M1")
    inv_sqrt, _, _ = _check_hermitian_posdef(M0)
    d, z, n_blocks = M1.dim, grid.zero_index, len(w0)
    coeffs = [inv_sqrt @ np.asarray(C, dtype=np.complex128) @ inv_sqrt for C in M1.poly_coeffs]
    stages = len(coeffs) + 1  # v, T v, ..., T^{p+1} v
    width = d * stages
    # Row 0 of the step: v + sum_j C'_j T^{j+1} v = v0.  Row j: T^j v - dt/2 T^{j-1} v
    # equals the previous T^j v plus dt/2 times the previous T^{j-1} v.
    half = np.eye(stages, k=-1) * (0.5 * grid.dt)
    L = np.kron(np.eye(stages) - half, np.eye(d)).astype(np.complex128)
    if coeffs:
        L[:d, d:] = np.hstack(coeffs)
    R = np.kron(np.eye(stages) + half, np.eye(d))
    R[:d] = 0.0
    step = np.linalg.solve(L, np.hstack([R, np.eye(width, d)])).T  # x_{k+1} = (x_k, v0_{k+1}) @ step
    v0 = _rows_at(w0 + running_trapezoid(source[z:], grid.dt), inv_sqrt.T)
    # Row k holds (x_k, v0_{k+1}) for every block, padded to two blocks at least: a one-row
    # product takes another BLAS path, whose last bits differ.
    xs = np.zeros((len(v0), max(n_blocks, 2), width + d), dtype=np.complex128)
    xs[:1, :n_blocks, :d] = v0[:1]
    xs[:-1, :n_blocks, width:] = v0[1:]
    for k in range(1, len(xs)):
        np.matmul(xs[k - 1], step, out=xs[k, :, :width])
    out = np.zeros((grid.n_samples, n_blocks, d), dtype=np.complex128)
    out[z:] = _rows_at(xs[:, :n_blocks, :d], inv_sqrt.T)
    return out


def march_ivp(p: AbstractIVP) -> np.ndarray:
    """solve_march_blocks of one block: its (n, d) samples."""
    return solve_march_blocks(p.M0, p.M1, p.source.samples[:, None], p.W0[None], p.source.grid)[:, 0]
