"""Single-mode reference problems: each mode's own AbstractIVP.

The solvers solve every group of modes that share one operator in one
call.  These builders set up the problem of one mode alone, as a
mode-by-mode solver would, so that tests can compare each column of a
grouped solve with that mode solved by itself.
"""

from __future__ import annotations

import numpy as np

from dbf.dbf_model import _merged_coeff_list, _neumann_coefficients, assemble_reduced_ivp
from dbf.evo_solver import J2, AbstractIVP, _apply_symbol_time
from dbf.weighted_time import MaterialSymbol, WeightedSignal


def dbf_blocks(s) -> dict:
    """Table position -> 2x2 problem of every non-kernel mode of a classical scenario.

    Mode lambda has M0 = diag(eps, mu), M1 = c_lambda J and its data
    divided by 1 + eta lambda.
    """
    reduced = assemble_reduced_ivp(s)
    M0 = np.diag([s.epsilon, s.mu]).astype(np.complex128)
    blocks = {}
    for i in np.nonzero(~reduced.kernel)[0]:
        c, f = reduced.coupling[i], reduced.factors[i]
        M1 = MaterialSymbol(dim=2, poly_coeffs=[c * J2]) if c != 0.0 else MaterialSymbol.zero(2)
        samples = (np.stack([s.source_J.e[:, i], s.source_J.h[:, i]], axis=1) / f if s.source_J is not None
                   else np.zeros((s.grid.n_samples, 2), dtype=np.complex128))
        w0 = np.array([s.W0.e_part.coeffs[i], s.W0.h_part.coeffs[i]]) / f
        blocks[int(i)] = AbstractIVP(dim=2, M0=M0, M1=M1, A=np.zeros((2, 2)),
                                     source=WeightedSignal(s.grid, s.nu, samples), W0=w0)
    return blocks


def generalized_block(g, i: int) -> AbstractIVP:
    """The 2x2 problem of mode i of a generalized scenario without k_cross.

    With N the truncated inverse of kappa(z) + lambda, the mode has
    M1 = Mstar1 + lambda N J, the source N(Dinv) j + R(Dinv) (chi W0) with
    R(z) = (N(z) - N(0)) / z, and the jump datum N(0) W0.
    """
    grid, lam = g.grid, float(g.table.eigenvalues[i])
    z = 1.0 / (1j * grid.frequencies + g.nu)
    N, _, _ = _neumann_coefficients(g.kappa0, g.kappa1, lam, z, g.nu)
    mstar1 = [np.asarray(C, dtype=np.complex128) for C in (g.Mstar1.poly_coeffs if g.Mstar1 else [])]
    coupling = [lam * (Nd @ J2) for Nd in N] if lam != 0.0 else []
    m1 = _merged_coeff_list(mstar1, coupling) if (mstar1 or coupling) else []
    w0 = np.array([g.W0.e_part.coeffs[i], g.W0.h_part.coeffs[i]], dtype=np.complex128)
    samples = np.zeros((grid.n_samples, 2), dtype=np.complex128)
    if g.source_J is not None:
        jvec = np.stack([g.source_J.e[:, i], g.source_J.h[:, i]], axis=1)
        if np.any(jvec):
            samples = samples + _apply_symbol_time(MaterialSymbol(dim=2, poly_coeffs=N), jvec, grid)
    if len(N) > 1 and np.any(w0):
        chi = np.zeros((grid.n_samples, 2), dtype=np.complex128)
        chi[grid.zero_index:] = w0
        samples = samples + _apply_symbol_time(MaterialSymbol(dim=2, poly_coeffs=N[1:]), chi, grid)
    return AbstractIVP(dim=2, M0=g.Mstar0, M1=MaterialSymbol(dim=2, poly_coeffs=m1) if m1 else MaterialSymbol.zero(2),
                       A=np.zeros((2, 2)), source=WeightedSignal(grid, g.nu, samples), W0=N[0] @ w0)
