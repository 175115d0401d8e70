"""Single-mode reference problems: each mode's own AbstractIVP.

The solvers solve every group of modes that share one operator in one
call.  These builders set up the problem of one mode alone, as a
mode-by-mode solver would, so that tests can compare each column of a
grouped solve with that mode solved by itself.
"""

from __future__ import annotations

import numpy as np

from dbf.dbf_model import _block_law, assemble_reduced_ivp
from dbf.evo_solver import J2, AbstractIVP
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

    With N0 = (kappa0 + lambda)^-1 the mode has
    M1 = Mstar1 + lambda N0 J + N0 kappa1 Mstar, the source N0 j and the
    jump datum N0 W0.
    """
    grid, lam = g.grid, float(g.table.eigenvalues[i])
    N0 = np.linalg.inv(g.kappa0 + lam * np.eye(2))
    m1, _ = _block_law(g, [lam])
    w0 = np.array([g.W0.e_part.coeffs[i], g.W0.h_part.coeffs[i]], dtype=np.complex128)
    samples = np.zeros((grid.n_samples, 2), dtype=np.complex128)
    if g.source_J is not None:
        z = grid.zero_index
        samples[z:] += np.stack([g.source_J.e[z:, i], g.source_J.h[z:, i]], axis=1) @ N0.T
    return AbstractIVP(dim=2, M0=g.Mstar0, M1=MaterialSymbol(dim=2, poly_coeffs=m1) if m1 else MaterialSymbol.zero(2),
                       A=np.zeros((2, 2)), source=WeightedSignal(grid, g.nu, samples), W0=N0 @ w0)
