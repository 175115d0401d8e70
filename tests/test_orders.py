"""Observed order in dt by self-convergence over three levels.

p = log2(|u_h - u_{h/2}| / |u_{h/2} - u_{h/4}|), the gaps read on the
coarse grid's samples, needs no reference solve.  Explicit fixed_point
holds a step source over each cell, as the closed form and the propagator
do, so a step that switches on after t = 0 is second order like one at
t = 0, on the classical law and on the memory law alike.
"""

import numpy as np
import pytest

from dbf.curl_spectral import FieldPair, SpectralField, build_basis
from dbf.dbf_model import DBFScenario, GeneralizedScenario, PairSeries, solve
from dbf.weighted_time import MaterialSymbol, TimeGrid

DTS = (0.01, 0.005, 0.0025)


def stepped(law: str, dt: float, onset: float):
    """K = 1 with W0 on three modes and a step of onset `onset` on one, over the window [0, 2)."""
    table = build_basis(1)
    grid = TimeGrid(t_start=0.0, dt=dt, n_samples=int(round(2.0 / dt)), pad_fraction=0.5)
    e, h = np.zeros((2, table.n_modes), dtype=np.complex128)
    e[[3, 4, 5]], h[[3, 4, 5]] = [1.0, 0.5j, -0.3], [0.2, 0.4, 0.1j]
    wave = (grid.times >= onset - 1e-12).astype(float)
    samples = np.stack([0.4 * wave, -0.2 * wave], axis=-1)[:, None, :]
    source = PairSeries(table, grid, np.array([4]), samples)
    W0 = FieldPair(SpectralField(table, e), SpectralField(table, h))
    if law == "dbf":
        return DBFScenario(epsilon=1.0, mu=1.0, eta=0.15, nu=3.0, K=1, grid=grid, W0=W0, source_J=source)
    return GeneralizedScenario(kappa0=np.diag([2.0, 2.0]), Mstar0=np.diag([1.0, 0.5]), nu=3.0, K=1, grid=grid,
                               W0=W0, kappa1=MaterialSymbol(dim=2, poly_coeffs=[np.diag([0.4, 0.4])]),
                               source_J=source)


@pytest.mark.parametrize("law", ["dbf", "generalized"])
@pytest.mark.parametrize("onset", [0.0, 0.5])
def test_fixed_point_is_second_order_on_a_step(law, onset):
    # fp_tol far below the gaps, so the Picard stop does not enter them.
    fields = [solve(stepped(law, dt, onset), "fixed_point", fp_tol=1e-14, max_iter=200) for dt in DTS]
    coarse = [np.stack([h.E, h.H])[:, ::2 ** i] for i, h in enumerate(fields)]
    gaps = [float(np.max(np.abs(a - b))) for a, b in zip(coarse, coarse[1:])]
    assert 1.9 < np.log2(gaps[0] / gaps[1]) < 2.1, gaps
