"""Refinement study: solver agreement and the first-order norm split.

Usage: python3 scripts/convergence_study.py [--levels 4]

Halves dt repeatedly on a fixed window and tabulates, per level: the gap
between the iterative and closed-form solvers in the weighted norm, the
integrator's gap (roundoff: its exact propagator steps jump data exactly,
so it does not shrink with dt), the first-order weighted norm of
the raw solution (diverges because of the initial jump), and the same norm
after subtracting the jump response (stable, the quantity the regularity
check certifies).
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dbf.paper import (
    AbstractIVP,
    sobolev_norm,
    solve_fixed_point,
    solve_integrator,
    solve_modal_exact,
    verify_regularity_ode,
)
from dbf.weighted_time import MaterialSymbol, TimeGrid, WeightedSignal, weighted_norm

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, default=4)
    parser.add_argument("--nu", type=float, default=3.0)
    args = parser.parse_args()

    eps, mu, c = 1.5, 0.75, 2.0 / 3.0
    M0 = np.diag([eps, mu]).astype(complex)
    w0 = np.array([1.0, 0.0], dtype=np.complex128)

    print(f"rotation block eps={eps} mu={mu} c={c:g}, nu={args.nu}")
    print(f"{'dt':>10}  {'fixed-exact':>12}  {'integ-exact':>12}  {'raw H1':>10}  {'split H1':>10}")
    for level in range(args.levels):
        scale = 2 ** level
        grid = TimeGrid(t_start=-1.0, dt=1.0 / (256 * scale),
                        n_samples=2048 * scale, pad_fraction=0.25)
        p = AbstractIVP(dim=2, M0=M0,
                        M1=MaterialSymbol(dim=2, poly_coeffs=[c * J2]),
                        A=np.zeros((2, 2)),
                        source=WeightedSignal(grid, args.nu,
                                              np.zeros((grid.n_samples, 2))),
                        W0=w0)
        exact = solve_modal_exact(p, args.nu)
        report = solve_fixed_point(p, args.nu, tol=1e-12)
        stepped = solve_integrator(p, args.nu)
        gap_fp = weighted_norm(WeightedSignal(exact.grid, exact.nu, exact.samples - report.solution.samples))
        gap_int = weighted_norm(WeightedSignal(exact.grid, exact.nu, exact.samples - stepped.samples))
        raw = sobolev_norm(report.solution, 1)
        split = verify_regularity_ode(report, M0, w0)
        print(f"{grid.dt:10.6f}  {gap_fp:12.3e}  {gap_int:12.3e}  {raw:10.3f}  {split:10.6f}")
    print("raw H1 grows ~sqrt(2) per halving (jump derivative); split H1 is flat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
