"""Chirality sweep: observed modal rotation rate against the closed form.

Usage: python3 scripts/sweep_eta.py [--etas 0.2 0.3 ... ] [--lam-mode plus]

For a single Beltrami mode with eigenvalue lambda the solved field rotates
at omega = lambda / ((1 + eta lambda) sqrt(eps mu)).  The script solves one
scenario per eta, counts zero crossings of the electric coefficient, and
tabulates observed against predicted rates, including the blowup as eta
approaches -1/lambda where the mode enters the kernel.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dbf.cli import _observed_omega
from dbf.curl_spectral import FieldPair, SpectralField, build_basis
from dbf.dbf_model import DBFScenario, RangeViolation, solve
from dbf.weighted_time import TimeGrid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--etas", nargs="+", type=float,
                        default=[0.3, 0.4, 0.5, 0.75, 1.0, -0.5, -0.9, -0.99, -1.0])
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--nu", type=float, default=3.0)
    args = parser.parse_args()

    table = build_basis(1)
    i = table.position((1, 0, 0), "plus")
    lam = table.eigenvalues[i]
    e0 = np.zeros(table.n_modes, dtype=np.complex128)
    e0[i] = 1.0
    W0 = FieldPair(SpectralField(table, e0), SpectralField(table, np.zeros_like(e0)))
    grid = TimeGrid(t_start=-1.0, dt=0.02, n_samples=4096, pad_fraction=0.25)

    print(f"mode k=(1,0,0) plus, lambda={lam:g}, eps={args.epsilon}, mu={args.mu}")
    print(f"{'eta':>8}  {'omega predicted':>16}  {'omega observed':>15}  {'rel err':>9}")
    for eta in args.etas:
        shift = 1.0 + eta * lam
        predicted = np.inf if shift == 0.0 else lam / (shift * np.sqrt(args.epsilon * args.mu))
        try:
            s = DBFScenario(epsilon=args.epsilon, mu=args.mu, eta=eta, nu=args.nu,
                            K=1, grid=grid, W0=W0)
            history = solve(s, "exact")
        except RangeViolation:
            print(f"{eta:8.3f}  {'(kernel mode)':>16}  {'rejected':>15}  {'':>9}")
            continue
        core = (grid.times >= 0.0) & (grid.times < grid.t_start + grid.dt * grid.n_core)
        observed = _observed_omega(history.E[core, i], grid.times[core])
        rel = abs(observed - predicted) / abs(predicted)
        print(f"{eta:8.3f}  {predicted:16.6f}  {observed:15.6f}  {rel:9.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
