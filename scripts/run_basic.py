"""Solve the bundled reference scenario and print its diagnostics.

Usage: python3 scripts/run_basic.py [scenario.json] [-o OUT_DIR]

Demonstrates the programmatic path: load a scenario file, solve it, recover
the flux pair, and summarize the verification quantities that the `dbf
verify` subcommand checks.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dbf.cli import build_scenario, load_scenario_doc, write_run_output
from dbf.dbf_model import DBFScenario, solve_dbf, solve_generalized
from dbf.paper import verify_dbf_equation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", nargs="?", default="scenarios/dbf_basic.json")
    parser.add_argument("-o", "--out-dir", default="out")
    args = parser.parse_args()

    doc = load_scenario_doc(args.scenario)
    scenario = build_scenario(doc)
    if isinstance(scenario, DBFScenario):
        history = solve_dbf(scenario, doc["method"])
    else:
        history = solve_generalized(scenario, doc["method"])

    d = history.diagnostics
    print(f"scenario: {args.scenario}")
    print(f"model: {doc['material']['model']}, method: {d['method']}, "
          f"modes: {d['n_modes']}, nu: {d['nu']}")
    print(f"initial value error: {d['initial_value_error']:.3e}")
    print(f"causality sup:       {d['causality_sup']:.3e}")
    print(f"weak residual:       {d['weak_residual']:.3e}")
    recomputed = verify_dbf_equation(history, scenario)
    print(f"residual recomputed: {recomputed:.3e}")

    energy = history.energy
    causal = history.grid.times >= 0.0
    print(f"energy at 0+:        {energy[causal][0]:.6f}")
    print(f"energy at end:       {energy[-1]:.6f}")

    kernel = d["kernel_modes"]
    if kernel:
        print(f"kernel modes excluded: {len(kernel)}")

    stem = os.path.splitext(os.path.basename(args.scenario))[0]
    csv_path, json_path = write_run_output(history, doc, args.out_dir, stem)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
