"""Seeded scenario generator for the four benchmark workloads.

Every mode of the truncated table is loaded: its flux jump W0 = (e, h) is a
pair drawn uniformly from the complex unit disc.  The mode list is built
here from the truncation radius alone (3 constant modes, then plus, minus
and grad for every 0 < |k|^2 <= K^2), so the benchmark never imports the
program to make its inputs.  The same workload and seed always give the
same scenario document.
"""

from __future__ import annotations

import math
import random

DBF_MATERIAL = {"model": "dbf", "epsilon": 1.0, "mu": 1.0, "eta": 0.15}
MEMORY_MATERIAL = {
    "model": "generalized",
    "kappa0": [[2.5, 0.0], [0.0, 2.5]],
    "kappa1": [[[0.4, 0.0], [0.0, 0.4]]],
    "Mstar0": [[1.0, 0.0], [0.0, 0.5]],
}

# The program's default tolerances, written into every scenario so that the
# benchmark checks each run against the same bounds the program sees.
TOLERANCES = {"fp_tol": 1e-10, "max_iter": 64, "iv_tol": 1e-8, "caus_tol": 1e-10,
              "resid_tol": 1e-6, "energy_tol": 1e-12, "linearity_tol": 1e-12}

# Sizes are scaled so that one operation takes 2-3 s on a 2-core machine,
# about 1 s of which is interpreter start and imports; a 25 s run then
# takes the median over 8 to 13 operations.
WORKLOADS = {
    # The CSV writer dominates and the solver is small: a solver-only change
    # should read no change here.
    "exact_run": {
        "command": "run",
        "K": 3,
        "material": DBF_MATERIAL,
        "time": {"t_start": -0.1, "dt": 0.005, "n": 240, "pad_fraction": 0.5, "nu": 1.0},
        "method": "exact",
        "source_modes": 37,
    },
    # Two closed-form solves of 771 blocks plus the invariant suite, nothing
    # written: a writer-only change should read no change here.
    "exact_verify": {
        "command": "verify",
        "K": 4,
        "material": DBF_MATERIAL,
        "time": {"t_start": -0.25, "dt": 0.0025, "n": 800, "pad_fraction": 0.5, "nu": 1.0},
        "method": "exact",
        "source_modes": 37,
    },
    # 64 small 2x2 blocks with memory iterate by Picard through a Neumann
    # series; this path is idle on the two exact workloads.  dt = 0.001
    # fails the weak residual bound, hence dt = 0.0005.
    "memory_modes_run": {
        "command": "run",
        "K": 2,
        "material": MEMORY_MATERIAL,
        "time": {"t_start": -0.05, "dt": 0.0005, "n": 512, "pad_fraction": 0.25, "nu": 9.0},
        "method": "auto",
        "source_modes": 0,
    },
    # k_cross couples all 21 modes into one dense 42-dimensional Picard
    # block, the memory-heavy joint path.  Both Picard workloads use `run`
    # because `verify` holds `auto` to the exact-path linearity tolerance.
    "cross_joint_run": {
        "command": "run",
        "K": 1,
        "material": dict(MEMORY_MATERIAL, k_cross=[0.3, 0.1, 0.2]),
        "time": {"t_start": -0.1, "dt": 0.001, "n": 1024, "pad_fraction": 0.25, "nu": 3.0},
        "method": "auto",
        "source_modes": 0,
    },
}


def mode_entries(K: int) -> list:
    """(k, helicity, component) for every mode of the truncation-K table."""
    entries = [((0, 0, 0), "const", c) for c in range(3)]
    for kx in range(-K, K + 1):
        for ky in range(-K, K + 1):
            for kz in range(-K, K + 1):
                if 0 < kx * kx + ky * ky + kz * kz <= K * K:
                    k = (kx, ky, kz)
                    entries += [(k, "plus", None), (k, "minus", None), (k, "grad", None)]
    return entries


def _disc(rng: random.Random) -> list:
    """A complex number uniform in the unit disc, as [re, im]."""
    r = math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return [r * math.cos(phi), r * math.sin(phi)]


def _entry(k, helicity, component, e, h) -> list:
    out = [list(k), helicity, e, h]
    if component is not None:
        out.append(component)
    return out


def generate(workload: str, seed: int) -> dict:
    """Scenario document of one workload for one seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    modes = mode_entries(spec["K"])
    data = {"W0": [_entry(k, hel, comp, _disc(rng), _disc(rng)) for k, hel, comp in modes]}
    if spec["source_modes"]:
        chosen = rng.sample(modes, spec["source_modes"])
        data["source"] = {
            "waveform": "gaussian", "amplitude": 1.0, "t0": 1.0, "sigma": 0.3,
            "modes": [_entry(k, hel, comp, _disc(rng), _disc(rng)) for k, hel, comp in chosen],
        }
    return {
        "domain": {"K": spec["K"]},
        "material": spec["material"],
        "time": spec["time"],
        "data": data,
        "method": spec["method"],
        "tolerances": TOLERANCES,
    }
