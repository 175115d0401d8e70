"""The model's symmetries, checked with no oracle: scenario documents through `dbf run` to the cells of its CSV.

Enantiomer (parity).  The mirror image of a chiral medium is the medium with
-eta.  Under the classical law 1 + eta lambda is even and
c_lambda = lambda / (1 + eta lambda) odd under (eta, lambda) -> (-eta, -lambda),
and S = diag(1, -1) conjugates the rotation generator to its negative.  So
eta with data (e, h) on the plus mode of k, and -eta with (e, -h) on the
minus mode of k, give the same E and D and negated H and B.

Time shift.  A causal, autonomous law commutes with delay: with zero W0, a
delayed_step at m dt gives the step solution shifted by m rows, with zeros
before the onset.

Relabeling.  Without k_cross the law acts on each mode through its
eigenvalue alone, so W0 permuted among the modes of each eigenvalue gives
E, H, D and B with their columns permuted the same way.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbf import cli
from dbf.curl_spectral import build_basis

DT = 1 / 128  # grid times and the delay are exact binary fractions
FIELDS = ("_e_", "_h_", "_d_", "_b_")


def run_csv(tmp_path, name: str, doc: dict) -> dict:
    """The field columns of the CSV that `dbf run` writes for doc, by column name."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["run", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_OK
    with open(tmp_path / "out" / f"{name}.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {column: np.array([float(row[j]) for row in rows])
            for j, column in enumerate(header) if any(f in column for f in FIELDS)}


WAVEVECTORS = ([0, 0, 1], [1, -1, 0], [1, 1, 1], [0, 2, 0])


def chiral_doc(eta: float, helicity: str, h_sign: float, method: str) -> dict:
    """Classical law at K = 2 with a seeded W0 on the given helicity of four wavevectors and a Gaussian source on
    two of them, every h value multiplied by h_sign."""
    rng = np.random.default_rng(7)

    def entry(k):
        return [k, helicity, list(rng.uniform(-1, 1, 2)), [h_sign * v for v in rng.uniform(-1, 1, 2)]]

    w0 = [entry(k) for k in WAVEVECTORS]
    source = {"waveform": "gaussian", "amplitude": 1.0, "t0": 0.6, "sigma": 0.15,
              "modes": [entry(k) for k in WAVEVECTORS[1:3]]}
    return {"domain": {"K": 2}, "material": {"model": "dbf", "epsilon": 1.3, "mu": 0.8, "eta": eta},
            "time": {"t_start": -8 * DT, "dt": DT, "n": 200, "pad_fraction": 0.25, "nu": 3.0},
            "data": {"W0": w0, "source": source}, "method": method}


@pytest.mark.parametrize("method", ["exact", "integrator", "fixed_point"])
def test_enantiomer(tmp_path, method):
    # Equality of floats read from 17-digit cells is equality of the solver's bits (+0 and -0 compare equal).
    right = run_csv(tmp_path, "right", chiral_doc(0.37, "plus", 1.0, method))
    left = run_csv(tmp_path, "left", chiral_doc(-0.37, "minus", -1.0, method))
    assert sorted(name.replace("_plus_", "_minus_") for name in right) == sorted(left)
    assert len(right) == 4 * 8
    for name, values in right.items():
        sign = -1.0 if "_h_" in name or "_b_" in name else 1.0
        assert np.any(values != 0), name
        assert np.array_equal(values, sign * left[name.replace("_plus_", "_minus_")]), name


MEMORY = {"model": "generalized", "kappa0": [[2.0, 0.0], [0.0, 2.0]], "kappa1": [[[0.4, 0.0], [0.0, 0.4]]],
          "Mstar0": [[1.0, 0.0], [0.0, 0.5]]}
CLASSICAL = {"model": "dbf", "epsilon": 1.3, "mu": 0.8, "eta": 0.37}
ONSET = 37  # rows from t = 0 to the delayed onset
ZERO_ROW = 5


def shift_doc(material: dict, method: str, delayed: bool, tolerances: dict | None) -> dict:
    """K = 1, zero W0 and a step source on three modes, two of them on one wavevector, or that step delayed."""
    source = {"waveform": "step", "amplitude": [0.6, -0.3],
              "modes": [[[1, 0, 0], "plus", 1.0, 0.0], [[1, 0, 0], "grad", 0.0, 0.5], [[0, 0, 1], "minus", 0.2, 0.4]]}
    if delayed:
        source.update(waveform="delayed_step", delay=ONSET * DT)
    doc = {"domain": {"K": 1}, "material": material,
           "time": {"t_start": -ZERO_ROW * DT, "dt": DT, "n": 200, "pad_fraction": 0.25, "nu": 3.0},
           "data": {"W0": [], "source": source}, "method": method}
    if tolerances:
        doc["tolerances"] = tolerances
    return doc


@pytest.mark.parametrize("material, method, bound, tolerances", [
    pytest.param(MEMORY, "auto", 0.0, None, id="memory-auto"),
    pytest.param(MEMORY, "integrator", 0.0, None, id="memory-integrator"),
    pytest.param(dict(MEMORY, k_cross=[0.3, 0.1, 0.2]), "auto", 0.0, None, id="k_cross-auto"),
    pytest.param(dict(MEMORY, k_cross=[0.3, 0.1, 0.2]), "integrator", 0.0, None, id="k_cross-integrator"),
    pytest.param(CLASSICAL, "integrator", 0.0, None, id="classical-integrator"),
    pytest.param(CLASSICAL, "exact", 1e-15, None, id="classical-exact"),
    # Picard run to its rounding floor: the two solves then differ only by rounding (3.0e-16 relative).
    pytest.param(CLASSICAL, "fixed_point", 1e-15, {"fp_tol": 1e-18, "max_iter": 500}, id="classical-fixed_point"),
    pytest.param(CLASSICAL, "fixed_point", 1e-15, None, id="classical-fixed_point-default-stop",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP D3: Picard stops on an exp(-nu t)-weighted "
                                         "update, which a delay scales by exp(-nu delay), so the delayed solve stops "
                                         "on another sweep (5.4e-9 relative)")),
])
def test_time_shift(tmp_path, material, method, bound, tolerances):
    step = run_csv(tmp_path, "step", shift_doc(material, method, False, tolerances))
    delayed = run_csv(tmp_path, "delayed", shift_doc(material, method, True, tolerances))
    assert list(step) == list(delayed)
    step, delayed = np.array(list(step.values())).T, np.array(list(delayed.values())).T
    onset = ZERO_ROW + ONSET
    assert not np.any(delayed[:onset])
    gap = np.max(np.abs(delayed[onset:] - step[ZERO_ROW:len(step) - ONSET]))
    assert gap <= bound * np.max(np.abs(step)), gap / np.max(np.abs(step))


ETA_SWEEP = {"model": "dbf", "epsilon": 1.0, "mu": 1.0, "eta": 0.5}
MEMORY_K2 = dict(MEMORY, kappa0=[[2.5, 0.0], [0.0, 2.5]])  # kappa0 + lambda stays invertible for |lambda| <= 2
ROTATION = {key: value for key, value in MEMORY_K2.items() if key != "kappa1"}


@st.composite
def relabelings(draw, sizes: tuple) -> tuple:
    """A truncation K, a W0 of up to five entries (table position, (e, h) values), and a permutation of the table
    positions that keeps every eigenvalue."""
    K = draw(st.sampled_from(sizes))
    table = build_basis(K)
    n_modes, lam = table.n_modes, table.eigenvalues
    positions = draw(st.lists(st.integers(0, n_modes - 1), min_size=1, max_size=5, unique=True))
    part = st.floats(-1.0, 1.0, allow_subnormal=False)
    values = draw(st.lists(st.tuples(st.floats(0.25, 1.0), part, part, part), min_size=len(positions),
                           max_size=len(positions)))
    permutation = np.arange(n_modes)
    for value in sorted(set(lam.tolist())):
        group = np.flatnonzero(lam == value)
        permutation[group] = draw(st.permutations(group.tolist()))
    return K, table, list(zip(positions, values)), permutation


@pytest.mark.parametrize("material, method, sizes", [
    pytest.param(CLASSICAL, "exact", (1, 2), id="classical-exact"),
    pytest.param(CLASSICAL, "integrator", (1, 2), id="classical-integrator"),
    pytest.param(ETA_SWEEP, "fixed_point", (1,), id="eta_sweep-fixed_point"),  # Picard contracts at K = 1
    pytest.param(MEMORY_K2, "auto", (1, 2), id="memory-auto"),
    pytest.param(MEMORY_K2, "integrator", (1, 2), id="memory-integrator"),
    pytest.param(ROTATION, "exact", (1, 2), id="rotation-exact"),
])
@settings(max_examples=8)
@given(data=st.data())
def test_relabeling(tmp_path_factory, material, method, sizes, data):
    K, table, w0, permutation = data.draw(relabelings(sizes))

    def doc(relabel) -> dict:
        modes = [(table.modes[relabel[i]], value) for i, value in w0]
        entries = [[list(mode.k), mode.helicity, [e, e_im], [h, h_im]]
                   + ([mode.component_index] if mode.component_index is not None else [])
                   for mode, (e, e_im, h, h_im) in modes]
        return {"domain": {"K": K}, "material": material,
                "time": {"t_start": -8 * DT, "dt": DT, "n": 120, "pad_fraction": 0.25, "nu": 3.0},
                "data": {"W0": entries}, "method": method}

    tmp = tmp_path_factory.mktemp("relabeling")
    plain = run_csv(tmp, "plain", doc(np.arange(table.n_modes)))
    relabeled = run_csv(tmp, "relabeled", doc(permutation))
    label = {cli._mode_label(mode): cli._mode_label(table.modes[j]) for mode, j in zip(table.modes, permutation)}
    renamed = {"_".join([label[name.rsplit("_", 2)[0]], *name.rsplit("_", 2)[1:]]): values
               for name, values in plain.items()}
    assert sorted(renamed) == sorted(relabeled)
    assert any(np.any(values != 0) for values in plain.values())
    for name, values in renamed.items():
        assert np.array_equal(values, relabeled[name]), name
