"""`dbf verify` folds its solve and the doubled-data solve into the checks piece by piece and stores no field.

Every piece that field_pieces yields must carry the bits of the history
that run stores, and its doubled-data E2 and H2 those of the history of
the scenario with doubled data; the positions it never names must be zero
there, and the fold, the verify table and the run diagnostics must equal
those read from the stored solutions.  The doubled data are more columns
of the solve's own block calls, so verify makes the calls that run makes.
verify peaks below three quarters of one field pair.
"""

import collections
import copy
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

import oracles
from dbf import cli, dbf_model
from dbf.curl_spectral import FieldPair, SpectralField, build_basis
from dbf.dbf_model import field_pieces, fold_pieces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K_CROSS = [0.3, 0.1, 0.2]
TWO_MODE_STEP = {"waveform": "step", "amplitude": 1.0,
                 "modes": [[[1, 0, 0], "plus", 1.0, 0.0], [[1, 0, 0], "grad", 0.0, 0.5]]}
CONST_STEP = {"waveform": "step", "amplitude": 1.0,
              "modes": [[[1, 0, 0], "plus", 1.0, 0.0], [[0, 0, 0], "const", 0.0, 0.5, 1]]}
# With eta = 1 the minus modes with |k| = 1 have 1 + eta lambda = 0.  One of them carries a W0 below the
# range tolerance: it is never solved, yet counts in the initial-value and residual checks.
KERNEL_W0 = [[[1, 0, 0], "plus", 1.0, [0.0, 0.5]], [[1, 0, 0], "minus", 3e-13, -2e-13],
             [[1, 1, 0], "grad", 0.3, 0.1], [[0, 0, 0], "const", 0.2, 0.1, 0]]


def shipped(name: str, method: str, **material) -> dict:
    with open(os.path.join(ROOT, "scenarios", f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["method"] = method
    for key, value in material.items():
        if value is None:
            del doc["material"][key]
        else:
            doc["material"][key] = value
    return doc


def with_data(doc: dict, **data) -> dict:
    doc = copy.deepcopy(doc)
    doc["data"].update(data)
    return doc


CASES = {
    "dbf_basic-exact": shipped("dbf_basic", "exact"),
    "dbf_basic-integrator": shipped("dbf_basic", "integrator"),
    "dbf_basic-kernel": with_data(shipped("dbf_basic", "exact", eta=1.0), W0=KERNEL_W0),
    "memory-auto": shipped("generalized_memory", "auto"),
    "memory-integrator": shipped("generalized_memory", "integrator"),
    "memory-k_cross": with_data(shipped("generalized_memory", "auto", k_cross=K_CROSS), source=TWO_MODE_STEP),
    "memory-Mstar1-k_cross": with_data(
        shipped("generalized_memory", "auto", Mstar1=[[[0.1, 0], [0, [0.1, 0.2]]]], k_cross=K_CROSS),
        source=CONST_STEP),
    "memory-rotation-exact": shipped("generalized_memory", "exact", kappa1=None),
    "eta_sweep-fixed_point": shipped("eta_sweep", "fixed_point"),
}


def scenario_of(case: str):
    doc = cli.normalize_scenario_doc(CASES[case])
    return doc, cli.build_scenario(doc)


def doubled_scenario(scenario):
    """The scenario with its W0 and source multiplied by 2."""
    W0 = FieldPair(SpectralField(scenario.table, 2.0 * scenario.W0.e_part.coeffs),
                   SpectralField(scenario.table, 2.0 * scenario.W0.h_part.coeffs))
    source = scenario.source_J
    if source is not None:
        source = dataclasses.replace(source, samples=2.0 * source.samples)
    return dataclasses.replace(scenario, W0=W0, source_J=source)


def full_solve(scenario, doc: dict) -> tuple:
    """E, H, D, B of the history run stores for the scenario.

    run stores the pieces of field_pieces, so a comparison of these fields
    with the pieces checks the one block-to-table mapping against itself;
    the oracles of test_generalized and test_dbf_model check its values.
    """
    history = cli._solve(scenario, doc)
    return history.E, history.H, history.D, history.B


def pieces(scenario, doc: dict, **kwargs):
    """The pieces of the solve of the scenario, as verify asks for them."""
    tols = doc["tolerances"]
    return field_pieces(scenario, doc["method"], fp_tol=tols["fp_tol"], max_iter=int(tols["max_iter"]), **kwargs)


def test_kernel_case_has_a_loaded_kernel_mode():
    doc, scenario = scenario_of("dbf_basic-kernel")
    kernel = scenario.table.kernel_mask(scenario.eta)
    assert np.any(kernel & (scenario.W0.e_part.coeffs != 0))


@pytest.mark.parametrize("case", ["memory-k_cross", "dbf_basic-kernel"])
def test_tracked_modes_match_the_whole_table_scan(case):
    # The fold's tracked positions against a scan of the stored table and the data.  With k_cross the modes of a
    # loaded wavevector that carry no data get fields; the kernel mode's tiny W0 is tracked but never solved.
    doc, scenario = scenario_of(case)
    history = cli._solve(scenario, doc)
    assert history.tracked.tolist() == oracles.tracked_indices(history, scenario)
    solved = np.any([np.any(np.asarray(a) != 0, axis=0) for a in (history.E, history.H, history.D, history.B)], axis=0)
    data = (scenario.W0.e_part.coeffs != 0) | (scenario.W0.h_part.coeffs != 0)
    data[scenario.source_J.modes] = True
    assert np.any(solved & ~data) if case == "memory-k_cross" else np.any(data & ~solved)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pieces_carry_the_full_solve(case):
    doc, scenario = scenario_of(case)
    # The doubled-data E2 and H2 of a piece are those of the stored solve of the scenario with doubled data.
    full = [np.asarray(a) for a in full_solve(scenario, doc) + full_solve(doubled_scenario(scenario), doc)[:2]]
    for doubled in (False, True):
        named = np.zeros(scenario.table.n_modes, dtype=bool)
        for modes, *fields in pieces(scenario, doc, doubled=doubled):
            assert len(fields) == (6 if doubled else 4)
            for piece, whole in zip(fields, full):
                assert np.asarray(piece).tobytes() == whole[:, modes].tobytes()
            named[modes] = True
        assert not any(np.any(whole[:, ~named]) for whole in full)

    history = cli._solve(scenario, doc)
    E2, H2 = full[4:]
    fold = fold_pieces(scenario, pieces(scenario, doc, doubled=True))
    assert fold.gap == max(np.max(np.abs(E2 - 2.0 * history.E)), np.max(np.abs(H2 - 2.0 * history.H)))
    fields = [np.asarray(a) for a in (history.E, history.H, history.D, history.B)]
    assert fold.maxima.tolist() == [np.max(np.abs(a)) for a in fields]
    for key in ("initial_value_error", "causality_sup", "weak_residual"):
        assert getattr(fold, key) == history.diagnostics[key], key


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_diagnostics_match_the_full_history(case, tmp_path):
    # The parent's whole-array formulas on the full solution, written here without the fold.
    doc, scenario = scenario_of(case)
    E, H, D, B = (np.asarray(a) for a in full_solve(scenario, doc))
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(CASES[case]), encoding="utf-8")
    assert cli.cmd_run(str(path), str(tmp_path / "out")) == cli.EXIT_OK
    with open(tmp_path / "out" / f"{case}.json", encoding="utf-8") as fh:
        d = json.load(fh)["diagnostics"]
    zi, lam = scenario.grid.zero_index, scenario.table.eigenvalues
    w = 1.0 / (1.0 + lam**2)
    iv = float(np.sqrt(np.sum(w * (np.abs(D[zi] - scenario.W0.e_part.coeffs) ** 2
                                   + np.abs(B[zi] - scenario.W0.h_part.coeffs) ** 2))))
    history = cli.FieldHistory(scenario.table, scenario.grid, scenario.nu, E, H, D, B)
    assert d["initial_value_error"] == iv
    assert d["causality_sup"] == max(float(np.max(np.abs(a[:zi]), initial=0.0)) for a in (E, H, D, B))
    assert d["weak_residual"] == oracles.dbf_weak_residual(history, scenario)


def one_piece(scenario, method, *, tally=None, doubled=False, **tols):
    """The whole stored solution as one piece, with the stored doubled-data E2 and H2 when asked for, and with
    the diagnostics the stream of the solve reports."""
    doc = {"method": method, "tolerances": tols}
    twin = full_solve(doubled_scenario(scenario), doc)[:2] if doubled else ()
    collections.deque(pieces(scenario, doc, tally={} if tally is None else tally), maxlen=0)
    yield slice(None), *full_solve(scenario, doc), *twin


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_table_matches_the_full_solve(case, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(CASES[case]), encoding="utf-8")
    streamed = cli.cmd_verify(str(path)), capsys.readouterr().out
    monkeypatch.setattr(cli, "field_pieces", one_piece)
    assert (cli.cmd_verify(str(path)), capsys.readouterr().out) == streamed
    assert "linearity" in streamed[1]


BLOCK_CALLS = ("_dbf_blocks", "_generalized_blocks", "solve_propagator_blocks", "solve_fixed_point_blocks",
               "rotation_closed_form")


@pytest.mark.parametrize("name, method", [("dbf_basic", "integrator"), ("dbf_basic", "exact"),
                                          ("generalized_memory", "auto"), ("generalized_memory", "fixed_point")])
def test_verify_makes_the_block_calls_of_run(tmp_path, monkeypatch, name, method):
    # The doubled data are more columns of the solve's own calls, so verify sets up the blocks once and makes the
    # kernel calls that run makes; a second solve would make twice as many.  Picard contracts at nu 3 here.
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(shipped(name, method)), encoding="utf-8")
    calls = collections.Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for attr in BLOCK_CALLS:
        monkeypatch.setattr(dbf_model, attr, counted(attr, getattr(dbf_model, attr)))
    assert cli.main(["run", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_OK
    ran = collections.Counter(calls)
    calls.clear()
    cli.main(["verify", str(path)])
    assert calls == ran
    assert sum(ran[attr] for attr in BLOCK_CALLS[2:]) > 0


def test_verify_peak_below_three_quarters_of_a_field_pair(tmp_path):
    # K = 4, 771 modes, 800 samples, every mode loaded: one E, H pair is 19.7 MB.
    table, rng = build_basis(4), np.random.default_rng(4)
    entry = lambda mode: [list(mode.k), mode.helicity, *rng.uniform(-0.5, 0.5, (2, 2)).tolist()] + (
        [mode.component_index] if mode.component_index is not None else [])
    doc = {"domain": {"K": 4}, "material": {"model": "dbf", "epsilon": 1.0, "mu": 1.0, "eta": 0.15},
           "time": {"t_start": -0.25, "dt": 0.0025, "n": 800, "nu": 1.0},
           "data": {"W0": [entry(mode) for mode in table.modes]}}
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    pair = 2 * 800 * table.n_modes * 16
    tracemalloc.start()
    try:
        assert cli.cmd_verify(str(path)) == cli.EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * pair, f"{peak / pair:.2f} field pairs"
