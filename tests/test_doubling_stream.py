"""`dbf verify` folds the doubled-data solve into the linearity gap piece by piece.

Every piece that field_pieces yields must carry the bits of a full
dbf_fields or generalized_fields solve, the positions it never names must
be zero there, and the gap and the whole verify table must equal those
read from the full solve.  The doubled-data pair is never held: verify
peaks below one and a half field pairs.
"""

import copy
import json
import os
import tracemalloc

import numpy as np
import pytest

from dbf import cli
from dbf.curl_spectral import build_basis
from dbf.dbf_model import DBFScenario, dbf_fields, field_pieces, generalized_fields

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
K_CROSS = [0.3, 0.1, 0.2]
TWO_MODE_STEP = {"waveform": "step", "amplitude": 1.0,
                 "modes": [[[1, 0, 0], "plus", 1.0, 0.0], [[1, 0, 0], "grad", 0.0, 0.5]]}
CONST_STEP = {"waveform": "step", "amplitude": 1.0,
              "modes": [[[1, 0, 0], "plus", 1.0, 0.0], [[0, 0, 0], "const", 0.0, 0.5, 1]]}


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


def with_source(doc: dict, source: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc["data"]["source"] = source
    return doc


CASES = {
    "dbf_basic-exact": shipped("dbf_basic", "exact"),
    "dbf_basic-integrator": shipped("dbf_basic", "integrator"),
    "memory-auto": shipped("generalized_memory", "auto"),
    "memory-integrator": shipped("generalized_memory", "integrator"),
    "memory-k_cross": with_source(shipped("generalized_memory", "auto", k_cross=K_CROSS), TWO_MODE_STEP),
    "memory-Mstar1-k_cross": with_source(
        shipped("generalized_memory", "auto", Mstar1=[[[0.1, 0], [0, [0.1, 0.2]]]], k_cross=K_CROSS), CONST_STEP),
    "memory-rotation-exact": shipped("generalized_memory", "exact", kappa1=None),
    "eta_sweep-fixed_point": shipped("eta_sweep", "fixed_point"),
}


def full_doubled(scenario, doc: dict) -> tuple:
    """E and H of the doubled-data scenario from one whole-field solve."""
    fields = dbf_fields if isinstance(scenario, DBFScenario) else generalized_fields
    return cli._solve(cli._scale_scenario(scenario, 2.0), doc, fields)[:2]


@pytest.mark.parametrize("case", sorted(CASES))
def test_pieces_carry_the_full_solve(case):
    doc = cli.normalize_scenario_doc(CASES[case])
    scenario = cli.build_scenario(doc)
    E2, H2 = full_doubled(scenario, doc)
    named = np.zeros(scenario.table.n_modes, dtype=bool)
    for modes, E, H in cli._solve(cli._scale_scenario(scenario, 2.0), doc, field_pieces):
        assert E.tobytes() == E2[:, modes].tobytes() and H.tobytes() == H2[:, modes].tobytes()
        named[modes] = True
    assert not np.any(E2[:, ~named]) and not np.any(H2[:, ~named])

    history = cli._solve(scenario, doc)
    gap = cli._doubling_gap(history, cli._solve(cli._scale_scenario(scenario, 2.0), doc, field_pieces))
    assert gap == max(np.max(np.abs(E2 - 2.0 * history.E)), np.max(np.abs(H2 - 2.0 * history.H)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_table_matches_the_full_solve(case, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(CASES[case]), encoding="utf-8")
    streamed = cli.cmd_verify(str(path)), capsys.readouterr().out

    def one_piece(scenario, method, **tols):
        doc = {"method": method, "tolerances": tols}
        fields = dbf_fields if isinstance(scenario, DBFScenario) else generalized_fields
        yield slice(None), *cli._solve(scenario, doc, fields)[:2]

    monkeypatch.setattr(cli, "field_pieces", one_piece)
    assert (cli.cmd_verify(str(path)), capsys.readouterr().out) == streamed
    assert "linearity" in streamed[1]


def test_verify_peak_below_one_and_a_half_field_pairs(tmp_path):
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
    assert peak < 1.5 * pair, f"{peak / pair:.2f} field pairs"
