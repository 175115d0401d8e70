"""The setups plan every group's kernel before any kernel runs, and _block_pieces only runs the plan.

A plan entry is (blocks, kernel, M1, lift, c).  The classical setup plans
the closed form under "exact" and for a group near the kernel of
(1 + eta curl), and otherwise the propagator under "integrator" and Picard
under "fixed_point".  The generalized setup plans the closed form for a
rotation under "auto" and "exact", the propagator for any other group under
"auto" and "integrator", Picard under "fixed_point", and a refusal for a
group that is not a rotation under "exact".  A refused group fails only when
it has data, with the WrongCase message of "exact".
"""

import json
import os

import pytest

from dbf import cli, dbf_model
from dbf.curl_spectral import build_basis

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL_CALLS = ("rotation_closed_form", "solve_propagator_blocks", "solve_fixed_point_blocks")
KERNEL_OF_CALL = dict(zip(KERNEL_CALLS, ("closed_form", "propagator", "picard")))
C, P, F, R = "closed_form", "propagator", "picard", "refused"
DIAG23 = {"kappa1": None, "kappa0": [[2.0, 0.0], [0.0, 3.0]]}
K_CROSS = {"k_cross": [0.3, 0.1, 0.2]}

# K = 2 at eta = 0.5: the first blocks of lambda = 0, 1, -1, sqrt 2, -sqrt 2, sqrt 3, -sqrt 3, 2; lambda = -2 is the
# kernel, in no group.  At eta = -0.9995 lambda = -2 (first block 82) is a group, and lambda = 1 is near the kernel.
DBF_BLOCKS = (0, 3, 4, 21, 22, 57, 58, 81)
NEAR_BLOCKS = DBF_BLOCKS + (82,)
K1_BLOCKS = (0, 3, 4)  # K = 1: lambda = 0, 1, -1
WAVEVECTORS = tuple(range(7))  # K = 1 with k_cross: k = 0, then the six unit wavevectors
PLANS = [  # (scenario, material changes, method, first blocks, kernel of each or of all)
    ("dbf_basic", {}, "exact", DBF_BLOCKS, C),
    ("dbf_basic", {}, "integrator", DBF_BLOCKS, P),
    ("dbf_basic", {}, "fixed_point", DBF_BLOCKS, F),
    ("dbf_basic", {"eta": -0.9995}, "exact", NEAR_BLOCKS, C),
    ("dbf_basic", {"eta": -0.9995}, "integrator", NEAR_BLOCKS, (P, C, P, P, P, P, P, P, P)),
    ("dbf_basic", {"eta": -0.9995}, "fixed_point", NEAR_BLOCKS, (F, C, F, F, F, F, F, F, F)),
    ("eta_sweep", {}, "exact", K1_BLOCKS, C),
    ("eta_sweep", {}, "integrator", K1_BLOCKS, P),
    ("eta_sweep", {}, "fixed_point", K1_BLOCKS, F),
    ("generalized_memory", {}, "auto", K1_BLOCKS, P),
    ("generalized_memory", {}, "exact", K1_BLOCKS, R),
    ("generalized_memory", {}, "integrator", K1_BLOCKS, P),
    ("generalized_memory", {}, "fixed_point", K1_BLOCKS, F),
    ("generalized_memory", {"kappa1": None}, "auto", K1_BLOCKS, C),
    ("generalized_memory", {"kappa1": None}, "exact", K1_BLOCKS, C),
    ("generalized_memory", {"kappa1": None}, "integrator", K1_BLOCKS, P),
    ("generalized_memory", {"kappa1": None}, "fixed_point", K1_BLOCKS, F),
    # kappa0 = diag(2, 3) without memory: only lambda = 0, whose coupling vanishes, is a rotation.
    ("generalized_memory", DIAG23, "auto", K1_BLOCKS, (C, P, P)),
    ("generalized_memory", DIAG23, "exact", K1_BLOCKS, (C, R, R)),
    ("generalized_memory", DIAG23, "integrator", K1_BLOCKS, P),
    ("generalized_memory", DIAG23, "fixed_point", K1_BLOCKS, F),
    ("generalized_memory", K_CROSS, "auto", WAVEVECTORS, P),
    ("generalized_memory", K_CROSS, "exact", WAVEVECTORS, R),
    ("generalized_memory", K_CROSS, "integrator", WAVEVECTORS, P),
    ("generalized_memory", K_CROSS, "fixed_point", WAVEVECTORS, F),
]
IDS = [f"{name}-{'-'.join(material) or 'shipped'}-{method}" for name, material, method, _, _ in PLANS]


def doc_of(name: str, material: dict, method: str) -> dict:
    with open(os.path.join(ROOT, "scenarios", f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["method"] = method
    for key, value in material.items():
        if value is None:
            del doc["material"][key]
        else:
            doc["material"][key] = value
    return doc


def problem_of(doc: dict) -> tuple:
    """The arguments of _block_pieces that the scenario's setup returns; the plan is the fourth."""
    scenario = cli.build_scenario(cli.normalize_scenario_doc(doc))
    setup = dbf_model._dbf_blocks if isinstance(scenario, dbf_model.DBFScenario) else dbf_model._generalized_blocks
    return setup(scenario, doc["method"])[0]


@pytest.mark.filterwarnings("ignore:.*within 0.001 of the kernel:UserWarning")
@pytest.mark.parametrize("name, material, method, blocks, kernels", PLANS, ids=IDS)
def test_setup_plans_every_group(monkeypatch, name, material, method, blocks, kernels):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a setup ran a kernel")

    for call in KERNEL_CALLS:
        monkeypatch.setattr(dbf_model, call, no_kernel)
    plan = problem_of(doc_of(name, material, method))[3]
    kernels = (kernels,) * len(blocks) if isinstance(kernels, str) else kernels
    assert sorted((int(entry[0][0]), entry[1]) for entry in plan) == list(zip(blocks, kernels))


@pytest.mark.filterwarnings("ignore:.*within 0.001 of the kernel:UserWarning")
@pytest.mark.parametrize("name, material, method", [case[:3] for case in PLANS if R not in case[4]],
                         ids=[i for i, case in zip(IDS, PLANS) if R not in case[4]])
def test_executor_runs_the_plan(monkeypatch, name, material, method):
    # Every mode loaded on a short window: each block is yielded by the kernel its entry names.
    doc = doc_of(name, material, method)
    doc["data"].pop("source", None)
    doc["time"].update(t_start=-10 * doc["time"]["dt"], n=96, nu=20.0)
    table = build_basis(doc["domain"]["K"])
    eta = doc["material"].get("eta")
    doc["data"]["W0"] = [[list(m.k), m.helicity, 1.0, 0.5, *([] if m.component_index is None else [m.component_index])]
                         for m in table.modes if eta is None or abs(1.0 + eta * m.eigenvalue) > 1e-9]  # off the kernel
    problem = problem_of(doc)
    planned = {int(b): entry[1] for entry in problem[3] for b in entry[0]}
    last = []
    for call in KERNEL_CALLS:
        def ran(*args, _call=call, _kernel=getattr(dbf_model, call), **kwargs):
            last.append(KERNEL_OF_CALL[_call])
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(dbf_model, call, ran)
    solved = {}
    for blocks_of_piece, _, _ in dbf_model._block_pieces(*problem, 1e-10, 64, {}):
        solved.update((int(b), last[-1]) for b in blocks_of_piece)
    assert solved == planned


def exact_edge(W0: list, **material) -> dict:
    doc = doc_of("generalized_memory", material, "exact")
    doc["data"]["W0"] = W0
    return doc


LAMBDA_0 = [[[0, 0, 0], "const", 0.2, 0.1, 0], [[1, 0, 0], "grad", 0.3, 0.1]]
LAMBDA_1 = [[[1, 0, 0], "plus", 1.0, 0.0]]


@pytest.mark.parametrize("doc, code", [
    (exact_edge([]), cli.EXIT_OK),  # no group has data
    (exact_edge(LAMBDA_0, **DIAG23), cli.EXIT_OK),  # data only on the rotation group lambda = 0
    (exact_edge(LAMBDA_1), cli.EXIT_INVALID),
    (exact_edge(LAMBDA_0 + LAMBDA_1, **DIAG23), cli.EXIT_INVALID),
], ids=["memory-no-data", "diag23-lambda-0", "memory-lambda-1", "diag23-lambda-1"])
def test_exact_refuses_only_a_group_with_data(tmp_path, capsys, doc, code):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.cmd_run(str(path), str(tmp_path / "out")) == code
    assert cli.cmd_verify(str(path)) == code
    err = capsys.readouterr().err
    if code == cli.EXIT_OK:
        assert err == ""
    else:
        message = ("invalid scenario: method 'exact' needs rotation blocks, and this law has a block that is not a "
                   "rotation; use method 'auto' or 'integrator'")
        assert err.splitlines() == [message, f"FAIL: solve: {message}"]
        assert not (tmp_path / "out").exists()
