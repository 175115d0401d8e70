"""`dbf verify` maps every failed solve, the doubled-data one included, through EXIT_TABLE.

The doubled-data solve feeds only the linearity check: the weak residual of every mode is folded once.
"""

import json
import os

import numpy as np
import pytest

from dbf import cli, dbf_model, paper

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def eta_sweep_fixed_point(tmp_path, max_iter: int) -> str:
    with open(os.path.join(ROOT, "scenarios", "eta_sweep.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["method"] = "fixed_point"
    doc["tolerances"] = {"max_iter": max_iter}
    path = tmp_path / "eta_sweep_fp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_failed_linearity_solve_exits_four(tmp_path, capsys):
    # At max_iter 14 the plain solve converges, but doubling the data doubles the
    # last Picard update (1.51e-10) past fp_tol, so the linearity re-solve fails.
    path = eta_sweep_fixed_point(tmp_path, 14)

    assert cli.cmd_run(str(path), str(tmp_path / "out")) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.cmd_verify(str(path)) == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert "FAIL: solve: solver did not converge" in captured.err
    assert captured.out == ""


def test_solve_error_comes_before_the_doubled_data_error(tmp_path, capsys):
    # At max_iter 3 the data and the doubled data both fail, in one Picard call: verify reports the
    # data's error, the line run prints for the same file.
    path = eta_sweep_fixed_point(tmp_path, 3)
    assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_NO_CONVERGENCE
    ran = capsys.readouterr().err
    assert "last update 0.00167" in ran
    assert cli.cmd_verify(path) == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.err.startswith("FAIL: solve: ")
    assert captured.err[len("FAIL: solve: "):] == ran
    assert captured.out == ""


@pytest.mark.parametrize("name", ["dbf_basic", "generalized_memory"])
def test_verify_computes_one_weak_residual(monkeypatch, capsys, name):
    # Both solves are folded in one pass, and the doubled-data one feeds only the linearity gap: the weak residual
    # of every mode is computed once, for the solve whose diagnostics verify reports.
    path = os.path.join(ROOT, "scenarios", f"{name}.json")
    folded, original = [], dbf_model.PieceFold._fold

    def counted(self, positions, *fields):
        folded.extend(positions.tolist())
        return original(self, positions, *fields)

    def not_called(*args):
        raise AssertionError("verify reads the residual from the fold")

    monkeypatch.setattr(dbf_model.PieceFold, "_fold", counted)
    monkeypatch.setattr(paper, "verify_dbf_equation", not_called)
    assert cli.cmd_verify(path) == cli.EXIT_OK
    assert sorted(folded) == list(range(cli.build_scenario(cli.load_scenario_doc(path)).table.n_modes))
    assert "all checks passed" in capsys.readouterr().out


def _patched_doubled_solve(monkeypatch, edit) -> None:
    """Apply edit to the doubled-data E2 and H2 of every piece that cmd_verify asks cli.field_pieces for."""
    original = cli.field_pieces

    def pieces(*args, **kwargs):
        return ((*piece[:5], *(edit(np.array(a)) for a in piece[5:])) for piece in original(*args, **kwargs))

    monkeypatch.setattr(cli, "field_pieces", pieces)


@pytest.mark.parametrize("name", ["dbf_basic", "generalized_memory"])
def test_non_finite_doubled_solve_exits_four(monkeypatch, capsys, name):
    def poison(E):
        E[-1, int(np.argmax(np.abs(E[-1])))] = np.nan
        return E

    _patched_doubled_solve(monkeypatch, poison)
    assert cli.cmd_verify(os.path.join(ROOT, "scenarios", f"{name}.json")) == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert "FAIL: solve: solution is not finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["dbf_basic", "generalized_memory"])
def test_nonlinear_doubled_solve_fails_linearity(monkeypatch, capsys, name):
    _patched_doubled_solve(monkeypatch, lambda E: 1.001 * E)
    assert cli.cmd_verify(os.path.join(ROOT, "scenarios", f"{name}.json")) == cli.EXIT_INVALID
    out = capsys.readouterr().out
    assert "FAIL: linearity" in out
    assert out.count("FAIL") == 2  # the linearity row and the closing line: no other check fails
