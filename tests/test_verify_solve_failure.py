"""`dbf verify` maps every failed solve, the doubled-data one included, through EXIT_TABLE."""

import json
import os

from dbf import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_failed_linearity_solve_exits_four(tmp_path, capsys):
    # At max_iter 14 the plain solve converges, but doubling the data doubles the
    # last Picard update (1.51e-10) past fp_tol, so the linearity re-solve fails.
    with open(os.path.join(ROOT, "scenarios", "eta_sweep.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["method"] = "fixed_point"
    doc["tolerances"] = {"max_iter": 14}
    path = tmp_path / "eta_sweep_fp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    assert cli.cmd_run(str(path), str(tmp_path / "out")) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.cmd_verify(str(path)) == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert "FAIL: solve: solver did not converge" in captured.err
    assert captured.out == ""
