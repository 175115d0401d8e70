"""`dbf verify`'s projector_algebra row reads the solve on the kernel of (1 + eta curl).

The classical setup puts the kernel modes in no group, so a correct solve holds exact zeros there, and the row
reads the largest |E|, |H|, |D| or |B| that the solve holds at the kernel positions the setup reported.
"""

import json
import math
import os
import re

import numpy as np

from dbf import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dbf_basic_at(tmp_path, eta: float) -> str:
    with open(os.path.join(ROOT, "scenarios", "dbf_basic.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["material"]["eta"] = eta
    path = tmp_path / "dbf_basic_eta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def projector_row(out: str) -> str:
    return re.search(r"^projector_algebra .*$", out, re.M)[0]


def test_kernel_field_fails_the_projector_row(tmp_path, monkeypatch, capsys):
    # At eta = 1 the minus modes with |k| = 1 are the kernel; the data of dbf_basic lie off it.
    path = dbf_basic_at(tmp_path, 1.0)
    scenario = cli.build_scenario(cli.load_scenario_doc(path))
    at = scenario.table.position((1, 0, 0), "minus")
    n, z = scenario.grid.n_samples, scenario.grid.zero_index
    original = cli.field_pieces

    def pieces(*args, **kwargs):
        yield from original(*args, **kwargs)
        E, zero = np.zeros((n, 1), dtype=np.complex128), np.zeros((n, 1), dtype=np.complex128)
        E[z:] = 1e-3  # a defective solve that loads one kernel position from t = 0 on
        yield (np.array([at]), E, zero, zero, zero, *((2.0 * E, zero) if kwargs.get("doubled") else ()))

    monkeypatch.setattr(cli, "field_pieces", pieces)
    assert cli.cmd_verify(path) == cli.EXIT_INVALID
    assert re.fullmatch(r"projector_algebra +1\.0000e-03 +1\.0000e-09 +FAIL", projector_row(capsys.readouterr().out))


def test_kernel_reads_exact_zero(tmp_path, capsys):
    # At eta = -1/sqrt(3) the plus modes with |k|^2 = 3 are the kernel, with 1 + eta lambda a rounding error
    # away from 0: the solve holds exact zeros there.
    path = dbf_basic_at(tmp_path, -1.0 / math.sqrt(3.0))
    assert cli.cmd_verify(path) == cli.EXIT_OK
    assert re.fullmatch(r"projector_algebra +0\.0000e\+00 +1\.7321e-09 +PASS", projector_row(capsys.readouterr().out))
