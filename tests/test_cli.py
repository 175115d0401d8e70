"""Tests for the batch front end: schema, exit codes, file formats."""

import copy
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dbf
from dbf import cli
from dbf.curl_spectral import ModeTable, build_basis


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_doc() -> dict:
    return {
        "domain": {"K": 1},
        "material": {"model": "dbf", "epsilon": 1.0, "mu": 1.0, "eta": 0.5},
        "time": {"t_start": -1.0, "dt": 0.01, "n": 512, "pad_fraction": 0.25, "nu": 3.0},
        "data": {"W0": [[[1, 0, 0], "plus", 1.0, 0.0]]},
        "method": "exact",
    }


def write_doc(tmp_path, doc, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv_columns(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {name: np.array([float(r[name]) for r in rows]) for name in rows[0]}


class TestSchema:
    @pytest.mark.parametrize("mutate", [
        lambda d: d.update({"extra_section": {}}),
        lambda d: d["domain"].update({"bogus": 1}),
        lambda d: d["material"].update({"chirality": 2.0}),
        lambda d: d["time"].update({"t_end": 5.0}),
        lambda d: d["data"].update({"W1": []}),
        lambda d: d.update({"tolerances": {"unknown_tol": 1.0}}),
    ])
    def test_unknown_keys_rejected(self, tmp_path, mutate, capsys):
        doc = base_doc()
        mutate(doc)
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert "invalid scenario" in capsys.readouterr().err

    def test_missing_required_section_rejected(self, tmp_path):
        doc = base_doc()
        del doc["time"]
        with pytest.raises(cli.ScenarioError, match="schema violation"):
            cli.load_scenario_doc(write_doc(tmp_path, doc))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(cli.ScenarioError, match="not valid JSON"):
            cli.load_scenario_doc(str(path))

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli.cmd_run(str(tmp_path / "absent.json"), str(tmp_path)) == cli.EXIT_INVALID
        assert "cannot read scenario" in capsys.readouterr().err

    def test_mode_entry_rules(self, tmp_path):
        for entry, message in [
            ([[0, 0, 0], "const", 1.0, 0.0], "component index"),
            ([[1, 0, 0], "plus", 1.0, 0.0, 1], "only valid for const"),
            ([[1, 0, 0], "const", 1.0, 0.0, 0], "k = \\(0,0,0\\)"),
        ]:
            doc = base_doc()
            doc["data"]["W0"] = [entry]
            with pytest.raises(cli.ScenarioError, match=message):
                cli.build_scenario(cli.load_scenario_doc(write_doc(tmp_path, doc)))

    def test_mode_outside_table_rejected(self, tmp_path):
        doc = base_doc()
        doc["data"]["W0"] = [[[2, 0, 0], "plus", 1.0, 0.0]]
        with pytest.raises(cli.ScenarioError, match="not in table"):
            cli.build_scenario(cli.load_scenario_doc(write_doc(tmp_path, doc)))

    def test_waveform_parameter_rules(self, tmp_path):
        cases = [
            ({"waveform": "step", "amplitude": 1.0, "modes": [[[1, 0, 0], "plus", 1.0, 0.0]], "t0": 1.0},
             "no extra parameters"),
            ({"waveform": "delayed_step", "amplitude": 1.0, "modes": [[[1, 0, 0], "plus", 1.0, 0.0]]},
             "'delay'"),
            ({"waveform": "gaussian", "amplitude": 1.0, "modes": [[[1, 0, 0], "plus", 1.0, 0.0]], "t0": 1.0},
             "'sigma'"),
            ({"waveform": "gaussian", "amplitude": 1.0, "modes": [[[1, 0, 0], "plus", 1.0, 0.0]], "sigma": 0.3},
             "'t0'"),
        ]
        for src, message in cases:
            doc = base_doc()
            doc["data"]["source"] = src
            with pytest.raises(cli.ScenarioError, match=message):
                cli.build_scenario(cli.load_scenario_doc(write_doc(tmp_path, doc)))

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_rejected(self, tmp_path, text, capsys):
        path = write_doc(tmp_path, base_doc())
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().replace('"eta": 0.5', f'"eta": {text}')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_window_must_contain_zero(self, tmp_path):
        doc = base_doc()
        doc["time"]["t_start"] = 1.0
        with pytest.raises(cli.ScenarioError, match="contain t = 0"):
            cli.build_scenario(cli.load_scenario_doc(write_doc(tmp_path, doc)))

    def test_model_field_mismatch_rejected(self, tmp_path):
        doc = base_doc()
        doc["material"]["kappa0"] = [[2.0, 0.0], [0.0, 2.0]]
        with pytest.raises(cli.ScenarioError, match="does not take"):
            cli.build_scenario(cli.load_scenario_doc(write_doc(tmp_path, doc)))


class TestEcho:
    def test_normalization_is_idempotent(self, tmp_path):
        doc = cli.load_scenario_doc(write_doc(tmp_path, base_doc()))
        assert cli.normalize_scenario_doc(doc) == doc

    def test_echo_round_trip(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc())
        assert cli.cmd_run(path, str(tmp_path / "out"), echo_config=True) == cli.EXIT_OK
        out = capsys.readouterr().out
        echoed = json.loads(out[:out.rindex("}") + 1])
        assert cli.normalize_scenario_doc(echoed) == echoed
        assert echoed["tolerances"]["fp_tol"] == 1e-10


class TestRunOutput:
    def test_reruns_are_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        assert cli.cmd_run(path, str(tmp_path / "a")) == cli.EXIT_OK
        assert cli.cmd_run(path, str(tmp_path / "b")) == cli.EXIT_OK
        for name in ("scenario.csv", "scenario.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_round_trips_solution_exactly(self, tmp_path):
        doc = base_doc()
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_OK
        cols = read_csv_columns(tmp_path / "out" / "scenario.csv")
        scenario = cli.build_scenario(cli.load_scenario_doc(path))
        from dbf.dbf_model import solve_dbf
        history = solve_dbf(scenario, "exact")
        i = scenario.table.position((1, 0, 0), "plus")
        assert len(cols["t"]) == 512
        np.testing.assert_array_equal(cols["t"], history.grid.times)
        np.testing.assert_array_equal(cols["k1_0_0_plus_e_re"], history.E[:, i].real)
        np.testing.assert_array_equal(cols["k1_0_0_plus_d_im"], history.D[:, i].imag)

    @pytest.mark.parametrize("name", ["dbf_basic", "generalized_memory"])
    def test_csv_cells_are_17_digit_values(self, tmp_path, name):
        # The body must equal the per-cell format(x, ".17g") rendering, byte for byte.
        doc = cli.load_scenario_doc(f"scenarios/{name}.json")
        scenario = cli.build_scenario(doc)
        history = cli._solve(scenario, doc)
        csv_path, _ = cli.write_run_output(history, scenario, doc, str(tmp_path), name)
        from dbf.dbf_model import material_energy_series
        energy = material_energy_series(history, scenario)
        tracked = cli._tracked_indices(history, scenario)
        lines = []
        for row, t in enumerate(history.grid.times):
            cells = [t]
            for i in tracked:
                for arr in (history.E, history.H, history.D, history.B):
                    cells += [arr[row, i].real, arr[row, i].imag]
            cells.append(energy[row])
            lines.append(",".join(format(float(x), ".17g") for x in cells) + "\n")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            fh.readline()
            assert fh.read() == "".join(lines)

    def test_diagnostics_recomputable_from_csv(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_OK
        cols = read_csv_columns(tmp_path / "out" / "scenario.csv")
        payload = json.loads((tmp_path / "out" / "scenario.json").read_text())
        t = cols["t"]
        field_cols = [c for c in cols if c not in ("t", "energy")]
        causality = max(np.max(np.abs(cols[c][t < 0]), initial=0.0) for c in field_cols)
        assert abs(causality - payload["diagnostics"]["causality_sup"]) <= 1e-12
        first_causal = int(np.argmax(t >= 0))
        assert abs(cols["energy"][first_causal] - payload["energy_initial"]) <= 1e-12
        assert abs(cols["energy"][-1] - payload["energy_final"]) <= 1e-12
        from dbf.dbf_model import material_energy_series
        scenario = cli.build_scenario(cli.load_scenario_doc(path))
        e = cols["k1_0_0_plus_e_re"] + 1j * cols["k1_0_0_plus_e_im"]
        h = cols["k1_0_0_plus_h_re"] + 1j * cols["k1_0_0_plus_h_im"]
        recomputed = scenario.epsilon * np.abs(e) ** 2 + scenario.mu * np.abs(h) ** 2
        assert np.max(np.abs(recomputed - cols["energy"])) <= 1e-12

    def test_tracked_modes_listed(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        cli.cmd_run(path, str(tmp_path / "out"))
        payload = json.loads((tmp_path / "out" / "scenario.json").read_text())
        assert len(payload["tracked_modes"]) == 1
        assert payload["tracked_modes"][0]["helicity"] == "plus"
        assert payload["tracked_modes"][0]["eigenvalue"] == 1.0


class TestExitCodes:
    def test_kernel_data_exits_range(self, tmp_path, capsys):
        doc = base_doc()
        doc["material"]["eta"] = -1.0
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_RANGE
        err = capsys.readouterr().err
        assert "range condition failed" in err
        assert err.count("plus") == 1

    def test_hypothesis_failure_exits_three(self, tmp_path, capsys):
        doc = base_doc()
        doc["material"] = {"model": "generalized",
                           "kappa0": [[1.0, 0.0], [0.0, 1.0]],
                           "Mstar0": [[1.0, 0.0], [0.0, 1.0]]}
        doc["method"] = "auto"
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_HYPOTHESIS
        assert "hypothesis failed" in capsys.readouterr().err

    def test_memory_divergence_exits_four(self, tmp_path, capsys):
        doc = base_doc()
        doc["material"] = {"model": "generalized",
                           "kappa0": [[2.0, 0.0], [0.0, 2.0]],
                           "Mstar0": [[1.0, 0.0], [0.0, 1.0]],
                           "kappa1": [[[20.0, 0.0], [0.0, 20.0]]]}
        doc["method"] = "auto"
        doc["time"]["nu"] = 2.0
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_NO_CONVERGENCE
        assert "did not converge" in capsys.readouterr().err

    def test_non_contractive_exits_four(self, tmp_path, capsys):
        doc = base_doc()
        doc["method"] = "fixed_point"
        doc["time"]["nu"] = 0.5
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_NO_CONVERGENCE
        assert "cannot converge" in capsys.readouterr().err

    def test_valid_run_exits_zero(self, tmp_path):
        assert cli.cmd_run(write_doc(tmp_path, base_doc()), str(tmp_path / "out")) == cli.EXIT_OK

    @pytest.mark.parametrize("case, expected", [
        ("range", cli.EXIT_RANGE),
        ("hypothesis", cli.EXIT_HYPOTHESIS),
        ("neumann", cli.EXIT_NO_CONVERGENCE),
        pytest.param("non_finite", cli.EXIT_NO_CONVERGENCE,
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ])
    def test_subcommands_agree_on_solve_failures(self, tmp_path, case, expected):
        doc = base_doc()
        if case == "range":
            doc["material"]["eta"] = -1.0
        elif case == "non_finite":
            # A valid M0, but the solve overflows and yields NaN.
            doc["material"]["epsilon"] = 1e-300
        else:
            doc["method"] = "auto"
            doc["material"] = {"model": "generalized",
                               "kappa0": [[1.0, 0.0], [0.0, 1.0]],
                               "Mstar0": [[1.0, 0.0], [0.0, 1.0]]}
            if case == "neumann":
                doc["material"]["kappa0"] = [[2.0, 0.0], [0.0, 2.0]]
                doc["material"]["kappa1"] = [[[20.0, 0.0], [0.0, 20.0]]]
                doc["time"]["nu"] = 2.0
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == expected
        assert not (tmp_path / "out").exists()
        assert cli.cmd_verify(path) == expected
        out_dir = tmp_path / "sweep"
        cli.cmd_sweep(path, "nu", [doc["time"]["nu"]], str(out_dir))
        with open(out_dir / "sweep_nu.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["exit_code"] == str(expected)

    def test_subnormal_spectral_floor_is_invalid(self, tmp_path, capsys):
        # Passes the schema and epsilon > 0, but 1/sqrt(epsilon) overflows: the
        # scenario is rejected before any solve instead of failing after it.
        doc = base_doc()
        doc["material"]["epsilon"] = 1e-320
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert "invalid scenario" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert cli.cmd_verify(path) == cli.EXIT_INVALID
        assert cli.cmd_sweep(path, "eta", [0.3], str(tmp_path / "sweep")) == cli.EXIT_INVALID
        assert "subnormal" in capsys.readouterr().err


class TestVerify:
    def test_reference_scenario_passes(self, tmp_path, capsys):
        assert cli.cmd_verify(write_doc(tmp_path, base_doc())) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        for name in ("initial_value", "causality", "weak_residual", "linearity",
                     "energy_conservation"):
            assert name in out

    def test_shipped_scenario_passes(self, capsys):
        assert cli.cmd_verify("scenarios/dbf_basic.json") == cli.EXIT_OK
        assert "all checks passed" in capsys.readouterr().out

    def test_coarse_dt_fails_initial_value_check(self, tmp_path, capsys):
        doc = base_doc()
        # dt = 0.03 puts t = 0 between grid points, so the right-limit
        # extrapolation sees the full coarse-step curvature error.
        doc["method"] = "fixed_point"
        doc["time"] = {"t_start": -1.0, "dt": 0.03, "n": 256, "pad_fraction": 0.25, "nu": 3.0}
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_INVALID
        out = capsys.readouterr().out
        assert "FAIL: initial_value" in out
        assert "initial_value" in out.splitlines()[1]

    def test_zero_data_scenario_uses_uniqueness_probe(self, tmp_path, capsys):
        doc = base_doc()
        doc["data"]["W0"] = []
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "uniqueness_energy" in out
        assert "linearity" not in out

    def test_unsolvable_scenario_fails(self, tmp_path, capsys):
        doc = base_doc()
        doc["material"]["eta"] = -1.0
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_RANGE
        assert "FAIL: solve" in capsys.readouterr().err


class TestSweep:
    def eta_doc(self):
        doc = base_doc()
        doc["time"] = {"t_start": -1.0, "dt": 0.02, "n": 2048, "pad_fraction": 0.25, "nu": 3.0}
        return doc

    def test_eta_sweep_recovers_rotation_rates(self, tmp_path, capsys):
        path = write_doc(tmp_path, self.eta_doc())
        out_dir = tmp_path / "sweep"
        assert cli.cmd_sweep(path, "eta", [0.4, 0.5, 0.6], str(out_dir)) == cli.EXIT_OK
        with open(out_dir / "sweep_eta.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, eta in zip(rows, [0.4, 0.5, 0.6]):
            expected = 1.0 / (1.0 + eta)
            assert float(row["omega_k1_0_0_plus"]) == pytest.approx(expected, rel=0.01)
            assert row["exit_code"] == "0"

    def test_nu_sweep_iteration_counts_decrease(self, tmp_path):
        doc = base_doc()
        doc["method"] = "fixed_point"
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "sweep"
        assert cli.cmd_sweep(path, "nu", [2.0, 4.0, 8.0], str(out_dir)) == cli.EXIT_OK
        with open(out_dir / "sweep_nu.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        iters = [int(r["iterations"]) for r in rows]
        assert iters[0] > iters[1] > iters[2]

    def test_failures_recorded_and_sweep_continues(self, tmp_path, capsys):
        path = write_doc(tmp_path, self.eta_doc())
        out_dir = tmp_path / "sweep"
        assert cli.cmd_sweep(path, "eta", [-1.0, 0.5], str(out_dir)) == cli.EXIT_OK
        with open(out_dir / "sweep_eta.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["exit_code"] == str(cli.EXIT_RANGE)
        assert rows[0]["weak_residual"] == ""
        assert rows[1]["exit_code"] == "0"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_failed_exits_with_first_failure_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["material"]["epsilon"] = 1e-300
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "run")) == cli.EXIT_NO_CONVERGENCE
        out_dir = tmp_path / "sweep"
        assert cli.cmd_sweep(path, "eta", [0.3, -1.0], str(out_dir)) == cli.EXIT_NO_CONVERGENCE
        with open(out_dir / "sweep_eta.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["exit_code"] for r in rows] == [str(cli.EXIT_NO_CONVERGENCE), str(cli.EXIT_RANGE)]
        assert cli.cmd_sweep(path, "eta", [-1.0, 0.3], str(out_dir)) == cli.EXIT_RANGE

    def test_empty_value_list(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        out_dir = tmp_path / "sweep"
        assert cli.cmd_sweep(path, "eta", [], str(out_dir)) == cli.EXIT_OK
        lines = (out_dir / "sweep_eta.csv").read_text().splitlines()
        assert len(lines) == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, value, capsys):
        path = write_doc(tmp_path, base_doc())
        assert cli.cmd_sweep(path, "eta", [value], str(tmp_path / "sweep")) == cli.EXIT_INVALID
        assert "finite" in capsys.readouterr().err

    def test_invalid_parameter_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc())
        assert cli.cmd_sweep(path, "epsilon", [1.0], str(tmp_path)) == cli.EXIT_INVALID


class TestBasis:
    def test_emitted_table_round_trips(self, tmp_path):
        out = tmp_path / "basis.json"
        assert cli.cmd_basis(2, str(out)) == cli.EXIT_OK
        parsed = ModeTable.from_json(out.read_text())
        reference = build_basis(2)
        assert parsed.n_modes == reference.n_modes == 99
        assert [m.key() for m in parsed.modes] == [m.key() for m in reference.modes]
        np.testing.assert_array_equal(parsed.eigenvalues, reference.eigenvalues)


class TestMain:
    def test_run_dispatch(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == cli.EXIT_OK

    def test_verify_dispatch(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        assert cli.main(["verify", path]) == cli.EXIT_OK

    def test_basis_dispatch(self, tmp_path):
        out = tmp_path / "b.json"
        assert cli.main(["basis", "--K", "1", "-o", str(out)]) == cli.EXIT_OK
        assert ModeTable.from_json(out.read_text()).n_modes == 21

    def test_sweep_dispatch(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        code = cli.main(["sweep", path, "--param", "nu", "--values", "3.0",
                         "-o", str(tmp_path / "s")])
        assert code == cli.EXIT_OK


# Runs in a fresh interpreter: prints the scipy modules loaded after importing
# the CLI, then the exit code and scipy modules after each `dbf run`.
STARTUP_PROBE = """
import json, sys
from dbf import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {"import": scipy_modules(), "runs": []}
for path, out in zip(sys.argv[1::2], sys.argv[2::2]):
    code = cli.main(["run", path, "-o", out])
    report["runs"].append({"code": code, "scipy": scipy_modules()})
print(json.dumps(report))
"""


def probe_startup(runs: list) -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dbf.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    args = [str(a) for pair in runs for a in pair]
    result = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *args], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestStartup:
    """Only the exponential integrator needs scipy, so no other path loads it."""

    def test_import_and_solves_load_no_scipy(self, tmp_path):
        report = probe_startup([
            (os.path.join(ROOT, "scenarios", "dbf_basic.json"), tmp_path / "exact"),
            (os.path.join(ROOT, "scenarios", "generalized_memory.json"), tmp_path / "memory"),
        ])
        assert report["import"] == []
        assert report["runs"] == [{"code": cli.EXIT_OK, "scipy": []}] * 2
        assert (tmp_path / "memory" / "generalized_memory.csv").exists()

    def test_integrator_imports_expm_on_demand(self, tmp_path):
        doc = base_doc()
        doc["method"] = "integrator"
        path = write_doc(tmp_path, doc)
        report = probe_startup([(path, tmp_path / "out")])
        assert report["import"] == []
        assert report["runs"][0]["code"] == cli.EXIT_OK
        assert "scipy.linalg" in report["runs"][0]["scipy"]
