"""Tests for the batch front end: schema, exit codes, file formats."""

import copy
import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbf
import oracles
from dbf import cli
from dbf.curl_spectral import build_basis


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_doc() -> dict:
    return {
        "domain": {"K": 1},
        "material": {"model": "dbf", "epsilon": 1.0, "mu": 1.0, "eta": 0.5},
        "time": {"t_start": -1.0, "dt": 0.01, "n": 512, "pad_fraction": 0.25, "nu": 3.0},
        "data": {"W0": [[[1, 0, 0], "plus", 1.0, 0.0]]},
        "method": "exact",
    }


MEMORY_LAW = {"model": "generalized", "kappa0": [[2.5, 0.0], [0.0, 2.5]], "kappa1": [[[0.4, 0.0], [0.0, 0.4]]],
              "Mstar0": [[1.0, 0.0], [0.0, 0.5]]}


def memory_auto_doc() -> dict:
    """K = 2 memory law on the memory benchmark grid, with jumps on eight modes of four eigenvalues."""
    modes = [[[1, 0, 0], "plus"], [[1, 0, 0], "minus"], [[1, 1, 0], "plus"], [[0, 1, -1], "minus"],
             [[1, 1, 1], "plus"], [[-1, 1, 1], "minus"], [[2, 0, 0], "plus"], [[0, 0, 2], "minus"]]
    w0 = [[k, hel, [0.3 + 0.1 * i, -0.2], [0.1, 0.5 - 0.07 * i]] for i, (k, hel) in enumerate(modes)]
    return {"domain": {"K": 2}, "material": MEMORY_LAW,
            "time": {"t_start": -0.05, "dt": 0.0005, "n": 512, "pad_fraction": 0.25, "nu": 9.0},
            "data": {"W0": w0}, "method": "auto"}


def cross_auto_doc() -> dict:
    """K = 1 memory law with k_cross and a jump on every mode: seven 6x6 wavevector blocks."""
    ks = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    modes = [[k, hel] for k in ks for hel in ("plus", "minus", "grad")]
    w0 = [[k, hel, [0.5 * (-1) ** i, 0.1 * (i % 5)], [0.05 * i - 0.4, 0.3]] for i, (k, hel) in enumerate(modes)]
    w0 += [[[0, 0, 0], "const", [0.4, 0.0], [0.0, 0.3], c] for c in range(3)]
    return {"domain": {"K": 1}, "material": dict(MEMORY_LAW, k_cross=[0.3, 0.1, 0.2]),
            "time": {"t_start": -0.1, "dt": 0.001, "n": 512, "pad_fraction": 0.25, "nu": 3.0},
            "data": {"W0": w0}, "method": "auto"}


def loaded_memory_doc(nu: float, **material) -> dict:
    """K = 2 memory law at dt = 0.01 with a seeded jump on every mode."""
    rng = np.random.default_rng(5)
    w0 = [[list(m.k), m.helicity] + [[float(v) for v in rng.uniform(-0.7, 0.7, 2)] for _ in range(2)]
          + ([m.component_index] if m.component_index is not None else []) for m in build_basis(2).modes]
    return {"domain": {"K": 2}, "material": dict(MEMORY_LAW, **material),
            "time": {"t_start": -0.05, "dt": 0.01, "n": 900, "pad_fraction": 0.25, "nu": nu},
            "data": {"W0": w0}, "method": "auto"}


def shipped_doc(name: str) -> dict:
    with open(os.path.join(ROOT, "scenarios", name), encoding="utf-8") as fh:
        return json.load(fh)


def package_env() -> dict:
    """The environment with this package first on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dbf.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def assert_basis_file(path, K: int) -> None:
    """The file holds build_basis(K): its K, mode keys and eigenvalues."""
    got_K, keys, eigenvalues = oracles.basis_doc(path.read_text())
    reference = build_basis(K)
    assert got_K == K
    assert keys == [m.key() for m in reference.modes]
    np.testing.assert_array_equal(eigenvalues, reference.eigenvalues)


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

    def test_integral_floats_solve_like_integers(self, tmp_path):
        # Draft 2020-12 counts 1.0 as an integer, so the schema accepts it; the
        # solve must then treat it exactly as 1.
        doc = base_doc()
        doc["data"]["W0"].append([[0, 0, 0], "const", 0.5, 0.0, 2])
        floated = copy.deepcopy(doc)
        floated["domain"]["K"] = 1.0
        floated["time"]["n"] = 512.0
        floated["data"]["W0"] = [[[1.0, 0.0, 0.0], "plus", 1.0, 0.0], [[0.0, 0.0, 0.0], "const", 0.5, 0.0, 2.0]]
        assert '"K": 1.0' in json.dumps(floated)
        for name, d in (("ints", doc), ("floats", floated)):
            assert cli.cmd_run(write_doc(tmp_path, d, "scenario.json"), str(tmp_path / name)) == cli.EXIT_OK
        for name in ("scenario.csv", "scenario.json"):
            assert (tmp_path / "ints" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()

    @pytest.mark.parametrize("where", ["epsilon", "W0"])
    def test_oversized_integer_rejected(self, tmp_path, where, capsys):
        # A 401-digit integer literal is no float; every command must reject it, not overflow.
        path = write_doc(tmp_path, base_doc())
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        huge = "1" + "0" * 400
        raw = raw.replace('"epsilon": 1.0', f'"epsilon": {huge}') if where == "epsilon" else raw.replace(
            '"plus", 1.0, 0.0]', f'"plus", {huge}, 0.0]')
        assert huge in raw
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert cli.cmd_verify(path) == cli.EXIT_INVALID
        assert cli.cmd_sweep(path, "nu", [3.0], str(tmp_path / "sweep")) == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("invalid scenario") == 3
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


    @pytest.mark.parametrize("key", ["epsilon", "mu", "eta"])
    def test_dbf_material_needs_every_constant(self, tmp_path, key, capsys):
        doc = shipped_doc("dbf_basic.json")
        del doc["material"][key]
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: dbf material needs ") and repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_method_outside_the_model_rejected(self, tmp_path, capsys):
        doc = base_doc()
        doc["method"] = "auto"
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert cli.cmd_verify(path) == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("invalid scenario: method 'auto' is not valid for the dbf model") == 2
        assert not (tmp_path / "out").exists()

    def test_zero_eta_rejected(self, tmp_path, capsys):
        doc = shipped_doc("dbf_basic.json")
        doc["material"]["eta"] = 0
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert cli.cmd_verify(path) == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("invalid scenario: eta must be nonzero") == 2
        assert not (tmp_path / "out").exists()


def schema_keywords(schema: dict) -> set:
    """Every keyword used in schema and its subschemas."""
    found = set(schema)
    subschemas = list(schema.get("properties", {}).values()) + schema.get("prefixItems", [])
    if isinstance(schema.get("items"), dict):
        subschemas.append(schema["items"])
    for sub in subschemas:
        found |= schema_keywords(sub)
    return found


def node_paths(node, path=()) -> list:
    """Paths of node and of everything inside it."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [path] + [p for key, child in children for p in node_paths(child, path + (key,))]


def get_node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def source_doc() -> dict:
    doc = memory_auto_doc()
    doc["material"] = dict(MEMORY_LAW, Mstar1=[[[0.1, 0.0], [0.0, [0.1, 0.2]]]], k_cross=[0.0, 0.1, 1])
    doc["data"]["source"] = {"waveform": "gaussian", "amplitude": [1.0, -0.5], "t0": 0.2, "sigma": 0.05,
                             "modes": [[[1, 0, 0], "plus", 1.0, [0.0, 1.0]], [[0, 0, 0], "const", 0.2, 0.1, 1]]}
    doc["tolerances"] = {"fp_tol": 1e-9, "max_iter": 20, "resid_tol": 1e-5}
    return doc


# Replacements for one node of a valid document, one per rule of the schema.
MUTATIONS = {
    "wrong_type": lambda node: "x" if not isinstance(node, str) else 1,
    "null": lambda node: None,
    "bool": lambda node: True,
    "integral_float": lambda node: float(node) if type(node) is int else node,
    "out_of_range": lambda node: -1 if type(node) in (int, float) else node,
    "zero": lambda node: 0 if type(node) in (int, float) else node,
    "one": lambda node: 1.0 if type(node) in (int, float) else node,
    "bad_enum": lambda node: "bogus" if isinstance(node, str) else node,
    "extra_key": lambda node: dict(node, bogus=1) if isinstance(node, dict) else node,
    "missing_key": lambda node: dict(list(node.items())[1:]) if isinstance(node, dict) else node,
    "one_item": lambda node: node[:1] if isinstance(node, list) else node,
    "three_items": lambda node: node[:3] if isinstance(node, list) else node,
    "six_items": lambda node: (node + [0, 0, 0, 0, 0, 0])[:6] if isinstance(node, list) else node,
    "empty": lambda node: type(node)() if isinstance(node, (list, dict)) else node,
}


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from([base_doc, memory_auto_doc, cross_auto_doc, source_doc]))())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(node_paths(doc)))
        new = MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))](get_node(doc, path))
        if path:
            get_node(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    return doc


class TestSchemaChecker:
    """The built-in checker against jsonschema, the reference implementation of draft 2020-12."""

    @settings(max_examples=400)
    @given(mutated_docs())
    def test_agrees_with_jsonschema(self, doc):
        from jsonschema import Draft202012Validator
        errors = sorted(Draft202012Validator(cli.SCENARIO_SCHEMA).iter_errors(doc),
                        key=lambda e: list(e.absolute_path))
        found = cli._violation(doc)
        assert (found is None) == (not errors)
        if errors:
            assert list(found[0]) == list(errors[0].absolute_path)

    @pytest.mark.parametrize("path, value, valid", [
        (("domain", "K"), 0, True), (("domain", "K"), -1, False), (("domain", "K"), 1.0, True),
        (("domain", "K"), 1.5, False), (("domain", "K"), True, False),
        (("time", "n"), 2, True), (("time", "n"), 1, False), (("time", "n"), 2.0, True),
        (("time", "dt"), 0, False), (("time", "dt"), 1e-300, True), (("material", "epsilon"), 0.0, False),
        (("time", "pad_fraction"), 0, True), (("time", "pad_fraction"), 1, False), (("time", "pad_fraction"), -0.1, False),
        (("tolerances", "max_iter"), 1, True), (("tolerances", "max_iter"), 0, False),
        (("data", "W0", 0, 4), 2, True), (("data", "W0", 0, 4), 3, False), (("data", "W0", 0, 4), -1, False),
        (("data", "W0", 0, 2), [1.0, False], False), (("data", "W0", 0, 2), [1, 2], True),
        (("data", "source", "delay"), 0, True), (("data", "source", "delay"), -1e-9, False),
        (("material", "model"), "DBF", False), (("method",), "fixed_point", True),
    ])
    def test_bounds_agree_with_jsonschema(self, path, value, valid):
        from jsonschema import Draft202012Validator
        doc = base_doc()
        doc["tolerances"] = {"max_iter": 5}
        doc["data"]["W0"] = [[[0, 0, 0], "const", 1.0, 0.0, 0]]
        doc["data"]["source"] = {"waveform": "delayed_step", "amplitude": 1.0, "modes": [], "delay": 0.5}
        get_node(doc, path[:-1])[path[-1]] = value
        assert Draft202012Validator(cli.SCENARIO_SCHEMA).is_valid(doc) == valid
        assert (cli._violation(doc) is None) == valid

    def test_schema_uses_only_checked_keywords(self):
        checked = {"type", "enum", "properties", "required", "additionalProperties", "items", "prefixItems",
                   "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
        assert schema_keywords(cli.SCENARIO_SCHEMA) - {"$schema"} <= checked

    # One violation per keyword inside a mode entry: the edit of the entry, the path below it and the message.
    ENTRY_VIOLATIONS = {
        "type": (lambda e: "plus", "", "'plus' is not of type 'array'"),
        "minItems": (lambda e: e[:3], "", "{entry!r} has 3 items, outside the allowed count"),
        "maxItems": (lambda e: e + [0, 0, 0], "", "{entry!r} has 8 items, outside the allowed count"),
        "k/type": (lambda e: [7] + e[1:], "0", "7 is not of type 'array'"),
        "k/items/type": (lambda e: [[1, 0.5, 0]] + e[1:], "0/1", "0.5 is not of type 'integer'"),
        "k/minItems": (lambda e: [[1, 0]] + e[1:], "0", "[1, 0] has 2 items, outside the allowed count"),
        "k/maxItems": (lambda e: [[1, 0, 0, 0]] + e[1:], "0", "[1, 0, 0, 0] has 4 items, outside the allowed count"),
        "helicity/enum": (lambda e: [e[0], "bogus"] + e[2:], "1",
                          "'bogus' is not one of ['plus', 'minus', 'grad', 'const']"),
        "e/type": (lambda e: e[:2] + ["1.0"] + e[3:], "2", "'1.0' is not of type ['number', 'array']"),
        "e/items/type": (lambda e: e[:2] + [[1.0, True]] + e[3:], "2/1", "True is not of type 'number'"),
        "e/minItems": (lambda e: e[:2] + [[1.0]] + e[3:], "2", "[1.0] has 1 items, outside the allowed count"),
        "h/maxItems": (lambda e: e[:3] + [[1.0, 0.0, 2.0]] + e[4:], "3",
                       "[1.0, 0.0, 2.0] has 3 items, outside the allowed count"),
        "component/type": (lambda e: e[:4] + [0.5], "4", "0.5 is not of type 'integer'"),
        "component/minimum": (lambda e: e[:4] + [-1], "4", "-1 breaks minimum 0"),
        "component/maximum": (lambda e: e[:4] + [3], "4", "3 breaks maximum 2"),
    }

    @pytest.mark.parametrize("where", ["data/W0", "data/source/modes"])
    @pytest.mark.parametrize("keyword", sorted(ENTRY_VIOLATIONS))
    def test_first_violation_inside_a_mode_entry(self, tmp_path, where, keyword):
        edit, below, message = self.ENTRY_VIOLATIONS[keyword]
        entries = [[[1, 0, 0], "plus", 1.0, 0.0], [[0, 0, 0], "const", 0.5, [0.0, 1.0], 2]]
        entries[1] = entry = edit(entries[1])
        doc = base_doc()
        if where == "data/W0":
            doc["data"]["W0"] = entries
        else:
            doc["data"]["source"] = {"waveform": "step", "amplitude": 1.0, "modes": entries}
        with pytest.raises(cli.ScenarioError) as raised:
            cli.load_scenario_doc(write_doc(tmp_path, doc))
        path = "/".join(part for part in (where, "1", below) if part)
        assert str(raised.value).endswith(f"schema violation at {path}: {message.format(entry=entry)}")

    def test_reports_least_path(self, tmp_path):
        doc = base_doc()
        doc["time"]["n"] = True
        doc["data"]["W0"][0][2] = [1.0]
        doc["domain"]["bogus"] = 1
        with pytest.raises(cli.ScenarioError, match="schema violation at data/W0/0/2: "):
            cli.load_scenario_doc(write_doc(tmp_path, doc))


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
        from dbf.dbf_model import solve
        history = solve(scenario, "exact")
        i = scenario.table.position((1, 0, 0), "plus")
        assert len(cols["t"]) == 512
        np.testing.assert_array_equal(cols["t"], history.grid.times)
        np.testing.assert_array_equal(cols["k1_0_0_plus_e_re"], history.E[:, i].real)
        np.testing.assert_array_equal(cols["k1_0_0_plus_d_im"], history.D[:, i].imag)

    @pytest.mark.parametrize("name, tiny", [pytest.param("dbf_basic", False, id="dbf_basic"),
                                            pytest.param("generalized_memory", False, id="generalized_memory"),
                                            pytest.param("dbf_basic", True, id="dbf_basic_tiny_w0")])
    def test_csv_cells_are_17_digit_values(self, tmp_path, name, tiny):
        # The body must equal the per-cell format(x, ".17g") rendering, byte for byte.  With a W0
        # entry of 1e-9 the CSV holds cells below 1e-6 that the writer leaves to Python's format.
        doc = cli.load_scenario_doc(f"scenarios/{name}.json")
        if tiny:
            doc["data"]["W0"][1][2] = 1e-9
        scenario = cli.build_scenario(doc)
        history = cli._solve(scenario, doc)
        csv_path, _ = cli.write_run_output(history, doc, str(tmp_path), name)
        energy = oracles.material_energy_series(history, scenario)
        lines = []
        for row, t in enumerate(history.grid.times):
            cells = [t]
            for i in oracles.tracked_indices(history, scenario):
                for arr in (history.E, history.H, history.D, history.B):
                    cells += [arr[row, i].real, arr[row, i].imag]
            cells.append(energy[row])
            lines.append(",".join(format(float(x), ".17g") for x in cells) + "\n")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            fh.readline()
            assert fh.read() == "".join(lines)
        if tiny:
            assert any(0 < abs(float(cell)) < 1e-6 for line in lines for cell in line.split(","))

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
        scenario = cli.build_scenario(cli.load_scenario_doc(path))
        e = cols["k1_0_0_plus_e_re"] + 1j * cols["k1_0_0_plus_e_im"]
        h = cols["k1_0_0_plus_h_re"] + 1j * cols["k1_0_0_plus_h_im"]
        recomputed = scenario.epsilon * np.abs(e) ** 2 + scenario.mu * np.abs(h) ** 2
        assert np.max(np.abs(recomputed - cols["energy"])) <= 1e-12

    def test_repeated_source_mode_matches_dense_reference(self, tmp_path):
        # Entries of one mode add up in file order; a mode whose entries cancel loads nothing.
        doc = base_doc()
        doc["time"]["n"] = 256
        doc["data"]["source"] = {"waveform": "step", "amplitude": [0.4, -0.1], "modes": [
            [[0, 0, 1], "plus", 1.0, 0.0], [[1, 0, 0], "minus", [0.2, -0.1], 0.5],
            [[0, 0, 1], "plus", -0.25, [0.0, 0.3]], [[0, 1, 0], "grad", 0.7, 0.0],
            [[1, 0, 0], "minus", -0.2, 0.0], [[0, 1, 0], "grad", -0.7, 0.0], [[0, 0, 0], "const", 0.1, 0.2, 2]]}
        s = cli.build_scenario(cli.normalize_scenario_doc(doc))
        wave = np.where(np.arange(s.grid.n_samples) >= s.grid.zero_index, 1.0, 0.0)
        e, h = oracles.dense_source(s.table, wave, *(doc["data"]["source"][key] for key in ("amplitude", "modes")))
        loaded = np.nonzero(np.any(e != 0, axis=0) | np.any(h != 0, axis=0))[0]
        assert len(loaded) == 3 and s.table.position((0, 1, 0), "grad") not in loaded
        assert s.source_J.modes.tolist() == loaded.tolist()
        assert s.source_J.samples.tobytes() == np.stack([e[:, loaded], h[:, loaded]], axis=-1).tobytes()
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_OK
        with open(tmp_path / "out" / "scenario.json", encoding="utf-8") as fh:
            tracked = {(tuple(m["k"]), m["helicity"]) for m in json.load(fh)["tracked_modes"]}
        assert ((0, 1, 0), "grad") not in tracked and ((0, 0, 0), "const") in tracked

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

    def test_window_without_sample_at_zero_exits_invalid(self, tmp_path, capsys):
        # The samples straddle t = 0 (-0.003 and +0.002), so no row can hold the
        # jump: the scenario is rejected rather than solved with an error at 0+.
        doc = shipped_doc("dbf_basic.json")
        doc["time"]["t_start"], doc["time"]["dt"] = -0.013, 0.005
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert cli.cmd_verify(path) == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("contain t = 0") == 2
        assert not (tmp_path / "out").exists()

    def test_exact_on_memory_law_names_the_method(self, tmp_path, capsys):
        doc = shipped_doc("generalized_memory.json")
        doc["method"] = "exact"
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "method 'exact'" in err and "not a rotation" in err and "'auto' or 'integrator'" in err
        assert "coupling matrix" not in err

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["dbf_basic.json", "generalized_memory.json"])
    def test_overflowing_datum_exits_four(self, tmp_path, capsys, name):
        # A finite datum near the largest double: the solve overflows, and no CSV is written.
        doc = shipped_doc(name)
        doc["data"]["W0"][0][2] = 1e308
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_NO_CONVERGENCE
        assert "solution is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("datum, source, key", [(1e160, False, "energy"), (1e308, True, "weak_residual")])
    def test_overflowing_energy_exits_four(self, tmp_path, capsys, datum, source, key):
        # The fields of W0 1e160 are finite but their energy overflows, and JSON has no infinity: run writes
        # nothing.  A datum that overflows the solve itself is still reported by its diagnostics.
        doc = shipped_doc("dbf_basic.json")
        if not source:
            del doc["data"]["source"]
        doc["data"]["W0"][0][2] = datum
        assert cli.cmd_run(write_doc(tmp_path, doc), str(tmp_path / "out")) == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == f"solution is not finite: non-finite values in {key}\n"
        assert not (tmp_path / "out").exists()

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


class TestFileErrors:
    """A file that cannot be read or written exits 1 through EXIT_TABLE, not with a traceback."""

    def test_directory_as_scenario(self, tmp_path, capsys):
        assert cli.cmd_run(str(tmp_path), str(tmp_path / "out")) == cli.EXIT_INVALID
        assert cli.cmd_verify(str(tmp_path)) == cli.EXIT_INVALID
        assert cli.cmd_sweep(str(tmp_path), "nu", [3.0], str(tmp_path / "sweep")) == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("cannot read or write file: ") == 3
        assert not (tmp_path / "out").exists() and not (tmp_path / "sweep").exists()

    def test_run_into_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        assert cli.cmd_run(write_doc(tmp_path, base_doc()), str(taken)) == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("cannot read or write file: ")
        assert taken.read_text(encoding="utf-8") == "kept"

    def test_sweep_into_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept", encoding="utf-8")
        assert cli.cmd_sweep(write_doc(tmp_path, base_doc()), "nu", [3.0], str(taken)) == cli.EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("value 3.0: cannot read or write file: ")
        assert err[-1].startswith("cannot read or write file: ")
        assert taken.read_text(encoding="utf-8") == "kept"

    def test_basis_into_directory(self, tmp_path, capsys):
        assert cli.cmd_basis(1, str(tmp_path)) == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("cannot read or write file: ")


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
        # dt = 0.03 puts t = 0 between grid points, where no solver can place
        # the jump, so the scenario is rejected before it solves.
        doc["method"] = "fixed_point"
        doc["time"] = {"t_start": -1.0, "dt": 0.03, "n": 256, "pad_fraction": 0.25, "nu": 3.0}
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_INVALID
        assert "contain t = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("make_doc", [base_doc, memory_auto_doc, cross_auto_doc], ids=lambda f: f.__name__)
    def test_zero_data_scenario_uses_uniqueness_probe(self, tmp_path, capsys, make_doc):
        # Zero data must give the zero field; uniqueness_energy reads its largest |E|, |H|, |D|, |B|
        # for either material model, and every solve path gives exact zeros.
        doc = make_doc()
        doc["data"]["W0"] = []
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_OK
        out = capsys.readouterr().out
        line = next(row for row in out.splitlines() if row.startswith("uniqueness_energy"))
        assert line.split()[1:] == ["0.0000e+00", "1.0000e-12", "PASS"]
        assert "linearity" not in out

    def test_stray_field_fails_uniqueness(self, tmp_path, capsys, monkeypatch):
        # A field of 1e-7 at t = 0 under zero data weighs about 3e-16 in the weighted material
        # energy, well inside energy_tol; its size does not.
        original = cli.field_pieces

        def stray(scenario, method, **kwargs):
            yield from original(scenario, method, **kwargs)  # nothing under zero data
            E = np.zeros((scenario.grid.n_samples, 1), dtype=np.complex128)
            E[scenario.grid.zero_index, 0] = 1e-7
            yield slice(0, 1), E, *np.zeros((3,) + E.shape, dtype=np.complex128)

        monkeypatch.setattr(cli, "field_pieces", stray)
        doc = base_doc()
        doc["data"]["W0"] = []
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_INVALID
        out = capsys.readouterr().out
        assert "FAIL: uniqueness_energy" in out
        line = next(row for row in out.splitlines() if row.startswith("uniqueness_energy"))
        assert line.split()[1:] == ["1.0000e-07", "1.0000e-12", "FAIL"]

    def test_tiny_data_are_not_zero_data(self, tmp_path, capsys):
        # |W0|^2 = 1e-340 underflows to 0, which read as zero data: uniqueness_energy printed the datum
        # itself, 1.0000e-170, and passed, and linearity was skipped.
        doc = shipped_doc("dbf_basic.json")
        del doc["data"]["source"]
        doc["data"]["W0"] = [[[0, 0, 1], "plus", 1e-170, 0.0]]
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_OK
        rows = [row.split()[0] for row in capsys.readouterr().out.splitlines()]
        assert "linearity" in rows and "uniqueness_energy" not in rows

    def test_huge_data_raise_no_warning(self, tmp_path, capsys):
        # |W0|^2 = 1e320 overflowed in the zero-data test, with numpy's "overflow encountered in dot".
        doc = shipped_doc("dbf_basic.json")
        doc["data"]["W0"][0][2] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_INVALID
        out = capsys.readouterr().out
        assert "FAIL: weak_residual" in out and "linearity" in out

    def test_overflowing_energy_reads_inf(self, tmp_path, capsys):
        # |E|^2 overflows: the energy sums warned "overflow encountered in square" and the drift, inf - inf,
        # read nan with "invalid value encountered in subtract".
        doc = shipped_doc("dbf_basic.json")
        del doc["data"]["source"]
        doc["data"]["W0"][0][2] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_INVALID
        line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("energy_conservation"))
        assert line.split()[1:] == ["inf", "1.0000e-12", "FAIL"]

    @pytest.mark.parametrize("make_doc", [memory_auto_doc, cross_auto_doc])
    def test_auto_memory_law_passes_linearity(self, tmp_path, capsys, make_doc):
        # A Picard solve stopped at fp_tol does not double exactly with its data
        # (about 3e-10 on both documents); auto solves the discrete system
        # exactly, so the default linearity_tol of 1e-12 holds.
        assert cli.cmd_verify(write_doc(tmp_path, make_doc())) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        line = next(row for row in out.splitlines() if row.startswith("linearity"))
        assert line.split()[2] == "1.0000e-12"

    def test_auto_causality_tolerance_is_not_widened(self, tmp_path, capsys):
        doc = memory_auto_doc()
        doc["tolerances"] = {"caus_tol": 1e-10, "fp_tol": 1e-6}
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_OK
        line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("causality"))
        assert line.split()[1:] == ["0.0000e+00", "1.0000e-10", "PASS"]

    def test_delayed_step_source_passes(self, tmp_path, capsys):
        # The exact solution of a delayed step was right; the residual used to
        # run Simpson across the source's jump at t = delay (8.7e-5).
        doc = shipped_doc("dbf_basic.json")
        doc["data"]["source"].update(waveform="delayed_step", delay=0.5)
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_OK
        line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("weak_residual"))
        assert float(line.split()[1]) <= 1e-7

    def test_delay_off_the_grid_exits_invalid(self, tmp_path, capsys):
        # The step used to move silently to the next sample (0.51), and verify exited 0.
        doc = shipped_doc("dbf_basic.json")
        doc["data"]["source"].update(waveform="delayed_step", delay=0.5055)
        path = write_doc(tmp_path, doc)
        assert cli.cmd_run(path, str(tmp_path / "out")) == cli.EXIT_INVALID
        assert cli.cmd_verify(path) == cli.EXIT_INVALID
        assert capsys.readouterr().err.count("must be a multiple of dt") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("nu, material", [(3.0, {}), (8.0, {"k_cross": [0.3, 0.1, 0.2]})],
                             ids=["memory_nu3", "k_cross_nu8"])
    def test_memory_law_at_coarse_dt_passes(self, tmp_path, capsys, nu, material):
        # At dt = 0.01 a second-order step left a weak residual of about 1e-4;
        # the exact propagator meets resid_tol.
        assert cli.cmd_verify(write_doc(tmp_path, loaded_memory_doc(nu, **material))) == cli.EXIT_OK
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["auto", "integrator"])
    @pytest.mark.parametrize("material", [{}, {"k_cross": [0.3, 0.1, 0.2]}], ids=["memory", "k_cross"])
    def test_delayed_step_into_memory_law_passes(self, tmp_path, capsys, method, material):
        # The propagator holds a step from its onset sample on, as the residual
        # integrates it; ramping into the onset over one cell read 1.29e-5 on both laws.
        doc = shipped_doc("generalized_memory.json")
        doc["method"] = method
        doc["material"].update(material)
        doc["data"]["source"] = {"waveform": "delayed_step", "amplitude": 0.4, "delay": 0.5,
                                 "modes": [[[1, 0, 0], "plus", 1.0, 0.0]]}
        assert cli.cmd_verify(write_doc(tmp_path, doc)) == cli.EXIT_OK
        line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("weak_residual"))
        assert float(line.split()[1]) <= 1e-12

    def test_fixed_point_causality_tolerance_is_not_widened(self, tmp_path, capsys):
        # Picard writes exact zeros before t = 0, so fixed_point is held to caus_tol as given.
        doc = shipped_doc("generalized_memory.json")
        doc["method"], doc["tolerances"] = "fixed_point", {"caus_tol": 1e-10, "fp_tol": 1e-8}
        cli.cmd_verify(write_doc(tmp_path, doc))
        line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("causality"))
        assert line.split()[1:] == ["0.0000e+00", "1.0000e-10", "PASS"]

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

    def test_dt_sweep_solves_each_step(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        out_dir = tmp_path / "sweep"
        assert cli.cmd_sweep(path, "dt", [0.01, 0.005], str(out_dir)) == cli.EXIT_OK
        with open(out_dir / "sweep_dt.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["value"]), r["exit_code"]) for r in rows] == [(0.01, "0"), (0.005, "0")]
        for pos, dt in enumerate([0.01, 0.005]):
            with open(out_dir / f"dt_{pos:03d}" / f"dt_{pos:03d}.json", encoding="utf-8") as fh:
                assert json.load(fh)["grid"]["dt"] == dt
        # The rotation rate of the one loaded mode does not depend on the step.
        assert float(rows[0]["omega_k1_0_0_plus"]) == pytest.approx(float(rows[1]["omega_k1_0_0_plus"]), rel=0.01)

    def test_eta_sweep_of_generalized_law_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, memory_auto_doc())
        assert cli.cmd_sweep(path, "eta", [0.5], str(tmp_path / "sweep")) == cli.EXIT_INVALID
        assert "eta sweeps require the dbf material model" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


class TestBasis:
    def test_emitted_table_round_trips(self, tmp_path):
        out = tmp_path / "basis.json"
        assert cli.cmd_basis(2, str(out)) == cli.EXIT_OK
        assert build_basis(2).n_modes == 99
        assert_basis_file(out, 2)

    def test_output_directory_is_created(self, tmp_path, capsys):
        # As run and sweep do: a missing directory is created, not reported as an unreadable scenario.
        out = tmp_path / "missing" / "b.json"
        assert cli.main(["basis", "--K", "1", "-o", str(out)]) == cli.EXIT_OK
        assert_basis_file(out, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("K, message", [(0, "K must be >= 1"), (40, "exceeding the budget of 4096")])
    def test_invalid_truncation_exits_through_exit_table(self, tmp_path, K, message, capsys):
        out = tmp_path / "basis.json"
        assert cli.main(["basis", "--K", str(K), "-o", str(out)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid scenario: ") and message in err[0]
        assert not out.exists()

    def test_huge_truncation_is_rejected_before_enumeration(self, tmp_path):
        # Enumerating (2K + 1)^3 lattice points for K = 100000 would run for hours.
        doc = base_doc()
        doc["domain"]["K"] = 100000
        result = subprocess.run([sys.executable, "-m", "dbf", "run", write_doc(tmp_path, doc), "-o", str(tmp_path)],
                                env=package_env(), capture_output=True, text=True, timeout=30)
        assert result.returncode == cli.EXIT_INVALID
        assert "K=100000 yields at least" in result.stderr


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
        assert_basis_file(out, 1)

    def test_sweep_dispatch(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        code = cli.main(["sweep", path, "--param", "nu", "--values", "3.0",
                         "-o", str(tmp_path / "s")])
        assert code == cli.EXIT_OK


    @pytest.mark.parametrize("argv", [
        ["sweep", os.path.join(ROOT, "scenarios", "dbf_basic.json"), "--param", "foo", "--values", "1"],
        ["basis", "--K", "x"],
        [],
    ], ids=["bad_choice", "bad_int", "no_command"])
    def test_argument_errors_exit_invalid(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.main(argv)
        assert raised.value.code == cli.EXIT_INVALID
        assert "dbf" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.main(["--help"])
        assert raised.value.code == 0
        assert "usage: dbf" in capsys.readouterr().out

# Runs in a fresh interpreter: prints the scipy, jsonschema and dbf modules
# loaded after importing the CLI, then the exit code and the scipy and
# jsonschema modules after each `dbf` command (a JSON list of argument lists),
# with the dbf modules after each command listed apart.
STARTUP_PROBE = """
import json, sys
from dbf import cli

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

report = {"import": loaded("scipy"), "import_jsonschema": loaded("jsonschema"), "import_dbf": loaded("dbf"),
          "runs": [], "runs_dbf": []}
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report["runs"].append({"code": code, "scipy": loaded("scipy"), "jsonschema": loaded("jsonschema")})
    report["runs_dbf"].append(loaded("dbf"))
print(json.dumps(report))
"""


def probe_startup(commands: list) -> dict:
    argv = json.dumps([[str(a) for a in command] for command in commands])
    result = subprocess.run([sys.executable, "-c", STARTUP_PROBE, argv], env=package_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestStartup:
    """scipy is a test-only oracle: no method loads it, the exact propagator included."""

    def test_import_and_solves_load_no_scipy(self, tmp_path):
        report = probe_startup([
            ("run", os.path.join(ROOT, "scenarios", "dbf_basic.json"), "-o", tmp_path / "exact"),
            ("run", os.path.join(ROOT, "scenarios", "generalized_memory.json"), "-o", tmp_path / "memory"),
        ])
        assert report["import"] == []
        assert report["runs"] == [{"code": cli.EXIT_OK, "scipy": [], "jsonschema": []}] * 2
        assert (tmp_path / "memory" / "generalized_memory.csv").exists()

    def test_integrator_imports_expm_on_demand(self, tmp_path):
        # The integrator's matrix exponential is numpy's own `_expm`, so even
        # this method, which once needed scipy.linalg.expm, loads no scipy.
        doc = base_doc()
        doc["method"] = "integrator"
        path = write_doc(tmp_path, doc)
        report = probe_startup([("run", path, "-o", tmp_path / "out"), ("verify", path)])
        assert report["import"] == []
        assert report["runs"] == [{"code": cli.EXIT_OK, "scipy": [], "jsonschema": []}] * 2
        assert list((tmp_path / "out").glob("*.csv"))

    def test_no_command_imports_jsonschema(self, tmp_path):
        # jsonschema is a test-only oracle: no command may need it at run time.  Nor may any command load
        # dbf.paper, the paper's identities that only the tests check.
        bad = base_doc()
        bad["domain"]["K"] = "one"
        report = probe_startup([
            ("run", write_doc(tmp_path, base_doc()), "-o", tmp_path / "out"),
            ("verify", os.path.join(ROOT, "scenarios", "generalized_memory.json")),
            ("sweep", write_doc(tmp_path, base_doc()), "--param", "nu", "--values", "3", "-o", tmp_path / "sweep"),
            ("basis", "--K", "1", "-o", tmp_path / "basis.json"),
            ("run", write_doc(tmp_path, bad, "bad.json"), "-o", tmp_path / "bad"),
        ])
        assert report["import_jsonschema"] == []
        assert [r["code"] for r in report["runs"]] == [cli.EXIT_OK] * 4 + [cli.EXIT_INVALID]
        assert all(r["jsonschema"] == [] for r in report["runs"])
        assert "dbf.cli" in report["import_dbf"] and "dbf.paper" not in report["import_dbf"]
        assert all("dbf.dbf_model" in modules and "dbf.paper" not in modules for modules in report["runs_dbf"])
