"""Batch front end: scenario files in, CSV series and JSON diagnostics out.

Scenario files are JSON documents with fixed sections (domain, material,
time, data, method, tolerances); unknown keys and numbers that are not
finite floats are rejected.  SCENARIO_SCHEMA is the one definition of the
format: a JSON Schema (draft 2020-12) that a small built-in checker
interprets, so no schema library is loaded.  A run writes one CSV time
series with 17 significant digit floats and one JSON diagnostics document
with sorted keys, so identical scenarios produce byte identical outputs.  Every subcommand maps failures to exit
codes through EXIT_TABLE: 1 invalid scenario or arguments, or a file that
cannot be read or written, 2 data outside the solvable range, 3 spectral
hypothesis failure, 4 solver non-convergence or a non-finite solution;
verify also exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys

import numpy as np

from .curl_spectral import FieldPair, Mode, ModeTable, SpectralField, build_basis
from .dbf_model import (
    COLUMN_CHUNK_BYTES,
    DBF_METHODS,
    GENERALIZED_METHODS,
    DBFScenario,
    FieldHistory,
    GeneralizedScenario,
    HypothesisViolated,
    NeumannDiverges,
    NonFiniteSolution,
    PairSeries,
    RangeViolation,
    field_pieces,
    fold_pieces,
    solution_diagnostics,
    solve_dbf,
    solve_generalized,
)
from .evo_solver import DEFAULT_FP_TOL, DEFAULT_MAX_ITER, NoConvergence, NotContractive
from .weighted_time import ZERO_TIME_TOL, MaterialSymbol, TimeGrid

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RANGE = 2
EXIT_HYPOTHESIS = 3
EXIT_NO_CONVERGENCE = 4

DEFAULT_TOLERANCES = {
    "fp_tol": DEFAULT_FP_TOL,
    "max_iter": DEFAULT_MAX_ITER,
    "iv_tol": 1e-8,
    "caus_tol": 1e-10,
    "resid_tol": 1e-6,
    "energy_tol": 1e-12,
    "linearity_tol": 1e-12,
}

_COMPLEX = {"type": ["number", "array"], "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_KVEC = {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3}
_MODE_ENTRY = {
    "type": "array",
    "prefixItems": [
        _KVEC,
        {"enum": ["plus", "minus", "grad", "const"]},
        _COMPLEX,
        _COMPLEX,
        {"type": "integer", "minimum": 0, "maximum": 2},
    ],
    "minItems": 4,
    "maxItems": 5,
    "items": False,
}
_ROW2 = {"type": "array", "items": _COMPLEX, "minItems": 2, "maxItems": 2}
_MATRIX2 = {"type": "array", "items": _ROW2, "minItems": 2, "maxItems": 2}
_POLY = {"type": "array", "items": _MATRIX2}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "domain": {
            "type": "object",
            "properties": {"K": {"type": "integer", "minimum": 0}},
            "required": ["K"],
            "additionalProperties": False,
        },
        "material": {
            "type": "object",
            "properties": {
                "model": {"enum": ["dbf", "generalized"]},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "mu": {"type": "number", "exclusiveMinimum": 0},
                "eta": {"type": "number"},
                "kappa0": _MATRIX2,
                "kappa1": _POLY,
                "Mstar0": _MATRIX2,
                "Mstar1": _POLY,
                "k_cross": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
            },
            "required": ["model"],
            "additionalProperties": False,
        },
        "time": {
            "type": "object",
            "properties": {
                "t_start": {"type": "number"},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "n": {"type": "integer", "minimum": 2},
                "pad_fraction": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "nu": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["t_start", "dt", "n", "nu"],
            "additionalProperties": False,
        },
        "data": {
            "type": "object",
            "properties": {
                "W0": {"type": "array", "items": _MODE_ENTRY},
                "source": {
                    "type": "object",
                    "properties": {
                        "waveform": {"enum": ["step", "gaussian", "delayed_step"]},
                        "amplitude": _COMPLEX,
                        "modes": {"type": "array", "items": _MODE_ENTRY},
                        "t0": {"type": "number"},
                        "sigma": {"type": "number", "exclusiveMinimum": 0},
                        "delay": {"type": "number", "minimum": 0},
                    },
                    "required": ["waveform", "amplitude", "modes"],
                    "additionalProperties": False,
                },
            },
            "required": ["W0"],
            "additionalProperties": False,
        },
        "method": {"enum": ["auto", "exact", "fixed_point", "integrator"]},
        "tolerances": {
            "type": "object",
            "properties": {k: {"type": "number"} if k != "max_iter" else {"type": "integer", "minimum": 1}
                           for k in DEFAULT_TOLERANCES},
            "additionalProperties": False,
        },
    },
    "required": ["domain", "material", "time", "data"],
    "additionalProperties": False,
}


# The Python types json.load makes for each schema type; bool is its own type, so never a number.
_TYPES = {"object": (dict,), "array": (list,), "number": (int, float), "integer": (int, float)}
_BOUNDS = {"minimum": operator.ge, "maximum": operator.le, "exclusiveMinimum": operator.gt, "exclusiveMaximum": operator.lt}


def _rules(schema: dict) -> tuple:
    """The keywords of one schema node that _walk reads, gathered once, with its children's rules.

    (schema, types, whole, enum, required, properties, closed, least, most,
    bounds, prefix, items): the node itself, for its messages, the Python
    types it may have (None for any), whether a float must be integral (an
    "integer" that is not also a "number"), the enum or None, the required
    keys, the rules of each property, whether other keys are refused, the
    allowed item count, the numeric bounds, and the rules of the prefix
    items and of the other items (None to check none).
    """
    kinds = [schema["type"]] if type(schema.get("type")) is str else schema.get("type", [])
    types = {t for kind in kinds for t in _TYPES[kind]}
    items = schema.get("items")
    return (schema, frozenset(types) if kinds else None, "integer" in kinds and "number" not in kinds,
            schema.get("enum"), schema.get("required", ()),
            {key: _rules(sub) for key, sub in schema.get("properties", {}).items()},
            schema.get("additionalProperties") is False, schema.get("minItems", 0),
            min(schema.get("maxItems", math.inf), len(schema.get("prefixItems", ())) if items is False else math.inf),
            [(key, holds, schema[key]) for key, holds in _BOUNDS.items() if key in schema],
            [_rules(sub) for sub in schema.get("prefixItems", ())], _rules(items) if type(items) is dict else None)


def _walk(node, rules: tuple) -> tuple | None:
    """(path reversed, message) of the first violation under rules, or None; see _violation."""
    schema, types, whole, enum, required, props, closed, least, most, bounds, prefix, items = rules
    kind = type(node)
    if types is not None and not (kind in types and not (whole and kind is float and not node.is_integer())):
        return [], f"{node!r} is not of type {schema['type']!r}"
    if enum is not None and node not in enum:
        return [], f"{node!r} is not one of {enum!r}"
    if kind is dict:
        if missing := [key for key in required if key not in node]:
            return [], f"{missing[0]!r} is a required property"
        if closed and node.keys() - props.keys():
            return [], f"unexpected properties {sorted(node.keys() - props.keys())}"
        children = ((key, node[key], props.get(key)) for key in sorted(node))
    elif kind is list:
        if not least <= len(node) <= most:
            return [], f"{node!r} has {len(node)} items, outside the allowed count"
        children = ((i, item, prefix[i] if i < len(prefix) else items) for i, item in enumerate(node))
    else:
        if kind is int or kind is float:
            for key, holds, bound in bounds:
                if not holds(node, bound):
                    return [], f"{node!r} breaks {key} {bound!r}"
        return None
    for key, child, sub in children:
        if sub is not None and (found := _walk(child, sub)) is not None:
            found[0].append(key)
            return found
    return None


def _violation(node, schema: dict, path: tuple = ()) -> tuple | None:
    """(path, message) of the first violation of the draft 2020-12 keywords SCENARIO_SCHEMA uses, or None.

    A node's own rules come before its children, object keys in sorted order
    and array items in index order: this is the violation with the least path.
    The schema's rules are gathered once (_rules), so the long W0 and
    source-mode lists read no schema keyword per entry, and a path is built
    only for the violation found.
    """
    found = _walk(node, _SCENARIO_RULES if schema is SCENARIO_SCHEMA else _rules(schema))
    return None if found is None else (path + tuple(reversed(found[0])), found[1])


_SCENARIO_RULES = _rules(SCENARIO_SCHEMA)


class ScenarioError(ValueError):
    """Scenario file rejected before solving."""


# Material model -> (required keys, optional keys, methods); the schema admits the union of the keys.
MATERIAL_MODELS = {
    "dbf": (("epsilon", "mu", "eta"), (), DBF_METHODS),
    "generalized": (("kappa0", "Mstar0"), ("kappa1", "Mstar1", "k_cross"), GENERALIZED_METHODS),
}


# Exception -> (exit code, message) for every subcommand; the first matching
# row wins, so the ValueError subclasses come before the catch-all.
EXIT_TABLE = (
    (RangeViolation, EXIT_RANGE, "range condition failed"),
    (HypothesisViolated, EXIT_HYPOTHESIS, "hypothesis failed"),
    (NotContractive, EXIT_NO_CONVERGENCE, "solver cannot converge"),
    ((NeumannDiverges, NoConvergence), EXIT_NO_CONVERGENCE, "solver did not converge"),
    (NonFiniteSolution, EXIT_NO_CONVERGENCE, "solution is not finite"),
    (FileNotFoundError, EXIT_INVALID, "cannot read scenario"),
    (OSError, EXIT_INVALID, "cannot read or write file"),
    (ValueError, EXIT_INVALID, "invalid scenario"),
)
# The exception types EXIT_TABLE covers; anything else is a bug and propagates.
FAILURES = tuple(kind for kinds, _, _ in EXIT_TABLE for kind in (kinds if isinstance(kinds, tuple) else (kinds,)))


def _fail(exc: Exception, prefix: str = "") -> int:
    """Report a failure from FAILURES on stderr and return its exit code."""
    for kinds, code, message in EXIT_TABLE:
        if isinstance(exc, kinds):
            print(f"{prefix}{message}: {exc}", file=sys.stderr)
            return code
    raise exc


def _complex_value(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _finite_int(token: str) -> int:
    _finite_float(token)
    return int(token)


def _matrix2(doc) -> np.ndarray:
    return np.array([[_complex_value(x) for x in row] for row in doc], dtype=np.complex128)


def load_scenario_doc(path: str) -> dict:
    """Read, schema-validate, and default-fill a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_finite_float, parse_int=_finite_int,
                            parse_constant=_finite_float)
        except ValueError as exc:
            raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    found = _violation(doc, SCENARIO_SCHEMA)
    if found is not None:
        where = "/".join(str(p) for p in found[0]) or "<root>"
        raise ScenarioError(f"{path}: schema violation at {where}: {found[1]}")
    return normalize_scenario_doc(doc)


def normalize_scenario_doc(doc: dict) -> dict:
    """Fill defaults so that normalization is idempotent (echo round trip)."""
    out = json.loads(json.dumps(doc))
    out["time"].setdefault("pad_fraction", 0.5)
    out.setdefault("method", "exact" if out["material"]["model"] == "dbf" else "auto")
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(out.get("tolerances", {}))
    out["tolerances"] = tols
    return out


def _mode_position(table: ModeTable, entry: list) -> int:
    k = tuple(int(c) for c in entry[0])
    helicity = entry[1]
    component = entry[4] if len(entry) == 5 else None
    if helicity == "const":
        if k != (0, 0, 0):
            raise ScenarioError(f"const mode must have k = (0,0,0), got {k}")
        if component is None:
            raise ScenarioError("const mode entry needs a component index as 5th element")
    elif component is not None:
        raise ScenarioError(f"component index is only valid for const modes, got one on {helicity}")
    try:
        return table.position(k, helicity, component)
    except KeyError as exc:
        raise ScenarioError(str(exc)) from exc


def _waveform(doc: dict, grid: TimeGrid) -> np.ndarray:
    """Scalar waveform samples, exactly zero before t = 0."""
    t = grid.times
    kind = doc["waveform"]
    extras = {k for k in ("t0", "sigma", "delay") if k in doc}
    if kind == "step":
        if extras:
            raise ScenarioError(f"step waveform takes no extra parameters, got {sorted(extras)}")
        w = np.ones(grid.n_samples)
    elif kind == "delayed_step":
        if extras != {"delay"}:
            raise ScenarioError("delayed_step waveform needs exactly the 'delay' parameter")
        if abs(doc["delay"] - grid.dt * round(doc["delay"] / grid.dt)) > ZERO_TIME_TOL:
            raise ScenarioError(f"delayed_step delay {doc['delay']} must be a multiple of dt = {grid.dt}")
        w = (t >= doc["delay"] - ZERO_TIME_TOL).astype(float)
    else:
        if extras != {"t0", "sigma"}:
            raise ScenarioError("gaussian waveform needs exactly the 't0' and 'sigma' parameters")
        w = np.exp(-((t - doc["t0"]) ** 2) / (2.0 * doc["sigma"] ** 2))
    w[:grid.zero_index] = 0.0
    return w


def build_scenario(doc: dict):
    """Materialize a scenario object from a normalized document."""
    K = int(doc["domain"]["K"])
    table = build_basis(K)
    time = doc["time"]
    grid = TimeGrid(t_start=time["t_start"], dt=time["dt"], n_samples=int(time["n"]),
                    pad_fraction=time["pad_fraction"])
    grid.require_zero(ScenarioError)
    nu = time["nu"]
    m = table.n_modes
    e0 = np.zeros(m, dtype=np.complex128)
    h0 = np.zeros(m, dtype=np.complex128)
    for entry in doc["data"]["W0"]:
        i = _mode_position(table, entry)
        e0[i] += _complex_value(entry[2])
        h0[i] += _complex_value(entry[3])
    W0 = FieldPair(SpectralField(table, e0), SpectralField(table, h0))

    source = None
    src_doc = doc["data"].get("source")
    if src_doc is not None and src_doc["modes"]:
        w = _waveform(src_doc, grid)
        amp = _complex_value(src_doc["amplitude"])
        positions = [_mode_position(table, entry) for entry in src_doc["modes"]]
        modes = np.array(sorted(set(positions)), dtype=np.intp)
        samples = np.zeros((grid.n_samples, len(modes), 2), dtype=np.complex128)
        # A mode listed more than once adds up its entries in file order.
        for k, entry in zip(np.searchsorted(modes, positions), src_doc["modes"]):
            samples[:, k, 0] += amp * _complex_value(entry[2]) * w
            samples[:, k, 1] += amp * _complex_value(entry[3]) * w
        source = PairSeries(table, grid, modes, samples)

    mat, method = doc["material"], doc["method"]
    model, (needed, optional, methods) = mat["model"], MATERIAL_MODELS[mat["model"]]
    extra = sorted(set(mat) - {"model"} - set(needed) - set(optional))
    if extra:
        raise ScenarioError(f"{model} material does not take {extra}")
    missing = [key for key in needed if key not in mat]
    if missing:
        raise ScenarioError(f"{model} material needs {missing}")
    if method not in methods:
        raise ScenarioError(f"method {method!r} is not valid for the {model} model")
    if model == "dbf":
        return DBFScenario(epsilon=mat["epsilon"], mu=mat["mu"], eta=mat["eta"], nu=nu,
                           K=K, grid=grid, W0=W0, source_J=source)
    kappa1 = MaterialSymbol(dim=2, poly_coeffs=[_matrix2(c) for c in mat["kappa1"]]) if mat.get("kappa1") else None
    mstar1 = MaterialSymbol(dim=2, poly_coeffs=[_matrix2(c) for c in mat["Mstar1"]]) if mat.get("Mstar1") else None
    k_cross = np.array(mat["k_cross"], dtype=float) if mat.get("k_cross") else None
    return GeneralizedScenario(kappa0=_matrix2(mat["kappa0"]), Mstar0=_matrix2(mat["Mstar0"]),
                               nu=nu, K=K, grid=grid, W0=W0, kappa1=kappa1, Mstar1=mstar1,
                               k_cross=k_cross, source_J=source)


def _solve(scenario, doc: dict):
    tols = doc["tolerances"]
    solve = solve_dbf if isinstance(scenario, DBFScenario) else solve_generalized
    return solve(scenario, method=doc["method"], fp_tol=tols["fp_tol"], max_iter=int(tols["max_iter"]))


def _mode_label(mode: Mode) -> str:
    ks = "_".join(f"m{-c}" if c < 0 else str(c) for c in mode.k)
    label = f"k{ks}_{mode.helicity}"
    if mode.component_index is not None:
        label += f"_c{mode.component_index}"
    return label


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_run_output(history: FieldHistory, doc: dict, out_dir: str, stem: str) -> tuple[str, str]:
    """Write the CSV series and JSON diagnostics of a solve's tracked modes and energy; returns their paths."""
    # Imported on the first write, after the solve, which its tables then leave alone; verify and
    # basis never load it.
    from .csv_cells import CELL_BYTES, CellText

    os.makedirs(out_dir, exist_ok=True)
    tracked, energy = history.tracked, history.energy
    labels = [_mode_label(history.table.modes[i]) for i in tracked]
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    columns = ["t"]
    for label in labels:
        for fld in ("e", "h", "d", "b"):
            columns += [f"{label}_{fld}_re", f"{label}_{fld}_im"]
    columns.append("energy")
    # Row blocks of about COLUMN_CHUNK_BYTES of formatting scratch, filled from E, H, D and B in turn.
    n_rows, n_cols = history.grid.n_samples, len(columns)
    block_rows = max(1, min(n_rows, COLUMN_CHUNK_BYTES // (CELL_BYTES * n_cols)))
    text = CellText(block_rows, n_cols)
    block = np.empty((block_rows, n_cols))
    with open(csv_path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for start in range(0, n_rows, block_rows):
            rows = slice(start, min(start + block_rows, n_rows))
            part = block[:rows.stop - start]
            part[:, 0], part[:, -1] = history.grid.times[rows], energy[rows]
            # A view into part: (re, im) of e, h, d, b for each tracked mode.
            cells = part[:, 1:-1].reshape(len(part), len(tracked), 4, 2)
            for k, arr in enumerate((history.E, history.H, history.D, history.B)):
                sub = arr[rows, tracked]
                cells[:, :, k, 0], cells[:, :, k, 1] = sub.real, sub.imag
            fh.write(text(part))
    json_path = os.path.join(out_dir, f"{stem}.json")
    payload = {
        "model": doc["material"]["model"],
        "method": doc["method"],
        "csv_file": os.path.basename(csv_path),
        "columns": columns,
        "tracked_modes": [
            {
                "label": labels[j],
                "k": list(history.table.modes[i].k),
                "helicity": history.table.modes[i].helicity,
                "component_index": history.table.modes[i].component_index,
                "eigenvalue": float(history.table.eigenvalues[i]),
            }
            for j, i in enumerate(tracked)
        ],
        "grid": {"t_start": history.grid.t_start, "dt": history.grid.dt,
                 "n": history.grid.n_samples, "pad_fraction": history.grid.pad_fraction},
        "nu": history.nu,
        "energy_initial": float(energy[history.grid.zero_index]),
        "energy_final": float(energy[-1]),
        "diagnostics": history.diagnostics,
    }
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path


def cmd_run(scenario_path: str, out_dir: str, echo_config: bool = False) -> int:
    """Solve one scenario file and write <stem>.csv and <stem>.json into out_dir."""
    try:
        doc = load_scenario_doc(scenario_path)
        scenario = build_scenario(doc)
        if echo_config:
            print(json.dumps(doc, sort_keys=True, indent=2))
        history = _solve(scenario, doc)
        stem = os.path.splitext(os.path.basename(scenario_path))[0]
        csv_path, json_path = write_run_output(history, doc, out_dir, stem)
    except FAILURES as exc:
        return _fail(exc)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def _observed_omega(series: np.ndarray, times: np.ndarray) -> float:
    """Angular frequency from interpolated zero crossings of the real part.

    Uses pi over the mean crossing spacing; returns 0.0 when fewer than two
    crossings are found.
    """
    s = np.real(series)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if idx.size < 2:
        return 0.0
    frac = s[idx] / (s[idx] - s[idx + 1])
    crossings = times[idx] + frac * (times[idx + 1] - times[idx])
    return float(np.pi * (crossings.size - 1) / (crossings[-1] - crossings[0]))


def cmd_verify(scenario_path: str) -> int:
    """Run the invariant suite for one scenario and print a pass/fail table.

    A scenario that cannot be loaded, or whose solve or doubled-data
    linearity solve fails, exits with its EXIT_TABLE code; a failed check
    exits 1.  One call of field_pieces solves the data and, as more columns
    of the same block calls, the doubled data; each piece is folded into
    the checks as it comes (see fold_pieces), so no field is stored, and
    the solve's own error is raised before the doubled data's.
    """
    try:
        doc = load_scenario_doc(scenario_path)
        scenario = build_scenario(doc)
    except FAILURES as exc:
        return _fail(exc)
    # Tested value by value: a sum of squares of W0 underflows to 0 on tiny data and overflows on huge data.
    W0, source = scenario.W0, scenario.source_J
    loaded = np.any(W0.e_part.coeffs != 0) or np.any(W0.h_part.coeffs != 0)
    zero_data = not loaded and (source is None or source.modes.size == 0)
    tols, method = doc["tolerances"], doc["method"]
    is_dbf = isinstance(scenario, DBFScenario)
    energy = is_dbf and source is None and method == "exact" and not zero_data
    solve = {"fp_tol": tols["fp_tol"], "max_iter": int(tols["max_iter"])}
    try:
        tally = {}
        # The doubled-data solve feeds only the linearity check.
        pieces = field_pieces(scenario, method, tally=tally, doubled=not zero_data, **solve)
        fold = fold_pieces(scenario, pieces, energy=energy)
        d = solution_diagnostics(scenario, method, fold, **tally)
        if not zero_data and not np.all(np.isfinite([*fold.maxima[:2], fold.gap])):
            raise NonFiniteSolution("non-finite values in the doubled-data solve")  # the solve above is finite
    except FAILURES as exc:
        return _fail(exc, "FAIL: solve: ")

    checks: list[tuple[str, float, float]] = []
    checks.append(("initial_value", d["initial_value_error"], tols["iv_tol"]))
    checks.append(("causality", d["causality_sup"], tols["caus_tol"]))
    checks.append(("weak_residual", d["weak_residual"], tols["resid_tol"]))
    if is_dbf:
        table = scenario.table
        kernel = table.kernel_mask(scenario.eta)
        if np.any(kernel):
            proj_err = float(np.max(np.abs(table.eigenvalues[kernel] + 1.0 / scenario.eta)))
        else:
            proj_err = 0.0
        checks.append(("projector_algebra", proj_err, 1e-9 / abs(scenario.eta)))
    if zero_data:  # zero data must give the zero field: its largest |E|, |H|, |D|, |B|
        checks.append(("uniqueness_energy", float(np.max(fold.maxima)), tols["energy_tol"]))
    else:
        scale = max(float(np.max(fold.maxima[:2])), 1e-300)
        lin = fold.gap / scale
        lin_tol = tols["linearity_tol"] if method != "fixed_point" else max(
            tols["linearity_tol"], 100.0 * tols["fp_tol"] / scale)
        checks.append(("linearity", lin, lin_tol))
    if energy:
        en = fold.energy[scenario.grid.zero_index:]
        drift = float(np.max(np.abs(en - en[0]))) / max(float(en[0]), 1e-300)
        checks.append(("energy_conservation", drift, max(tols["energy_tol"], 1e-12)))

    width = max(len(name) for name, _, _ in checks)
    failed = [name for name, value, tol in checks if not value <= tol]
    print(f"{'check'.ljust(width)}  {'value':>12}  {'tolerance':>12}  status")
    for name, value, tol in checks:
        status = "PASS" if value <= tol else "FAIL"
        print(f"{name.ljust(width)}  {value:12.4e}  {tol:12.4e}  {status}")
    if failed:
        print(f"FAIL: {failed[0]}")
        return EXIT_INVALID
    print("all checks passed")
    return EXIT_OK


def cmd_sweep(scenario_path: str, param: str, values: list, out_dir: str) -> int:
    """Re-run one scenario across parameter values and summarize.

    Exits 0 when some value solves (or no value is given); otherwise with
    the EXIT_TABLE code of the first value that failed.
    """
    if param not in ("eta", "nu", "dt"):
        print(f"sweep parameter must be eta, nu, or dt, got {param!r}", file=sys.stderr)
        return EXIT_INVALID
    if not all(math.isfinite(v) for v in values):
        print(f"sweep values must be finite, got {values}", file=sys.stderr)
        return EXIT_INVALID
    try:
        base = load_scenario_doc(scenario_path)
        base_scenario = build_scenario(base)
    except FAILURES as exc:
        return _fail(exc)
    if param == "eta" and base["material"]["model"] != "dbf":
        print("eta sweeps require the dbf material model", file=sys.stderr)
        return EXIT_INVALID

    table = base_scenario.table
    data_idx = sorted({int(i) for i in np.nonzero(
        (base_scenario.W0.e_part.coeffs != 0) | (base_scenario.W0.h_part.coeffs != 0))[0]})
    labels = [_mode_label(table.modes[i]) for i in data_idx]
    rows = []
    successes = 0
    first_failure = EXIT_OK
    for pos, value in enumerate(values):
        doc = json.loads(json.dumps(base))
        if param == "eta":
            doc["material"]["eta"] = value
        elif param == "nu":
            doc["time"]["nu"] = value
        else:
            doc["time"]["dt"] = value
        stem = f"{param}_{pos:03d}"
        sub = os.path.join(out_dir, stem)
        row = {"param": param, "value": value, "exit_code": EXIT_OK,
               "weak_residual": "", "initial_value_error": "", "iterations": ""}
        for label in labels:
            row[f"omega_{label}"] = ""
        try:
            scenario = build_scenario(doc)
            history = _solve(scenario, doc)
            write_run_output(history, doc, sub, stem)
            d = history.diagnostics
            row["weak_residual"] = _fmt(d["weak_residual"])
            row["initial_value_error"] = _fmt(d["initial_value_error"])
            row["iterations"] = str(d["iterations"])
            core = slice(history.grid.zero_index, history.grid.n_core)
            for label, i in zip(labels, data_idx):
                row[f"omega_{label}"] = _fmt(_observed_omega(history.E[core, i], history.grid.times[core]))
            successes += 1
        except FAILURES as exc:
            row["exit_code"] = _fail(exc, f"value {value}: ")
            first_failure = first_failure or row["exit_code"]
        rows.append(row)

    summary = os.path.join(out_dir, f"sweep_{param}.csv")
    columns = ["param", "value", "exit_code", "weak_residual", "initial_value_error", "iterations"]
    columns += [f"omega_{label}" for label in labels]
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(summary, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) if c == "value" else str(row[c]) for c in columns) + "\n")
    except FAILURES as exc:
        return _fail(exc)
    print(f"wrote {summary} ({successes}/{len(values)} values solved)")
    return EXIT_OK if successes else first_failure


def cmd_basis(K: int, out_path: str) -> int:
    """Emit the mode table for truncation K as JSON; an invalid K exits with its EXIT_TABLE code."""
    try:
        table = build_basis(K)
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table.to_json())
            fh.write("\n")
    except FAILURES as exc:
        return _fail(exc)
    print(f"wrote {out_path} ({table.n_modes} modes)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits EXIT_INVALID, not argparse's 2 (the range code)
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def main(argv: list | None = None) -> int:
    parser = _Parser(
        prog="dbf",
        description="Spectral simulator for chiral electromagnetic media on the periodic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario file and write CSV + JSON output")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("-o", "--out-dir", default="out", help="output directory (default: out)")
    p_run.add_argument("--echo-config", action="store_true",
                       help="print the normalized scenario document before solving")

    p_verify = sub.add_parser("verify", help="run the invariant suite for a scenario")
    p_verify.add_argument("scenario", help="path to a scenario JSON file")

    p_sweep = sub.add_parser("sweep", help="re-run a scenario across parameter values")
    p_sweep.add_argument("scenario", help="path to a scenario JSON file")
    p_sweep.add_argument("--param", required=True, choices=["eta", "nu", "dt"])
    p_sweep.add_argument("--values", required=True, nargs="+", type=float)
    p_sweep.add_argument("-o", "--out-dir", default="sweep", help="output directory (default: sweep)")

    p_basis = sub.add_parser("basis", help="emit the curl eigenmode table as JSON")
    p_basis.add_argument("--K", required=True, type=int, help="truncation radius")
    p_basis.add_argument("-o", "--out", default="basis.json", help="output file (default: basis.json)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.scenario, args.out_dir, args.echo_config)
    if args.command == "verify":
        return cmd_verify(args.scenario)
    if args.command == "sweep":
        return cmd_sweep(args.scenario, args.param, args.values, args.out_dir)
    return cmd_basis(args.K, args.out)


if __name__ == "__main__":
    sys.exit(main())
