"""Every function of the runtime is entered by a small set of `dbf` commands.

The runtime modules (every module of the package but dbf.paper) hold only
what `dbf run`, `verify`, `sweep` and `basis` execute.  One fresh
interpreter installs a profiler before `import dbf`, so import-time code
counts too, runs seven commands through `cli.main`, and records the first
line of every code object entered.  Each `def` of a runtime module must be
among them; a decorated function's code starts at its first decorator.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dbf"
SCENARIOS = ROOT / "scenarios"

PROBE = r"""
import json, sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(record)
import dbf.cli as cli

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def runtime_functions() -> dict:
    """(file, first line) -> qualified name of every def in the runtime modules."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "paper.py":
            continue

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def commands(tmp_path) -> list:
    """Seven commands that between them enter every runtime function."""
    fixed_point = json.loads((SCENARIOS / "eta_sweep.json").read_text())
    fixed_point["method"] = "fixed_point"
    cross = json.loads((SCENARIOS / "generalized_memory.json").read_text())
    cross["material"]["k_cross"] = [0.3, 0.1, 0.2]
    cross["data"]["source"] = {"waveform": "gaussian", "amplitude": 1.0, "t0": 0.5, "sigma": 0.1,
                               "modes": [[[1, 0, 0], "plus", 1.0, 0.0]]}
    docs = {"fixed_point": fixed_point, "cross": cross}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    return [
        ["run", str(tmp_path / "fixed_point.json"), "-o", out],
        ["run", str(tmp_path / "cross.json"), "-o", out],
        ["sweep", str(SCENARIOS / "eta_sweep.json"), "--param", "eta", "--values", "0.3", "-1.0", "-o", out],
        ["run", str(SCENARIOS / "dbf_basic.json"), "-o", out],
        ["verify", str(SCENARIOS / "dbf_basic.json")],
        ["basis", "--K", "2", "-o", str(tmp_path / "basis.json")],
        ["basis", "--K", "x"],
    ]


def test_commands_enter_every_runtime_function(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    report = tmp_path / "entered.json"
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands(tmp_path)), str(report)],
                            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    probe = json.loads(report.read_text())
    assert probe["codes"] == [0, 0, 0, 0, 0, 0, 1], result.stderr
    entered = {(str(Path(path).resolve()), line) for path, line in probe["entered"] if path.endswith(".py")}
    functions = runtime_functions()
    assert len(functions) > 100
    missed = sorted(name for key, name in functions.items() if key not in entered)
    assert not missed, f"runtime functions no command enters: {missed}"
