"""dbf-sim benchmark: seeded scenarios, each solved by one `dbf` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dbf-sim checkout; the program is imported from its
`src/` directory, so nothing is built or installed.  The driver writes the
workload's scenario for the seed, then runs a closed loop with one client:
each operation is a fresh `python3 perfbench/op.py` process running one
`dbf run` or `dbf verify` command, started when the previous one exited.
`DBF_THREADS` is removed from the operations' environment; the BLAS thread
variables are passed through unchanged and recorded.

The first operation is a warm-up (it fills the bytecode and file caches).
Its outputs are checked in full and become the reference: every later
operation must exit 0 and reproduce them byte for byte.  Then operations run
until S seconds have passed.

With --trace 0 the last line of standard output reports the end-to-end
metrics over the measured operations; with --trace 1 traced and untraced
operations alternate and the line reports the per-layer metrics of the
traced ones plus the tracing overhead.  Details (quartiles, sample counts,
output hashes, environment) go to `.perfbench/result-*.json` and the spans
of traced operations to `.perfbench/spans-*.json` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

from scenarios import WORKLOADS, generate, mode_entries
from spans import now

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 60.0
THREAD_VARIABLES = ("DBF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Workload:
    """One workload at one seed: its scenario file, operation command and checks."""

    def __init__(self, name: str, seed: int, root: str):
        self.name = name
        self.spec = WORKLOADS[name]
        self.doc = generate(name, seed)
        self.work = os.path.join(root, ".perfbench", f"{name}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.scenario = os.path.join(self.work, f"{name}.json")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.out_dir = os.path.join(self.work, "out")
        self.env = dict(os.environ)
        self.env.pop("DBF_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.reference: dict | None = None  # output hashes of the warm-up operation
        self.reference_ok = False
        self.weak_residual = None

    @property
    def mode_steps(self) -> int:
        return len(mode_entries(self.spec["K"])) * self.spec["time"]["n"]

    def run_op(self, op_id: int, traced: bool) -> dict:
        """Run one operation; returns its timings, report and check verdict."""
        report_path = os.path.join(self.work, f"op{op_id}.json")
        args = [self.spec["command"], self.scenario]
        if self.spec["command"] == "run":
            args += ["-o", self.out_dir]
        cmd = [sys.executable, os.path.join(HERE, "op.py"), report_path, "1" if traced else "0", str(op_id), "--"] + args
        start = now()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = now() - start
        report = {}
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(report_path)
        problem = self.check(proc.returncode, out)
        if problem is None and report.get("setup_done") is None:
            problem = "build_scenario never returned"
        if problem:
            print(f"perfbench: operation {op_id} failed: {problem}\n{err.decode(errors='replace')[-2000:]}",
                  file=sys.stderr)
            return {"traced": traced, "ok": False}
        return {"traced": traced, "ok": True, "wall": wall, "report": report,
                "setup": report["setup_done"] - start, "rss_mb": report["maxrss_kb"] * 1024 / 1e6}

    def check(self, code: int, stdout: bytes) -> str | None:
        """None when the operation is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        try:
            if self.spec["command"] == "verify":
                outputs = {"stdout": stdout}
            else:
                outputs = {}
                for ext in ("csv", "json"):
                    with open(os.path.join(self.out_dir, f"{self.name}.{ext}"), "rb") as fh:
                        outputs[ext] = fh.read()
            hashes = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
            if self.reference is None:
                self.reference = hashes
                problem = self.check_verify(stdout) if self.spec["command"] == "verify" else self.check_run(outputs)
                self.reference_ok = problem is None
                return problem
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"missing or malformed output: {exc!r}"
        if hashes != self.reference:
            return "output bytes differ from the first operation of this seed"
        return None if self.reference_ok else "reference operation failed its check"

    def check_verify(self, stdout: bytes) -> str | None:
        text = stdout.decode()
        if "all checks passed" not in text:
            return "verify did not print 'all checks passed'"
        match = re.search(r"^weak_residual\s+(\S+)", text, re.MULTILINE)
        if match is None:
            return "verify printed no weak_residual line"
        self.weak_residual = float(match.group(1))
        return None

    def check_run(self, outputs: dict) -> str | None:
        payload = json.loads(outputs["json"])
        columns = payload["columns"]
        lines = outputs["csv"].decode().splitlines()
        n = self.doc["time"]["n"]
        if lines[0].split(",") != columns:
            return "CSV header differs from the JSON column list"
        if len(lines) != n + 1:
            return f"CSV has {len(lines) - 1} rows, expected {n}"
        for row in lines[1:]:
            values = row.split(",")
            if len(values) != len(columns):
                return f"CSV row has {len(values)} values, expected {len(columns)}"
            if not all(math.isfinite(float(v)) for v in values):
                return "CSV holds a non-finite value"
        d = payload["diagnostics"]
        tols = self.doc["tolerances"]
        caus_tol = max(tols["caus_tol"], tols["fp_tol"]) if d["iterations"] > 0 else tols["caus_tol"]
        bounds = (("initial_value_error", tols["iv_tol"]), ("causality_sup", caus_tol),
                  ("weak_residual", tols["resid_tol"]))
        for key, tol in bounds:
            if not d[key] <= tol:
                return f"{key} = {d[key]:.4g} exceeds {tol:.4g}"
        self.weak_residual = d["weak_residual"]
        return None


def quartiles(values: list) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "versions": versions,
        "thread_settings": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dbf", "cli.py")):
        print("perfbench: src/dbf/cli.py not found; run from the root of a dbf-sim checkout", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed, root)
    ops = []
    try:
        ops.append(wl.run_op(0, traced=False))
        deadline = now() + args.seconds
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            ops.append(wl.run_op(len(ops), traced))
            # A traced run needs at least one traced and one untraced operation.
            if now() >= deadline and (not args.trace or len(ops) >= 3):
                break
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    measured = [op for op in ops[1:] if op["ok"]]
    plain = [op for op in measured if not op["traced"]]
    traced = [op for op in measured if op["traced"]]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "parameters": wl.doc["time"] | {"K": wl.spec["K"], "method": wl.spec["method"],
                                         "command": wl.spec["command"]},
        "attempted": len(ops), "failed": failed, "output_sha256": wl.reference,
        "environment": environment(),
        "wall_s": quartiles([op["wall"] for op in plain]) if plain else None,
        "setup_s": quartiles([op["setup"] for op in plain]) if plain else None,
    }
    metrics = {}
    if args.trace == 0 and plain:
        wall = statistics.median(op["wall"] for op in plain)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(op["setup"] for op in plain), "s"),
            "mode_steps_per_s": (wl.mode_steps / wall, "1/s"),
            "peak_rss_mb": (statistics.median(op["rss_mb"] for op in plain), "MB"),
            "weak_residual_digits": (-math.log10(max(wl.weak_residual, sys.float_info.min)), "digits"),
            "ok_frac": ((len(ops) - failed) / len(ops), "fraction"),
        }
    elif args.trace == 1 and plain and traced:
        for key, (_, unit) in traced[0]["report"]["layers"].items():
            metrics[key] = (statistics.median(op["report"]["layers"][key][0] for op in traced), unit)
        detail["traced_wall_s"] = quartiles([op["wall"] for op in traced])
        metrics["trace_overhead_s"] = (detail["traced_wall_s"]["median"] - detail["wall_s"]["median"], "s")
        spans_path = os.path.join(root, ".perfbench", f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "ok"],
                       "spans": [s for op in traced for s in op["report"]["spans"]]}, fh)
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    result_path = os.path.join(root, ".perfbench", f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
