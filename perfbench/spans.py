"""Span tracing of the program's layers from outside the program.

`Tracer.install` rebinds the public functions of each layer to timing
wrappers.  A function is rebound under every module attribute that refers
to it, so the names that `cli`, `dbf_model` and `evo_solver` import into
their own namespaces (for example `dbf.dbf_model.solve_modal_exact` or
`dbf.evo_solver.weighted_norm`) are traced too.  Nothing under `src/` is
edited.  A target the program no longer has is skipped, and its metrics
read zero.

Spans are (name, start, end, parent, operation id, ok) tuples kept in
memory; the caller writes them out when the operation ends.  Only one
thread runs the program (`DBF_THREADS` is unset), so a plain stack gives
each span its parent.
"""

from __future__ import annotations

import functools
import os
import time

# span name -> [(module, attribute)], module relative to the `dbf` package
TARGETS = {
    "cli.load": [("cli", "load_scenario_doc")],
    "cli.build": [("cli", "build_scenario")],
    "cli.write": [("cli", "write_run_output")],
    "cli.verify": [("cli", "cmd_verify")],
    "curl_spectral.build_basis": [("curl_spectral", "build_basis")],
    "dbf_model.solve": [("dbf_model", "solve_dbf"), ("dbf_model", "solve_generalized")],
    "dbf_model.assemble": [("dbf_model", "assemble_reduced_ivp")],
    "dbf_model.lift": [("dbf_model", "recover_DB")],
    "dbf_model.residual": [("dbf_model", "verify_dbf_equation")],
    "dbf_model.energy": [("dbf_model", "material_energy_series"), ("dbf_model", "uniqueness_energy_probe")],
    "dbf_model.cross_matrix": [("dbf_model", "cross_coupling_matrix")],
    "evo_solver.ivp_validate": [("evo_solver", "AbstractIVP.__post_init__")],
    "evo_solver.exact": [("evo_solver", "solve_modal_exact")],
    "evo_solver.fixed_point": [("evo_solver", "solve_fixed_point")],
    "evo_solver.integrator": [("evo_solver", "solve_integrator")],
    "evo_solver.resolvent": [("evo_solver", "causal_resolvent")],
    "evo_solver.weak_residual": [("evo_solver", "weak_residual")],
    "weighted_time.norm": [("weighted_time", "weighted_norm")],
    "weighted_time.symbol_eval": [("weighted_time", "MaterialSymbol.evaluate"),
                                  ("weighted_time", "MaterialSymbol.sup_norm")],
}
MODULES = ("cli", "curl_spectral", "dbf_model", "evo_solver", "weighted_time")
SOLVERS = ("evo_solver.exact", "evo_solver.fixed_point", "evo_solver.integrator")


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent, op_id, ok]
        self.stack: list[int] = []
        self.counters = {"n_modes": 0, "write_bytes": 0, "iterations_max": 0,
                         "contraction_estimate": 0.0, "neumann_terms": 0}

    def _observe(self, name: str, result) -> None:
        c = self.counters
        if name == "curl_spectral.build_basis":
            c["n_modes"] = max(c["n_modes"], int(result.n_modes))
        elif name == "cli.write":
            c["write_bytes"] += sum(os.path.getsize(p) for p in result)
        elif name == "evo_solver.fixed_point":
            c["iterations_max"] = max(c["iterations_max"], int(result.iterations))
            c["contraction_estimate"] = max(c["contraction_estimate"], float(result.contraction_estimate))
        elif name == "dbf_model.solve":
            c["neumann_terms"] = max(c["neumann_terms"], int(result.diagnostics.get("neumann_terms", 0)))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, now(), None, self.stack[-1] if self.stack else None, self.op_id, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                return result
            finally:
                span[2] = now()
                self.stack.pop()
                if span[5]:
                    self._observe(name, result)
        return traced

    def install(self, package) -> None:
        """Rebind every target under each module attribute that refers to it."""
        modules = [getattr(package, m) for m in MODULES]
        for name, targets in TARGETS.items():
            for mod_name, attr in targets:
                owner = getattr(package, mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                traced = self.wrap(name, original)
                for mod in [owner] + modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def layer_metrics(self) -> dict:
        """Per-layer times and counts of this operation, as (value, unit).

        A layer's time sums its outermost spans (a span nested directly in a
        span of the same name is not counted twice); self time subtracts the
        direct children.
        """
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        ok_calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        for name, start, end, parent, _, ok in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            ok_calls[name] = ok_calls.get(name, 0) + int(ok)
            self_time[name] = self_time.get(name, 0.0) + dur
            if parent is not None:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - dur
                if pname == name:
                    continue
            total[name] = total.get(name, 0.0) + dur
        c = self.counters
        write_s = total.get("cli.write", 0.0)
        write_mb = c["write_bytes"] / 1e6
        ivps = calls.get("evo_solver.ivp_validate", 0)
        solved = sum(ok_calls.get(s, 0) for s in SOLVERS)
        return {
            "cli.load_s": (total.get("cli.load", 0.0), "s"),
            "cli.build_s": (total.get("cli.build", 0.0), "s"),
            "cli.write_s": (write_s, "s"),
            "cli.write_mb": (write_mb, "MB"),
            "cli.write_mb_per_s": (write_mb / write_s if write_s > 0 else 0.0, "MB/s"),
            "cli.verify_self_s": (self_time.get("cli.verify", 0.0), "s"),
            "curl_spectral.build_basis_s": (total.get("curl_spectral.build_basis", 0.0), "s"),
            "curl_spectral.n_modes": (c["n_modes"], "count"),
            "dbf_model.assemble_s": (total.get("dbf_model.assemble", 0.0), "s"),
            "dbf_model.solve_self_s": (self_time.get("dbf_model.solve", 0.0), "s"),
            "dbf_model.lift_s": (total.get("dbf_model.lift", 0.0), "s"),
            "dbf_model.residual_s": (total.get("dbf_model.residual", 0.0), "s"),
            "dbf_model.energy_s": (total.get("dbf_model.energy", 0.0), "s"),
            "dbf_model.cross_matrix_s": (total.get("dbf_model.cross_matrix", 0.0), "s"),
            "dbf_model.neumann_terms": (c["neumann_terms"], "count"),
            "dbf_model.blocks_solved_ratio": (solved / ivps if ivps else 0.0, "ratio"),
            "evo_solver.ivp_validate_s": (total.get("evo_solver.ivp_validate", 0.0), "s"),
            "evo_solver.ivp_count": (ivps, "count"),
            "evo_solver.exact_s": (total.get("evo_solver.exact", 0.0), "s"),
            "evo_solver.exact_calls": (calls.get("evo_solver.exact", 0), "count"),
            "evo_solver.fixed_point_s": (total.get("evo_solver.fixed_point", 0.0), "s"),
            "evo_solver.fixed_point_calls": (calls.get("evo_solver.fixed_point", 0), "count"),
            "evo_solver.picard_sweeps": (calls.get("evo_solver.resolvent", 0), "count"),
            "evo_solver.iterations_max": (c["iterations_max"], "count"),
            "evo_solver.contraction_estimate": (c["contraction_estimate"], "ratio"),
            "evo_solver.resolvent_s": (total.get("evo_solver.resolvent", 0.0), "s"),
            "evo_solver.weak_residual_s": (total.get("evo_solver.weak_residual", 0.0), "s"),
            "weighted_time.norm_s": (total.get("weighted_time.norm", 0.0), "s"),
            "weighted_time.norm_calls": (calls.get("weighted_time.norm", 0), "count"),
            "weighted_time.symbol_eval_s": (total.get("weighted_time.symbol_eval", 0.0), "s"),
            "weighted_time.symbol_eval_calls": (calls.get("weighted_time.symbol_eval", 0), "count"),
        }
