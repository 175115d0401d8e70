"""One benchmark operation: a single `dbf` command in this fresh interpreter.

    python3 perfbench/op.py REPORT TRACE OP_ID -- <dbf arguments>

Runs `dbf.cli.main` on the given arguments and exits with its code.  Before
that it notes, on the system-wide monotonic clock, when `build_scenario`
first returns (the end of set-up), and with TRACE=1 it records spans of the
program's layers.  At exit it writes REPORT, a JSON object with that time,
its own peak resident memory read with `resource`, and the traced spans and
per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys

from spans import Tracer, now


def main(argv: list) -> int:
    report_path, trace, op_id = argv[0], argv[1] == "1", int(argv[2])
    dbf_args = argv[argv.index("--") + 1:]

    import dbf
    import dbf.cli as cli

    tracer = None
    if trace:
        tracer = Tracer(op_id)
        tracer.install(dbf)
    setup_done = []
    build = cli.build_scenario

    def build_scenario(doc):
        scenario = build(doc)
        if not setup_done:
            setup_done.append(now())
        return scenario

    cli.build_scenario = build_scenario
    code = cli.main(dbf_args)
    report = {
        "setup_done": setup_done[0] if setup_done else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["layers"] = tracer.layer_metrics()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
