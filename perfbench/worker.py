"""One benchmark worker: a fresh interpreter that runs a workload's passes.

Usage: ``python3 perfbench/worker.py CONFIG.json`` (started by ``run.py``).

The first pass runs cold, straight after ``import ringline.cli``; one warm
pass follows.  In trace mode a traced pass runs too, before or after the
warm one, so the tracing overhead is the traced pass minus the warm one.
Each op's output is checked after its pass, outside the timed region.
Between ops the worker times the ``calibrate`` kernel; the kernel's factor
scales all the worker's times to reference seconds.  The result goes to
``CONFIG.result``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from calibrate import Speedometer
from tracing import Tracer, layer_metrics
from workloads import Inputs, check_cliques, check_op, make_ops


def run_pass(cli_main, ops, inputs, speedometer, tracer=None):
    """Run every op once; return the pass record.

    The pass time is the sum of the op times, so the kernel samples taken
    between ops are not part of it.
    """
    outputs = []
    times = []
    if tracer is not None:
        tracer.spans.clear()
        tracer.install()
    try:
        for index, op in enumerate(ops):
            stdout, stderr = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = index
                root = tracer.open("cli.op_s")
            op_started = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli_main(op.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed op, not a dead benchmark
                    code = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - op_started)
            if tracer is not None:
                tracer.close(root)
                root.counts["cli.output_bytes"] = len(stdout.getvalue().encode("utf-8"))
            outputs.append((code, stdout.getvalue(), stderr.getvalue()))
            speedometer.sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = {}
    for index, (op, (code, stdout, stderr)) in enumerate(zip(ops, outputs)):
        errors = check_op(op, code, stdout, inputs)
        if tracer is not None and op.kind == "report" and code == 0:
            errors += check_cliques(op, tracer.clique_results(index))
        if errors and stderr.strip():
            errors.append(f"stderr: {stderr.strip()[-300:]}")
        if errors:
            failures[op.label] = errors
        if op.out is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(op.out)
    record = {"wall": sum(times), "ops": times, "failures": failures}
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans)
    return record


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, config["src"])
    from ringline.cli import main as cli_main

    inputs = Inputs(**config["inputs"])
    ops = make_ops(config["workload"], inputs, Path(config["tmp"]))
    tracer = Tracer() if config["trace"] else None
    kinds = ["cold", "warm"]
    if tracer:
        # Alternate the order over workers, so pass position biases no side.
        kinds.insert(1 + config["worker"] % 2, "traced")
    speedometer = Speedometer()
    passes = []
    for kind in kinds:
        record = run_pass(cli_main, ops, inputs, speedometer, tracer if kind == "traced" else None)
        passes.append(dict(record, kind=kind))
        if kind == "traced" and config["spans"]:
            tracer.dump(config["spans"], config["worker"], [op.label for op in ops])
    for record in passes:
        record["factor"] = speedometer.factor
    result = {
        "labels": [op.label for op in ops],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(config["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
