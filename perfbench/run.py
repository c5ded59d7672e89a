"""The ringline benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-ladder --seed 0 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  A run measures ``setup_s``
(a fresh interpreter importing ``ringline`` and ``ringline.cli``, several
times), then starts fresh worker processes one after another until
``--seconds`` have gone by.  Each worker runs the workload's ops through
``ringline.cli.main(argv)``: a cold first pass, then a warm one; workers
take turns over ``LABELLINGS`` relabellings of the seed's rings.  Every
op's output is checked against ``expected.json``.  ``--trace 1`` adds a
traced pass to each worker and reports the per-layer metrics of
``tracing.py`` and the tracing overhead instead of the end-to-end ones.
Times are scaled to a reference host speed; see ``calibrate.py``.

Stdout: a table of every metric with its unit and sample count, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  The
metric names and units are those listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import Speedometer
from workloads import LARGEST_OP, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
LABELLINGS = 3
WORKER_TIMEOUT_S = 170


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Order-64 rings (T(4)) are past the default line-scan bound of 32.
    env["RINGLINE_MAX_ORDER"] = "64"
    return env


def measure_setup(env) -> tuple[list[float], float]:
    """Wall times of fresh interpreters importing the package and its CLI,
    and the calibration factor of the interval they ran in."""
    samples = []
    speedometer = Speedometer()
    for _ in range(SETUP_SAMPLES):
        speedometer.sample()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ringline, ringline.cli"],
            env=env, check=True, cwd=ROOT,
        )
        samples.append(time.perf_counter() - started)
    speedometer.sample()
    return samples, speedometer.factor


def run_worker(config: dict, tmp: Path, env) -> dict:
    config_path = tmp / "worker.json"
    config["result"] = str(tmp / "result.json")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(config_path)],
        env=env, check=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(Path(config["result"]).read_text(encoding="utf-8"))


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(result: dict, workload: str, setup: tuple[list[float], float]) -> dict[str, tuple[float, int, float]]:
    """Metric name -> (value, sample count, unscaled value)."""
    cold = [p for p in result["passes"] if p["kind"] == "cold"]
    warm = [p for p in result["passes"] if p["kind"] == "warm"]
    heaviest = result["labels"].index(LARGEST_OP[workload])
    attempted, failed = _tally(result)
    setup_samples, setup_factor = setup
    rss = result["peak_rss_mb"]
    return {
        "sweep_s": _scaled([(p["wall"], p["factor"]) for p in warm]),
        "largest_op_s": _scaled([(p["ops"][heaviest], p["factor"]) for p in cold + warm]),
        "first_pass_s": _scaled([(p["wall"], p["factor"]) for p in cold]),
        "setup_s": _scaled([(s, setup_factor) for s in setup_samples]),
        "peak_rss_mb": (_median(rss), len(rss), _median(rss)),
        "ok_ratio": ((attempted - failed) / attempted, attempted, (attempted - failed) / attempted),
    }


def per_layer(result: dict, units: dict[str, str]) -> dict[str, tuple[float, int, float]]:
    """Per-layer medians over the traced passes, and the tracing overhead."""
    traced = [p for p in result["passes"] if p["kind"] == "traced"]
    plain = [p for p in result["passes"] if p["kind"] == "warm"]
    metrics = {}
    for name in traced[0]["layers"]:
        pairs = [(p["layers"][name], p["factor"] if units.get(name) == "s" else 1.0) for p in traced]
        metrics[name] = _scaled(pairs)
    # A worker's traced and warm passes share one factor.
    metrics["trace.overhead_s"] = _scaled([(t["wall"] - w["wall"], t["factor"]) for t, w in zip(traced, plain)])
    ratios = [(t["wall"] - w["wall"]) / w["wall"] for t, w in zip(traced, plain)]
    metrics["trace.overhead_ratio"] = (_median(ratios), len(ratios), _median(ratios))
    return metrics


def _tally(result: dict) -> tuple[int, int]:
    """(ops attempted, ops failed) over every pass of every worker."""
    attempted = len(result["labels"]) * len(result["passes"])
    return attempted, sum(len(p["failures"]) for p in result["passes"])


def _scaled(pairs: list[tuple[float, float]]) -> tuple[float, int, float]:
    """(median of value x factor, sample count, median unscaled value)."""
    return _median(v * f for v, f in pairs), len(pairs), _median(v for v, _ in pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", metavar="FILE", help="with --trace 1, also write every span as a JSON line")
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    if not (SRC / "ringline" / "cli.py").is_file():
        return _die(f"no ringline package under {SRC}")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = listed["per_layer" if args.trace else "end_to_end"]

    # One CPU for the whole run, so that the calibration kernel and the ops
    # it scales always share the same core's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = _environment()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        sys.path.insert(0, str(SRC))
        labellings = []
        for k in range(LABELLINGS):
            (tmp / f"labelling{k}").mkdir()
            labellings.append(make_inputs(args.workload, args.seed, k, ROOT, tmp / f"labelling{k}"))
        setup = measure_setup(env)
        workers = []
        started = time.perf_counter()
        while not workers or time.perf_counter() - started < args.seconds:
            workers.append(run_worker({
                "src": str(SRC), "tmp": str(tmp), "workload": args.workload,
                "trace": bool(args.trace), "worker": len(workers),
                "spans": str(Path(args.spans).resolve()) if args.spans else None,
                "inputs": vars(labellings[len(workers) % LABELLINGS]),
            }, tmp, env))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return _die(f"run failed: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "labels": workers[0]["labels"],
        "passes": [p for w in workers for p in w["passes"]],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
    }

    units = {m["name"]: m["unit"] for m in wanted}
    measured = per_layer(result, units) if args.trace else end_to_end(result, args.workload, setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return _die(f"metrics not measured: {', '.join(missing)}")

    attempted, failed = _tally(result)
    for index, record in enumerate(result["passes"]):
        for label, errors in record["failures"].items():
            print(f"FAILED pass {index} ({record['kind']}) {label}: {'; '.join(errors)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  ops {attempted}  failed {failed}")
    print(f"{'metric':<44} {'value':>12} {'unit':<6} {'samples':>7} {'unscaled':>12}")
    metrics = {}
    for entry in wanted:
        value, samples, raw = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<44} {value:>12.6g} {entry['unit']:<6} {samples:>7} {raw:>12.6g}")
    print(f"correct: {'yes' if failed == 0 else 'NO'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
