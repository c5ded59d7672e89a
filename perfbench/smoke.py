"""Smoke test of the benchmark: one short run of each workload, both modes.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Each workload runs with ``--seconds 0`` (a cold pass plus the fewest warm
passes a mode needs), once untraced and once traced, seed 0 and seed 1
alternating.  The test fails unless every run is correct, prints exactly
the metrics ``BENCHMARK.json`` names with their units, and the traced run
writes spans.  It is not collected by the tier-1 pytest run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for index, workload in enumerate(w["name"] for w in listed["workloads"]):
        for trace in (0, 1):
            with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
                spans = Path(tmp) / "spans.jsonl"
                argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(index % 2), "--seconds", "0", "--trace", str(trace)]
                if trace:
                    argv += ["--spans", str(spans)]
                done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
                name = f"{workload} trace={trace}"
                before = len(problems)
                if done.returncode != 0:
                    problems.append(f"{name}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                wanted = {m["name"]: m["unit"] for m in listed["per_layer" if trace else "end_to_end"]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted:
                    problems.append(f"{name}: metrics {sorted(got.items())} != {sorted(wanted.items())}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{name}: not correct: {done.stdout.strip()[-800:]}")
                if trace and not (spans.is_file() and spans.stat().st_size):
                    problems.append(f"{name}: no spans written")
                print(f"{name}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
