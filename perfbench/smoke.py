#!/usr/bin/env python3
"""Smoke run of the benchmark on tiny instances, in about a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--smoke --seconds 1``, untraced
once and traced twice with the same seed, and fails unless each result line
has exactly the keys correct, attempted, failed and metrics, is correct with no failed call, reports
exactly the metrics BENCHMARK.json lists with their units (end-to-end ones
non-zero), and the two traced runs counted the same calls.  It also checks
that BENCHMARK.json's per-layer list is the one tracer.py defines.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def problems(result: dict, spec: list[dict], end_to_end: bool) -> list[str]:
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        found.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        found.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    if end_to_end:
        found += [f"{name} is 0" for name, m in result["metrics"].items() if not m["value"]]
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != tracer.per_layer_spec():
        failures.append("BENCHMARK.json per_layer differs from tracer.per_layer_spec()")
        print(failures[-1])
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, 0)
        traced = [run(workload, 1) for _ in range(2)]
        found = problems(untraced, spec["end_to_end"], True)
        for result in traced:
            found += problems(result, spec["per_layer"], False)
        counts = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")} for r in traced]
        if counts[0] != counts[1]:
            found.append("call counts differ between two traced runs of one seed")
        print(f"{workload}: {'ok' if not found else '; '.join(found)}")
        failures += found
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
