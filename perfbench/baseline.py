#!/usr/bin/env python3
"""Run every workload on ten seeds and record the end-to-end metrics in a BENCH file.

    python3 perfbench/baseline.py --out perfbench/BENCH_seed.json --key untraced --seeds 201-210
    python3 perfbench/baseline.py --out perfbench/BENCH_seed.json --key untraced_repeat --seeds 301-310

Run it from the root of a checkout.  Each run is ``run.py --trace 0`` with
BENCHMARK.json's ``run_seconds``, one after the other.  For each workload and
metric it stores the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
With a ``--key`` other than ``untraced`` it also stores the change of each
median from the ``untraced`` set already in the file.  Other keys of the file
are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--key", default="untraced")
    ap.add_argument("--seeds", default="201-210", type=seed_range)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in results[-1]["metrics"].items()), flush=True)
        entry = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results], m["unit"])
                 for m in spec["end_to_end"]}
        if args.key != "untraced" and workload in doc.get("untraced", {}).get("workloads", {}):
            first = doc["untraced"]["workloads"][workload]
            for name, stats in entry.items():
                if name in first:
                    stats["change_from_first_set"] = stats["median"] / first[name]["median"] - 1
        entry["calls_attempted_per_run"] = [r["attempted"] for r in results]
        entry["failed"] = sum(r["failed"] for r in results)
        entry["all_correct"] = all(r["correct"] for r in results)
        workloads[workload] = entry
    doc[args.key] = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0",
        "seeds": args.seeds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    worst = max((stats["spread"], f"{w} {name}") for w, entry in workloads.items()
                for name, stats in entry.items() if isinstance(stats, dict) and name != "setup_s")
    print(f"widest spread besides setup_s: {worst[0]:.3f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
