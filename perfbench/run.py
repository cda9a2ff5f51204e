#!/usr/bin/env python3
"""nocmap benchmark: one workload, one fresh measured process, checked outputs.

    python3 perfbench/run.py --workload pso_refine --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  This process generates the workload's
inputs from ``--seed`` (reference.py, not nocmap) as .ctg files under
``.perfbench_work/``, so neither the time nor the memory of generating them
reaches the measured process.  It then starts worker.py, the measured
process, and relays its report.

With ``--trace 0`` it first starts one unmeasured set-up process to warm the
file cache and byte-code, then eight set-up-only processes; ``setup_s`` is the
median of their set-up times and the measured process's own.  Each runs from
``Popen`` to the worker's ``ready`` line: the interpreter's start-up as
measured, then the worker's imports and input loading at nominal CPU speed
(pace.py says why).

The last line of stdout is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  numpy and BLAS
are pinned to one thread; the worker is the only busy process.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("pso_refine", "large_schedule", "cli_corpus")
SETUP_SAMPLES = 8  # set-up-only processes; the measured process adds one more sample
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def write_graph(inputs: Path, name: str, n_cores: int, arcs) -> str:
    path = inputs / f"{name}.ctg"
    path.write_text(ref.format_ctg(n_cores, arcs), encoding="utf-8")
    return str(path.relative_to(ROOT))


def make_inputs(workload: str, seed: int, smoke: bool, inputs: Path) -> dict:
    """The workload's instances, all drawn from one generator seeded by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    manifest: dict = {"workload": workload, "seed": seed, "graphs": {}}
    graphs = manifest["graphs"]
    if workload == "pso_refine":
        # Criterion 8's instance: 27 tasks, 40 arcs, chain-clustered, spiral or
        # crinkle seeded on n = 3; a ddmap-seeded 100-core graph on n = 5; and
        # 4-core graphs on n = 3 for the exhaustive oracle, the first of which
        # also gets a PSO run to certify.
        manifest["oracle_graphs"] = ["oracle0", "oracle1", "oracle2"]
        shapes = [("crit8", 27, 40), ("n5", 100, 180)]
        shapes += [(name, 4, 6) for name in manifest["oracle_graphs"]]
        for name, cores, arcs in shapes:
            graphs[name] = write_graph(inputs, name, cores, ref.random_arcs(rng, cores, arcs))
        manifest["crit8_order"] = ("spiral", "crinkle")[seed % 2]
        manifest["pso_seed"] = rng.randrange(2 ** 31)
        manifest["pso_evals"] = 3_000 if smoke else 150_000
    elif workload == "large_schedule":
        shapes = ((("ddmap_n8", 27, 40, 3), ("ddmap_n10", 64, 96, 4), ("schedule", 300, 450, 4))
                  if smoke else
                  (("ddmap_n8", 512, 768, 8), ("ddmap_n10", 1000, 1500, 10), ("schedule", 3000, 4500, 10)))
        manifest["mesh"] = {}
        for name, cores, arcs, mesh_n in shapes:
            graphs[name] = write_graph(inputs, name, cores, ref.random_arcs(rng, cores, arcs))
            manifest["mesh"][name] = mesh_n
    elif workload == "cli_corpus":
        for path in sorted((ROOT / "benchmarks").glob("*.ctg")):
            graphs[path.stem] = str(path.relative_to(ROOT))
        per_shape = 1 if smoke else 20
        for cores, arcs in ((16, 24), (27, 40)):
            for i in range(per_shape):
                name = f"s{cores}_{i:02d}"
                graphs[name] = write_graph(inputs, name, cores, ref.random_arcs(rng, cores, arcs))
    return manifest


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    name = text[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy"),
            "git_sha": git_sha()}


def start_worker(manifest: Path, env: dict, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it and its set-up seconds.

    The ready line carries the worker's perf_counter at its first statement
    (CLOCK_MONOTONIC, shared by all processes) and its own set-up seconds at
    nominal CPU speed; the interpreter's start-up before it is added as measured.
    """
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--manifest", str(manifest), *extra],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    word, *values = proc.stdout.readline().split() or [""]
    if word != "ready" or len(values) != 2:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {' '.join([word, *values])!r}, exit {proc.returncode})")
    worker_started, worker_setup = map(float, values)
    return proc, (worker_started - started) + worker_setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    except BaseException:  # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run(args, work: Path) -> dict:
    began = time.perf_counter()
    inputs = work / "inputs"
    inputs.mkdir()
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(make_inputs(args.workload, args.seed, args.smoke, inputs)),
                             encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})

    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES + 1):
            proc, setup = start_worker(manifest_path, env, "--setup-only")
            finish(proc, 60)
            if i:  # the first one warms the caches and is not counted
                setups.append(setup)

    proc, setup = start_worker(manifest_path, env, "--seconds", str(args.seconds),
                               "--trace", str(args.trace))
    setups.append(setup)
    out = finish(proc, DEADLINE_S - (time.perf_counter() - began))
    *report, last = out.strip().splitlines()
    result = json.loads(last)
    for line in report:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        print(f"setup_s = {result['metrics']['setup_s']:.6f} s (median of {len(setups)} fresh processes)")
        print(f"peak_rss_mb = {result['metrics']['peak_rss_mb']:.3f} MB (measured process)")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances, for smoke.py")
    args = ap.parse_args()

    if not (ROOT / "src" / "nocmap" / "__init__.py").is_file():
        print(f"error: no nocmap source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("provenance " + json.dumps(provenance(args)))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        result = run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: worker did not report {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
