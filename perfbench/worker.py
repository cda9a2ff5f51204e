"""The measured process: set up one workload, run it for a fixed time, check it.

run.py starts this script in a fresh interpreter with the manifest of inputs
it generated.  Set-up ends when nocmap is imported and the inputs are loaded;
the script then prints ``ready`` with the time it started and its set-up
seconds at nominal CPU speed (pace.py), and run.py adds the interpreter's
start-up before that.  With ``--setup-only`` it exits there.

Otherwise it runs rounds of the workload in a closed loop with one caller:
each call starts when the previous one returned, and every round repeats the
same calls on the same inputs.  A new round starts only while the median
round still fits in ``--seconds``.  Only calls into nocmap are timed; the
checks between them are not.  Every call's output is checked against
reference.py, and a call that raises or fails a check counts as failed.

Each distinct call of a round has its own label, and a time metric sums, over
one round's calls, the median of each call's repeats.  Every call's time is
first scaled to nominal CPU speed by the probes pace.py took during it (or
around it, for calls shorter than a few probe intervals): on a shared host
other tenants slow whole runs down by up to 1.8x, and only a measure of the
CPU's speed taken at the same moment on the same CPU takes that out.  The
measured times are printed beside the scaled ones.

With ``--trace 1`` the first half of the time runs untraced, then tracer.py
wraps the library and the remaining rounds are traced; per-layer metrics are
means per traced round, and the overhead is the traced minus the untraced
median round time.  These are measured times: pace.py stops sampling once
set-up is over, so that no probe lands inside a span.

The last line of stdout is a JSON object for run.py; the lines before it
are the human-readable report.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # CLOCK_MONOTONIC, so run.py can compare it with its own clock

import pace  # noqa: E402

PACE = pace.Pace()
PACE.start()  # before the imports below, which are part of set-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# After the sys.path entry, so the checkout's own source is what gets measured.
from nocmap import cli, harness, mappers, metrics, pso, scheduler, taskgraph, topology  # noqa: E402


class OpFailed(Exception):
    """A timed call raised; the rest of its chain is skipped."""


class Recorder:
    """Times calls into nocmap, counts failures, and digests each round's results.

    Labels are ``kind:instance`` and unique within a round.
    """

    def __init__(self, pace: pace.Pace):
        self.pace = pace
        self.spans: list[tuple[str, float, float, float]] = []  # (label, start, end, seconds)
        self.times: dict[str, list[float]] = {}  # label -> its repeats at nominal speed, after rescale()
        self.measured: dict[str, list[float]] = {}  # label -> its repeats as measured
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.round_times: list[float] = []
        self.digests: list[str] = []

    def begin_round(self) -> None:
        self._round_time = 0.0
        self._digest = hashlib.sha256()

    def end_round(self) -> None:
        self.round_times.append(self._round_time)
        self.digests.append(self._digest.hexdigest())

    def call(self, label: str, fn, *args, **kwargs):
        """Time one call; returns (result, op id), raises OpFailed if it raised."""
        self.attempted += 1
        op = self.attempted
        spent = self.pace.spent
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the library failed; record it and skip the chain
            self.check(op, False, f"{label} raised {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        finally:
            end = time.perf_counter()
            elapsed = end - start - (self.pace.spent - spent)
            self.spans.append((label, start, end, elapsed))
            self._round_time += elapsed
        return result, op

    def rescale(self) -> None:
        """Group the calls' seconds by label, as measured and at nominal CPU speed."""
        for label, start, end, elapsed in self.spans:
            self.measured.setdefault(label, []).append(elapsed)
            self.times.setdefault(label, []).append(self.pace.scaled(start, end, elapsed))

    def check(self, op: int, ok: bool, message: str) -> None:
        if not ok:
            self.failed_ops.add(op)
            if len(self.problems) < 10:
                self.problems.append(message)

    def digest(self, *items) -> None:
        self._digest.update(repr(items).encode())

    def labels(self, *kinds: str) -> list[str]:
        return [label for label in self.times if label.split(":")[0] in kinds]

    def round_seconds(self, labels, times=None) -> float:
        """One round of these calls, each at the median of its repeats."""
        times = self.times if times is None else times
        return sum(statistics.median(times[label]) for label in labels)


def check_eval(rec: Recorder, op: int, what: str, arcs, placement, mesh_n: int, report) -> None:
    """The library's EvalReport against the reference evaluator."""
    energy, cost, latency = ref.evaluate(arcs, placement, mesh_n)
    rec.check(op, ref.close(report.total_energy, energy), f"{what}: energy {report.total_energy!r} != {energy!r}")
    rec.check(op, report.comm_cost == cost, f"{what}: cost {report.comm_cost!r} != {cost!r}")
    rec.check(op, ref.close(report.avg_latency, latency), f"{what}: latency {report.avg_latency!r} != {latency!r}")


def check_placement(rec: Recorder, op: int, what: str, placement, n_cores: int, tiles: int,
                    injective: bool, max_per_tile: int | None = None) -> bool:
    problems = ref.placement_problems(placement, n_cores, tiles, injective, max_per_tile)
    for p in problems:
        rec.check(op, False, f"{what}: {p}")
    return not problems


# ---------------------------------------------------------------- pso_refine

def round_pso_refine(st: dict, rec: Recorder) -> None:
    mesh3, mesh5 = topology.Mesh3D(3), topology.Mesh3D(5)
    params = pso.PsoParams(seed=st["pso_seed"], max_evals_per_simulation=st["pso_evals"])
    for chain in (_crit8, _n5, _oracle):
        try:
            chain(st, rec, params, mesh3, mesh5)
        except OpFailed:
            pass


def _refine(rec, name, g, arcs, mesh, params, seed_map, seed_energy):
    """pso_optimize plus evaluate, with the checks every PSO result gets."""
    res, op = rec.call(f"pso:{name}", pso.pso_optimize, g, mesh, params, "energy", seed_mapping=seed_map)
    report, _ = rec.call(f"evaluate:{name}", metrics.evaluate, g, res.mapping, mesh)
    if check_placement(rec, op, name, res.mapping, g.n_cores, mesh.tile_count, injective=True):
        energy, _, _ = ref.evaluate(arcs, res.mapping, mesh.n)
        rec.check(op, ref.close(res.fitness, energy), f"{name}: fitness {res.fitness!r} != {energy!r}")
        check_eval(rec, op, name, arcs, res.mapping, mesh.n, report)
    if seed_energy is not None:
        rec.check(op, res.fitness <= seed_energy * (1 + ref.REL_TOL),
                  f"{name}: result {res.fitness!r} worse than its seed {seed_energy!r}")
    rec.digest(name, sorted(res.mapping.items()), res.fitness)
    return res, op


def _crit8(st, rec, params, mesh3, mesh5):
    g, (n, arcs) = st["graphs"]["crit8"], st["ref"]["crit8"]
    cs, op = rec.call("cluster_tasks:crit8", scheduler.cluster_tasks, g, mesh3.tile_count)
    members = sorted(t for cluster in cs.clusters for t in cluster)
    rec.check(op, members == list(range(n)) and len(cs.clusters) <= mesh3.tile_count,
              "cluster_tasks: not a partition into at most 27 clusters")
    cluster_of = {t: i for i, cluster in enumerate(cs.clusters) for t in cluster}
    cg, op = rec.call("cluster_graph:crit8", scheduler.cluster_graph, g, cs)
    expected = ref.aggregate_clusters(arcs, cluster_of)
    got = {(a.src, a.dst): (a.volume, a.bandwidth) for a in cg.arcs}
    rec.check(op, got == expected and cg.n_cores == len(cs.clusters),
              "cluster_graph: arcs differ from the reference aggregation")
    cg_arcs = [(p, q, v, b) for (p, q), (v, b) in sorted(expected.items())]
    order = (mappers.spiral_order if st["crit8_order"] == "spiral" else mappers.crinkle_order)(mesh3)
    seed_map, op = rec.call("sequence_map:crit8", mappers.sequence_map, cg, mesh3, order)
    seed_energy = None
    if check_placement(rec, op, "sequence_map", seed_map, cg.n_cores, 27, injective=True):
        seed_energy = ref.evaluate(cg_arcs, seed_map, 3)[0]
    _refine(rec, "crit8", cg, cg_arcs, mesh3, params, seed_map, seed_energy)


def _n5(st, rec, params, mesh3, mesh5):
    g, (n, arcs) = st["graphs"]["n5"], st["ref"]["n5"]
    seed_map, op = rec.call("ddmap:n5", mappers.ddmap, g, mesh5)
    seed_energy = None
    if check_placement(rec, op, "ddmap", seed_map, n, mesh5.tile_count, injective=True):
        seed_energy = ref.evaluate(arcs, seed_map, 5)[0]
    _refine(rec, "n5", g, arcs, mesh5, params, seed_map, seed_energy)


def _oracle(st, rec, params, mesh3, mesh5):
    """Exhaustive optimum of each 4-core graph; the first also certifies a PSO run."""
    optima = st.setdefault("optima", {})
    for i, name in enumerate(st["oracle_graphs"]):
        g, (n, arcs) = st["graphs"][name], st["ref"][name]
        if i == 0:
            res, pso_op = _refine(rec, name, g, arcs, mesh3, params, None, None)
        (value, best), op = rec.call(f"oracle:{name}", harness.exhaustive_oracle, g, mesh3)
        if name not in optima:  # computed once, outside any timed call
            optima[name] = ref.energy_optimum(arcs, n, 3)
        rec.check(op, ref.close(value, optima[name][0]),
                  f"oracle {name}: optimum {value!r} != reference {optima[name][0]!r}")
        if check_placement(rec, op, "oracle", best, n, 27, injective=True):
            rec.check(op, ref.close(ref.evaluate(arcs, best, 3)[0], value),
                      f"oracle {name}: mapping does not attain its value")
        if i == 0:
            rec.check(pso_op, res.fitness >= value * (1 - ref.REL_TOL),
                      f"pso {name}: {res.fitness!r} beats the exhaustive optimum {value!r}")
            st["hits"] = st.get("hits", 0) + ref.close(res.fitness, value)
        rec.digest(name, value, sorted(best.items()))


def report_pso_refine(st: dict, rec: Recorder) -> tuple[dict, list[str]]:
    swarm = pso.PsoParams().swarm_size
    evals_per_call = swarm * (st["pso_evals"] // swarm)  # whole swarm passes within the budget
    runs, oracles = rec.labels("pso"), rec.labels("oracle")
    evals_per_s = evals_per_call * len(runs) / rec.round_seconds(runs)
    assignments = sum(st["optima"][label.split(":")[1]][1] for label in oracles)
    assignments_per_s = assignments / rec.round_seconds(oracles)
    lines = [f"pso_evals_per_s = {evals_per_s:.1f} evals/s ({len(runs)} pso_optimize calls "
             f"of {evals_per_call} evals per round)"]
    lines += [f"  {label}: {evals_per_call / statistics.median(rec.times[label]):.1f} evals/s" for label in runs]
    lines += [f"oracle_assignments_per_s = {assignments_per_s:.1f} assignments/s "
              f"({len(oracles)} oracle calls of {assignments // len(oracles)} assignments per round)",
              f"pso equals the exhaustive optimum in {st.get('hits', 0)}/{len(rec.times[runs[-1]])} runs"]
    return {"work_per_s": evals_per_s}, lines


# ------------------------------------------------------------ large_schedule

GRAPH_OF = {"ddmap_n8": "ddmap_n8", "ddmap_n10": "ddmap_n10",
            "dynamic_schedule": "schedule", "cluster_schedule": "schedule"}


def round_large_schedule(st: dict, rec: Recorder) -> None:
    for name, graph in GRAPH_OF.items():
        g, (n, arcs) = st["graphs"][graph], st["ref"][graph]
        mesh = topology.Mesh3D(st["mesh"][graph])
        tiles = mesh.tile_count
        try:
            if name.startswith("ddmap"):
                placement, op = rec.call(f"place:{name}", mappers.ddmap, g, mesh)
                ok = check_placement(rec, op, name, placement, n, tiles, injective=True)
            else:
                sched, op = rec.call(f"place:{name}", getattr(scheduler, name), g, mesh)
                placement = sched.placement
                # dynamic scheduling stacks rounds of one core per tile
                cap = -(-n // tiles) if name == "dynamic_schedule" else None
                ok = check_placement(rec, op, name, placement, n, tiles, injective=False, max_per_tile=cap)
            report, eop = rec.call(f"evaluate:{name}", metrics.evaluate, g, placement, mesh)
            if ok:
                check_eval(rec, eop, name, arcs, placement, mesh.n, report)
            rec.digest(name, sorted(placement.items()), report.total_energy, report.comm_cost)
        except OpFailed:
            pass


def report_large_schedule(st: dict, rec: Recorder) -> tuple[dict, list[str]]:
    places, evals = rec.labels("place"), rec.labels("evaluate")
    tasks = sum(st["ref"][GRAPH_OF[label.split(":")[1]]][0] for label in places)
    arcs = sum(len(st["ref"][GRAPH_OF[label.split(":")[1]]][1]) for label in evals)
    tasks_per_s = tasks / rec.round_seconds(places)
    arcs_per_s = arcs / rec.round_seconds(evals)
    lines = [f"tasks_placed_per_s = {tasks_per_s:.1f} tasks/s ({tasks} tasks placed per round)",
             f"evaluate_arcs_per_s = {arcs_per_s:.1f} arcs/s ({arcs} arcs evaluated per round)"]
    lines += [f"  {label}: {statistics.median(rec.times[label]) * 1e3:.3f} ms" for label in places]
    return {"work_per_s": tasks_per_s}, lines


# ---------------------------------------------------------------- cli_corpus

def _run_cli(argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def round_cli_corpus(st: dict, rec: Recorder) -> None:
    out = st["work"] / "cli_round"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    csv_path = out / "rows.csv"
    variants = [["map", "--algo", algo] for algo in mappers.MAPPERS]
    variants += [["schedule", "--mode", mode] for mode in ("dynamic", "cluster")]
    runs = []
    for path in st["graphs"]:
        for variant in variants:
            argv = [variant[0], "--graph", path, "--mesh", "3", *variant[1:],
                    "--out", str(out), "--csv", str(csv_path)]
            try:
                (code, text), op = rec.call(f"cli:{path}:{variant[-1]}", _run_cli, argv)
            except OpFailed:
                continue
            rec.check(op, code == 0 and text.count("\n") == 1, f"cli {' '.join(argv)}: exit {code}, output {text!r}")
            runs.append(op)
    if not runs:
        return

    rows = {}
    with csv_path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows[(row["benchmark"], row["mode"], row["algo"])] = row
    artifacts = sorted(out.glob("*.map"))
    rec.check(runs[-1], len(artifacts) == len(runs) == len(rows),
              f"cli: {len(runs)} runs wrote {len(artifacts)} artifacts and {len(rows)} CSV rows")
    for artifact in artifacts:
        what = artifact.name
        try:
            audit, op = rec.call(f"audit:{what}", harness.audit_artifact, artifact)
        except OpFailed:
            continue
        placement, header = ref.parse_artifact(artifact.read_text(encoding="utf-8"))
        n, arcs = st["ref"][header["graph"]]
        mesh_n = int(header["mesh"])
        if not check_placement(rec, op, what, placement, n, mesh_n ** 3, injective=header["mode"] == "map"):
            continue
        energy, cost, latency = ref.evaluate(arcs, placement, mesh_n, float(header["e_switch"]),
                                             float(header["e_link"]), float(header["rho"]))
        row = rows.get((header["benchmark"], header["mode"], header["algo"]))
        rec.check(op, row is not None, f"{what}: no CSV row")
        if row is None:
            continue
        csv_latency = float(row["avg_latency"]) if row["avg_latency"] else None
        for source, e, c, lat in (("audit", audit.total_energy, audit.comm_cost, audit.avg_latency),
                                  ("csv", float(row["total_energy"]), int(row["comm_cost"]), csv_latency)):
            rec.check(op, ref.close(e, energy) and c == cost and ref.close(lat, latency),
                      f"{what}: {source} ({e!r}, {c!r}, {lat!r}) != reference ({energy!r}, {cost!r}, {latency!r})")
        rec.digest(what, sorted(placement.items()),
                   sorted((k, v) for k, v in row.items() if k != "runtime_ms"))


def report_cli_corpus(st: dict, rec: Recorder) -> tuple[dict, list[str]]:
    runs, audits = rec.labels("cli"), rec.labels("audit")
    runs_per_s = len(runs) / rec.round_seconds(runs)
    audits_per_s = len(audits) / rec.round_seconds(audits)
    samples = [t for label in runs for t in rec.times[label]]
    p95 = statistics.quantiles(samples, n=100)[94]
    lines = [
        f"runs_per_s = {runs_per_s:.2f} runs/s ({len(runs)} distinct cli.main runs per round)",
        f"run_ms_p50 = {statistics.median(samples) * 1e3:.4f} ms (n={len(samples)})",
        f"run_ms_p95 = {p95 * 1e3:.4f} ms (n={len(samples)}, {sum(t > p95 for t in samples)} runs above it)",
        f"audits_per_s = {audits_per_s:.2f} audits/s ({len(audits)} audit_artifact calls per round)",
    ]
    return {"work_per_s": runs_per_s}, lines


# --------------------------------------------------------------------- main

ROUNDS = {"pso_refine": round_pso_refine, "large_schedule": round_large_schedule,
          "cli_corpus": round_cli_corpus}
REPORTS = {"pso_refine": report_pso_refine, "large_schedule": report_large_schedule,
           "cli_corpus": report_cli_corpus}


def load(manifest: dict) -> dict:
    """Set-up: parse every input with the library (cli_corpus leaves that to the CLI)."""
    st = {key: manifest[key] for key in manifest if key != "graphs"}
    if manifest["workload"] == "cli_corpus":
        st["graphs"] = list(manifest["graphs"].values())
    else:
        st["graphs"] = {
            name: taskgraph.parse_graph(Path(path).read_text(encoding="utf-8"))
            for name, path in manifest["graphs"].items()
        }
    return st


def run_rounds(workload: str, st: dict, rec: Recorder, seconds: float) -> list[float]:
    """Closed loop of at least one round; returns each round's timed-call seconds."""
    start = time.perf_counter()
    walls: list[float] = []
    first = len(rec.round_times)
    while True:
        began = time.perf_counter()
        rec.begin_round()
        ROUNDS[workload](st, rec)
        rec.end_round()
        walls.append(time.perf_counter() - began)
        if (time.perf_counter() - start) + statistics.median(walls) > seconds:
            return rec.round_times[first:]


def trace_report(workload: str, tracer: Tracer, traced: list[float], untraced: list[float]):
    out = tracer.metrics(len(traced))
    out["trace.traced_wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - statistics.median(untraced)
    lines = [f"tracing overhead = {out['trace.overhead_s']:.4f} s per round "
             f"(traced {out['trace.traced_wall_s']:.4f} s, median of {len(traced)} rounds; "
             f"untraced {statistics.median(untraced):.4f} s, median of {len(untraced)})"]
    if workload == "pso_refine" and out["pso.pso_optimize.total_s"]:
        share = out["pso.repair_permutation.self_s"] / out["pso.pso_optimize.total_s"]
        lines.append(f"pso.repair_permutation.self_s is {100 * share:.1f}% of pso.pso_optimize.total_s "
                     "(traced; ROADMAP estimate ~80%)")
    lines.append(f"absent targets: {', '.join(tracer.absent) or 'none'}")
    if tracer.broken_extras:
        lines.append(f"extra counters dropped: {', '.join(sorted(tracer.broken_extras))}")
    lines.append("heaviest caller -> callee edges, per traced round:")
    edges = sorted(tracer.edges.items(), key=lambda kv: -kv[1][1])[:12]
    lines += [f"  {caller} -> {callee}: {calls / len(traced):.0f} calls, {secs / len(traced):.4f} s"
              for (caller, callee), (calls, secs) in edges]
    return out, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    workload = manifest["workload"]
    st = load(manifest)
    ready = time.perf_counter()
    setup = PACE.scaled(STARTED, ready, ready - STARTED - PACE.spent)
    print(f"ready {STARTED!r} {setup!r}", flush=True)
    if args.setup_only:
        return 0

    # Reference copies of the inputs, parsed by reference.py, outside set-up and timing.
    st["work"] = Path(args.manifest).parent
    st["ref"] = {}
    for name, path in manifest["graphs"].items():
        parsed = ref.parse_ctg(Path(path).read_text(encoding="utf-8"))
        st["ref"][name] = st["ref"][path] = parsed

    rec = Recorder(PACE)
    if args.trace:
        PACE.stop()
        started = time.perf_counter()
        untraced = run_rounds(workload, st, rec, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = run_rounds(workload, st, rec, args.seconds - (time.perf_counter() - started))
        out, lines = trace_report(workload, tracer, traced, untraced)
    else:
        run_rounds(workload, st, rec, args.seconds)
        PACE.stop()
        rec.rescale()
        named, lines = REPORTS[workload](st, rec)
        wall = rec.round_seconds(rec.times)
        out = {"wall_s": wall, **named,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
        lines[:0] = [
            f"wall_s = {wall:.6f} s (one round of {len(rec.times)} calls, each at the median of its "
            f"{len(rec.round_times)} repeats, at nominal CPU speed)",
            f"measured wall_s = {rec.round_seconds(rec.times, rec.measured):.6f} s (the same, unscaled)",
        ] + [
            f"pace: {probe.__name__} median {statistics.median(times) * 1e6:.2f} us, fastest "
            f"{min(times) * 1e6:.2f} us, nominal {nominal * 1e6:.2f} us ({len(times)} samples)"
            for (probe, nominal), times in zip(pace.PROBES, PACE.samples)
        ]

    distinct = len(set(rec.digests))
    if distinct > 1:
        rec.failed_ops.add(0)
        rec.problems.append(f"rounds disagree: {distinct} distinct result digests")
    lines.append(f"result digest {rec.digests[0][:16]} (identical in all {len(rec.digests)} rounds: {distinct == 1})")
    failed = len(rec.failed_ops)
    lines.append(f"error_rate = {failed / rec.attempted:.6f} ({failed} failed of {rec.attempted} calls)")
    lines += [f"problem: {p}" for p in rec.problems]
    for line in lines:
        print(line)
    print(json.dumps({"attempted": rec.attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PACE.stop()  # a SIGALRM left armed would kill the interpreter on its way out
    sys.exit(code)
