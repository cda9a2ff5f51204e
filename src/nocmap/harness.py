"""Experiment orchestration: benchmark runs, artifacts, CSV reports, the
exhaustive assignment oracle (one branch-and-bound walk over every
assignment), and the table of percentage reductions that
``nocmap bench --compare`` prints.

A run reads a graph file, executes the selected pipeline, re-evaluates the
produced placement with the metrics module, and reports one row.  Everything
a row contains can be re-derived from the mapping artifact plus the config
echoed in its header (see ``audit_artifact``); nothing but the runtime
column varies between identical runs.
"""

from __future__ import annotations

import csv
import io
import math
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .mappers import MAPPERS, map_with
from .metrics import EnergyModel, HopKernel, Mapping, _check_objective, evaluate
from .pso import PsoParams, pso_optimize
from .scheduler import cluster_schedule, dynamic_schedule
from .taskgraph import TaskGraph, parse_graph
from .topology import Mesh3D, _check_capacity

MODES = ("map", "dynamic", "cluster", "pso")
ORACLE_MAX_ASSIGNMENTS = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    """One run: input, pipeline, energy model, swarm constants and seed.

    ``seed`` is the run's only seed: it names the artifact, is reported in the
    row and seeds the swarm.  ``pso=None`` runs ``PsoParams(seed=seed)``; a
    ``pso`` with another seed is refused, and so is a ``seed_mapping`` artifact
    whose header names another mesh than ``mesh_n``.  A field the mode never
    reads must keep its default.
    """

    graph: str | Path
    mesh_n: int = 3
    algo: str = "ddmap"  # mapper name in map and cluster mode (cluster mapper)
    mode: str = "map"  # one of MODES
    model: EnergyModel = EnergyModel()
    objective: str = "energy"  # pso mode only
    seed: int = 0
    pso: PsoParams | None = None  # pso mode only
    seed_mapping: str | Path | None = None  # pso mode only
    out_dir: str | Path | None = None
    csv_path: str | Path | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.algo not in MAPPERS:
            raise ValueError(f"unknown algo {self.algo!r}")
        _check_objective(self.objective)
        if self.mode in ("dynamic", "pso") and self.algo != "ddmap":
            raise ValueError(f"{self.mode} mode takes no algo, got {self.algo!r}")
        if self.mode != "pso":
            pso_only = dict(objective="energy", pso=None, seed_mapping=None)
            for key, default in pso_only.items():
                if getattr(self, key) != default:
                    raise ValueError(f"{key} is read in pso mode only, not in {self.mode} mode")
        if self.pso is not None and self.pso.seed != self.seed:
            raise ValueError(f"swarm seed {self.pso.seed} differs from run seed {self.seed}")


@dataclass
class ReportRow:
    benchmark: str
    algo: str
    mode: str
    total_energy: float
    comm_cost: int
    avg_latency: float | None
    eta: int
    runtime_ms: float
    seed: int


CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def write_mapping_artifact(path: str | Path, placement: Mapping, header: dict) -> None:
    """Plain-text artifact: '# key = value' header then 'core i -> tile t' lines."""
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.extend(f"core {c} -> tile {placement[c]}" for c in sorted(placement))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_mapping_artifact(text: str) -> tuple[Mapping, dict[str, str]]:
    """Inverse of write_mapping_artifact; header values stay strings."""
    placement: Mapping = {}
    header: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = (part.strip() for part in body.split("=", 1))
                if key in header:
                    raise ValueError(f"artifact line {line_no}: duplicate header key {key!r}")
                header[key] = value
            continue
        match = re.fullmatch(r"core\s+(-?\d+)\s+->\s+tile\s+(-?\d+)", line)
        if match is None:
            raise ValueError(f"artifact line {line_no}: expected 'core <id> -> tile <id>'")
        core = int(match[1])
        if core in placement:
            raise ValueError(f"artifact line {line_no}: duplicate line for core {core}")
        placement[core] = int(match[2])
    return placement, header


def _header_value(path: str | Path, header: dict[str, str], key: str, kind=str):
    """One header value converted to ``kind``; a missing or malformed one names the file and key."""
    if key not in header:
        raise ValueError(f"artifact {path}: header has no {key!r} line")
    try:
        return kind(header[key])
    except ValueError:
        raise ValueError(
            f"artifact {path}: header {key!r} = {header[key]!r} is not {kind.__name__}"
        ) from None


def _read_file(path: str | Path, parse):
    """``parse`` of a file's text: the one reader of graph and artifact files.

    A file that ``parse`` refuses, as a graph parser refuses a malformed graph or
    one whose totals overflow int64, is refused as "<path>: <message>".
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_artifact(path: str | Path, run_mesh_n: int | None = None) -> tuple[Mapping, dict, int]:
    """Placement, header and mesh side of an artifact.

    For a seed of a run on mesh ``run_mesh_n``, a header naming no mesh means
    that mesh, and one naming another mesh is refused.
    """
    placement, header = _read_file(path, parse_mapping_artifact)
    if run_mesh_n is not None and "mesh" not in header:
        return placement, header, run_mesh_n
    mesh_n = _header_value(path, header, "mesh", int)
    if run_mesh_n is not None and mesh_n != run_mesh_n:
        raise ValueError(f"seed mapping {path} is for mesh {mesh_n}, not mesh {run_mesh_n}")
    return placement, header, mesh_n


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _check_report_csv(path: str | Path) -> None:
    """Refuse a non-empty file whose first line is not the report header."""
    header = ",".join(CSV_COLUMNS).encode()
    try:
        with open(path, "rb") as fh:
            first = fh.readline(len(header) + 2)
    except FileNotFoundError:
        return
    if first and first not in (header + b"\r\n", header + b"\n"):
        raise ValueError(f"{path} is not a report CSV: its first line is not the report header")


def append_report_csv(path: str | Path, rows: list[ReportRow]) -> None:
    """Append rows, writing the header when the file is new or empty (see _check_report_csv)."""
    path = Path(path)
    need_header = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(getattr(row, col)) for col in CSV_COLUMNS])


def _report_row(
    g: TaskGraph, placement: Mapping, mesh: Mesh3D, model: EnergyModel, runtime_ms: float, **run
) -> ReportRow:
    """Evaluate a placement into a row; ``run`` gives benchmark, algo, mode and seed."""
    return ReportRow(**vars(evaluate(g, placement, mesh, model)), runtime_ms=runtime_ms, **run)


def run_benchmark(cfg: RunConfig) -> tuple[ReportRow, Mapping]:
    """Execute one configured pipeline; optionally write artifact and CSV row (to a report CSV)."""
    if cfg.csv_path is not None:
        _check_report_csv(cfg.csv_path)
    g = _read_file(cfg.graph, parse_graph)
    mesh = Mesh3D(cfg.mesh_n)
    benchmark = Path(cfg.graph).stem

    algo = "pso" if cfg.mode == "pso" else cfg.algo
    trace = None
    started = time.perf_counter()
    if cfg.mode == "map":
        placement = map_with(algo, g, mesh)
    elif cfg.mode == "dynamic":
        placement = dynamic_schedule(g, mesh).placement
    elif cfg.mode == "cluster":
        placement = cluster_schedule(g, mesh, algo).placement
    else:
        params = cfg.pso if cfg.pso is not None else PsoParams(seed=cfg.seed)
        seed_map = None
        if cfg.seed_mapping is not None:
            seed_map, _, _ = _load_artifact(cfg.seed_mapping, cfg.mesh_n)
        try:
            result = pso_optimize(g, mesh, params, cfg.objective, cfg.model, seed_map)
        except ValueError as exc:  # pso_optimize checks the seed; name the file it came from
            if seed_map is None or not str(exc).startswith("seed mapping:"):
                raise
            raise ValueError(f"{cfg.seed_mapping}: {exc}") from None
        placement = result.mapping
        trace = result.trace
    runtime_ms = (time.perf_counter() - started) * 1000.0

    row = _report_row(
        g, placement, mesh, cfg.model, runtime_ms,
        benchmark=benchmark, algo=algo, mode=cfg.mode, seed=cfg.seed,
    )

    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        header = {
            "benchmark": benchmark,
            "graph": cfg.graph,
            "mesh": cfg.mesh_n,
            "algo": algo,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "e_switch": cfg.model.e_switch_bit,
            "e_link": cfg.model.e_link_bit,
            "rho": cfg.model.rho,
        }
        if cfg.mode == "pso":
            header["objective"] = cfg.objective
        stem = f"{benchmark}__{cfg.mode}__{algo}__seed{cfg.seed}.map"
        write_mapping_artifact(out_dir / stem, placement, header)
        if trace is not None:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["iteration", "evals", "gbest_fitness"])
            for iteration, evals, gbest in trace:
                writer.writerow([iteration, evals, _format_cell(gbest)])
            (out_dir / (stem + ".trace.csv")).write_text(buf.getvalue(), encoding="utf-8")
    if cfg.csv_path is not None:
        append_report_csv(cfg.csv_path, [row])
    return row, placement


def audit_artifact(path: str | Path) -> ReportRow:
    """Re-derive a report row from an artifact plus the config in its header."""
    placement, header, mesh_n = _load_artifact(path)

    def value(key, kind=str):
        return _header_value(path, header, key, kind)

    graph = value("graph")
    try:
        g = _read_file(graph, parse_graph)
    except OSError as exc:  # a relative graph path is read from the current directory
        raise ValueError(
            f"artifact {path}: header 'graph' = {graph!r} cannot be read: {exc.strerror}"
        ) from None
    model = EnergyModel(value("e_switch", float), value("e_link", float), value("rho", float))
    return _report_row(
        g, placement, Mesh3D(mesh_n), model, 0.0,
        benchmark=value("benchmark"), algo=value("algo"), mode=value("mode"),
        seed=value("seed", int),
    )


def _first_tiles(n: int) -> list[int]:
    """The least tile of each orbit under the cube's 48 axis permutations and reflections, ascending.

    In closed form: each coordinate x has x <= n-1-x, and layer <= row <= col.
    """
    half = (n - 1) // 2
    return [(layer * n + row) * n + col for layer in range(half + 1)
            for row in range(layer, half + 1) for col in range(row, half + 1)]


def exhaustive_oracle(
    g: TaskGraph,
    mesh: Mesh3D,
    objective: str = "energy",
    model: EnergyModel = EnergyModel(),
) -> tuple[float, Mapping]:
    """The optimum over every injective core->tile assignment, and its minimizer.

    The minimizer returned is the lexicographically smallest assignment
    vector (tile of core 0, tile of core 1, ...).  One depth-first branch
    and bound places the cores in id order, each on the free tiles in
    ascending order, so it meets the assignments in lexicographic order.
    Core 0 goes only on ``_first_tiles``: each of the cube's 48 axis
    permutations and reflections keeps every hop count, so were the
    minimizer's first tile not the least of its orbit, one of them would map
    the minimizer to a smaller one.  The bound of a partial assignment is
    the objective's integer sum (link bits, or bandwidth hops for cost) with
    every arc to an unplaced core counted at one hop, the fewest an
    injective assignment gives it.  The score of a sum s, ``s`` or
    ``model.energy(s + total_volume, s)``, never falls as s grows, so a
    child is pruned once its bound's score reaches the best leaf's: no leaf
    below it is smaller, and the first leaf at the optimum is the smallest
    minimizer even when different sums round to one energy.  The value
    returned is the metric kernel's on that leaf.  Refuses an unknown
    objective, and instances with more than ORACLE_MAX_ASSIGNMENTS candidate
    assignments, before building anything.
    """
    _check_objective(objective)
    k = g.n_cores
    _check_capacity(k, mesh)
    count = math.perm(mesh.tile_count, k)
    if count > ORACLE_MAX_ASSIGNMENTS:
        raise ValueError(
            f"{count} assignments exceed the oracle limit of {ORACLE_MAX_ASSIGNMENTS}"
        )

    kernel = HopKernel(g, mesh)
    weights = kernel.volume if objective == "energy" else kernel.bandwidth
    partners: list[dict[int, int]] = [{} for _ in range(k)]  # earlier partner -> both directions' weight
    for src, dst, w in zip(*g.arc_columns[:2].tolist(), weights.tolist()):
        if w:
            early, late = sorted((src, dst))
            partners[late][early] = partners[late].get(early, 0) + w

    def score(s: int):
        return s if objective == "cost" else model.energy(s + kernel.total_volume, s)

    code, table = kernel.code, kernel.table  # hop_table's, read as the kernel reads them
    if any(partners):  # read one hop at a time, as Python lists; with no weighted pair none is read
        code, table = code.tolist(), table.tolist()
    tiles = [0] * k
    cut, best = math.inf, None  # cut: the least sum whose score reaches the best leaf's, found by bisection

    def walk(c: int, s: int) -> None:
        nonlocal cut, best
        if c == k:
            lo, hi, top = 0, s, score(s)
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if score(mid) >= top else (mid + 1, hi)
            cut, best = lo, tiles[:]
            return
        placed = tiles[:c]
        ends = [(code[tiles[p]], w) for p, w in partners[c].items()]
        base = s - sum(w for _, w in ends)  # each of these arcs was counted at one hop
        for t in _first_tiles(mesh.n) if c == 0 else range(mesh.tile_count):
            if t in placed:
                continue
            bound = base
            for end, w in ends:
                bound += w * table[end - code[t]]
            if bound < cut:
                tiles[c] = t
                walk(c + 1, bound)

    walk(0, int(weights.sum()))
    row = np.array([best], dtype=np.intp)
    return kernel.objective_values(row, objective, model)[0].item(), dict(enumerate(best))


def _reduction(a_value, b_value) -> float | None:
    """Percentage reduction of a relative to baseline b: 100*(b-a)/b."""
    if a_value is None or b_value is None:
        return None
    if a_value == b_value:
        return 0.0
    if b_value == 0:
        return None
    return 100.0 * (b_value - a_value) / b_value


def format_comparison(rows: list[ReportRow], a_algo: str, b_algo: str) -> str:
    """Per-benchmark and mean percentage reductions of algo a against baseline algo b.

    ``rows`` are one bench run's (one mode, one seed), so a row is named by its
    (benchmark, algo); every benchmark must have a row for both algos.  The
    mean of a metric skips the benchmarks where its reduction is undefined.
    """
    by_key = {(row.benchmark, row.algo): row for row in rows}

    def fmt(values: list[float | None]) -> str:
        energy, cost, latency = ("n/a" if v is None else f"{v:.2f}%" for v in values)
        return f"energy {energy}, cost {cost}, latency {latency}"

    lines = [f"{a_algo} vs {b_algo} (reduction = 100*(baseline-candidate)/baseline)"]
    table = []
    for benchmark in sorted({row.benchmark for row in rows}):
        a, b = by_key[benchmark, a_algo], by_key[benchmark, b_algo]
        table.append([
            _reduction(a.total_energy, b.total_energy),
            _reduction(a.comm_cost, b.comm_cost),
            _reduction(a.avg_latency, b.avg_latency),
        ])
        lines.append(f"  {benchmark} seed={a.seed}: {fmt(table[-1])}")
    means = []
    for i in range(3):
        present = [r[i] for r in table if r[i] is not None]
        means.append(sum(present) / len(present) if present else None)
    lines.append(f"  mean: {fmt(means)}")
    return "\n".join(lines)
