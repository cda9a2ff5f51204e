"""Command line front end.

Subcommands: map, schedule, optimize, gen, oracle, bench.  Each run prints
one human-readable result line; artifacts and CSV rows are written only when
--out / --csv are given, and are byte-stable for a fixed config and seed.

Each subcommand is one entry of ``_COMMANDS``: its help, the function that
adds its flags, and its handler.  A process builds one parser, with every
subcommand, on its first ``main`` call and parses every later argv with it, so
a batch of in-process runs builds it once.
"""

from __future__ import annotations

import argparse
import functools
import glob as globlib
import sys
from pathlib import Path

from .harness import ReportRow, RunConfig, _read_file, exhaustive_oracle, format_comparison, run_benchmark
from .mappers import MAPPERS
from .metrics import OBJECTIVES, EnergyModel
from .pso import PsoParams
from .taskgraph import generate_random_graph, parse_graph, serialize_graph
from .topology import Mesh3D, _check_capacity


def _energy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--e-link", type=float, default=EnergyModel.e_link_bit, help="link energy, pJ/bit"
    )
    parser.add_argument(
        "--e-switch", type=float, default=EnergyModel.e_switch_bit, help="switch energy, pJ/bit"
    )
    parser.add_argument("--rho", type=float, default=EnergyModel.rho, help="latency scale constant")


def _energy_model(args) -> EnergyModel:
    return EnergyModel(e_switch_bit=args.e_switch, e_link_bit=args.e_link, rho=args.rho)


def _run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mesh", type=int, default=3, help="mesh side length n")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="directory for mapping artifacts")
    parser.add_argument("--csv", default=None, help="append a report row to this CSV")
    _energy_flags(parser)


def _config(args, graph: str, **pipeline) -> RunConfig:
    """The run the flags describe on one graph."""
    return RunConfig(
        graph=graph, mesh_n=args.mesh, model=_energy_model(args), seed=args.seed,
        out_dir=args.out, csv_path=args.csv, **pipeline,
    )


def _run(cfg: RunConfig) -> ReportRow:
    """Run one config and print its result line."""
    row, _ = run_benchmark(cfg)
    latency = "n/a" if row.avg_latency is None else f"{row.avg_latency:.6g}"
    print(
        f"{row.benchmark} [{row.mode}/{row.algo}] energy={row.total_energy:.6g} pJ "
        f"cost={row.comm_cost} latency={latency} eta={row.eta} "
        f"runtime_ms={row.runtime_ms:.1f} seed={row.seed}"
    )
    return row


def _cmd_map(args) -> int:
    _run(_config(args, args.graph, mode="map", algo=args.algo))
    return 0


def _cmd_schedule(args) -> int:
    _run(_config(args, args.graph, mode=args.mode, algo=args.cluster_mapper))
    return 0


def _cmd_optimize(args) -> int:
    params = PsoParams(
        c1=args.pso_c1, c2=args.pso_c2, w=args.pso_w,
        swarm_size=args.pso_swarm_size,
        max_evals_per_simulation=args.pso_evals,
        seed=args.seed,
    )
    _run(_config(
        args, args.graph, mode="pso", objective=args.objective, pso=params,
        seed_mapping=args.seed_mapping,
    ))
    return 0


def _cmd_gen(args) -> int:
    g = generate_random_graph(args.cores, args.arcs, seed=args.seed)
    Path(args.out).write_text(serialize_graph(g), encoding="utf-8")
    print(f"wrote {args.out}: {g.n_cores} cores, {g.arc_columns.shape[1]} arcs, seed {args.seed}")
    return 0


def _cmd_oracle(args) -> int:
    g = _read_file(args.graph, parse_graph)
    value, mapping = exhaustive_oracle(g, Mesh3D(args.mesh), args.objective, _energy_model(args))
    print(f"optimum {args.objective} = {value:.6g}" if args.objective == "energy"
          else f"optimum {args.objective} = {value}")
    for core in sorted(mapping):
        print(f"core {core} -> tile {mapping[core]}")
    return 0


def _cmd_bench(args) -> int:
    paths = sorted(globlib.glob(args.glob))
    if not paths:
        print(f"no graphs match {args.glob!r}", file=sys.stderr)
        return 1
    algos = list(MAPPERS) if args.all_algos else [args.algo]
    # Every config is built and every graph read, and so checked, before the
    # first run writes anything.
    configs = [_config(args, path, mode=args.mode, algo=algo) for path in paths for algo in algos]
    first = {}
    for path in paths:  # the stem names the rows and the artifacts of a graph
        stem = Path(path).stem
        if first.setdefault(stem, path) != path:
            raise ValueError(f"graphs {first[stem]} and {path} share the benchmark name {stem!r}")
    if args.compare:
        a, b = args.compare
        if a == b or a not in algos or b not in algos:
            raise ValueError(
                f"--compare takes two different algos of this bench ({', '.join(algos)}): "
                f"expected one row each for {a!r} and {b!r}"
            )
    mesh = Mesh3D(args.mesh)

    def check(text: str) -> None:  # in map mode a graph must also fit the mesh
        g = parse_graph(text)
        if args.mode == "map":
            _check_capacity(g.n_cores, mesh)

    for path in paths:
        _read_file(path, check)
    rows = [_run(cfg) for cfg in configs]
    if args.compare:
        print(format_comparison(rows, *args.compare))
    return 0


def _map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph file")
    _run_flags(p)
    p.add_argument("--algo", choices=MAPPERS, default="ddmap")


def _schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph file")
    _run_flags(p)
    p.add_argument("--mode", choices=("dynamic", "cluster"), default="dynamic")
    p.add_argument("--cluster-mapper", choices=MAPPERS, default="ddmap")


def _optimize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph file")
    _run_flags(p)
    p.add_argument("--objective", choices=OBJECTIVES, default="energy")
    p.add_argument("--seed-mapping", default=None, help="mapping artifact used to seed the swarm")
    p.add_argument("--pso-swarm-size", type=int, default=PsoParams.swarm_size)
    p.add_argument("--pso-evals", type=int, default=PsoParams.max_evals_per_simulation)
    p.add_argument("--pso-c1", type=float, default=PsoParams.c1)
    p.add_argument("--pso-c2", type=float, default=PsoParams.c2)
    p.add_argument("--pso-w", type=float, default=PsoParams.w)


def _gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cores", type=int, required=True)
    p.add_argument("--arcs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--mesh", type=int, default=3)
    p.add_argument("--objective", choices=OBJECTIVES, default="energy")
    _energy_flags(p)


def _bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--glob", required=True, help="shell pattern for graph files")
    algos = p.add_mutually_exclusive_group()
    algos.add_argument("--all-algos", action="store_true", help="run every mapper")
    algos.add_argument("--algo", choices=MAPPERS, default="ddmap")
    p.add_argument("--mode", choices=("map", "dynamic", "cluster"), default="map")
    _run_flags(p)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="print percentage reductions of A relative to baseline B")


# name -> (help, flag adder, handler), in the order the full parser lists them
_COMMANDS = {
    "map": ("one-core-per-tile mapping", _map_flags, _cmd_map),
    "schedule": ("many-tasks-per-tile scheduling", _schedule_flags, _cmd_schedule),
    "optimize": ("particle-swarm refinement of a mapping", _optimize_flags, _cmd_optimize),
    "gen": ("generate a seeded random graph file", _gen_flags, _cmd_gen),
    "oracle": ("exhaustive optimum for small instances", _oracle_flags, _cmd_oracle),
    "bench": ("run a batch of graph files", _bench_flags, _cmd_bench),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with every subcommand.  Each call builds a new one."""
    parser = argparse.ArgumentParser(
        prog="nocmap",
        description="Map task graphs onto a 3D mesh network-on-chip and report "
        "communication energy, cost, and latency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` parses with, built on first use and reused: parsing
    leaves a parser as it was, and help reads COLUMNS when it is printed."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
