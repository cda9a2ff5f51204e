"""Per-layer tracing by wrapping nocmap's public functions from outside.

Each traced function is replaced by a wrapper wherever it is bound: in the
module that defines it, in every nocmap module that imported it by name
(``nocmap.pso.hop_matrix`` and ``nocmap.harness.hop_matrix`` are separate
bindings of one function), and on its class for methods.  A wrapper opens a
span on a stack, so the span below it on the stack is its parent; when the
span closes, its duration is added to the function's total and to the
parent's child time, and self time is total minus child time.

Spans are folded into per-function and per-(caller, callee) totals as they
close instead of being kept one by one: large_schedule makes millions of
``volume_between`` calls per round.  A target that the library no longer
has is reported as absent, with zero counts, instead of failing the run.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

STATS = ("calls", "total_s", "self_s", "errors")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute, metric label, extra counters from (args, kwargs, result))
TARGETS = (
    ("taskgraph", "parse_graph", "parse_graph", None),
    ("taskgraph", "priority_order", "priority_order", None),
    ("taskgraph", "induced_subgraph", "induced_subgraph", None),
    ("taskgraph", "TaskGraph.volume_between", "TaskGraph.volume_between", None),
    ("topology", "lozenge_next_empty", "lozenge_next_empty", None),
    ("topology", "hop_matrix", "hop_matrix",
     lambda a, k, r: {"bytes": r.nbytes}),
    ("mappers", "ddmap", "ddmap", None),
    ("mappers", "sequence_map", "sequence_map", None),
    ("mappers", "map_with", "map_with", None),
    ("metrics", "evaluate", "evaluate",
     lambda a, k, r: {"arcs": len(_arg(a, k, 0, "g").arcs)}),
    ("scheduler", "dynamic_schedule", "dynamic_schedule", None),
    ("scheduler", "cluster_tasks", "cluster_tasks", None),
    ("scheduler", "cluster_graph", "cluster_graph", None),
    ("scheduler", "cluster_schedule", "cluster_schedule", None),
    ("pso", "pso_optimize", "pso_optimize",
     lambda a, k, r: {"evals": r.trace[-1][1]}),
    ("pso", "velocity_update", "velocity_update", None),
    ("pso", "position_update", "position_update", None),
    ("pso", "repair_permutation", "repair_permutation",
     lambda a, k, r: {"changed": int(list(r) != list(_arg(a, k, 0, "raw")))}),
    ("pso", "_SlotFitness.__call__", "fitness",
     lambda a, k, r: {"rows": len(_arg(a, k, 1, "positions"))}),
    ("harness", "run_benchmark", "run_benchmark", None),
    ("harness", "write_mapping_artifact", "write_mapping_artifact",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("harness", "append_report_csv", "append_report_csv", None),
    ("harness", "audit_artifact", "audit_artifact", None),
    ("harness", "exhaustive_oracle", "exhaustive_oracle",
     lambda a, k, r: {"assignments": math.perm(_arg(a, k, 1, "mesh").tile_count,
                                               _arg(a, k, 0, "g").n_cores)}),
    ("cli", "main", "main", None),
    ("cli", "build_parser", "build_parser", None),
)

# Extra per-layer metrics: (metric name, unit, better).  The changed_ratio is
# derived at report time from the "changed" counter and the call count.
EXTRAS = (
    ("metrics.evaluate.arcs", "count", "higher"),
    ("pso.pso_optimize.evals", "count", "higher"),
    ("pso.fitness.rows", "count", "higher"),
    ("pso.repair_permutation.changed_ratio", "ratio", "higher"),
    ("harness.exhaustive_oracle.assignments", "count", "higher"),
    ("harness.write_mapping_artifact.bytes", "B", "lower"),
    ("topology.hop_matrix.bytes", "B", "lower"),
)
OVERHEAD = (
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_names() -> list[str]:
    return [f"{module}.{label}" for module, _, label, _ in TARGETS]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    units = {"calls": "count", "total_s": "s", "self_s": "s", "errors": "count"}
    spec = [(f"{name}.{stat}", units[stat], "lower") for name in layer_names() for stat in STATS]
    return spec + list(EXTRAS) + list(OVERHEAD)


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, child seconds, errors]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in layer_names()}
        self.counters: dict[str, int] = {}
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, seconds]
        self.absent: list[str] = []
        self.broken_extras: set[str] = set()
        self._stack: list[list] = []  # open spans: [name, child seconds]

    def wrap(self, name: str, fn, extra):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        edges = self.edges
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += span[1]
                key = (parent[0] if parent else "<benchmark>", name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if extra is not None and name not in self.broken_extras:
                try:
                    for key, value in extra(args, kwargs, result).items():
                        counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
                except Exception:  # a refactor changed a signature; keep timing, drop the counter
                    self.broken_extras.add(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each place nocmap binds it."""
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "nocmap" or key.startswith("nocmap.")]
        for module, attr, label, extra in TARGETS:
            name = f"{module}.{label}"
            mod = sys.modules.get(f"nocmap.{module}")
            *path, leaf = attr.split(".")
            owner = mod
            for part in path:
                owner = getattr(owner, part, None)
            # vars(), not getattr(): a class without its own __call__ would
            # otherwise hand back type.__call__.
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, extra)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics as means per traced round."""
        out: dict[str, float] = {}
        for name, (calls, total, child, errors) in self.stats.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.total_s"] = total / rounds
            out[f"{name}.self_s"] = (total - child) / rounds
            out[f"{name}.errors"] = errors / rounds
        for metric, _, _ in EXTRAS:
            if metric.endswith(".changed_ratio"):
                base = metric[: -len(".changed_ratio")]
                calls = self.stats[base][0]
                out[metric] = self.counters.get(base + ".changed", 0) / calls if calls else 0.0
            else:
                out[metric] = self.counters.get(metric, 0) / rounds
        return out
