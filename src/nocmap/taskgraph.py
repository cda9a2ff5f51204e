"""Directed core graphs with per-arc communication volume and bandwidth.

A graph is a core count N plus directed arcs; the cores (tasks/IP blocks)
are the ids 0..N-1.  Each arc carries the payload it moves (``volume``,
bits) and its sustained rate requirement (``bandwidth``, bits/s).  Graphs
are immutable values and safe to share between threads.

A graph holds its arcs in two forms: ``arcs``, a tuple of ``Arc`` values, and
``arc_columns``, one read-only int64 array.  It keeps the form it was built
from and derives the other once, on first read.  The constructor takes
``Arc`` values and checks every arc; the graphs the library derives from a
checked graph (``induced_subgraph`` and ``scheduler.cluster_graph``) are
built from columns, with numpy and without a second check.  Every library
path reads the columns: ``neighbours`` and ``priority_order``, and through
them the mappers, the schedulers, the swarm and the ``metrics`` kernel, so
none of them makes an ``Arc`` for a derived graph.  Only ``==``, ``hash``,
``repr`` and ``serialize_graph`` read ``arcs``, and give the same answer for
either form.

Graph file format (UTF-8 text, ``#`` starts a comment, blank lines ignored)::

    cores <N>
    edge <src> <dst> <volume> <bandwidth>

At most one edge per ordered pair; self-loops are rejected (a core talking
to itself never enters the network).
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

INT64_MAX = 2 ** 63 - 1


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    volume: int
    bandwidth: int


@dataclass(frozen=True)
class TaskGraph:
    n_cores: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if isinstance(self.n_cores, bool) or not isinstance(self.n_cores, numbers.Integral):
            raise ValueError(f"core count must be an integer, got {self.n_cores!r}")
        if self.n_cores < 0:
            raise ValueError("core count must be non-negative")
        seen: set[tuple[int, int]] = set()
        for a in self.arcs:
            _check_arc(a, self.n_cores, seen)

    @classmethod
    def _from_columns(cls, n_cores: int, columns: np.ndarray) -> TaskGraph:
        """A graph derived from a checked graph, held as its ``arc_columns``; no arc is checked.

        ``columns`` is a new C-ordered int64 array of shape (4, arcs), made
        read-only here.  The caller vouches for the checks the constructor
        would make: ids in range, no loop, one arc per ordered pair, no
        negative weight, and totals that fit int64, which holds for every
        sum of a parent's weights.  ``arcs`` is made from it on first read.
        """
        columns.flags.writeable = False
        g = object.__new__(cls)
        g.__dict__.update(n_cores=n_cores, arc_columns=columns)
        return g

    @cached_property
    def neighbours(self) -> tuple[dict[int, int], ...]:
        """Per core: each core an arc links it to, either way -> volume exchanged both ways.

        Zero-volume arcs count.  Keys come in arc order, which no caller's
        result depends on.  Every caller gets the same dicts: read them only.
        """
        nbrs: tuple[dict[int, int], ...] = tuple([{} for _ in range(self.n_cores)])
        src, dst, volume, _ = self.arc_columns.tolist()
        for s, d, v in zip(src, dst, volume):
            total = nbrs[s].get(d, 0) + v
            nbrs[s][d] = nbrs[d][s] = total
        return nbrs

    @cached_property
    def arc_columns(self) -> np.ndarray:
        """Every arc's src, dst, volume and bandwidth: a read-only int64 array of shape (4, arcs).

        Row r holds field r of every arc, in arc order, so
        ``src, dst, volume, bandwidth = g.arc_columns`` unpacks it.  A graph
        built from ``Arc`` values makes it once, on first use, and a derived
        graph is built from it; either way every caller shares it, so it
        cannot be written.  A graph whose total volume or total bandwidth
        does not fit int64 is refused here, so no sum over a column wraps.
        """
        arcs = self.arcs
        volume, bandwidth = [a.volume for a in arcs], [a.bandwidth for a in arcs]
        for name, column in (("volume", volume), ("bandwidth", bandwidth)):
            if sum(column) > INT64_MAX:
                raise ValueError(f"total arc {name} {sum(column)} does not fit int64")
        columns = np.array([[a.src for a in arcs], [a.dst for a in arcs], volume, bandwidth], dtype=np.int64)
        columns.flags.writeable = False
        return columns


def _arcs_from_columns(g: TaskGraph) -> tuple[Arc, ...]:
    """A derived graph's ``Arc`` values, made from its columns on first read."""
    return tuple(map(Arc, *g.arc_columns.tolist()))


# A constructed graph's own ``arcs`` sit in its instance dict, which this
# non-data descriptor never overrides; only a derived graph reaches it.  It is
# set after the dataclass is made, so ``arcs`` stays a plain field.
TaskGraph.arcs = cached_property(_arcs_from_columns)
TaskGraph.arcs.__set_name__(TaskGraph, "arcs")


def _traffic(n_cores: int, ends: np.ndarray, volume: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per core: the out-degree and the total volume in and out of some arcs.

    ``ends`` holds the arcs' sources and destinations as two rows, as
    ``arc_columns[:2]`` does.  The volumes are summed exactly in int64: no
    core's sum exceeds the graph's total volume, which ``arc_columns`` bounds.
    """
    ranks = np.zeros(n_cores, dtype=np.int64)
    # One row at a time: numpy 2.4.6 sums a (2, k) index with (k,) values wrongly.
    np.add.at(ranks, ends[0], volume)
    np.add.at(ranks, ends[1], volume)
    return np.bincount(ends[0], minlength=n_cores), ranks


def _check_arc(a: Arc, n_cores: int, seen: set[tuple[int, int]]) -> None:
    """Refuse an arc with a field that is not an integer (numpy's are, ``bool`` is not), an
    end off 0..n_cores-1, a loop, a pair already in ``seen`` or a negative weight."""
    src, dst, volume, bandwidth = a.src, a.dst, a.volume, a.bandwidth
    if not (type(src) is int and type(dst) is int and type(volume) is int and type(bandwidth) is int):
        for value in (src, dst, volume, bandwidth):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"non-integer field {value!r} in arc {src}->{dst}")
    if not (0 <= src < n_cores and 0 <= dst < n_cores):
        raise ValueError(f"core id out of range in arc {src}->{dst}")
    if src == dst:
        raise ValueError(f"self-loop on core {src}")
    pair = (src, dst)
    if pair in seen:
        raise ValueError(f"duplicate arc {src}->{dst}")
    if volume < 0 or bandwidth < 0:
        raise ValueError(f"negative weight on arc {src}->{dst}")
    seen.add(pair)


def graph_from_arcs(n_cores: int, arcs: Iterable[tuple[int, int, int, int]]) -> TaskGraph:
    """Build a graph from (src, dst, volume, bandwidth) tuples."""
    return TaskGraph(n_cores, tuple(Arc(*quad) for quad in arcs))


def parse_graph(text: str) -> TaskGraph:
    """Parse the line-based graph format; raise GraphFormatError with line numbers."""
    n_cores: int | None = None
    arcs: list[Arc] = []
    arc_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n_cores is None:
            if fields[0] != "cores" or len(fields) != 2:
                raise GraphFormatError(line_no, "expected 'cores <N>' header")
            try:
                n_cores = int(fields[1])
            except ValueError:
                raise GraphFormatError(line_no, f"core count {fields[1]!r} is not an integer") from None
            if n_cores < 0:
                raise GraphFormatError(line_no, "core count must be non-negative")
            continue
        if fields[0] != "edge":
            raise GraphFormatError(line_no, f"unknown directive {fields[0]!r}")
        if len(fields) != 5:
            raise GraphFormatError(line_no, "expected 'edge <src> <dst> <volume> <bandwidth>'")
        try:
            arc = Arc(*map(int, fields[1:]))
        except ValueError:
            raise GraphFormatError(line_no, "edge fields must be integers") from None
        arcs.append(arc)
        arc_lines.append(line_no)
    if n_cores is None:
        raise GraphFormatError(1, "missing 'cores <N>' header")
    try:
        return TaskGraph(n_cores, tuple(arcs))  # the one arc check, after every line's syntax
    except ValueError:
        seen: set[tuple[int, int]] = set()  # error path only: find the bad arc's line
        for arc, line_no in zip(arcs, arc_lines):
            try:
                _check_arc(arc, n_cores, seen)
            except ValueError as exc:
                raise GraphFormatError(line_no, str(exc)) from None
        raise


def serialize_graph(g: TaskGraph) -> str:
    """Emit the graph file format, arcs sorted by (src, dst)."""
    lines = [f"cores {g.n_cores}"]
    for a in sorted(g.arcs, key=lambda a: (a.src, a.dst)):
        lines.append(f"edge {a.src} {a.dst} {a.volume} {a.bandwidth}")
    return "\n".join(lines) + "\n"


def priority_order(g: TaskGraph) -> list[int]:
    """Placement priority: descending out-degree, then descending ranking, then id.

    The id tiebreak keeps runs reproducible when several cores carry
    identical traffic.
    """
    if g.n_cores == 0:
        raise ValueError("empty graph has no priority order")
    degs, ranks = _traffic(g.n_cores, g.arc_columns[:2], g.arc_columns[2])
    # Stable, on the cores in id order: the last key is the major one.
    return np.lexsort((-ranks, -degs)).tolist()


def generate_random_graph(
    n_cores: int,
    n_arcs: int,
    volume_range: tuple[int, int] = (10, 1000),
    bandwidth_range: tuple[int, int] = (1, 100),
    seed: int = 0,
) -> TaskGraph:
    """Seeded random graph: exactly n_arcs distinct ordered pairs, no self-loops.

    Weights are drawn uniformly (inclusive) from the given ranges.  The same
    arguments always produce the same graph.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    if n_arcs < 0 or n_arcs > n_cores * (n_cores - 1):
        raise ValueError(
            f"infeasible arc count {n_arcs} for {n_cores} cores "
            f"(max {n_cores * (n_cores - 1)})"
        )
    for lo, hi in (volume_range, bandwidth_range):
        if lo > hi or lo < 0:
            raise ValueError(f"empty or negative weight range ({lo}, {hi})")
    rng = random.Random(seed)
    arcs = []
    # Index k names the k-th ordered pair (i, j != i) in row-major order,
    # so no list of all n(n-1) pairs is built.
    for idx in rng.sample(range(n_cores * (n_cores - 1)), n_arcs):
        src, dst = divmod(idx, n_cores - 1)
        dst += dst >= src
        arcs.append(Arc(src, dst, rng.randint(*volume_range), rng.randint(*bandwidth_range)))
    return TaskGraph(n_cores, tuple(arcs))


def induced_subgraph(g: TaskGraph, core_ids: Sequence[int]) -> TaskGraph:
    """Subgraph on the given cores, relabeled 0..k-1 in the given order.

    New id i is old id ``core_ids[i]``.  Arcs are kept, in the graph's arc
    order, only when both endpoints are selected.  Each id must be an
    integer (numpy's included, ``bool`` not), and selected once.  The
    subgraph is built from ``g.arc_columns`` by one relabelling array, with
    no ``Arc`` made and no arc checked again.
    """
    for kind in set(map(type, core_ids)) - {int}:
        if kind is bool or not issubclass(kind, numbers.Integral):
            bad = next(core for core in core_ids if type(core) is kind)
            raise ValueError(f"core id {bad!r} is not an integer")
    try:
        ids = np.array(core_ids, dtype=np.int64)  # exact: every id is an integer
    except OverflowError:
        ids = np.array([-1])  # an id past int64, so out of range
    # Read as unsigned, a negative id lies past every core, so one bound checks both ends.
    if ids.size and ids.view(np.uint64).max() >= g.n_cores:
        if len(set(core_ids)) != len(core_ids):
            raise ValueError("duplicate core id in selection")
        bad = next(core for core in core_ids if not 0 <= core < g.n_cores)
        raise ValueError(f"core id {bad} out of range 0..{g.n_cores - 1}")
    new_id = np.full(g.n_cores, -1, dtype=np.int64)
    new_id[ids] = np.arange(len(ids))
    if np.count_nonzero(new_id >= 0) != len(ids):
        raise ValueError("duplicate core id in selection")
    columns = g.arc_columns.copy()
    np.take(new_id, g.arc_columns[:2], out=columns[:2])
    # An arc stays when neither end is -1: the sign bit of neither is set.
    return TaskGraph._from_columns(len(ids), np.compress((columns[0] | columns[1]) >= 0, columns, axis=1))
