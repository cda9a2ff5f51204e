"""Directed core graphs with per-arc communication volume and bandwidth.

A graph is a core count N plus directed arcs; the cores (tasks/IP blocks)
are the ids 0..N-1.  Each arc carries the payload it moves (``volume``,
bits) and its sustained rate requirement (``bandwidth``, bits/s).  Graphs
are immutable values and safe to share between threads.

A graph stores its arcs in one form, ``arc_columns``.  The constructor,
``parse_graph`` and ``generate_random_graph`` check every arc once, with
whole-array tests; the graphs derived from a checked graph
(``induced_subgraph``, ``scheduler.cluster_graph``) are not checked again.
No library path makes an ``Arc``: ``arcs`` is made on first read.

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


def _is_integer(value) -> bool:
    """The one rule for an integer input: a ``numbers.Integral`` that is not a ``bool`` (numpy's integers are)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    """``value`` as an int: refused, as "<what> must be an integer, got <repr>", unless ``_is_integer``."""
    if not _is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TaskGraph:
    """A core count and its checked arcs; equal to a graph with the same count and arcs in the same order."""

    n_cores: int
    arc_columns: np.ndarray
    """Every arc's src, dst, volume and bandwidth, in arc order: a read-only, shared int64 array
    of shape (4, arcs).  No column's sum wraps: a graph whose totals do not fit int64 is refused."""

    def __init__(self, n_cores: int, arcs: Iterable[Arc]):
        n_cores = _integer(n_cores, "core count")
        if n_cores < 0:
            raise ValueError("core count must be non-negative")
        values = [v for a in arcs for v in (a.src, a.dst, a.volume, a.bandwidth)]
        late = None
        if set(map(type, values)) != {int}:  # numpy integers become ints; the arcs end before any other
            for i, v in enumerate(values):
                if not _is_integer(v):
                    arc = i - i % 4
                    late = f"non-integer field {v!r} in arc {values[arc]}->{values[arc + 1]}"
                    values = values[:arc]
                    break
            values = list(map(int, values))
        self.__dict__.update(n_cores=n_cores, arc_columns=_checked_columns(n_cores, values, late=late))

    @classmethod
    def _from_columns(cls, n_cores: int, columns: np.ndarray) -> TaskGraph:
        """A graph derived from a checked graph, held as its ``arc_columns``; no arc is checked.

        ``columns``, a new C-ordered int64 array of shape (4, arcs), is made read-only here.  The
        caller vouches for the constructor's checks, as every relabelling or sum of checked arcs passes.
        """
        columns.flags.writeable = False
        g = object.__new__(cls)
        g.__dict__.update(n_cores=n_cores, arc_columns=columns)
        return g

    def __reduce__(self):
        """Pickles and copies rebuild through ``_from_columns``, so their columns are read-only too."""
        return TaskGraph._from_columns, (self.n_cores, self.arc_columns)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as ``Arc`` values, in arc order: made from ``arc_columns`` on first read."""
        return tuple(map(Arc, *self.arc_columns.tolist()))

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

    def _key(self) -> tuple[int, bytes]:
        return self.n_cores, self.arc_columns.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, TaskGraph) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"TaskGraph(n_cores={self.n_cores!r}, arcs={self.arcs!r})"


def _checked_columns(n_cores: int, values: list, lines: list | None = None, late: str | None = None):
    """Integer arc fields, four per arc in arc order, as checked, read-only ``arc_columns``.

    Each test runs on the whole array.  The first bad arc is refused for the first it fails: an end
    off 0..n_cores-1 or past int64, a loop, an earlier arc's pair, a negative weight (a GraphFormatError
    at ``lines[arc]`` if ``lines`` is given).  Then ``late``, a fault after ``values``, and a total past int64.
    """
    try:
        columns = np.array(values, dtype=np.int64).reshape(-1, 4).T.copy()  # C order
    except OverflowError:  # a field past int64: the same tests, on Python ints
        columns = np.array(values, dtype=object).reshape(-1, 4).T
    src, dst, volume, bandwidth = columns
    by_pair = np.lexsort((dst, src))  # stable: an arc sorts after the earlier arcs with its pair
    repeat = np.zeros(src.shape, dtype=bool)
    repeat[by_pair[1:]] = (columns[:2, by_pair[1:]] == columns[:2, by_pair[:-1]]).all(axis=0)
    off = ((columns[:2] < 0) | (columns[:2] >= min(n_cores, INT64_MAX + 1))).any(axis=0)
    tests = np.array([off, src == dst, repeat, (volume < 0) | (bandwidth < 0)])
    if tests.any():
        arc = int(tests.any(axis=0).argmax())
        s, d = columns[:2, arc].tolist()
        message = (f"core id out of range in arc {s}->{d}", f"self-loop on core {s}",
                   f"duplicate arc {s}->{d}", f"negative weight on arc {s}->{d}")[tests[:, arc].argmax()]
        raise ValueError(message) if lines is None else GraphFormatError(lines[arc], message)
    if late is not None:
        raise ValueError(late)
    for name, total in zip(("volume", "bandwidth"), map(sum, columns[2:].tolist())):  # exact
        if total > INT64_MAX:
            raise ValueError(f"total arc {name} {total} does not fit int64")
    columns.flags.writeable = False
    return columns


def _traffic(n_cores: int, ends: np.ndarray, volume: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per core: the out-degree and the total volume in and out of some arcs.

    ``ends`` holds the arcs' sources and destinations as two rows, as
    ``arc_columns[:2]`` does.  The volumes are summed exactly in int64: no
    core's sum exceeds the graph's total volume, which fits int64.
    """
    ranks = np.zeros(n_cores, dtype=np.int64)
    # One row at a time: numpy 2.4.6 sums a (2, k) index with (k,) values wrongly.
    np.add.at(ranks, ends[0], volume)
    np.add.at(ranks, ends[1], volume)
    return np.bincount(ends[0], minlength=n_cores), ranks


def graph_from_arcs(n_cores: int, arcs: Iterable[tuple[int, int, int, int]]) -> TaskGraph:
    """Build a graph from (src, dst, volume, bandwidth) tuples."""
    return TaskGraph(n_cores, tuple(Arc(*quad) for quad in arcs))


def parse_graph(text: str) -> TaskGraph:
    """Parse the line-based graph format; raise GraphFormatError with line numbers."""
    n_cores: int | None = None
    values: list[int] = []
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
            values.extend(map(int, fields[1:]))
        except ValueError:
            raise GraphFormatError(line_no, "edge fields must be integers") from None
        arc_lines.append(line_no)
    if n_cores is None:
        raise GraphFormatError(1, "missing 'cores <N>' header")
    return TaskGraph._from_columns(n_cores, _checked_columns(n_cores, values, arc_lines))  # after every line


def serialize_graph(g: TaskGraph) -> str:
    """Emit the graph file format, arcs sorted by (src, dst)."""
    lines = [f"cores {g.n_cores}"]
    for src, dst, volume, bandwidth in sorted(zip(*g.arc_columns.tolist())):  # no two share (src, dst)
        lines.append(f"edge {src} {dst} {volume} {bandwidth}")
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
    arguments always produce the same graph.  Each count and range bound must
    be an integer (numpy's are, ``bool`` is not).
    """
    n_cores, n_arcs = _integer(n_cores, "core count"), _integer(n_arcs, "arc count")
    for bound in (*volume_range, *bandwidth_range):
        _integer(bound, "weight range bound")
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
    values: list[int] = []
    # Index k names the k-th ordered pair (i, j != i) in row-major order,
    # so no list of all n(n-1) pairs is built.
    for idx in rng.sample(range(n_cores * (n_cores - 1)), n_arcs):
        src, dst = divmod(idx, n_cores - 1)
        values += (src, dst + (dst >= src), rng.randint(*volume_range), rng.randint(*bandwidth_range))
    return TaskGraph._from_columns(n_cores, _checked_columns(n_cores, values))


def induced_subgraph(g: TaskGraph, core_ids: Sequence[int]) -> TaskGraph:
    """Subgraph on the given cores, relabeled 0..k-1 in the given order.

    New id i is old id ``core_ids[i]``.  Arcs are kept, in the graph's arc
    order, only when both endpoints are selected.  Each id must be an
    integer (numpy's included, ``bool`` not), and selected once.  The
    subgraph is built from ``g.arc_columns`` by one relabelling array, with
    no ``Arc`` made and no arc checked again.
    """
    if not set(map(type, core_ids)) <= {int}:  # the per-id search only when the type scan fails
        for core in core_ids:
            _integer(core, "core id")
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
