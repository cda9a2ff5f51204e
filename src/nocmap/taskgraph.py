"""Directed core graphs with per-arc communication volume and bandwidth.

A graph is a core count N plus directed arcs; the cores (tasks/IP blocks)
are the ids 0..N-1.  Each arc carries the payload it moves (``volume``,
bits) and its sustained rate requirement (``bandwidth``, bits/s).  Graphs
are immutable values and safe to share between threads.

A graph is built from plain ``(src, dst, volume, bandwidth)`` quads:
``TaskGraph(n_cores, [(0, 1, 100, 10), ...])``.  It stores its arcs in one
form, ``arc_columns``.  The constructor, ``parse_graph`` and
``generate_random_graph`` check every arc once, in one function,
``_checked_columns``, whose whole-array tests decide every arc refusal, a
non-integer field's included; the graphs derived from a checked graph
(``induced_subgraph``, ``scheduler.cluster_graph``) are not checked again.
``Arc`` is the named quad that ``arcs`` returns, made on first read; no
library path makes one.

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
from typing import Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

INT64_MAX = 2 ** 63 - 1


class GraphFormatError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class Arc(NamedTuple):
    """One arc as a named quad; any (src, dst, volume, bandwidth) tuple builds the same graph."""

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


def _id(value, limit: int, what: str) -> int:
    """``value`` as a core, tile or task id: the one rule for it, an integer (``_integer``) in
    0..limit-1; any other integer is refused as "<what> <v> out of range 0..<limit-1>"."""
    value = _integer(value, what)
    if not 0 <= value < limit:
        raise ValueError(f"{what} {value} out of range 0..{limit - 1}")
    return value


def _ids(values, limit: int, what: str) -> np.ndarray:
    """``values`` as an intp array of ids, each decided by ``_id``; repeats are kept.

    The whole list's type and range scan runs first, and the per-value ``_id``
    search, which refuses the first faulty value, only when that scan fails.
    """
    if not (set(map(type, values)) <= {int} and min(values, default=0) >= 0 and max(values, default=0) < limit):
        values = [_id(v, limit, what) for v in values]
    return np.array(values, dtype=np.intp)


def _refuse_repeat(ids: Iterable[int], what: str) -> NoReturn:
    """The one refusal of a repeated id, which each caller detects in its cheapest way:
    "<what> <v> appears more than once", v the first id in ``ids`` that an earlier one equals."""
    seen: set[int] = set()
    repeat = next(v for v in ids if v in seen or seen.add(v))  # add returns None: only a seen id stops it
    raise ValueError(f"{what} {repeat} appears more than once")


def _seed(value) -> int:
    """``value`` as a seed: the one rule for it, an integer (``_integer``) that is not negative."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _core_count(value) -> int:
    """``value`` as a core count: the one rule for it, an integer (``_integer``) that is not negative."""
    n_cores = _integer(value, "core count")
    if n_cores < 0:
        raise ValueError("core count must be non-negative")
    return n_cores


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TaskGraph:
    """A core count and its checked arcs; equal to a graph with the same count and arcs in the same order."""

    n_cores: int
    arc_columns: np.ndarray
    """Every arc's src, dst, volume and bandwidth, in arc order: a read-only, shared int64 array
    of shape (4, arcs).  No column's sum wraps: a graph whose totals do not fit int64 is refused."""

    def __init__(self, n_cores: int, arcs: Iterable[tuple[int, int, int, int]]):
        """``arcs`` are (src, dst, volume, bandwidth) quads, ``Arc`` values among them."""
        n_cores = _core_count(n_cores)
        values = [v for src, dst, volume, bandwidth in arcs for v in (src, dst, volume, bandwidth)]
        self.__dict__.update(n_cores=n_cores, arc_columns=_checked_columns(n_cores, values))

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


def _checked_columns(n_cores: int, values: list, lines: list | None = None):
    """Arc fields, four per arc in arc order, as checked, read-only ``arc_columns``.

    Each test runs on the whole array.  The first bad arc is refused for the first it fails: a field
    that is not an integer (``_is_integer``), an end off 0..n_cores-1 or past int64, a loop, an earlier
    arc's pair, a negative weight (a GraphFormatError at ``lines[arc]`` if ``lines`` is given).  A
    non-integer field counts as 0 in the other tests.  Then a total past int64 is refused.
    """
    shown, faulty = values, np.zeros(len(values), dtype=bool)
    if not set(map(type, values)) <= {int}:  # the per-field search only when the type scan fails
        faulty = np.array([not _is_integer(v) for v in values], dtype=bool)
        values = [0 if bad else int(v) for v, bad in zip(values, faulty.tolist())]
    faulty = faulty.reshape(-1, 4)
    try:
        columns = np.array(values, dtype=np.int64).reshape(-1, 4).T.copy()  # C order
    except OverflowError:  # a field past int64: the same tests, on Python ints
        columns = np.array(values, dtype=object).reshape(-1, 4).T
    src, dst, volume, bandwidth = columns
    by_pair = np.lexsort((dst, src))  # stable: an arc sorts after the earlier arcs with its pair
    repeat = np.zeros(src.shape, dtype=bool)
    repeat[by_pair[1:]] = (columns[:2, by_pair[1:]] == columns[:2, by_pair[:-1]]).all(axis=0)
    off = ((columns[:2] < 0) | (columns[:2] >= min(n_cores, INT64_MAX + 1))).any(axis=0)
    tests = np.array([faulty.any(axis=1), off, src == dst, repeat, (volume < 0) | (bandwidth < 0)])
    if tests.any():
        arc = int(tests.any(axis=0).argmax())
        s, d = shown[4 * arc:4 * arc + 2]  # as given; an arc refused by a later test has integer fields only
        message = (f"non-integer field {shown[4 * arc + faulty[arc].argmax()]!r} in arc {s}->{d}",
                   f"core id out of range in arc {s}->{d}", f"self-loop on core {s}",
                   f"duplicate arc {s}->{d}", f"negative weight on arc {s}->{d}")[tests[:, arc].argmax()]
        raise ValueError(message) if lines is None else GraphFormatError(lines[arc], message)
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
            try:
                n_cores = _core_count(n_cores)
            except ValueError as exc:
                raise GraphFormatError(line_no, str(exc)) from None
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
    be an integer (numpy's are, ``bool`` is not), the core count is decided
    by ``_core_count``, so 0 cores give the empty graph, and the seed by
    ``_seed``.
    """
    n_cores, n_arcs = _core_count(n_cores), _integer(n_arcs, "arc count")
    for bound in (*volume_range, *bandwidth_range):
        _integer(bound, "weight range bound")
    if n_arcs < 0 or n_arcs > n_cores * (n_cores - 1):
        raise ValueError(
            f"infeasible arc count {n_arcs} for {n_cores} cores "
            f"(max {n_cores * (n_cores - 1)})"
        )
    for lo, hi in (volume_range, bandwidth_range):
        if lo > hi or lo < 0:
            raise ValueError(f"empty or negative weight range ({lo}, {hi})")
    rng = random.Random(_seed(seed))
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
    order, only when both endpoints are selected.  Each id must be a core of
    the graph (``_ids``), selected once (``_refuse_repeat``).  The subgraph is
    built from ``g.arc_columns`` by one relabelling array, with no ``Arc``
    made and no arc checked again.
    """
    ids = _ids(core_ids, g.n_cores, "core id")
    new_id = np.full(g.n_cores, -1, dtype=np.int64)
    new_id[ids] = np.arange(len(ids))
    if np.count_nonzero(new_id >= 0) != len(ids):  # a scatter keeps one entry per repeated id
        _refuse_repeat(ids.tolist(), "core id")
    columns = g.arc_columns.copy()
    np.take(new_id, g.arc_columns[:2], out=columns[:2])
    # An arc stays when neither end is -1: the sign bit of neither is set.
    return TaskGraph._from_columns(len(ids), np.compress((columns[0] | columns[1]) >= 0, columns, axis=1))
