"""Many-tasks-per-tile assignment: multi-round dynamic scheduling and
chain-based cluster scheduling.

Dynamic scheduling fills the whole mesh one core per tile, then starts over
with the leftover tasks on a fresh occupancy, stacking rounds until every
task has a tile.

Cluster scheduling first groups tasks into chains of heavy communicators
(each chain grown greedily by maximum exchanged volume, and cut as soon as
the newest task also talks to an earlier-scheduled task), then maps whole
clusters to tiles.  Traffic inside a cluster never enters the network, which
is where the energy savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .mappers import ddmap, map_with
from .metrics import Mapping
from .taskgraph import TaskGraph, _ids, _integer, _refuse_repeat, _traffic, induced_subgraph
from .topology import Mesh3D


@dataclass(frozen=True)
class ClusterSet:
    """Task ids in ordered clusters; ``cluster_graph`` refuses a set that is not a partition of its graph's tasks."""

    clusters: tuple[tuple[int, ...], ...]


@dataclass
class Schedule:
    """Task -> tile placement, many-to-one, in assignment order."""

    placement: dict[int, int]


def dynamic_schedule(g: TaskGraph, mesh: Mesh3D) -> Schedule:
    """Round-based scheduling: ddmap the top priority cores, reset, repeat.

    Each round takes the first min(remaining, n^3) cores of the residual
    subgraph's priority order, maps them (induced arcs only) on an empty
    mesh, and stacks the placements.  No tile ends up with more than
    ceil(N / n^3) tasks.

    The residual order is ranked from the graph's ``arc_columns`` without
    building the residual subgraph: each round takes the out-degrees and
    volumes of the arcs with neither end placed, as ``priority_order`` does
    for a whole graph, and a stable ``np.lexsort`` of all cores, in id order,
    by (placed, -degree, -volume) puts the unplaced ones first in
    ``priority_order``'s order, id tiebreak included.
    """
    cap = mesh.tile_count
    ends, volume = g.arc_columns[:2], g.arc_columns[2]
    src, dst = ends
    placement: dict[int, int] = {}
    placed = np.zeros(g.n_cores, dtype=bool)
    for done in range(0, g.n_cores, cap):
        both = ~(placed[src] | placed[dst])
        degs, ranks = _traffic(g.n_cores, np.compress(both, ends, axis=1), volume[both])
        # Placed cores sort last, the rest by (-degree, -volume, id).
        chosen = np.lexsort((-ranks, -degs, placed))[:min(cap, g.n_cores - done)]
        placed[chosen] = True
        cohort = chosen.tolist()
        round_map = ddmap(induced_subgraph(g, cohort), mesh)
        for new_id, tile in round_map.items():
            placement[cohort[new_id]] = tile
    return Schedule(placement)


def cluster_tasks(g: TaskGraph, max_clusters: int) -> ClusterSet:
    """Partition tasks into communication chains, at most max_clusters of them.

    Chains start at the lowest unscheduled task id and grow by repeatedly
    following the heaviest arc (both directions summed; ties to the lower
    id) to an unscheduled partner.  A chain is cut right after adding a task
    that also has an arc to an already-scheduled task other than its chain
    predecessor -- the looped task is kept, the chain stops.  Surplus chains
    are merged, in creation order, into the retained cluster they exchange
    the most volume with (ties to the lowest cluster index).

    ``max_clusters`` must be an integer (``taskgraph._integer``).
    Every task joins one chain once, so the result is a partition of the
    graph's tasks by construction.
    """
    if _integer(max_clusters, "cluster limit") < 1:
        raise ValueError("need at least one cluster")
    neighbours = g.neighbours
    scheduled = [False] * g.n_cores
    chains: list[list[int]] = []
    for start in range(g.n_cores):
        if scheduled[start]:
            continue
        scheduled[start] = True
        chain = [start]
        prev, current = -1, start  # the start has no predecessor and is never cut
        while True:
            # One pass over the newest task's partners: a scheduled one other
            # than its predecessor cuts the chain, else the heaviest
            # unscheduled one, ties to the lower id, comes next.
            nxt, best = -1, -1
            for t, v in neighbours[current].items():
                if not scheduled[t]:
                    if v > best or (v == best and t < nxt):
                        nxt, best = t, v
                elif t != prev and prev >= 0:
                    nxt = -1
                    break
            if nxt < 0:
                break
            scheduled[nxt] = True
            chain.append(nxt)
            prev, current = current, nxt
        chains.append(chain)

    if len(chains) > max_clusters:
        kept = chains[:max_clusters]
        owner = [-1] * g.n_cores  # task -> index of the retained cluster holding it
        for i, cluster in enumerate(kept):
            for t in cluster:
                owner[t] = i
        for surplus in chains[max_clusters:]:
            exchanged: dict[int, int] = {}
            for u in surplus:
                for p, v in neighbours[u].items():
                    if v and owner[p] >= 0:
                        exchanged[owner[p]] = exchanged.get(owner[p], 0) + v
            target = max(exchanged, key=lambda i: (exchanged[i], -i), default=0)
            kept[target].extend(surplus)
            for t in surplus:
                owner[t] = target
        chains = kept
    return ClusterSet(tuple(map(tuple, chains)))


def cluster_graph(g: TaskGraph, cs: ClusterSet) -> TaskGraph:
    """One node per cluster; crossing arcs aggregated, internal arcs dropped.

    Arcs come in (src, dst) order.  Built from ``g.arc_columns``: a stable
    sort of the crossing arcs' cluster pair keys ``p*m + q`` and one
    ``np.add.reduceat`` per run of equal keys, exact in int64 because no sum
    exceeds the graph's totals.  No ``Arc`` is made and no arc checked again.

    ``cs`` must be a partition of the graph's tasks into non-empty clusters.
    Its tasks, cluster by cluster, are checked by one ``taskgraph._ids`` call
    and scattered into the per-task cluster index, whose entries set show a
    repeated task (``taskgraph._refuse_repeat``) or one left out.
    """
    sizes = list(map(len, cs.clusters))
    if 0 in sizes:
        raise ValueError("empty cluster")
    m = len(sizes)
    tasks = _ids(list(chain.from_iterable(cs.clusters)), g.n_cores, "task id")
    cluster_of = np.full(g.n_cores, -1, dtype=np.int64)
    cluster_of[tasks] = np.repeat(np.arange(m), sizes)
    covered = np.count_nonzero(cluster_of >= 0)
    if covered < len(tasks):  # a scatter keeps one entry per repeated task
        _refuse_repeat(tasks.tolist(), "task id")
    if covered < g.n_cores:
        raise ValueError("cluster set does not cover this graph")
    tails, heads = cluster_of[g.arc_columns[:2]]
    keys = tails * m + heads
    crossing = (tails != heads).nonzero()[0]
    by_key = crossing[np.argsort(keys[crossing], kind="stable")]
    keys = keys[by_key]
    first = np.ones(len(keys), dtype=bool)  # per sorted arc: the first of its pair
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    columns = np.empty((4, len(starts)), dtype=np.int64)
    np.divmod(keys[starts], m, out=(columns[0], columns[1]))
    np.add.reduceat(g.arc_columns[2:].take(by_key, axis=1), starts, axis=1, out=columns[2:])
    return TaskGraph._from_columns(m, columns)


def cluster_schedule(g: TaskGraph, mesh: Mesh3D, mapper: str = "ddmap") -> Schedule:
    """Cluster the tasks, map the cluster graph, expand back to task level."""
    cs = cluster_tasks(g, mesh.tile_count)
    cg = cluster_graph(g, cs)
    cluster_map: Mapping = map_with(mapper, cg, mesh)
    placement: dict[int, int] = {}
    for idx, cluster in enumerate(cs.clusters):
        tile = cluster_map[idx]
        for task in cluster:
            placement[task] = tile
    return Schedule(placement)
