"""Independent brute-force evaluators used to cross-check the library.

Everything here is re-derived from scratch on purpose: coordinates come from
plain divmod arithmetic, distances from coordinate differences, and metrics
from double loops over a dense adjacency matrix.  Energy counts, in exact
integers, the bits times routers visited (``switch_bits``) and the bits
times links traversed (``link_bits``), then applies the closed form
``e_switch * switch_bits + e_link * link_bits`` once, so results are
order-independent and comparable bit-for-bit with the library.

``objective_values`` is the three-sum form that ``HopKernel.objective_values``
must reproduce exactly.  It takes only the kernel's hops and sums them itself,
switch bits as ``link_bits + (h > 0) @ volume``, not as the kernel's
``sum(vol)`` less the co-located arcs, so the two forms check each other.
``kernel_oracle`` scores every injective assignment through the kernel, in
lexicographic order, and takes the first minimum: the value and minimizer
that the library's branch-and-bound oracle must return.

``repair_permutation`` is the one-vector loop that ``nocmap.pso``'s
``repair_permutation``, an in-place slot-space repair of the whole swarm,
must reproduce exactly, and ``velocity_update`` the float-difference
velocity formula that its in-place update must reproduce bit for bit.  ``pso_optimize`` runs the swarm from those two: int64
positions, one repair per row and one ``metrics.evaluate`` per particle, so
the library's float-resident loop must return its mapping, fitness and
trace exactly.

The second half keeps the dense reference implementations of the placement
core (``ddmap``, ``lozenge_next_empty``, ``cluster_tasks``,
``dynamic_schedule``) and the all-pairs ``generate_random_graph`` sampler.
The library's sparse versions must reproduce them exactly, placement
insertion order included.  Like the library, they keep which tiles are
empty as one bool mask per mesh; they share ``priority_order`` with the
library, build subgraphs with ``induced_subgraph_arcs`` below, and call each
other rather than the library's fast paths.  They read volumes and partners from the arcs
(``exchange_matrix``, ``exchange_pairs``, ``partner_sets``), never from the
graph's neighbour map, so a fault there cannot hide in both.

The last part keeps the per-arc Python forms that the library's placement
path replaced: the residual ranking that rescans every arc per round
(``residual_order``, ``dynamic_schedule_rescan``), the chain step with
candidate lists (``cluster_tasks_candidates``), the two-dict aggregation
(``cluster_graph_pairs``), the per-arc relabelling of ``induced_subgraph``
(``induced_subgraph_arcs``), the lozenge search that looks up its visiting
orders per call (``lozenge_lookup``), and ``ddmap`` through a ``place`` helper
that chooses each core's anchor by scanning its placed partners when it is
placed, with the heap built by ``heapify`` (``ddmap_place``).  The library's array and inlined forms must
reproduce them exactly, dict insertion order included.  The two graph
builders make ``Arc`` values and go through the checking ``TaskGraph``
constructor, where the library builds its derived graphs from arc columns.

Last, ``check_arc`` is the one-arc-at-a-time check that the library's
whole-array arc check replaced, and ``arc_fault`` runs it over a graph's
arcs, then sums each weight column exactly, to name the refusal the
library must make.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
import random
from typing import Iterator

import numpy as np

from nocmap.metrics import EnergyModel, HopKernel, evaluate
from nocmap.scheduler import ClusterSet, Schedule
from nocmap.taskgraph import INT64_MAX, Arc, TaskGraph, priority_order
from nocmap.topology import Mesh3D, _layer_cells, _layer_order, diagonal_tiles, tile_coords


def coords(tile: int, n: int) -> tuple[int, int, int]:
    layer = tile // (n * n)
    row = (tile - layer * n * n) // n
    col = tile - layer * n * n - row * n
    return layer, row, col


def manhattan3(a: int, b: int, n: int) -> int:
    la, ra, ca = coords(a, n)
    lb, rb, cb = coords(b, n)
    return abs(la - lb) + abs(ra - rb) + abs(ca - cb)


def volume_matrix(g) -> list[list[int]]:
    m = [[0] * g.n_cores for _ in range(g.n_cores)]
    for a in g.arcs:
        m[a.src][a.dst] = a.volume
    return m


def exchange_matrix(g) -> list[list[int]]:
    """Volume exchanged per pair of cores, both directions summed; symmetric."""
    m = volume_matrix(g)
    return [[m[a][b] + m[b][a] for b in range(g.n_cores)] for a in range(g.n_cores)]


def exchange_pairs(g) -> dict[tuple[int, int], int]:
    """Volume exchanged per linked pair of cores, both directions summed, under both orders."""
    pairs: dict[tuple[int, int], int] = {}
    for a in g.arcs:
        for pair in ((a.src, a.dst), (a.dst, a.src)):
            pairs[pair] = pairs.get(pair, 0) + a.volume
    return pairs


def partner_sets(g) -> list[set[int]]:
    """Per core: the cores an arc links it to, either way, zero-volume arcs included."""
    partners: list[set[int]] = [set() for _ in range(g.n_cores)]
    for a in g.arcs:
        partners[a.src].add(a.dst)
        partners[a.dst].add(a.src)
    return partners


def bandwidth_matrix(g) -> list[list[int]]:
    m = [[0] * g.n_cores for _ in range(g.n_cores)]
    for a in g.arcs:
        m[a.src][a.dst] = a.bandwidth
    return m


def brute_energy(g, placement, n, e_switch=0.284, e_link=0.449) -> float:
    vol = volume_matrix(g)
    switch_bits = link_bits = 0
    for i in range(g.n_cores):
        for j in range(g.n_cores):
            if i == j or vol[i][j] == 0:
                continue
            hops = manhattan3(placement[i], placement[j], n)
            if hops:
                switch_bits += vol[i][j] * (hops + 1)  # a path of h links visits h+1 routers
                link_bits += vol[i][j] * hops
    return e_switch * switch_bits + e_link * link_bits


def brute_cost(g, placement, n) -> int:
    bw = bandwidth_matrix(g)
    total = 0
    for i in range(g.n_cores):
        for j in range(g.n_cores):
            if i != j and bw[i][j]:
                total += bw[i][j] * manhattan3(placement[i], placement[j], n)
    return total


def brute_eta(g) -> int:
    vol = volume_matrix(g)
    return sum(
        1
        for i in range(g.n_cores)
        for j in range(g.n_cores)
        if i != j and vol[i][j] > 0
    )


def brute_latency(g, placement, n, rho=1.0) -> float:
    vol = volume_matrix(g)
    hop_volume = 0
    for i in range(g.n_cores):
        for j in range(g.n_cores):
            if i != j and vol[i][j]:
                hop_volume += vol[i][j] * manhattan3(placement[i], placement[j], n)
    eta = brute_eta(g)
    if eta == 0:
        raise ValueError("no transfers")
    return hop_volume * rho / eta


def objective_values(kernel, tiles, objective: str, model):
    """Cost, or the energy of the link and switch bits, from three sums over the kernel's hops."""
    h = kernel.hops(tiles)
    link_bits = h @ kernel.volume
    switch_bits = link_bits + (h > 0) @ kernel.volume
    cost = h @ kernel.bandwidth
    if objective == "cost":
        return cost
    if objective == "energy":
        return model.energy(switch_bits, link_bits)
    raise ValueError(f"unknown objective {objective!r}")


def kernel_oracle(g, mesh: Mesh3D, objective: str = "energy", model=EnergyModel()):
    """First minimum over ``itertools.permutations(range(tiles), k)``, every assignment scored.

    The enumeration that ``exhaustive_oracle``'s walk replaced, without its
    symmetry rule or its bound: lexicographic chunks of assignment rows, each
    scored by one ``HopKernel.objective_values`` call.
    """
    kernel = HopKernel(g, mesh)
    assignments = itertools.permutations(range(mesh.tile_count), g.n_cores)
    best = None
    while chunk := list(itertools.islice(assignments, 1 << 14)):
        rows = np.array(chunk, dtype=np.intp).reshape(len(chunk), g.n_cores)
        values = kernel.objective_values(rows, objective, model)
        i = int(np.argmin(values))  # the first minimum: chunks come in lexicographic order
        if best is None or values[i] < best[0]:
            best = values[i].item(), dict(enumerate(rows[i].tolist()))
    return best


def repair_permutation(raw, dimension: int) -> list[int]:
    """Make an integer vector duplicate-free.

    First occurrences win; later duplicates are replaced, left to right, by
    the unused values in ascending order.  Idempotent on valid vectors.
    """
    vals = [int(v) for v in raw]
    if len(vals) > dimension:
        raise ValueError("vector longer than the value range")
    used = bytearray(dimension)
    duplicates = []
    for i, v in enumerate(vals):
        if not (0 <= v < dimension):
            raise ValueError(f"component {v} out of range 0..{dimension - 1}")
        if used[v]:
            duplicates.append(i)
        else:
            used[v] = 1
    if duplicates:
        fill = (t for t in range(dimension) if not used[t])
        for i in duplicates:
            vals[i] = next(fill)
    return vals


def velocity_update(position, velocity, pbest, gbest, params, rng, dimension: int):
    """w*v + U(0, c1)*(pbest - x) + U(0, c2)*(gbest - x), every operand in float, clamped."""
    x = np.asarray(position, dtype=float)
    r1 = rng.uniform(0.0, params.c1, x.shape)
    r2 = rng.uniform(0.0, params.c2, x.shape)
    v = params.w * np.asarray(velocity, dtype=float)
    v += r1 * (np.asarray(pbest, dtype=float) - x)
    v += r2 * (np.asarray(gbest, dtype=float) - x)
    return np.clip(v, -dimension, dimension)


def pso_optimize(g, mesh, params, objective="energy", model=EnergyModel(), seed_mapping=None):
    """The swarm one particle at a time: ``(mapping, fitness, trace)``.

    It reads the library's generator stream: ``SeedSequence((seed, 0))``,
    one permutation per particle, then per step the draws of
    ``velocity_update`` above.  A seed mapping replaces particle 0, its
    unused tiles appended in ascending order.  Positions move as int64
    arrays by ``floor(v)``, clamped to 0..D-1.
    """
    d, s = mesh.tile_count, params.swarm_size
    order = priority_order(g)
    rng = np.random.default_rng(np.random.SeedSequence((params.seed, 0)))
    positions = np.array([rng.permutation(d) for _ in range(s)], dtype=np.int64)
    if seed_mapping is not None:
        placed = [seed_mapping[core] for core in order]
        positions[0] = placed + sorted(set(range(d)) - set(placed))

    def score(row):
        report = evaluate(g, {core: int(row[i]) for i, core in enumerate(order)}, mesh, model)
        return report.total_energy if objective == "energy" else report.comm_cost

    values = [score(row) for row in positions]
    evals = s
    pbest, pbest_val = positions.copy(), list(values)
    best = min(range(s), key=pbest_val.__getitem__)
    gbest, gbest_val = pbest[best].copy(), pbest_val[best]
    trace = [(0, evals, gbest_val)]
    velocities = np.zeros((s, d))
    iteration = 0
    while evals + s <= params.max_evals_per_simulation:
        iteration += 1
        velocities = velocity_update(positions, velocities, pbest, gbest, params, rng, d)
        moved = np.clip(positions + np.floor(velocities).astype(np.int64), 0, d - 1)
        positions = np.array([repair_permutation(row, d) for row in moved], dtype=np.int64)
        values = [score(row) for row in positions]
        evals += s
        for i in range(s):
            if values[i] < pbest_val[i]:
                pbest[i], pbest_val[i] = positions[i], values[i]
        best = min(range(s), key=pbest_val.__getitem__)
        if pbest_val[best] < gbest_val:
            gbest, gbest_val = pbest[best].copy(), pbest_val[best]
        trace.append((iteration, evals, gbest_val))
    return {core: int(gbest[i]) for i, core in enumerate(order)}, gbest_val, tuple(trace)


def generate_random_graph(
    n_cores: int,
    n_arcs: int,
    volume_range: tuple[int, int] = (10, 1000),
    bandwidth_range: tuple[int, int] = (1, 100),
    seed: int = 0,
) -> TaskGraph:
    """All-pairs sampler: lists every ordered pair, then samples n_arcs of them."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n_cores) for j in range(n_cores) if i != j]
    chosen = rng.sample(pairs, n_arcs)
    arcs = tuple(
        Arc(src, dst, rng.randint(*volume_range), rng.randint(*bandwidth_range))
        for src, dst in chosen
    )
    return TaskGraph(n_cores, arcs)


def _ring(row: int, col: int, d: int, clockwise: bool) -> Iterator[tuple[int, int]]:
    """Positions of the diamond ring at Manhattan radius d, starting north.

    Clockwise walks north -> east -> south -> west; counter-clockwise the
    reverse.  Callers filter out-of-grid positions.
    """
    if d == 0:
        yield (row, col)
        return
    if clockwise:
        for k in range(d):
            yield (row - d + k, col + k)
        for k in range(d):
            yield (row + k, col + d - k)
        for k in range(d):
            yield (row + d - k, col - k)
        for k in range(d):
            yield (row - k, col - d + k)
    else:
        for k in range(d):
            yield (row - d + k, col - k)
        for k in range(d):
            yield (row + k, col - d + k)
        for k in range(d):
            yield (row + d - k, col + k)
        for k in range(d):
            yield (row - k, col + d - k)


def layer_counts(free, mesh: Mesh3D) -> list[int]:
    """Empty tiles per layer of a free mask, as ``nocmap.topology.lozenge_next_empty`` takes them."""
    nn = mesh.n * mesh.n
    return [sum(bool(f) for f in free[layer * nn:(layer + 1) * nn]) for layer in range(mesh.n)]


def lozenge_next_empty(anchor: int, free: np.ndarray, mesh: Mesh3D) -> int:
    """Ring-by-ring walk: own layer d = 1..2(n-1), then layers +1, -1, +2, ...
    from d = 0, the anchor last."""
    n = mesh.n
    if len(free) != mesh.tile_count:
        raise ValueError("occupancy size does not match mesh")
    a_layer, a_row, a_col = tile_coords(anchor, mesh)
    clockwise = (anchor % n) % 2 == 1
    max_d = 2 * (n - 1)

    layer_offsets = [0]
    for off in range(1, n):
        layer_offsets.extend((off, -off))
    for off in layer_offsets:
        layer = a_layer + off
        if not (0 <= layer < n):
            continue
        d_start = 1 if off == 0 else 0
        base = layer * n * n
        for d in range(d_start, max_d + 1):
            for r, c in _ring(a_row, a_col, d, clockwise):
                if 0 <= r < n and 0 <= c < n:
                    tile = base + r * n + c
                    if free[tile]:
                        return tile
    if free[anchor]:
        return anchor
    raise ValueError("no free tile available")


def ddmap(g: TaskGraph, mesh: Mesh3D) -> dict[int, int]:
    """All-pairs greedy: rescans every unmapped and every mapped core per placement."""
    n = mesh.n
    if g.n_cores > mesh.tile_count:
        raise ValueError(f"{g.n_cores} cores exceed {mesh.tile_count} tiles")
    order = priority_order(g)
    rank = {core: i for i, core in enumerate(order)}

    free = np.ones(mesh.tile_count, dtype=bool)
    mapping: dict[int, int] = {}
    mapped_seq: list[int] = []

    # Interior-diagonal seeds; a 2x2x2 mesh has no interior, fall back to the origin.
    seeds = diagonal_tiles(mesh) or [0]
    for core, tile in zip(order, seeds):
        mapping[core] = tile
        free[tile] = False
        mapped_seq.append(core)

    volume = exchange_matrix(g)
    unmapped = [c for c in order if c not in mapping]
    traffic = {c: sum(volume[c][m] for m in mapped_seq) for c in unmapped}
    while unmapped:
        core = min(unmapped, key=lambda c: (-traffic[c], rank[c]))
        anchor_core = mapped_seq[0]
        best = volume[core][anchor_core]
        for m in mapped_seq[1:]:
            v = volume[core][m]
            if v > best:
                best, anchor_core = v, m
        tile = lozenge_next_empty(mapping[anchor_core], free, mesh)
        mapping[core] = tile
        free[tile] = False
        mapped_seq.append(core)
        unmapped.remove(core)
        for c in unmapped:
            traffic[c] += volume[c][core]
    return mapping


def dynamic_schedule(g: TaskGraph, mesh: Mesh3D) -> Schedule:
    """Rebuilds the residual induced subgraph every round; rounds mapped by ``ddmap`` above."""
    if g.n_cores == 0:
        raise ValueError("cannot schedule an empty graph")
    cap = mesh.tile_count
    placement: dict[int, int] = {}
    remaining = list(range(g.n_cores))
    while remaining:
        residual = induced_subgraph_arcs(g, remaining)
        cohort = [remaining[c] for c in priority_order(residual)[:cap]]
        round_map = ddmap(induced_subgraph_arcs(g, cohort), mesh)
        for new_id, tile in round_map.items():
            placement[cohort[new_id]] = tile
        taken = set(cohort)
        remaining = [c for c in remaining if c not in taken]
    return Schedule(placement)


def cluster_tasks(g: TaskGraph, max_clusters: int) -> ClusterSet:
    """Chains from ``min(unscheduled)``; surplus merge over all (surplus, kept) pairs."""
    if max_clusters < 1:
        raise ValueError("need at least one cluster")
    volume, partners = exchange_pairs(g), partner_sets(g)
    unscheduled = set(range(g.n_cores))
    scheduled: set[int] = set()
    chains: list[list[int]] = []
    while unscheduled:
        current = min(unscheduled)
        unscheduled.discard(current)
        scheduled.add(current)
        chain = [current]
        while True:
            candidates = [t for t in partners[current] if t in unscheduled]
            if not candidates:
                break
            nxt = min(candidates, key=lambda t: (-volume[current, t], t))
            unscheduled.discard(nxt)
            scheduled.add(nxt)
            chain.append(nxt)
            loops_back = any(p in scheduled and p != current for p in partners[nxt])
            if loops_back:
                break
            current = nxt
        chains.append(chain)

    if len(chains) > max_clusters:
        kept = [list(c) for c in chains[:max_clusters]]
        for surplus in chains[max_clusters:]:
            exchanged = [
                sum(volume.get((u, v), 0) for u in surplus for v in cluster)
                for cluster in kept
            ]
            target = max(range(len(kept)), key=lambda i: (exchanged[i], -i))
            kept[target].extend(surplus)
        chains = kept
    return ClusterSet(tuple(tuple(c) for c in chains))


# The per-arc Python forms of the placement path, kept as they were before it
# read the graph's arc columns: the residual ranking of ``dynamic_schedule``,
# the chain step of ``cluster_tasks``, the two-dict aggregation of
# ``cluster_graph``, the relabelling of ``induced_subgraph``, and
# ``lozenge_next_empty``'s per-call lookup of its visiting orders, with
# ``ddmap``'s ``place`` helper.  They call each other,
# never the library's versions of these functions.


def lozenge_lookup(anchor: int, free, counts: list[int], mesh: Mesh3D, resume: dict[int, int] | None = None) -> int:
    """``lozenge_next_empty`` finding the visiting orders per call: ``tile_coords``, then two tables."""
    n = mesh.n
    nn = n * n
    if len(free) != nn * n:
        raise ValueError("occupancy size does not match mesh")
    if len(counts) != n:
        raise ValueError("free counts size does not match mesh")
    a_layer, a_row, a_col = tile_coords(anchor, mesh)
    cells = _layer_cells(n, a_row, a_col)
    layers = _layer_order(n, a_layer)
    resume = {} if resume is None else resume
    i, k = divmod(resume.get(anchor, 1), nn)
    for i in range(i, n):
        layer = layers[i]
        if counts[layer] > (i == 0 and free[anchor]):
            base = layer * nn
            for k in range(k, nn):
                if free[base + cells[k]]:
                    resume[anchor] = i * nn + k
                    return base + cells[k]
        k = 0
    if free[anchor]:
        return anchor
    raise ValueError("no free tile available")


def ddmap_place(g: TaskGraph, mesh: Mesh3D) -> dict[int, int]:
    """Sparse greedy ddmap through a ``place`` helper and ``lozenge_lookup``; anchors from a partner scan."""
    n, n_cores = mesh.n, g.n_cores
    if n_cores > mesh.tile_count:
        raise ValueError(f"{n_cores} cores exceed {mesh.tile_count} tiles")
    order = priority_order(g)
    rank = [0] * n_cores
    for i, core in enumerate(order):
        rank[core] = i
    neighbours = g.neighbours
    nn = n * n
    free = bytearray(b"\x01") * (nn * n)
    counts = [nn] * n
    mapping: dict[int, int] = {}
    placed_at = [-1] * n_cores
    traffic = [0] * n_cores
    heap: list[int] = []
    resume: dict[int, int] = {}

    def place(core: int, tile: int) -> None:
        mapping[core] = tile
        free[tile] = 0
        counts[tile // nn] -= 1
        placed_at[core] = len(mapping) - 1
        for p, v in neighbours[core].items():
            if v and placed_at[p] < 0:
                traffic[p] += v
                heapq.heappush(heap, rank[p] - traffic[p] * n_cores)

    seeds = diagonal_tiles(mesh) or [0]
    for core, tile in zip(order, seeds):
        place(core, tile)
    first = order[0]
    heap.extend(rank[c] - traffic[c] * n_cores for c in order if placed_at[c] < 0)
    heapq.heapify(heap)
    while heap:
        key = heapq.heappop(heap)
        core = order[key % n_cores]
        if placed_at[core] >= 0 or key != rank[core] - traffic[core] * n_cores:
            continue
        anchor_core, best = first, 0
        for p, v in neighbours[core].items():
            if placed_at[p] >= 0:
                if v > best or (v == best and v and placed_at[p] < placed_at[anchor_core]):
                    anchor_core, best = p, v
        place(core, lozenge_lookup(mapping[anchor_core], free, counts, mesh, resume))
    return mapping


def residual_order(g: TaskGraph, left: list[bool]) -> list[int]:
    """Priority order of the cores still ``left``, from one rescan of every arc and a key-lambda sort."""
    degs, ranks = [0] * g.n_cores, [0] * g.n_cores
    for a in g.arcs:
        if left[a.src] and left[a.dst]:
            degs[a.src] += 1
            ranks[a.src] += a.volume
            ranks[a.dst] += a.volume
    return sorted((c for c in range(g.n_cores) if left[c]), key=lambda c: (-degs[c], -ranks[c], c))


def dynamic_schedule_rescan(g: TaskGraph, mesh: Mesh3D) -> Schedule:
    """Rounds ranked by ``residual_order`` and mapped by ``ddmap_place``."""
    if g.n_cores == 0:
        raise ValueError("cannot schedule an empty graph")
    cap = mesh.tile_count
    placement: dict[int, int] = {}
    left = [True] * g.n_cores
    while any(left):
        cohort = residual_order(g, left)[:cap]
        round_map = ddmap_place(induced_subgraph_arcs(g, cohort), mesh)
        for new_id, tile in round_map.items():
            placement[cohort[new_id]] = tile
        for c in cohort:
            left[c] = False
    return Schedule(placement)


def cluster_tasks_candidates(g: TaskGraph, max_clusters: int) -> ClusterSet:
    """Chains grown from candidate lists with ``min``, cut by an ``any`` loop-back test."""
    if max_clusters < 1:
        raise ValueError("need at least one cluster")
    neighbours = g.neighbours
    scheduled = [False] * g.n_cores
    chains: list[list[int]] = []
    for start in range(g.n_cores):
        if scheduled[start]:
            continue
        current = start
        scheduled[current] = True
        chain = [current]
        while True:
            candidates = [(-v, t) for t, v in neighbours[current].items() if not scheduled[t]]
            if not candidates:
                break
            nxt = min(candidates)[1]
            scheduled[nxt] = True
            chain.append(nxt)
            if any(scheduled[p] and p != current for p in neighbours[nxt]):
                break
            current = nxt
        chains.append(chain)
    if len(chains) > max_clusters:
        kept = chains[:max_clusters]
        owner = [-1] * g.n_cores
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
    return ClusterSet(tuple(tuple(c) for c in chains))


def cluster_graph_pairs(g: TaskGraph, cs: ClusterSet) -> TaskGraph:
    """Crossing arcs summed in one volume dict and one bandwidth dict keyed by cluster pair."""
    cluster_of = {t: i for i, cluster in enumerate(cs.clusters) for t in cluster}
    if len(cluster_of) != g.n_cores:
        raise ValueError("cluster set does not cover this graph")
    volumes: dict[tuple[int, int], int] = {}
    bandwidths: dict[tuple[int, int], int] = {}
    for a in g.arcs:
        p, q = cluster_of[a.src], cluster_of[a.dst]
        if p == q:
            continue
        volumes[(p, q)] = volumes.get((p, q), 0) + a.volume
        bandwidths[(p, q)] = bandwidths.get((p, q), 0) + a.bandwidth
    arcs = tuple(Arc(p, q, volumes[(p, q)], bandwidths[(p, q)]) for p, q in sorted(volumes))
    return TaskGraph(len(cs.clusters), arcs)


def induced_subgraph_arcs(g: TaskGraph, core_ids) -> TaskGraph:
    """The subgraph on ``core_ids``, relabeled in their order: one ``Arc`` per kept arc, in arc order."""
    if len(set(core_ids)) != len(core_ids):
        raise ValueError("duplicate core id in selection")
    for core in core_ids:
        if not (0 <= core < g.n_cores):
            raise ValueError(f"core id {core} out of range 0..{g.n_cores - 1}")
    new_id = {old: new for new, old in enumerate(core_ids)}
    arcs = tuple(
        Arc(new_id[a.src], new_id[a.dst], a.volume, a.bandwidth)
        for a in g.arcs
        if a.src in new_id and a.dst in new_id
    )
    return TaskGraph(len(core_ids), arcs)


def cluster_schedule_pairs(g: TaskGraph, mesh: Mesh3D) -> Schedule:
    """``cluster_tasks_candidates``, ``cluster_graph_pairs`` and ``ddmap_place``, expanded to tasks."""
    cs = cluster_tasks_candidates(g, mesh.tile_count)
    cluster_map = ddmap_place(cluster_graph_pairs(g, cs), mesh)
    placement: dict[int, int] = {}
    for idx, cluster in enumerate(cs.clusters):
        for task in cluster:
            placement[task] = cluster_map[idx]
    return Schedule(placement)


def check_arc(a: Arc, n_cores: int, seen: set[tuple[int, int]]) -> None:
    """Refuse an arc with a field that is not an integer (numpy's are, ``bool`` is not), an
    end off 0..n_cores-1, a loop, a pair already in ``seen`` or a negative weight."""
    src, dst, volume, bandwidth = a.src, a.dst, a.volume, a.bandwidth
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


def arc_fault(n_cores: int, quads) -> tuple[int | None, str] | None:
    """The refusal of a graph of (src, dst, volume, bandwidth) arcs: the first arc ``check_arc``
    refuses, as (its index, message), else a total weight past int64, as (None, message), else None."""
    seen: set[tuple[int, int]] = set()
    for index, quad in enumerate(quads):
        try:
            check_arc(Arc(*quad), n_cores, seen)
        except ValueError as exc:
            return index, str(exc)
    for name, field in (("volume", 2), ("bandwidth", 3)):
        total = sum(int(quad[field]) for quad in quads)
        if total > INT64_MAX:
            return None, f"total arc {name} {total} does not fit int64"
    return None
