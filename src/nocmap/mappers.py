"""One-core-per-tile placement algorithms.

Three strategies are provided:

* ``ddmap`` -- diagonal-seeded greedy placement.  The highest-priority cores
  are pinned to the cube's interior diagonal (one per interior layer), then
  the remaining cores are placed one at a time: always the unmapped core
  exchanging the most traffic with the mapped set, dropped on the nearest
  free tile around its strongest mapped partner (lozenge ring search).
* ``spiral_order`` -- tiles enumerated center-outward: layers from the middle
  alternating outward, each layer unwound clockwise in a rectangular spiral
  from its center tile.
* ``crinkle_order`` -- serial serpentine: layers ascending, rows ascending,
  columns boustrophedon (left-to-right on even rows, right-to-left on odd).

The two tile orders become mappings by zipping priority-ordered cores onto
the sequence (``sequence_map``).
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .metrics import Mapping
from .taskgraph import TaskGraph, priority_order
from .topology import Mesh3D, _layer_order, diagonal_tiles, lozenge_next_empty


def ddmap(g: TaskGraph, mesh: Mesh3D) -> Mapping:
    """Diagonal-seeded greedy mapping; injective, one core per tile.

    Keys are inserted in placement order, so iterating the result replays
    the placement sequence.  The next core is the unmapped one with the most
    traffic to the mapped set (ties to priority rank); its anchor is the
    earliest-placed partner it exchanges the most volume with, or the first
    seed when that volume is 0.  Traffic is updated along the arcs of each
    newly placed core and read from a lazy heap, so the cost follows the
    arcs, not all pairs.

    The empty tiles are one ``bytearray`` mask plus a count per layer, kept
    in step as each core is placed.  Every tile after the seeds comes from
    one ``lozenge_next_empty`` call that reads both and resumes, through one
    cursor dict per ddmap call, where the anchor's previous search stopped;
    tiles are only ever filled, which keeps that cursor valid.
    """
    n, n_cores = mesh.n, g.n_cores
    if n_cores > mesh.tile_count:
        raise ValueError(f"{n_cores} cores exceed {mesh.tile_count} tiles")
    order = priority_order(g)
    rank = [0] * n_cores
    for i, core in enumerate(order):
        rank[core] = i
    neighbours = g.neighbours

    nn = n * n
    free = bytearray(b"\x01") * (nn * n)  # per tile: still empty
    counts = [nn] * n  # per layer: empty tiles
    mapping: Mapping = {}
    placed_at = [-1] * n_cores  # index in the placement sequence, -1 while unmapped
    traffic = [0] * n_cores  # per unmapped core: volume exchanged with the mapped set
    resume: dict[int, int] = {}  # per anchor: where its last search ended; free only shrinks

    # Interior-diagonal seeds; a 2x2x2 mesh has no interior, fall back to the origin.
    for core, tile in zip(order, diagonal_tiles(n) or [0]):
        mapping[core] = tile
        free[tile] = 0
        counts[tile // nn] -= 1
        placed_at[core] = len(mapping) - 1
    for core in mapping:
        for p, v in neighbours[core].items():
            if placed_at[p] < 0:
                traffic[p] += v
    # Heap keys -traffic*N + rank order cores by (-traffic, rank); a key whose
    # traffic has since grown is stale and skipped.
    heap = [rank[c] - traffic[c] * n_cores for c in order if placed_at[c] < 0]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    first, placed = order[0], len(mapping)
    while heap:
        key = heappop(heap)
        core = order[key % n_cores]
        if placed_at[core] >= 0 or key != rank[core] - traffic[core] * n_cores:
            continue
        anchor_core, best = first, 0
        for p, v in neighbours[core].items():
            if placed_at[p] >= 0:
                if v > best or (v == best and v and placed_at[p] < placed_at[anchor_core]):
                    anchor_core, best = p, v
        tile = lozenge_next_empty(mapping[anchor_core], free, counts, mesh, resume)
        mapping[core] = tile
        free[tile] = 0
        counts[tile // nn] -= 1
        placed_at[core] = placed
        placed += 1
        for p, v in neighbours[core].items():
            if v and placed_at[p] < 0:
                traffic[p] += v
                heappush(heap, rank[p] - traffic[p] * n_cores)
    return mapping


def crinkle_order(mesh: Mesh3D) -> list[int]:
    """Serpentine tile order; a permutation of 0..n^3-1."""
    n = mesh.n
    tiles = []
    for layer in range(n):
        for row in range(n):
            cols = range(n) if row % 2 == 0 else range(n - 1, -1, -1)
            tiles.extend(layer * n * n + row * n + col for col in cols)
    return tiles


def _layer_spiral(n: int) -> list[tuple[int, int]]:
    """(row, col) positions spiraling clockwise outward from the layer center."""
    center = (n - 1) // 2
    r, c = center, center
    out = [(r, c)]
    # East, South, West, North with run lengths 1,1,2,2,3,3,...; off-grid
    # steps are walked through but not recorded.
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))
    run, m = 1, 0
    while len(out) < n * n:
        for _ in range(2):
            dr, dc = moves[m % 4]
            for _ in range(run):
                r, c = r + dr, c + dc
                if 0 <= r < n and 0 <= c < n:
                    out.append((r, c))
            m += 1
        run += 1
    return out


def spiral_order(mesh: Mesh3D) -> list[int]:
    """Center-outward tile order; a permutation of 0..n^3-1."""
    n = mesh.n
    tiles = []
    cells = _layer_spiral(n)
    for layer in _layer_order(n, (n - 1) // 2):
        tiles.extend(layer * n * n + r * n + c for r, c in cells)
    return tiles


def sequence_map(g: TaskGraph, mesh: Mesh3D, order: Sequence[int]) -> Mapping:
    """Priority-ordered cores onto a tile sequence prefix; injective."""
    if g.n_cores > mesh.tile_count:
        raise ValueError(f"{g.n_cores} cores exceed {mesh.tile_count} tiles")
    if len(order) < g.n_cores:
        raise ValueError("tile sequence shorter than the core list")
    return {core: order[i] for i, core in enumerate(priority_order(g))}


def map_with(kind: str, g: TaskGraph, mesh: Mesh3D) -> Mapping:
    """Dispatch by mapper name: ddmap, spiral, or crinkle."""
    if kind == "ddmap":
        return ddmap(g, mesh)
    if kind == "spiral":
        return sequence_map(g, mesh, spiral_order(mesh))
    if kind == "crinkle":
        return sequence_map(g, mesh, crinkle_order(mesh))
    raise ValueError(f"unknown mapper {kind!r}")


MAPPERS = ("ddmap", "spiral", "crinkle")
