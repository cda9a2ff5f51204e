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
from .taskgraph import TaskGraph, _is_integer, priority_order
from .topology import Mesh3D, _check_capacity, _layer_order, diagonal_tiles, lozenge_next_empty


def ddmap(g: TaskGraph, mesh: Mesh3D) -> Mapping:
    """Diagonal-seeded greedy mapping; injective, one core per tile.

    Keys are inserted in placement order, so iterating the result replays
    the placement sequence.  The next core is the unmapped one with the most
    traffic to the mapped set (ties to priority rank); its anchor is the
    earliest-placed partner it exchanges the most volume with, or the first
    seed when that volume is 0.

    Each placement makes one pass over the new core's partners: for every
    unmapped one linked by a non-zero volume it lowers the heap key
    ``rank - traffic*N``, pushes the new key on a lazy heap, and makes the
    new core its anchor when that volume beats the anchor's (a later core
    never wins a tie).  So the cost follows the arcs, not all pairs, and
    placing a core reads its anchor without a second look at its partners.
    Only cores with traffic are ever heaped, since their keys are below 0
    and every other key is its rank; when the heap holds no live key, the
    next core is the first unmapped one in priority order.

    The empty tiles are one ``bytearray`` mask plus a count per layer, kept
    in step as each core is placed.  Every tile after the seeds comes from
    one ``lozenge_next_empty`` call that reads both and resumes, through one
    cursor dict per ddmap call, where the anchor's previous search stopped;
    tiles are only ever filled, which keeps that cursor valid.
    """
    n, n_cores = mesh.n, g.n_cores
    _check_capacity(n_cores, mesh)
    order = priority_order(g)
    rank = [0] * n_cores  # per core: its index in order
    for i, core in enumerate(order):
        rank[core] = i
    neighbours = g.neighbours

    nn = n * n
    free = bytearray(b"\x01") * (nn * n)  # per tile: still empty
    counts = [nn] * n  # per layer: empty tiles
    mapping: Mapping = {}
    waiting = bytearray(b"\x01") * n_cores  # per core: still unmapped
    keys = rank.copy()  # per unmapped core: its heap key, rank - traffic*N
    best = [0] * n_cores  # per unmapped core: the largest volume it exchanges with one mapped core
    resume: dict[int, int] = {}  # per anchor: where its last search ended; free only shrinks

    # Interior-diagonal seeds; a 2x2x2 mesh has no interior, fall back to the origin.
    for core, tile in zip(order, diagonal_tiles(mesh) or [0]):
        mapping[core] = tile
        free[tile] = 0
        counts[tile // nn] -= 1
        waiting[core] = 0
    anchor = [mapping[order[0]]] * n_cores  # per unmapped core: its anchor's tile
    for core, tile in mapping.items():
        for p, v in neighbours[core].items():
            if v and waiting[p]:
                keys[p] -= v * n_cores
                if v > best[p]:
                    best[p], anchor[p] = v, tile
    # Keys order cores by (-traffic, rank), and each core's key falls as its
    # traffic grows; a popped key that is no longer its core's is stale and
    # skipped.  Only keys below 0 enter the heap: a core with traffic has
    # key <= rank - N < 0, and one without keeps key = rank >= 0 (seeds
    # included), so any live heap key beats every core off the heap.  Each
    # key enters the heap once, by the heapify or by one push, so a mapped
    # core's own key is gone from it.  When no live key is left, no waiting
    # core has traffic, and the next one is the first waiting core in rank
    # order: a cursor over `order` that skips mapped cores, which stay mapped.
    heap = [key for key in keys if key < 0]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    idle = filter(waiting.__getitem__, order)
    while True:
        if heap:
            key = heappop(heap)
            core = order[key % n_cores]
            if key != keys[core]:
                continue
        else:
            core = next(idle, None)
            if core is None:
                break
        tile = lozenge_next_empty(anchor[core], free, counts, mesh, resume)
        mapping[core] = tile
        free[tile] = 0
        counts[tile // nn] -= 1
        waiting[core] = 0
        for p, v in neighbours[core].items():
            if v and waiting[p]:
                keys[p] = lowered = keys[p] - v * n_cores
                heappush(heap, lowered)
                if v > best[p]:
                    best[p], anchor[p] = v, tile
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
    """Priority-ordered cores onto a tile sequence prefix; injective.

    The prefix's N tiles, N the core count, must be distinct integer tile
    ids of the mesh (``taskgraph._is_integer``).
    """
    _check_capacity(g.n_cores, mesh)
    if len(order) < g.n_cores:
        raise ValueError("tile sequence shorter than the core list")
    tiles, count = order[:g.n_cores], mesh.tile_count
    # Checks over the whole prefix first; the per-tile search runs only when one fails.
    if not (set(map(type, tiles)) <= {int} and (len(tiles) == 0 or (0 <= min(tiles) and max(tiles) < count))):
        for tile in tiles:
            if not _is_integer(tile) or not 0 <= tile < count:
                raise ValueError(f"tile {tile!r} in the tile sequence is not a tile of the mesh (0..{count - 1})")
    if len(set(tiles)) < len(tiles):
        raise ValueError("tile sequence repeats a tile")
    return dict(zip(priority_order(g), tiles))


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
