"""Cubic mesh geometry: tile coordinates, diagonal seed tiles, and the
lozenge (diamond-ring) search for the nearest free tile.

Tiles of an n x n x n mesh are numbered layer-major then row-major:
``tile = layer*n^2 + row*n + col``.  Under this layout the cube's main
diagonal is the arithmetic progression ``i*(n^2+n+1)`` and ``tile % n``
recovers the column, which drives the search rotation below.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .taskgraph import _integer


def _hop_table_bytes(n: int) -> int:
    """Size of ``hop_table(n)``'s table, (2n-1)^3 int64 entries: the largest per-mesh table."""
    return 8 * (2 * n - 1) ** 3


MAX_TABLE_BYTES = 2 ** 28  # the most one per-mesh table, or one swarm's arrays together, may take
# The largest side whose hop table fits MAX_TABLE_BYTES (161).
MAX_SIDE = next(n for n in itertools.count(2) if _hop_table_bytes(n + 1) > MAX_TABLE_BYTES)


@dataclass(frozen=True)
class Mesh3D:
    """An n x n x n tile grid, n an integer with 2 <= n <= MAX_SIDE.

    A larger mesh is refused here, before any per-mesh table is built.  A
    numpy integer side is kept as an int, so the per-mesh tables hold ints.
    """

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "mesh side length"))
        if self.n < 2:
            raise ValueError("mesh side length must be at least 2")
        if self.n > MAX_SIDE:
            raise ValueError(
                f"mesh side length {self.n} is above the limit of {MAX_SIDE}: its hop table "
                f"would take {_hop_table_bytes(self.n)} bytes, more than {MAX_TABLE_BYTES}"
            )

    @property
    def tile_count(self) -> int:
        return self.n ** 3


def _check_capacity(n_cores: int, mesh: Mesh3D) -> None:
    """The one refusal of more cores than the mesh has tiles, for every one-core-per-tile path."""
    if n_cores > mesh.tile_count:
        raise ValueError(f"{n_cores} cores exceed {mesh.tile_count} tiles")


def tile_coords(tile: int, n: int) -> tuple[int, int, int]:
    """tile id -> (layer, row, col); the id and the side n must be integers (``taskgraph._integer``)."""
    tile, n = _integer(tile, "tile id"), _integer(n, "mesh side length")
    if not (0 <= tile < n ** 3):
        raise ValueError(f"tile id {tile} out of range 0..{n ** 3 - 1}")
    layer, rest = divmod(tile, n * n)
    row, col = divmod(rest, n)
    return layer, row, col


def diagonal_tiles(n: int) -> list[int]:
    """Interior tiles of the cube's main diagonal, ends excluded.

    One tile per interior layer; empty for n = 2 where the diagonal has no
    interior.  The side n must be an integer (``taskgraph._integer``).
    """
    n = _integer(n, "mesh side length")
    if n < 2:
        raise ValueError("mesh side length must be at least 2")
    step = n * n + n + 1
    return [step * (i + 1) for i in range(n - 2)]


@functools.lru_cache(maxsize=None)
def hop_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-tile codes and the hop table they index, built once per mesh size.

    Tile (layer, row, col) has the code ``(layer*b + row)*b + col`` with
    ``b = 2n-1``.  For tiles s and d, ``code[s] - code[d] + len(table)//2``
    writes the three coordinate differences, each shifted into 0..b-1, as one
    base-b number.  ``table`` holds the XYZ hop count of every such number,
    rotated left by ``len(table)//2`` so that ``table[code[s] - code[d]]``
    reads it directly: a negative difference indexes from the end, as numpy
    indices do.  That is (2n-1)^3 int64 entries, about 8x the tile count.
    Codes are intp, numpy's index type, so a lookup through them converts
    nothing.
    """
    b = 2 * n - 1
    layer, rest = np.divmod(np.arange(n ** 3, dtype=np.intp), n * n)
    row, col = np.divmod(rest, n)
    code = (layer * b + row) * b + col
    step = np.abs(np.arange(b, dtype=np.int64) - (n - 1))
    shifted = (step[:, None, None] + step[:, None] + step).ravel()
    table = np.roll(shifted, -(len(shifted) // 2))
    code.flags.writeable = table.flags.writeable = False  # shared through the cache
    return code, table


@functools.lru_cache(maxsize=None)
def _layer_cells(n: int, row: int, col: int) -> tuple[int, ...]:
    """In-layer cells ``r*n + c`` in lozenge visiting order around (row, col).

    Diamond rings of Manhattan radius d = 0..2(n-1), each starting at its
    north-most position; odd columns walk north -> east -> south -> west,
    even columns the reverse.  Off-grid positions are dropped, so the result
    is a permutation of the n^2 cells starting with (row, col) itself.

    Cached per position: n^4 cells per mesh size once every position has
    been an anchor (10,000 at n = 10).  The per-tile pairs that
    ``lozenge_next_empty`` keeps in ``_ORDERS`` hold only references to
    these tuples.
    """
    sign = 1 if col % 2 == 1 else -1
    cells = [row * n + col]
    for d in range(1, 2 * n - 1):
        ring = [(row - d + k, col + sign * k) for k in range(d)]
        ring += [(row + k, col + sign * (d - k)) for k in range(d)]
        ring += [(row + d - k, col - sign * k) for k in range(d)]
        ring += [(row - k, col - sign * (d - k)) for k in range(d)]
        cells.extend(r * n + c for r, c in ring if 0 <= r < n and 0 <= c < n)
    return tuple(cells)


def _visiting_orders(n: int, anchor: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(_layer_cells, _layer_order)`` of an anchor tile, made once per tile.

    ``lozenge_next_empty`` keeps the result in ``_ORDERS[n]``, one dict per
    mesh side keyed by tile, and reads it back with one ``dict.get``; it
    does not hash ``(n, anchor)`` as a cache of this function would.  Once
    every tile has been an anchor a dict holds n^3 pairs of references to
    the shared per-position and per-layer tuples.  An anchor off the mesh
    raises from ``tile_coords`` and is never kept.
    """
    layer, row, col = tile_coords(anchor, n)
    return _layer_cells(n, row, col), _layer_order(n, layer)


_ORDERS: defaultdict[int, dict] = defaultdict(dict)  # mesh side -> anchor tile -> its _visiting_orders


@functools.lru_cache(maxsize=None)
def _layer_order(n: int, layer: int) -> tuple[int, ...]:
    """The anchor's layer, then its neighbours alternating outward (+1, -1, +2, -2, ...)."""
    order = [layer]
    for off in range(1, n):
        order.extend(x for x in (layer + off, layer - off) if 0 <= x < n)
    return tuple(order)


def lozenge_next_empty(
    anchor: int,
    free: bytearray | np.ndarray,
    counts: list[int],
    mesh: Mesh3D,
    resume: dict[int, int] | None = None,
) -> int:
    """Nearest free tile around an anchor, found by diamond-ring rotation.

    The anchor's column parity selects the rotation: odd columns walk each
    ring clockwise starting at its north-most tile, even columns walk
    counter-clockwise.  The anchor's own layer is scanned first in rings of
    growing in-layer distance d = 1..2(n-1); if it is full, neighbouring
    layers are visited alternating outward (+1, -1, +2, -2, ...), each
    re-scanned from the anchor's (row, col) projection starting at d = 0.
    The anchor tile itself is considered only as a last resort, so a fully
    packed mesh with only the anchor free still resolves.

    ``free`` has one truthy entry per empty tile (a ``bytearray`` is the
    fastest to index; a numpy bool array works too), and ``counts[layer]``
    is the number of empty tiles in each layer.  The two must agree: a layer
    whose count shows no empty tile is skipped without a look, and so is
    the anchor's own layer when the anchor is its only empty tile.  The
    visiting orders are tables built once per mesh size and position, found
    by one read of a per-mesh-side dict keyed by tile, and the walk is a
    plain loop that stops at the first empty tile.

    ``resume``, if given, maps an anchor to its position in the visiting
    order (layer index * n^2 + cell index) where the last search from it
    found a tile; the search starts there and records where it found one.
    Keep one per mask that only loses free tiles: the tiles visited before
    that position are still full.

    Raises ValueError when the anchor is not an integer tile id of the mesh
    (numpy integers are, ``bool`` is not), or when no tile is free (a caller
    bug: callers must track capacity).
    """
    n = mesh.n
    nn = n * n
    if len(free) != nn * n:
        raise ValueError("occupancy size does not match mesh")
    if len(counts) != n:
        raise ValueError("free counts size does not match mesh")
    if type(anchor) is not int:  # before the lookup, where 13.0 and True would find 13 and 1
        anchor = _integer(anchor, "tile id")
    orders = _ORDERS[n]
    entry = orders.get(anchor)
    if entry is None:
        entry = orders[anchor] = _visiting_orders(n, anchor)
    cells, layers = entry
    resume = {} if resume is None else resume
    # Position 0 is the anchor itself, which is tried last.
    k = resume.get(anchor, 1)
    i = k // nn
    k -= i * nn
    for i in range(i, n):
        layer = layers[i]
        # The anchor's own layer (i == 0) needs an empty tile besides the anchor.
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
