"""Mapping quality metrics: communication energy, cost, and average latency.

``evaluate`` reports all three for one placement.

Moving one bit across h links visits h+1 routers, so the per-bit charge is
``(h+1)*e_switch_bit + h*e_link_bit``; co-located endpoints (h = 0) cost
nothing because intra-tile traffic never enters the network.

Every metric reads three exact integer sums over the arcs from one kernel,
``HopKernel``: ``link_bits = sum(vol*h)``, ``cost = sum(bw*h)`` and
``switch_bits = link_bits + sum(vol) - sum(vol for h = 0)``, in one helper.
Energy is ``e_switch_bit*switch_bits + e_link_bit*link_bits`` and latency
``rho*link_bits/eta``.  Integer sums make results independent of arc order,
and a schedule evaluated task by task equals its aggregated cluster graph
bit for bit.  The swarm and the exhaustive oracle score through the same
kernel's ``objective_values``, which takes only the sums its objective needs.
The kernel reads its arc arrays from the graph's read-only ``arc_columns``,
the one form a graph stores its arcs in, however often it is scored; it owns
only its work arrays and states their size (``batch_bytes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .taskgraph import INT64_MAX, TaskGraph, _integer
from .topology import Mesh3D, hop_table

Mapping = dict[int, int]


def _non_negative_float(value, name: str) -> float:
    """``value`` as a Python float: the one rule for a real-valued constant.

    A real number is what ``math.isfinite`` accepts, except a ``bool`` (numpy's
    too); any other value is refused as "<name> must be a real number, got
    <repr>", and one that is not finite and non-negative as "<name> must be
    finite and non-negative, got <repr>".  numpy floats are real numbers, and
    come back as floats.
    """
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float's range
        finite = None
    if finite is None or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (finite and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit energy charges (pJ) and the latency scale constant, each kept as a finite, non-negative float."""

    e_switch_bit: float = 0.284
    e_link_bit: float = 0.449
    rho: float = 1.0

    def __post_init__(self):
        for name in ("e_switch_bit", "e_link_bit", "rho"):
            object.__setattr__(self, name, _non_negative_float(getattr(self, name), name))

    def energy(self, switch_bits, link_bits):
        """Energy (pJ) of the given router and link bit counts; works elementwise."""
        return self.e_switch_bit * switch_bits + self.e_link_bit * link_bits


@dataclass(frozen=True)
class EvalReport:
    total_energy: float
    comm_cost: int
    avg_latency: float | None
    eta: int


OBJECTIVES = ("energy", "cost")


def _check_objective(objective) -> None:
    """The one refusal of an objective not in OBJECTIVES: every search makes it on entry, before building anything."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")


class HopKernel:
    """Exact integer hop sums of one graph's arcs on one mesh, for any batch of placements.

    A placement is a tile-per-core array; a batch has shape ``(..., columns)``
    where column c holds the tile of core c, and columns past the last core
    are ignored.  Tiles must be valid tile ids: the gathers clip rather than
    check, and every caller has checked them already (``placement``, the
    swarm's clamp and repair, the oracle's walk over distinct tiles).
    Construction refuses graphs whose sums could overflow int64.
    """

    def __init__(self, g: TaskGraph, mesh: Mesh3D):
        max_hops = 3 * (mesh.n - 1)
        columns = g.arc_columns
        # Exact: a graph whose totals do not fit int64 is refused when it is built.
        self.total_volume, total_bandwidth = columns[2:].sum(axis=1).tolist()
        if max(self.total_volume * (max_hops + 1), total_bandwidth * max_hops) > INT64_MAX:
            raise ValueError(f"arc weights too large: hop sums on mesh {mesh.n} overflow int64")
        self.n_cores = g.n_cores
        self.tile_count = mesh.tile_count
        # Every arc's source core, then every arc's destination core: a view.
        self.ends = columns[:2].ravel()
        self.volume, self.bandwidth = columns[2], columns[3]
        self.code, self.table = hop_table(mesh)
        self._work = None  # hops' work arrays, for the last batch shape it saw

    def placement(self, mapping: Mapping) -> np.ndarray:
        """The tile-per-core array of a mapping that places exactly cores 0..N-1.

        Every core key and tile must be an integer (``taskgraph._integer``): a
        float or ``bool`` key would find its integer's entry, and a float tile
        would be truncated.  A mapping of plain ints that passes the checks over
        the whole mapping takes no per-core step; the per-core search, which
        names the first fault, runs only when one fails.
        """
        tiles = list(map(mapping.get, range(self.n_cores)))  # None for an unmapped core
        if not (len(mapping) == self.n_cores and set(map(type, mapping)) | set(map(type, tiles)) <= {int}
                and (not tiles or (0 <= min(tiles) and max(tiles) < self.tile_count))):
            for core, tile in mapping.items():
                _integer(core, "core id")
                _integer(tile, f"tile of core {core}")
            for core, tile in enumerate(tiles):
                if tile is None:
                    raise ValueError(f"core {core} is unmapped")
                if not (0 <= tile < self.tile_count):
                    raise ValueError(f"core {core} mapped to invalid tile {tile}")
            if len(mapping) != self.n_cores:
                extra = min(c for c in mapping if not (0 <= c < self.n_cores))
                raise ValueError(f"mapping names unknown core {extra}")
        return np.array(tiles, dtype=np.intp)

    @staticmethod
    def batch_bytes(rows: int, columns: int, arcs: int) -> int:
        """The bytes the kernel holds at once to score a batch of (rows, columns).

        Per cell the tile codes and their transpose; per (arc, row) the two end
        codes, the hop lookup, and the h = 0 mask with its product's int64 copy.
        """
        return 16 * rows * columns + 33 * arcs * rows

    def hops(self, tiles) -> np.ndarray:
        """XYZ hop count of every arc, shape ``(..., arcs)``.

        The codes are gathered once and transposed, so each arc end is one
        contiguous row; ``np.take`` with ``out`` and ``mode="clip"`` writes
        into work arrays without a temporary.  They are kept for the last batch
        shape and reused while it repeats, as in a search, so a kernel serves
        one caller at a time.  The table lookup stays plain indexing, which
        checks its bounds and beats ``np.take``'s buffered raise mode; the
        result is a transposed view of that new arcs-first lookup.
        """
        tiles = np.asarray(tiles)
        if self._work is None or self._work[0].shape != tiles.shape:
            transposed = tiles.shape[::-1]
            shapes = (tiles.shape, transposed, (len(self.ends), *transposed[1:]))
            self._work = [np.empty(shape, dtype=np.intp) for shape in shapes]
        code, code_t, ends = self._work
        np.take(self.code, tiles, out=code, mode="clip")
        np.copyto(code_t, code.T)
        np.take(code_t, self.ends, axis=0, out=ends, mode="clip")
        arcs = len(self.volume)
        return self.table[np.subtract(ends[:arcs], ends[arcs:], out=ends[:arcs])].T

    def _bits(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Link and switch bits of hops h: a bit crossing h >= 1 links visits h + 1 routers."""
        link_bits = h @ self.volume
        switch_bits = link_bits + self.total_volume
        if h.size and h.min() == 0:  # never for an injective placement
            switch_bits -= (h == 0) @ self.volume
        return link_bits, switch_bits

    def __call__(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(link_bits, switch_bits, cost)`` for every placement in the batch."""
        h = self.hops(tiles)
        return *self._bits(h), h @ self.bandwidth

    def objective_values(self, tiles, objective: str, model: EnergyModel):
        """What a search minimizes, for every placement in the batch: ``cost``, or energy.

        It takes only the sums its objective needs, and the values are exactly
        ``model.energy`` of ``__call__``'s sums, or its cost.  ``objective`` is
        one of OBJECTIVES: each caller refuses any other once, on entry
        (``_check_objective``), not on every batch.
        """
        h = self.hops(tiles)
        if objective == "cost":
            return h @ self.bandwidth
        link_bits, switch_bits = self._bits(h)
        return model.energy(switch_bits, link_bits)


def evaluate(
    g: TaskGraph,
    mapping: Mapping,
    mesh: Mesh3D,
    model: EnergyModel = EnergyModel(),
) -> EvalReport:
    """All metrics at once; latency is None when the graph moves no data.

    The mapping must place exactly the cores 0..N-1 on tiles of the mesh, each
    core and tile an integer: ``HopKernel.placement`` refuses any other.
    """
    kernel = HopKernel(g, mesh)
    link_bits, switch_bits, cost = (int(v) for v in kernel(kernel.placement(mapping)))
    eta = int(np.count_nonzero(kernel.volume))  # transfers: arcs that move data
    return EvalReport(
        total_energy=model.energy(switch_bits, link_bits),
        comm_cost=cost,
        avg_latency=link_bits * model.rho / eta if eta > 0 else None,
        eta=eta,
    )
