"""Mapping quality metrics: communication energy, cost, and average latency.

``evaluate`` reports all three for one placement.

Moving one bit across h links visits h+1 routers, so the per-bit charge is
``(h+1)*e_switch_bit + h*e_link_bit``; co-located endpoints (h = 0) cost
nothing because intra-tile traffic never enters the network.

Every metric reads three exact integer sums over the arcs from one kernel,
``HopKernel``: ``link_bits = sum(vol*h)``,
``switch_bits = link_bits + sum(vol for h > 0)`` and ``cost = sum(bw*h)``.
Energy is ``e_switch_bit*switch_bits + e_link_bit*link_bits`` and latency
``rho*link_bits/eta``.  Integer sums make results independent of arc order,
and a schedule evaluated task by task equals its aggregated cluster graph
bit for bit.  The swarm and the exhaustive oracle score through the same
kernel's ``objective_values``, which takes only the sum its objective needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .taskgraph import TaskGraph
from .topology import Mesh3D, hop_table

Mapping = dict[int, int]


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit energy charges (pJ) and the latency scale constant."""

    e_switch_bit: float = 0.284
    e_link_bit: float = 0.449
    rho: float = 1.0

    def __post_init__(self):
        for value in (self.e_switch_bit, self.e_link_bit, self.rho):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError("energy model constants must be finite and non-negative")

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


class HopKernel:
    """Exact integer hop sums of one graph's arcs on one mesh, for any batch of placements.

    A placement is a tile-per-core array; a batch has shape ``(..., columns)``
    where column c holds the tile of core c, and columns past the last core
    are ignored.  Tiles must be valid tile ids: the gathers clip rather than
    check, and every caller has checked them already (``placement``, the
    swarm's clamp and repair, the oracle's own enumeration).  Construction
    refuses graphs whose sums could overflow int64.
    """

    def __init__(self, g: TaskGraph, mesh: Mesh3D):
        max_hops = 3 * (mesh.n - 1)
        volume = [a.volume for a in g.arcs]
        bandwidth = [a.bandwidth for a in g.arcs]
        if max(sum(volume) * (max_hops + 1), sum(bandwidth) * max_hops) > 2 ** 63 - 1:
            raise ValueError(f"arc weights too large: hop sums on mesh {mesh.n} overflow int64")
        self.n_cores = g.n_cores
        self.tile_count = mesh.tile_count
        # Every arc's source core, then every arc's destination core.
        self.ends = np.array([a.src for a in g.arcs] + [a.dst for a in g.arcs], dtype=np.intp)
        self.volume = np.array(volume, dtype=np.int64)
        self.total_volume = sum(volume)
        self.bandwidth = np.array(bandwidth, dtype=np.int64)
        self.code, self.table = hop_table(mesh.n)

    def placement(self, mapping: Mapping) -> np.ndarray:
        """The tile-per-core array of a mapping that places exactly cores 0..N-1."""
        for core in range(self.n_cores):
            tile = mapping.get(core)
            if tile is None:
                raise ValueError(f"core {core} is unmapped")
            if not (0 <= tile < self.tile_count):
                raise ValueError(f"core {core} mapped to invalid tile {tile}")
        if len(mapping) != self.n_cores:
            extra = min(c for c in mapping if not (0 <= c < self.n_cores))
            raise ValueError(f"mapping names unknown core {extra}")
        return np.array([mapping[c] for c in range(self.n_cores)], dtype=np.intp)

    def scratch(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Work arrays for batches of ``shape``, for a caller that scores many of them.

        They hold the batch's tile codes, the same transposed, and its arcs'
        end codes.  A caller that passes them to ``hops`` or
        ``objective_values`` owns them; no two calls may use one set at the
        same time.
        """
        transposed = tuple(reversed(shape))
        return (
            np.empty(shape, dtype=np.intp),
            np.empty(transposed, dtype=np.intp),
            np.empty((len(self.ends), *transposed[1:]), dtype=np.intp),
        )

    def hops(self, tiles, scratch=None) -> np.ndarray:
        """XYZ hop count of every arc, shape ``(..., arcs)``.

        The codes are gathered once and transposed, so each arc end is one
        contiguous row; ``np.take`` with ``out`` and ``mode="clip"`` writes
        into the ``scratch(tiles.shape)`` arrays without a temporary, and
        without ``scratch`` they are allocated.  The table lookup stays plain
        indexing, which checks its bounds and beats ``np.take``'s buffered
        raise mode.  The result is a transposed view of that arcs-first
        lookup.
        """
        tiles = np.asarray(tiles)
        code, code_t, ends = self.scratch(tiles.shape) if scratch is None else scratch
        np.take(self.code, tiles, out=code, mode="clip")
        np.copyto(code_t, code.T)
        np.take(code_t, self.ends, axis=0, out=ends, mode="clip")
        arcs = len(self.volume)
        return self.table[np.subtract(ends[:arcs], ends[arcs:], out=ends[:arcs])].T

    def __call__(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(link_bits, switch_bits, cost)`` for every placement in the batch."""
        h = self.hops(tiles)
        link_bits = h @ self.volume
        switch_bits = link_bits + (h > 0) @ self.volume
        return link_bits, switch_bits, h @ self.bandwidth

    def objective_values(self, tiles, objective: str, model: EnergyModel, scratch=None):
        """What a search minimizes, for every placement in the batch: ``cost``, or energy.

        Takes one sum over the hops: ``cost = sum(bw*h)``, or for energy
        ``link_bits = sum(vol*h)``.  An arc with h >= 1 visits h + 1 routers,
        so ``switch_bits = link_bits + sum(vol)`` less the volume of the arcs
        with h = 0.  That correction runs only when some arc in the batch has
        h = 0, which never happens for an injective placement.  The values are
        exactly ``model.energy`` of ``__call__``'s sums, or its cost.
        ``scratch`` is passed on to ``hops``.
        """
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        h = self.hops(tiles, scratch)
        if objective == "cost":
            return h @ self.bandwidth
        link_bits = h @ self.volume
        switch_bits = link_bits + self.total_volume
        if h.size and h.min() == 0:
            switch_bits -= (h == 0) @ self.volume
        return model.energy(switch_bits, link_bits)


def evaluate(
    g: TaskGraph,
    mapping: Mapping,
    mesh: Mesh3D,
    model: EnergyModel = EnergyModel(),
) -> EvalReport:
    """All metrics at once; latency is None when the graph moves no data."""
    kernel = HopKernel(g, mesh)
    link_bits, switch_bits, cost = (int(v) for v in kernel(kernel.placement(mapping)))
    eta = sum(1 for a in g.arcs if a.volume > 0)  # transfers: arcs that move data
    return EvalReport(
        total_energy=model.energy(switch_bits, link_bits),
        comm_cost=cost,
        avg_latency=link_bits * model.rho / eta if eta > 0 else None,
        eta=eta,
    )
