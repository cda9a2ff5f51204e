"""Mapping quality metrics: communication energy, cost, and average latency.

``evaluate`` reports all three for one placement.

Moving one bit across h links visits h+1 routers, so the per-bit charge is
``(h+1)*e_switch_bit + h*e_link_bit``; co-located endpoints (h = 0) cost
nothing because intra-tile traffic never enters the network.

Every metric reads three exact integer sums over the arcs from one kernel,
``HopKernel``, which also scores the swarm and the exhaustive oracle:
``link_bits = sum(vol*h)``, ``switch_bits = link_bits + sum(vol for h > 0)``
and ``cost = sum(bw*h)``.  Energy is ``e_switch_bit*switch_bits +
e_link_bit*link_bits`` and latency ``rho*link_bits/eta``.  Integer sums make
results independent of arc order, and a schedule evaluated task by task
equals its aggregated cluster graph bit for bit.
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


def objective_value(objective: str, model: EnergyModel, link_bits, switch_bits, cost):
    """What a search minimizes: ``cost``, or the energy of the bit counts; works elementwise."""
    if objective == "cost":
        return cost
    if objective == "energy":
        return model.energy(switch_bits, link_bits)
    raise ValueError(f"unknown objective {objective!r}")


class HopKernel:
    """Exact integer hop sums of one graph's arcs on one mesh, for any batch of placements.

    A placement is a tile-per-core array; a batch has shape ``(..., n_cores)``.
    Construction refuses graphs whose sums could overflow int64.
    """

    def __init__(self, g: TaskGraph, mesh: Mesh3D):
        max_hops = 3 * (mesh.n - 1)
        volume = [a.volume for a in g.arcs]
        bandwidth = [a.bandwidth for a in g.arcs]
        if max(sum(volume) * (max_hops + 1), sum(bandwidth) * max_hops) > 2 ** 63 - 1:
            raise ValueError(f"arc weights too large: hop sums on mesh {mesh.n} overflow int64")
        self.n_cores = g.n_cores
        self.tile_count = mesh.tile_count
        self.src = np.array([a.src for a in g.arcs], dtype=np.intp)
        self.dst = np.array([a.dst for a in g.arcs], dtype=np.intp)
        self.volume = np.array(volume, dtype=np.int64)
        self.bandwidth = np.array(bandwidth, dtype=np.int64)
        self.code, self.table = hop_table(mesh.n)
        self.offset = len(self.table) // 2

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

    def hops(self, tiles: np.ndarray) -> np.ndarray:
        """XYZ hop count of every arc, shape ``(..., arcs)``."""
        code = self.code[tiles]
        return self.table[code[..., self.src] - code[..., self.dst] + self.offset]

    def __call__(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(link_bits, switch_bits, cost)`` for every placement in the batch."""
        h = self.hops(tiles)
        link_bits = h @ self.volume
        switch_bits = link_bits + (h > 0) @ self.volume
        return link_bits, switch_bits, h @ self.bandwidth


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
