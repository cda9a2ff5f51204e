"""Discrete particle swarm over tile-assignment vectors.

A particle's position is a length-D integer vector (D = tile count): slot i
holds the tile of the i-th priority-ordered core, surplus slots are dummies
that the fitness ignores.  Velocities follow the classic update

    v' = w*v + rand(0, c1)*(pbest - x) + rand(0, c2)*(gbest - x)

with both random factors drawn per component and the result clamped to
[-D, D].  Positions move by the floor of the velocity, are clamped to the
tile range, and then repaired back to duplicate-free vectors so every
evaluated candidate is a valid injective assignment.  Each iteration updates,
repairs and scores the whole swarm as one (swarm size, D) array; no step
loops over particles.

A call runs one swarm.  It is deterministic: every random draw comes from one
generator seeded from ``PsoParams.seed``, and best-so-far reductions scan
particles in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import EnergyModel, HopKernel, Mapping, objective_value
from .taskgraph import TaskGraph, priority_order
from .topology import Mesh3D

@dataclass(frozen=True)
class PsoParams:
    """Swarm constants; c1, c2 and w must be finite and non-negative, seed non-negative."""

    c1: float = 1.2
    c2: float = 1.3
    w: float = 0.721348
    swarm_size: int = 200
    max_evals_per_simulation: int = 150_000
    seed: int = 0

    def __post_init__(self):
        for name in ("c1", "c2", "w"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.swarm_size < 1:
            raise ValueError("swarm size must be positive")
        if self.max_evals_per_simulation < self.swarm_size:
            raise ValueError("evaluation budget smaller than one swarm pass")


@dataclass(frozen=True)
class PsoResult:
    mapping: Mapping
    fitness: float
    trace: tuple[tuple[int, int, float], ...]  # (iteration, evals, gbest)


def velocity_update(
    position, velocity, pbest, gbest, params: PsoParams, rng, dimension: int
) -> np.ndarray:
    """New velocity vector(s) clamped to [-dimension, dimension]; one particle or a swarm.

    Both random factors come from one draw of ``rng.random``, scaled by c1 and
    c2: the same stream in the same order as two ``rng.uniform(0, c)`` calls,
    and the same floats, since ``0.0 + c*u == c*u``.  For integer positions
    the pulls ``pbest - x`` and ``gbest - x`` are exact integer differences,
    so scaling the random factors by them in place gives the same floats as
    subtracting after conversion to float.
    """
    shape = np.shape(position)
    r1, r2 = rng.random((2, *shape))
    r1 *= params.c1
    r2 *= params.c2
    r1 *= np.subtract(pbest, position)
    r2 *= np.subtract(gbest, position)
    v = np.multiply(velocity, params.w, dtype=float)
    v += r1
    v += r2
    return np.clip(v, -dimension, dimension, out=v)


def position_update(position, velocity, dimension: int) -> np.ndarray:
    """Move by the floor of the velocity, clamped to valid tile ids."""
    raw = np.asarray(position) + np.floor(velocity).astype(np.int64)
    return np.clip(raw, 0, dimension - 1)


def repair_permutation(raw, dimension: int) -> np.ndarray:
    """Make integer vectors duplicate-free: one vector of shape (k,) or a batch (s, k).

    In each vector first occurrences win; later duplicates are replaced, left
    to right, by the unused values in ascending order.  Idempotent on valid
    vectors.  Returns a new int64 array of the input's shape; float, bool and
    other non-integer input is refused rather than truncated.
    """
    given = np.asarray(raw)
    if given.dtype.kind not in "iu" and given.size:  # an empty list comes as float64
        raise ValueError(f"expected integer vectors, got dtype {given.dtype}")
    pos = given.astype(np.int64)
    if pos.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a batch of vectors, got {pos.ndim} dimensions")
    k = pos.shape[-1]
    if k > dimension:
        raise ValueError("vector longer than the value range")
    if pos.size and (pos.min() < 0 or pos.max() >= dimension):
        bad = pos[(pos < 0) | (pos >= dimension)]
        raise ValueError(f"component {bad[0]} out of range 0..{dimension - 1}")
    rows = pos if pos.ndim == 2 else pos[np.newaxis]
    s = rows.shape[0]
    # Scatter each element's flat index onto its (row, value) slot; the
    # minimum is the value's first occurrence, and every other one is a
    # duplicate.  Slots nothing reached hold the values the row is missing.
    # The smallest dtype that holds every slot keeps these arrays small; at
    # 200 x 125 that takes about a third off the repair's time.
    small = np.min_scalar_type(s * dimension)
    slot = (rows.astype(small) + np.arange(s, dtype=small)[:, None] * dimension).ravel()
    index = np.arange(pos.size, dtype=small)
    first = np.full(s * dimension, pos.size, dtype=small)
    np.minimum.at(first, slot, index)
    dup = first[slot] != index
    free = (first == pos.size).reshape(s, dimension)
    if k < dimension:
        # Each row keeps only its smallest dup-count missing values; with
        # k = dimension a row misses exactly as many values as it has duplicates.
        dups_per_row = dup.reshape(s, k).sum(axis=1, dtype=np.int32)
        free &= np.cumsum(free, axis=1, dtype=np.int32) <= dups_per_row[:, None]
    # flatnonzero lists the fill values row by row in ascending order, the
    # order in which the duplicates are listed too.
    pos.ravel()[np.flatnonzero(dup)] = np.flatnonzero(free) % dimension
    return pos


class _SlotFitness:
    """Objective over position vectors, vectorized across a swarm.

    Scores the whole swarm's decoded placements with one call of the integer
    metrics.HopKernel, so each value is exactly what metrics.evaluate reports.
    """

    def __init__(self, g: TaskGraph, mesh: Mesh3D, objective: str, model: EnergyModel):
        self.order = priority_order(g)
        self.slot_of_core = np.argsort(self.order)
        self.kernel = HopKernel(g, mesh)
        self.objective = objective
        self.model = model

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        sums = self.kernel(positions[:, self.slot_of_core])
        return objective_value(self.objective, self.model, *sums)


def pso_optimize(
    g: TaskGraph,
    mesh: Mesh3D,
    params: PsoParams = PsoParams(),
    objective: str = "energy",
    model: EnergyModel = EnergyModel(),
    seed_mapping: Mapping | None = None,
) -> PsoResult:
    """Swarm-search tile assignments; returns the best mapping and its trace.

    When ``seed_mapping`` is given it replaces one particle of the initial
    swarm, so the result can never be worse than the seed.
    """
    d = mesh.tile_count
    if g.n_cores > d:
        raise ValueError(f"{g.n_cores} cores exceed {d} tiles")
    fitness = _SlotFitness(g, mesh, objective, model)
    seed_position = None
    if seed_mapping is not None:
        try:
            tiles = fitness.kernel.placement(seed_mapping)
        except ValueError as exc:
            raise ValueError(f"seed mapping: {exc}") from None
        used = np.bincount(tiles, minlength=d)
        if used.max() > 1:
            raise ValueError(f"seed mapping: tile {int(used.argmax())} holds more than one core")
        seed_position = np.concatenate((tiles[fitness.order], np.flatnonzero(used == 0)))

    s = params.swarm_size
    # Seeded with (seed, 0): the stream every recorded result was made with.
    rng = np.random.default_rng(np.random.SeedSequence((params.seed, 0)))
    positions = np.empty((s, d), dtype=np.int64)
    for i in range(s):
        positions[i] = rng.permutation(d)
    if seed_position is not None:
        positions[0] = seed_position
    velocities = np.zeros((s, d), dtype=float)

    values = fitness(positions)
    evals = s
    pbest = positions.copy()
    pbest_val = values.astype(float)
    best_i = int(np.argmin(pbest_val))
    gbest = positions[best_i].copy()
    gbest_val = values[best_i].item()  # a Python float (energy) or int (cost)
    trace = [(0, evals, gbest_val)]

    iteration = 0
    while evals + s <= params.max_evals_per_simulation:
        iteration += 1
        velocities = velocity_update(positions, velocities, pbest, gbest, params, rng, d)
        positions = repair_permutation(position_update(positions, velocities, d), d)
        values = fitness(positions)
        evals += s

        improved = values < pbest_val
        pbest[improved] = positions[improved]
        pbest_val[improved] = values[improved]
        best_i = int(np.argmin(pbest_val))
        if pbest_val[best_i] < float(gbest_val):
            # A strictly better pbest can only have been set this iteration.
            gbest = positions[best_i].copy()
            gbest_val = values[best_i].item()
        trace.append((iteration, evals, gbest_val))

    mapping = {core: int(gbest[i]) for i, core in enumerate(fitness.order)}
    return PsoResult(mapping, gbest_val, tuple(trace))
