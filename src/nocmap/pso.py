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
loops over particles.  The swarm is float-resident: positions, bests and
velocities are float arrays, exact because every tile id is an integer below
2^53, and the repair works on the flat slots ``row*D + tile`` of one int
array.  ``pso_optimize`` allocates its swarm-sized arrays once per call, and
each step has one form: it writes into the arrays it is passed, and the loop
calls it by its public name.

A call runs one swarm.  It is deterministic: every random draw comes from one
generator seeded from ``PsoParams.seed``, and best-so-far reductions scan
particles in index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import EnergyModel, HopKernel, Mapping, _check_objective, _non_negative_float
from .taskgraph import TaskGraph, _integer, induced_subgraph, priority_order
from .topology import MAX_TABLE_BYTES, Mesh3D, _check_capacity

@dataclass(frozen=True)
class PsoParams:
    """Swarm constants; c1, c2 and w are kept as finite, non-negative floats, the counts and seed as integers."""

    c1: float = 1.2
    c2: float = 1.3
    w: float = 0.721348
    swarm_size: int = 200
    max_evals_per_simulation: int = 150_000
    seed: int = 0

    def __post_init__(self):
        for name in ("c1", "c2", "w"):
            object.__setattr__(self, name, _non_negative_float(getattr(self, name), name))
        for name in ("swarm_size", "max_evals_per_simulation", "seed"):
            _integer(getattr(self, name), name)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.swarm_size < 1:
            raise ValueError("swarm size must be positive")
        if self.max_evals_per_simulation < self.swarm_size:
            raise ValueError("evaluation budget smaller than one swarm pass")


@dataclass(frozen=True)
class PsoResult:
    mapping: Mapping
    fitness: float | int  # a float for energy, an exact int for cost
    trace: tuple[tuple[int, int, float | int], ...]  # (iteration, evals, gbest)


def velocity_update(position, velocity, pbest, gbest, params: PsoParams, rng, scratch) -> None:
    """Update the swarm's velocities in place, clamped to [-D, D], D being the length of a row.

    Both random factors come from one draw of ``rng.random``, scaled by c1 and
    c2: the same stream in the same order as two ``rng.uniform(0, c)`` calls,
    and the same floats, since ``0.0 + c*u == c*u``.  Positions hold integers
    below 2^53, so the pulls ``pbest - x`` and ``gbest - x`` are exact.
    ``velocity`` is a float array of the position's shape; ``scratch``, a
    float array of shape ``(3, *position.shape)``, holds the draw and the pulls.
    """
    d = position.shape[-1]
    draw, pull = rng.random(out=scratch[:2]), scratch[2]
    draw[0] *= params.c1
    draw[1] *= params.c2
    draw[0] *= np.subtract(pbest, position, out=pull)
    draw[1] *= np.subtract(gbest, position, out=pull)
    velocity *= params.w
    velocity += draw[0]
    velocity += draw[1]
    np.clip(velocity, -d, d, out=velocity)


def position_update(position, velocity, out) -> np.ndarray:
    """Move by the floor of the velocity, clamped to the tile ids 0..D-1 of a row of length D.

    The result goes into ``out``, a float array of the position's shape, and
    is returned.  Every value is an integer of magnitude at most 2D, so each
    float step is exact.
    """
    np.floor(velocity, out=out)  # |velocity| <= D: exact
    out += position
    np.maximum(out, 0, out=out)
    return np.minimum(out, out.shape[-1] - 1, out=out)


def _repair_scratch(rows: int, d: int) -> tuple[np.ndarray, ...]:
    """Work arrays for ``repair_permutation`` on a (rows, d) batch.

    The row starts come as a full array, since adding one beats broadcasting a column.
    """
    size = rows * d
    small = np.min_scalar_type(size)  # holds every flat index and the sentinel
    return (
        np.repeat(np.arange(0, size, d), d).reshape(rows, d),
        np.arange(size, dtype=small),
        np.empty(size, dtype=small),
        np.empty(size, dtype=small),
        np.empty(size, dtype=bool),
        np.empty(size, dtype=bool),
    )


def repair_permutation(tiles: np.ndarray, work: tuple[np.ndarray, ...]) -> None:
    """Make each row of a C-ordered (s, D) intp batch a permutation of 0..D-1, in place.

    In each row first occurrences win; later duplicates are replaced, left
    to right, by the missing values in ascending order.  Idempotent on
    permutations.  ``work`` is ``_repair_scratch(s, D)``.  Every tile must
    lie in 0..D-1, which is not checked: the position step's clamp bounds
    them.  A batch that is not C-contiguous is refused: its flat view would
    be a copy, and the batch would stay unrepaired.

    It works on the flat slots ``row*D + tile``.  Each element's flat index
    is scattered onto its slot: the minimum is the value's first occurrence,
    and every other element there is a duplicate.  Slots nothing reached are
    the row's missing values, as many as the row has duplicates.
    ``flatnonzero`` lists both row by row in ascending order, so the
    duplicates take the free slots as they are, row included.
    """
    if not tiles.flags.c_contiguous:
        raise ValueError("expected a C-contiguous batch")
    row_start, index, first, at_slot, dup, free = work
    tiles += row_start
    slot = tiles.reshape(-1)
    first.fill(slot.size)
    np.minimum.at(first, slot, index)
    np.take(first, slot, out=at_slot, mode="clip")
    np.not_equal(at_slot, index, out=dup)
    np.equal(first, slot.size, out=free)
    slot[np.flatnonzero(dup)] = np.flatnonzero(free)
    tiles -= row_start


def _swarm_bytes(s: int, d: int, arcs: int) -> int:
    """The bytes of every array ``pso_optimize`` and its kernel hold, all at once.

    Per (s, D) element: the float positions, velocities and pbest, the 3-deep
    velocity scratch, the int tiles, the repair's row starts, its three index
    arrays in their compact dtype and its two masks, the two index lists of
    duplicates and free slots, each up to s*D long, and the improved rows
    gathered for pbest, up to all of them.  Plus the kernel's ``batch_bytes``.
    """
    small = np.min_scalar_type(s * d).itemsize
    per_element = 8 * (3 + 3 + 2 + 2 + 1) + 3 * small + 2
    return s * d * per_element + HopKernel.batch_bytes(s, d, arcs)


class _SlotFitness:
    """Objective over position vectors, vectorized across a swarm.

    Scores the whole swarm with one call of the integer
    ``metrics.HopKernel.objective_values``, so each value is exactly what
    ``metrics.evaluate`` reports.  The kernel is built on the graph relabeled
    in priority order, whose core i is slot i: it reads positions as they
    are, and the dummy slots past the last core are columns it ignores.
    """

    def __init__(self, g: TaskGraph, mesh: Mesh3D, objective: str, model: EnergyModel):
        self.order = priority_order(g)
        self.kernel = HopKernel(induced_subgraph(g, self.order), mesh)
        self.objective = objective
        self.model = model

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        return self.kernel.objective_values(positions, self.objective, self.model)


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
    swarm, so the result can never be worse than the seed.  It is checked as
    ``evaluate`` checks a mapping, and must also be injective.  An unknown
    objective, and a swarm whose arrays together (``_swarm_bytes``) would
    exceed ``MAX_TABLE_BYTES``, are refused before anything is built.

    Positions, pbest, gbest and velocities are float arrays: every value is
    a tile id below 2^53, so float differences of positions are exact.  The
    steps write into arrays allocated once here.  The moved positions are
    cast once to int tiles, which the repair fixes in place and the fitness
    reads, and a cast back gives the next float positions.
    """
    _check_objective(objective)
    d = mesh.tile_count
    _check_capacity(g.n_cores, mesh)
    s = params.swarm_size
    need = _swarm_bytes(s, d, g.arc_columns.shape[1])
    if need > MAX_TABLE_BYTES:  # checked before the hop table or any swarm array is built
        raise ValueError(
            f"a swarm of {s} particles on {d} tiles needs {need} bytes of arrays, "
            f"more than {MAX_TABLE_BYTES}"
        )
    fitness = _SlotFitness(g, mesh, objective, model)
    seed_position = None
    if seed_mapping is not None:
        try:
            placed = fitness.kernel.placement(seed_mapping)
        except ValueError as exc:
            raise ValueError(f"seed mapping: {exc}") from None
        used = np.bincount(placed, minlength=d)
        if used.max() > 1:
            raise ValueError(f"seed mapping: tile {int(used.argmax())} holds more than one core")
        seed_position = np.concatenate((placed[fitness.order], np.flatnonzero(used == 0)))

    # Seeded with (seed, 0): the stream every recorded result was made with.
    rng = np.random.default_rng(np.random.SeedSequence((params.seed, 0)))
    # Every swarm-sized array is allocated here, once per call.
    tiles = np.empty((s, d), dtype=np.intp)
    for i in range(s):
        tiles[i] = rng.permutation(d)
    if seed_position is not None:
        tiles[0] = seed_position
    positions = tiles.astype(float)
    velocities = np.zeros((s, d))
    velocity_scratch = np.empty((3, s, d))
    moved = velocity_scratch[2]  # the pull buffer, free once the velocity is written
    repair_work = _repair_scratch(s, d)

    values = fitness(tiles)
    evals = s
    pbest = positions.copy()
    pbest_val = values.copy()  # the objective's own dtype: int64 costs compare exactly
    best_i = int(np.argmin(pbest_val))
    gbest = positions[best_i].copy()
    gbest_val = values[best_i].item()  # a Python float (energy) or int (cost)
    trace = [(0, evals, gbest_val)]

    iteration = 0
    while evals + s <= params.max_evals_per_simulation:
        iteration += 1
        velocity_update(positions, velocities, pbest, gbest, params, rng, velocity_scratch)
        position_update(positions, velocities, moved)
        np.copyto(tiles, moved, casting="unsafe")  # the one float-to-int cast
        repair_permutation(tiles, repair_work)
        values = fitness(tiles)
        np.copyto(positions, tiles)
        evals += s

        improved = np.flatnonzero(values < pbest_val)
        pbest[improved] = positions[improved]
        pbest_val[improved] = values[improved]
        best_i = int(np.argmin(pbest_val))
        if pbest_val[best_i] < gbest_val:
            # A strictly better pbest can only have been set this iteration.
            gbest = positions[best_i].copy()
            gbest_val = values[best_i].item()
        trace.append((iteration, evals, gbest_val))

    mapping = {core: int(gbest[i]) for i, core in enumerate(fitness.order)}
    return PsoResult(mapping, gbest_val, tuple(trace))
