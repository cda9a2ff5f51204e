"""Independent reference code for the benchmark: input generation and checks.

Nothing here imports nocmap.  Graphs are generated and parsed with plain
Python, tile coordinates come from divmod, and metrics are summed in exact
integers over the arcs, so a defect in the library cannot hide behind the
same defect in its checker.

Energy is ``e_switch * switch_bits + e_link * link_bits`` with
``link_bits = sum(vol * h)`` and ``switch_bits = sum over h > 0 of
vol * (h + 1)``; the library sums per-pair products instead, so the two
agree to within a few ulp, and checks compare with relative tolerance
``REL_TOL``.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

REL_TOL = 1e-12
E_SWITCH = 0.284
E_LINK = 0.449
RHO = 1.0


def random_arcs(rng: random.Random, n_cores: int, n_arcs: int) -> list[tuple[int, int, int, int]]:
    """Distinct ordered pairs, no self-loops; volume 10..1000, bandwidth 1..100.

    Rejection sampling keeps memory at O(n_arcs), unlike enumerating all
    n_cores^2 pairs first.
    """
    if n_arcs > n_cores * (n_cores - 1):
        raise ValueError(f"{n_arcs} arcs do not fit {n_cores} cores")
    seen: set[tuple[int, int]] = set()
    arcs = []
    while len(arcs) < n_arcs:
        src, dst = rng.randrange(n_cores), rng.randrange(n_cores)
        if src == dst or (src, dst) in seen:
            continue
        seen.add((src, dst))
        arcs.append((src, dst, rng.randint(10, 1000), rng.randint(1, 100)))
    return arcs


def format_ctg(n_cores: int, arcs) -> str:
    lines = [f"cores {n_cores}"]
    lines.extend(f"edge {s} {d} {v} {b}" for s, d, v, b in arcs)
    return "\n".join(lines) + "\n"


def parse_ctg(text: str) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Minimal reader of the graph format: (core count, [(src, dst, vol, bw)])."""
    n_cores = None
    arcs = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "cores":
            n_cores = int(fields[1])
        elif fields[0] == "edge":
            arcs.append(tuple(int(f) for f in fields[1:5]))
        else:
            raise ValueError(f"unexpected line {raw!r}")
    if n_cores is None:
        raise ValueError("graph has no 'cores' line")
    return n_cores, arcs


def parse_artifact(text: str) -> tuple[dict[int, int], dict[str, str]]:
    """Minimal reader of 'core <c> -> tile <t>' lines and '# key = value' headers."""
    placement: dict[int, int] = {}
    header: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#") and "=" in line:
            key, value = line[1:].split("=", 1)
            header[key.strip()] = value.strip()
        elif line:
            _, core, _, _, tile = line.split()
            if int(core) in placement:
                raise ValueError(f"core {core} placed twice")
            placement[int(core)] = int(tile)
    return placement, header


def hops(a: int, b: int, n: int) -> int:
    la, rest_a = divmod(a, n * n)
    ra, ca = divmod(rest_a, n)
    lb, rest_b = divmod(b, n * n)
    rb, cb = divmod(rest_b, n)
    return abs(la - lb) + abs(ra - rb) + abs(ca - cb)


def placement_problems(placement, n_cores: int, n_tiles: int, injective: bool,
                       max_per_tile: int | None = None) -> list[str]:
    """Empty when every core 0..n_cores-1 has exactly one in-range tile."""
    problems = []
    if sorted(placement) != list(range(n_cores)):
        problems.append(f"placement keys are not exactly cores 0..{n_cores - 1}")
    load: dict[int, int] = {}
    for tile in placement.values():
        if not (isinstance(tile, (int, np.integer)) and 0 <= tile < n_tiles):
            problems.append(f"tile {tile!r} outside 0..{n_tiles - 1}")
            break
        load[tile] = load.get(tile, 0) + 1
    worst = max(load.values(), default=0)
    if injective and worst > 1:
        problems.append("placement is not injective")
    if max_per_tile is not None and worst > max_per_tile:
        problems.append(f"a tile holds {worst} tasks, more than {max_per_tile}")
    return problems


def evaluate(arcs, placement, mesh_n: int, e_switch: float = E_SWITCH,
             e_link: float = E_LINK, rho: float = RHO) -> tuple[float, int, float | None]:
    """(energy pJ, cost, average latency or None) by one loop over the arcs."""
    link_bits = switch_bits = cost = transfers = 0
    for src, dst, vol, bw in arcs:
        h = hops(placement[src], placement[dst], mesh_n)
        link_bits += vol * h
        if h:
            switch_bits += vol * (h + 1)
        cost += bw * h
        transfers += vol > 0
    latency = link_bits * rho / transfers if transfers else None
    return e_switch * switch_bits + e_link * link_bits, cost, latency


def close(a, b, rel: float = REL_TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(abs(a), abs(b))


def aggregate_clusters(arcs, cluster_of: dict[int, int]) -> dict[tuple[int, int], tuple[int, int]]:
    """Cluster-level arcs: crossing volumes and bandwidths summed per ordered pair."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for src, dst, vol, bw in arcs:
        p, q = cluster_of[src], cluster_of[dst]
        if p != q:
            v0, b0 = out.get((p, q), (0, 0))
            out[(p, q)] = (v0 + vol, b0 + bw)
    return out


def energy_optimum(arcs, n_cores: int, mesh_n: int) -> tuple[float, int]:
    """Minimum energy over all injective assignments, and how many there are.

    Enumerates tiles^cores tuples with numpy and masks the repeats, so it is
    only for the tiny instances the library's exhaustive oracle also covers.
    """
    tiles = mesh_n ** 3
    if tiles ** n_cores > 2_000_000:
        raise ValueError("instance too large for the reference enumeration")
    grid = np.indices((tiles,) * n_cores).reshape(n_cores, -1).T
    distinct = np.ones(len(grid), dtype=bool)
    for i, j in itertools.combinations(range(n_cores), 2):
        distinct &= grid[:, i] != grid[:, j]
    grid = grid[distinct]
    table = np.array([[hops(a, b, mesh_n) for b in range(tiles)] for a in range(tiles)])
    link_bits = np.zeros(len(grid), dtype=np.int64)
    switch_bits = np.zeros(len(grid), dtype=np.int64)
    for src, dst, vol, _ in arcs:
        h = table[grid[:, src], grid[:, dst]]
        link_bits += vol * h
        switch_bits += vol * np.where(h > 0, h + 1, 0)
    if len(grid) != math.perm(tiles, n_cores):
        raise RuntimeError("reference enumeration miscounted the assignments")
    energy = E_SWITCH * switch_bits + E_LINK * link_bits
    return float(energy.min()), len(grid)
