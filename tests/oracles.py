"""Independent brute-force evaluators used to cross-check the library.

Everything here is re-derived from scratch on purpose: coordinates come from
plain divmod arithmetic, distances from coordinate differences, and metrics
from double loops over a dense adjacency matrix.  Energy counts, in exact
integers, the bits times routers visited (``switch_bits``) and the bits
times links traversed (``link_bits``), then applies the closed form
``e_switch * switch_bits + e_link * link_bits`` once, so results are
order-independent and comparable bit-for-bit with the library.

``repair_permutation`` is the one-vector loop that ``nocmap.pso``'s
whole-swarm repair must reproduce exactly.
"""

from __future__ import annotations


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
