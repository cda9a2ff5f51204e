import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D
from nocmap.taskgraph import graph_from_arcs
from nocmap.topology import diagonal_tiles, lozenge_next_empty, tile_coords
from nocmap.metrics import HopKernel

import oracles
from oracles import manhattan3


class TestIndexing:
    def test_center_of_3cube(self):
        assert tile_coords(13, 3) == (1, 1, 1)

    def test_origin(self):
        for n in (2, 3, 5):
            assert tile_coords(0, n) == (0, 0, 0)

    def test_far_corner(self):
        assert tile_coords(26, 3) == (2, 2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bijection(self, n):
        seen = set()
        for layer, row, col in itertools.product(range(n), repeat=3):
            t = layer * n * n + row * n + col
            assert tile_coords(t, n) == (layer, row, col)
            seen.add(t)
        assert seen == set(range(n ** 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tile_coords(27, 3)
        with pytest.raises(ValueError):
            tile_coords(-1, 3)


class TestDiagonal:
    def test_known_values(self):
        assert diagonal_tiles(2) == []
        assert diagonal_tiles(3) == [13]
        assert diagonal_tiles(4) == [21, 42]
        assert diagonal_tiles(5) == [31, 62, 93]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_interior_of_main_diagonal(self, n):
        step = n * n + n + 1
        full = {i * step for i in range(n)}
        got = diagonal_tiles(n)
        assert set(got) <= full
        assert 0 not in got and (n - 1) * step not in got
        assert len(got) == n - 2
        for t in got:
            layer, row, col = tile_coords(t, n)
            assert layer == row == col


class TestHops:
    def test_opposite_corners(self):
        assert manhattan3(0, 26, 3) == 6

    def test_identical(self):
        for n in (2, 3):
            for t in range(n ** 3):
                assert manhattan3(t, t, n) == 0

    def test_unit_step(self):
        assert manhattan3(13, 4, 3) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_metric_axioms_exhaustive(self, n):
        tiles = range(n ** 3)
        for a in tiles:
            for b in tiles:
                d = manhattan3(a, b, n)
                assert d == manhattan3(b, a, n)
                assert (d == 0) == (a == b)
        for a, b, c in itertools.product(tiles, repeat=3):
            assert manhattan3(a, c, n) <= manhattan3(a, b, n) + manhattan3(b, c, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_kernel_hops_agree(self, n):
        # every ordered tile pair, co-located ones included, as one batch
        kernel = HopKernel(graph_from_arcs(2, [(0, 1, 1, 1)]), Mesh3D(n))
        pairs = np.array(list(itertools.product(range(n ** 3), repeat=2)))
        hops = kernel.hops(pairs)[:, 0]
        link_bits, switch_bits, cost = kernel(pairs)
        for (a, b), h in zip(pairs.tolist(), hops.tolist()):
            assert h == manhattan3(a, b, n)
        assert np.array_equal(link_bits, hops) and np.array_equal(cost, hops)
        assert np.array_equal(switch_bits, hops + (hops > 0))

    @pytest.mark.parametrize("n", [12, 40])
    def test_kernel_hops_on_large_meshes(self, n):
        # every pair of the eight corners, where the hop table's extreme
        # entries sit, plus seeded random pairs
        kernel = HopKernel(graph_from_arcs(2, [(0, 1, 1, 1)]), Mesh3D(n))
        corners = [tile for tile in range(n ** 3) if set(tile_coords(tile, n)) <= {0, n - 1}]
        assert len(corners) == 8
        rng = np.random.default_rng(n)
        pairs = np.concatenate((
            np.array(list(itertools.product(corners, repeat=2))),
            rng.integers(0, n ** 3, (2000, 2)),
        ))
        hops = kernel.hops(pairs)[:, 0]
        assert hops.max() == 3 * (n - 1)
        assert hops.tolist() == [manhattan3(a, b, n) for a, b in pairs.tolist()]


def free_only(mesh, free):
    """The free mask with exactly the tiles in ``free`` empty."""
    mask = np.zeros(mesh.tile_count, dtype=bool)
    mask[list(free)] = True
    return mask


class TestLozenge:
    def test_all_free_goes_north(self, mesh3):
        free = np.ones(27, dtype=bool)
        free[13] = False
        assert lozenge_next_empty(13, free, mesh3) == 10

    def test_full_layer_moves_up_first(self, mesh3):
        free = np.ones(27, dtype=bool)
        free[9:18] = False
        assert lozenge_next_empty(13, free, mesh3) == 22

    def test_single_free_tile_found(self, mesh3):
        assert lozenge_next_empty(13, free_only(mesh3, {25}), mesh3) == 25

    def test_first_ring_order_clockwise(self, mesh3):
        # anchor 13 sits in an odd column, so the d=1 ring is walked N,E,S,W
        expected = [10, 14, 16, 12]
        blocked = []
        for want in expected:
            free = np.ones(27, dtype=bool)
            free[[13, *blocked]] = False
            assert lozenge_next_empty(13, free, mesh3) == want
            blocked.append(want)

    def test_first_ring_order_counter_clockwise(self, mesh3):
        # anchor 14 sits in an even column: ring order N,W,S then E (off-grid skipped)
        expected = [11, 13, 17]
        blocked = []
        for want in expected:
            free = np.ones(27, dtype=bool)
            free[[14, *blocked]] = False
            assert lozenge_next_empty(14, free, mesh3) == want
            blocked.append(want)

    def test_resume_records_the_layer_found(self, mesh3):
        free = np.ones(27, dtype=bool)
        free[9:18] = False
        resume = {}
        assert lozenge_next_empty(13, free, mesh3, resume) == 22
        assert resume == {13: 1}  # layer order of 13: 1, 2, 0; the own layer is full
        free[18:27] = False
        assert lozenge_next_empty(13, free, mesh3, resume) == 4
        assert resume == {13: 2}

    def test_exhaustive_single_free(self, mesh3):
        # every anchor finds the unique free tile, wherever it is
        for anchor in range(27):
            for free in range(27):
                assert lozenge_next_empty(anchor, free_only(mesh3, {free}), mesh3) == free

    def test_no_free_tile_is_an_error(self, mesh3):
        with pytest.raises(ValueError, match="no free tile"):
            lozenge_next_empty(13, free_only(mesh3, set()), mesh3)

    @given(st.integers(0, 26), st.sets(st.integers(0, 26), min_size=1))
    @settings(max_examples=80)
    def test_returns_a_free_tile_deterministically(self, anchor, free):
        mesh = Mesh3D(3)
        first = lozenge_next_empty(anchor, free_only(mesh, free), mesh)
        second = lozenge_next_empty(anchor, free_only(mesh, free), mesh)
        assert first == second
        assert first in free


def _search(search, anchor, free, mesh):
    """The found tile, or the ValueError message."""
    try:
        return search(anchor, free, mesh)
    except ValueError as exc:
        return str(exc)


class TestLozengeAgainstRingWalk:
    @given(st.integers(2, 5), st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_every_anchor_on_random_occupancy(self, n, seed, density):
        import random

        mesh = Mesh3D(n)
        rng = random.Random(seed)
        free = np.array([rng.random() >= density for _ in range(mesh.tile_count)])
        for anchor in range(mesh.tile_count):
            want = _search(oracles.lozenge_next_empty, anchor, free, mesh)
            assert _search(lozenge_next_empty, anchor, free, mesh) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_only_anchor_free_and_nothing_free(self, n):
        mesh = Mesh3D(n)
        for anchor in range(mesh.tile_count):
            free = free_only(mesh, {anchor})
            assert lozenge_next_empty(anchor, free, mesh) == anchor
            assert oracles.lozenge_next_empty(anchor, free, mesh) == anchor
        full = free_only(mesh, set())
        for anchor in (0, mesh.tile_count - 1):
            for search in (lozenge_next_empty, oracles.lozenge_next_empty):
                with pytest.raises(ValueError, match="^no free tile available$"):
                    search(anchor, full, mesh)

    @given(st.integers(2, 5), st.integers(0, 2 ** 32), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_resumed_searches_on_a_shrinking_mask(self, n, seed, n_anchors):
        # a few anchors, each searched many times with one shared resume dict
        # on one mask that only loses free tiles: each found tile is filled,
        # some steps fill a random one too, until the mesh is full
        import random

        mesh = Mesh3D(n)
        rng = random.Random(seed)
        anchors = rng.sample(range(mesh.tile_count), n_anchors)
        free = np.ones(mesh.tile_count, dtype=bool)
        resume: dict[int, int] = {}
        while free.any():
            anchor = rng.choice(anchors)
            want = oracles.lozenge_next_empty(anchor, free, mesh)
            assert lozenge_next_empty(anchor, free, mesh, resume) == want
            free[want] = False
            if rng.random() < 0.3 and free.any():
                free[rng.choice(np.flatnonzero(free).tolist())] = False
        for anchor in anchors:
            with pytest.raises(ValueError, match="^no free tile available$"):
                lozenge_next_empty(anchor, free, mesh, resume)

    def test_errors_unchanged(self, mesh3):
        for anchor, size in ((0, 8), (27, 27), (-1, 27)):
            free = np.ones(size, dtype=bool)
            want = _search(oracles.lozenge_next_empty, anchor, free, mesh3)
            assert _search(lozenge_next_empty, anchor, free, mesh3) == want
