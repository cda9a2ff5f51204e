import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D
from nocmap.mappers import ddmap
from nocmap.taskgraph import graph_from_arcs
from nocmap.topology import (
    MAX_SIDE,
    MAX_TABLE_BYTES,
    _hop_table_bytes,
    _layer_order,
    diagonal_tiles,
    hop_table,
    lozenge_next_empty,
    tile_coords,
)
from nocmap.metrics import HopKernel

import oracles
from oracles import layer_counts, manhattan3


class TestMeshSize:
    def test_bound_is_the_largest_side_whose_hop_table_fits(self):
        assert _hop_table_bytes(MAX_SIDE) <= MAX_TABLE_BYTES < _hop_table_bytes(MAX_SIDE + 1)
        for n in (2, 3, 12):
            assert _hop_table_bytes(n) == hop_table(Mesh3D(n))[1].nbytes
        assert MAX_SIDE >= 40  # the largest mesh the suite builds

    def test_largest_accepted_mesh_builds_nothing(self):
        # construction only checks n; the tables are built lazily per mesh size
        built = hop_table.cache_info().currsize
        assert Mesh3D(MAX_SIDE).n == MAX_SIDE
        assert hop_table.cache_info().currsize == built

    @pytest.mark.parametrize("n", [MAX_SIDE + 1, 5000, 10 ** 9])
    def test_oversize_mesh_is_refused(self, n):
        with pytest.raises(ValueError, match=rf"^mesh side length {n} is above the limit of {MAX_SIDE}: "):
            Mesh3D(n)

    def test_too_small_mesh_is_refused(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="^mesh side length must be at least 2$"):
                Mesh3D(n)

    @pytest.mark.parametrize("n", [3.0, 2.5, True, np.float64(3.0)],
                             ids=["float", "fractional", "bool", "numpy-float"])
    def test_non_integer_side_is_refused(self, n):
        # a float side made tile_count a float, which ddmap then failed on
        with pytest.raises(ValueError, match=f"^mesh side length must be an integer, got {re.escape(repr(n))}$"):
            Mesh3D(n)

    @pytest.mark.parametrize("side", [1, 10 ** 6])
    def test_mesh_functions_take_a_mesh_not_a_side(self, side):
        # a bare side skipped Mesh3D's checks: diagonal_tiles(10**6) built
        # 999,998 tiles and tile_coords(0, 1) answered for a refused mesh
        for call in (diagonal_tiles, hop_table, lambda mesh: tile_coords(0, mesh)):
            with pytest.raises(AttributeError):
                call(side)

    def test_numpy_integer_side_accepted(self):
        g = graph_from_arcs(3, [(0, 1, 5, 1), (1, 2, 5, 1)])
        mesh = Mesh3D(np.int64(3))
        assert mesh.tile_count == 27
        assert mesh == Mesh3D(3) and type(mesh.n) is int  # so no per-mesh table holds numpy ints
        assert ddmap(g, mesh) == ddmap(g, Mesh3D(3))
        assert diagonal_tiles(Mesh3D(np.int64(4))) == [21, 42] and tile_coords(42, Mesh3D(np.int32(4))) == (2, 2, 2)


class TestIndexing:
    def test_center_of_3cube(self):
        assert tile_coords(13, Mesh3D(3)) == (1, 1, 1)

    def test_origin(self):
        for n in (2, 3, 5):
            assert tile_coords(0, Mesh3D(n)) == (0, 0, 0)

    def test_far_corner(self):
        assert tile_coords(26, Mesh3D(3)) == (2, 2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bijection(self, n):
        mesh = Mesh3D(n)
        seen = set()
        for layer, row, col in itertools.product(range(n), repeat=3):
            t = layer * n * n + row * n + col
            assert tile_coords(t, mesh) == (layer, row, col)
            seen.add(t)
        assert seen == set(range(n ** 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tile_coords(27, Mesh3D(3))
        with pytest.raises(ValueError):
            tile_coords(-1, Mesh3D(3))

    @pytest.mark.parametrize("tile", [12.5, 13.0, True, np.float64(13), np.True_], ids=repr)
    def test_non_integer_tile_is_refused(self, tile):
        # 12.5 used to give (1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match=f"^tile id must be an integer, got {re.escape(repr(tile))}$"):
            tile_coords(tile, Mesh3D(3))

    def test_numpy_integer_tile_is_accepted(self):
        for kind in (np.int64, np.int32, np.uint8):
            coords = tile_coords(kind(13), Mesh3D(3))
            assert coords == (1, 1, 1) and set(map(type, coords)) == {int}


class TestDiagonal:
    def test_known_values(self):
        assert diagonal_tiles(Mesh3D(2)) == []
        assert diagonal_tiles(Mesh3D(3)) == [13]
        assert diagonal_tiles(Mesh3D(4)) == [21, 42]
        assert diagonal_tiles(Mesh3D(5)) == [31, 62, 93]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_interior_of_main_diagonal(self, n):
        step = n * n + n + 1
        full = {i * step for i in range(n)}
        mesh = Mesh3D(n)
        got = diagonal_tiles(mesh)
        assert set(got) <= full
        assert 0 not in got and (n - 1) * step not in got
        assert len(got) == n - 2
        for t in got:
            layer, row, col = tile_coords(t, mesh)
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
        mesh = Mesh3D(n)
        kernel = HopKernel(graph_from_arcs(2, [(0, 1, 1, 1)]), mesh)
        corners = [tile for tile in range(n ** 3) if set(tile_coords(tile, mesh)) <= {0, n - 1}]
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


def search(anchor, free, mesh, resume=None):
    """The library search, with the per-layer counts built from the mask."""
    return lozenge_next_empty(anchor, free, layer_counts(free, mesh), mesh, resume)


class TestLozenge:
    def test_all_free_goes_north(self, mesh3):
        free = np.ones(27, dtype=bool)
        free[13] = False
        assert lozenge_next_empty(13, free, layer_counts(free, mesh3), mesh3) == 10

    def test_full_layer_moves_up_first(self, mesh3):
        free = np.ones(27, dtype=bool)
        free[9:18] = False
        assert lozenge_next_empty(13, free, layer_counts(free, mesh3), mesh3) == 22

    def test_single_free_tile_found(self, mesh3):
        free = free_only(mesh3, {25})
        assert lozenge_next_empty(13, free, layer_counts(free, mesh3), mesh3) == 25

    def test_first_ring_order_clockwise(self, mesh3):
        # anchor 13 sits in an odd column, so the d=1 ring is walked N,E,S,W
        expected = [10, 14, 16, 12]
        blocked = []
        for want in expected:
            free = np.ones(27, dtype=bool)
            free[[13, *blocked]] = False
            assert lozenge_next_empty(13, free, layer_counts(free, mesh3), mesh3) == want
            blocked.append(want)

    def test_first_ring_order_counter_clockwise(self, mesh3):
        # anchor 14 sits in an even column: ring order N,W,S then E (off-grid skipped)
        expected = [11, 13, 17]
        blocked = []
        for want in expected:
            free = np.ones(27, dtype=bool)
            free[[14, *blocked]] = False
            assert lozenge_next_empty(14, free, layer_counts(free, mesh3), mesh3) == want
            blocked.append(want)

    def test_resume_records_the_position_found(self, mesh3):
        # layer order of 13: 1, 2, 0; each layer visits cells 4, 1, 5, 7, 3, ...
        # (its projection first, then the d = 1 ring N, E, S, W)
        free = np.ones(27, dtype=bool)
        free[9:18] = False
        counts = layer_counts(free, mesh3)
        resume = {}
        assert lozenge_next_empty(13, free, counts, mesh3, resume) == 22
        assert resume == {13: 9}  # layer index 1, cell index 0
        free[22], counts[2] = False, counts[2] - 1
        assert lozenge_next_empty(13, free, counts, mesh3, resume) == 19
        assert resume == {13: 10}  # same layer, one cell on
        free[18:27], counts[2] = False, 0
        assert lozenge_next_empty(13, free, counts, mesh3, resume) == 4
        assert resume == {13: 18}  # layer index 2, cell index 0

    def test_exhaustive_single_free(self, mesh3):
        # every anchor finds the unique free tile, wherever it is
        for anchor in range(27):
            for free in range(27):
                assert search(anchor, free_only(mesh3, {free}), mesh3) == free

    def test_no_free_tile_is_an_error(self, mesh3):
        free = free_only(mesh3, set())
        with pytest.raises(ValueError, match="no free tile"):
            lozenge_next_empty(13, free, layer_counts(free, mesh3), mesh3)

    @given(st.integers(0, 26), st.sets(st.integers(0, 26), min_size=1))
    @settings(max_examples=80)
    def test_returns_a_free_tile_deterministically(self, anchor, free):
        mesh = Mesh3D(3)
        first = search(anchor, free_only(mesh, free), mesh)
        second = search(anchor, free_only(mesh, free), mesh)
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
            assert _search(search, anchor, free, mesh) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_only_anchor_free_and_nothing_free(self, n):
        mesh = Mesh3D(n)
        for anchor in range(mesh.tile_count):
            free = free_only(mesh, {anchor})
            assert search(anchor, free, mesh) == anchor
            assert oracles.lozenge_next_empty(anchor, free, mesh) == anchor
        full = free_only(mesh, set())
        for anchor in (0, mesh.tile_count - 1):
            for find in (search, oracles.lozenge_next_empty):
                with pytest.raises(ValueError, match="^no free tile available$"):
                    find(anchor, full, mesh)

    @given(st.integers(2, 5), st.integers(0, 2 ** 32), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_resumed_searches_on_a_shrinking_mask(self, n, seed, n_anchors):
        # a few anchors, each searched many times with one shared resume dict
        # on one mask that only loses free tiles: each found tile is filled,
        # some steps fill a random one too, until the mesh is full; the
        # per-layer counts are kept in step with the mask, as ddmap keeps them
        import random

        mesh = Mesh3D(n)
        nn = n * n
        rng = random.Random(seed)
        anchors = rng.sample(range(mesh.tile_count), n_anchors)
        free = np.ones(mesh.tile_count, dtype=bool)
        counts = [nn] * n
        resume: dict[int, int] = {}

        def fill(tile):
            free[tile] = False
            counts[tile // nn] -= 1

        while free.any():
            anchor = rng.choice(anchors)
            want = oracles.lozenge_next_empty(anchor, free, mesh)
            assert lozenge_next_empty(anchor, free, counts, mesh, resume) == want
            fill(want)
            if rng.random() < 0.3 and free.any():
                fill(rng.choice(np.flatnonzero(free).tolist()))
        assert counts == [0] * n
        for anchor in anchors:
            with pytest.raises(ValueError, match="^no free tile available$"):
                lozenge_next_empty(anchor, free, counts, mesh, resume)

    @given(st.integers(2, 6), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_call_lookup(self, n, seed):
        # every anchor searched in turn, each found tile filled, with one
        # resume dict per form: the per-anchor cache must find the same tiles
        # and leave the same cursors as the per-call tile_coords lookup
        import random

        mesh = Mesh3D(n)
        nn = n * n
        rng = random.Random(seed)
        free = bytearray(b"\x01") * mesh.tile_count
        counts = [nn] * n
        cached: dict[int, int] = {}
        per_call: dict[int, int] = {}
        while any(free):
            anchor = rng.randrange(mesh.tile_count)
            want = oracles.lozenge_lookup(anchor, free, counts, mesh, per_call)
            assert lozenge_next_empty(anchor, free, counts, mesh, cached) == want
            assert cached == per_call
            free[want] = 0
            counts[want // nn] -= 1

    @given(st.integers(2, 5), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_anchor_alone_in_its_layer(self, n, seed):
        # the anchor's own layer is skipped when the anchor is its only free
        # tile: the search must go on to the other layers, and fall back to
        # the anchor only when they are full too
        import random

        mesh = Mesh3D(n)
        nn = n * n
        rng = random.Random(seed)
        for anchor in range(mesh.tile_count):
            elsewhere = [t for t in range(mesh.tile_count) if t // nn != anchor // nn]
            for others in (set(), set(rng.sample(elsewhere, rng.randint(1, len(elsewhere))))):
                free = free_only(mesh, {anchor} | others)
                want = oracles.lozenge_next_empty(anchor, free, mesh)
                assert search(anchor, free, mesh) == want
                assert (want == anchor) == (not others)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_only_the_farthest_layer_has_room(self, n):
        # every layer is full except the last one the anchor visits, which
        # has one free tile or is entirely free
        import random

        mesh = Mesh3D(n)
        nn = n * n
        rng = random.Random(n)
        for anchor in range(mesh.tile_count):
            farthest = _layer_order(n, anchor // nn)[-1]
            layer = range(farthest * nn, (farthest + 1) * nn)
            for room in ({rng.choice(layer)}, set(layer)):
                free = free_only(mesh, room)
                want = oracles.lozenge_next_empty(anchor, free, mesh)
                assert search(anchor, free, mesh) == want
                resume: dict[int, int] = {}
                assert search(anchor, free, mesh, resume) == want
                assert resume[anchor] // nn == n - 1

    @given(st.integers(2, 5), st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_bytearray_and_bool_masks_agree(self, n, seed, density):
        import random

        mesh = Mesh3D(n)
        rng = random.Random(seed)
        mask = np.array([rng.random() >= density for _ in range(mesh.tile_count)])
        raw = bytearray(mask.tobytes())
        counts = layer_counts(mask, mesh)
        assert layer_counts(raw, mesh) == counts
        for anchor in range(mesh.tile_count):
            want = _search(oracles.lozenge_next_empty, anchor, mask, mesh)
            for free in (mask, raw):
                got = _search(lambda a, f, m: lozenge_next_empty(a, f, counts, m), anchor, free, mesh)
                assert got == want

    def test_errors_unchanged(self, mesh3):
        for anchor, size in ((0, 8), (27, 27), (-1, 27)):
            free = np.ones(size, dtype=bool)
            want = _search(oracles.lozenge_next_empty, anchor, free, mesh3)
            assert _search(search, anchor, free, mesh3) == want

    def test_bad_input_is_refused(self, mesh3):
        free = bytearray(b"\x01") * 27
        counts = [9, 9, 9]
        for mask in (free[:26], free + b"\x01", bytearray()):
            with pytest.raises(ValueError, match="^occupancy size does not match mesh$"):
                lozenge_next_empty(13, mask, counts, mesh3)
        for wrong in (counts[:2], counts + [0], []):
            with pytest.raises(ValueError, match="^free counts size does not match mesh$"):
                lozenge_next_empty(13, free, wrong, mesh3)
        for anchor in (-1, 27, 1000):
            with pytest.raises(ValueError, match=f"^tile id {anchor} out of range 0..26$"):
                lozenge_next_empty(anchor, free, counts, mesh3)

    @pytest.mark.parametrize("anchor", [True, 13.0, 12.5, np.float64(1), np.True_], ids=repr)
    def test_non_integer_anchor_is_refused(self, mesh3, anchor):
        # True used to find tile 1's visiting orders and 13.0 tile 13's; 12.5
        # failed with a bare TypeError from the walk
        free = bytearray(b"\x01") * 27
        for tile in (1, 13):  # both visiting orders kept, as after earlier searches
            lozenge_next_empty(tile, free, [9, 9, 9], mesh3)
        resume = {}
        with pytest.raises(ValueError, match=f"^tile id must be an integer, got {re.escape(repr(anchor))}$"):
            lozenge_next_empty(anchor, free, [9, 9, 9], mesh3, resume)
        assert resume == {}

    def test_numpy_integer_anchor_is_accepted(self, mesh3):
        free = bytearray(b"\x01") * 27
        free[10] = 0
        counts = layer_counts(free, mesh3)
        for anchor in (np.int64(13), np.int32(13), np.uint16(13)):
            resume = {}
            tile = lozenge_next_empty(anchor, free, counts, mesh3, resume)
            assert (tile, type(tile), resume) == (14, int, {13: 2})
            assert type(next(iter(resume))) is int
