import heapq
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D, ddmap, generate_random_graph, mappers
from nocmap.harness import RunConfig, run_benchmark
from nocmap.mappers import MAPPERS, crinkle_order, map_with, sequence_map, spiral_order
from nocmap.taskgraph import graph_from_arcs, priority_order
from nocmap.topology import lozenge_next_empty

import oracles


@st.composite
def sparse_graphs(draw, max_cores):
    """Up to two arcs per core, so isolated cores are common; volumes drawn
    from 0..hi, so hi = 0 or 1 gives zero-volume arcs and traffic ties."""
    n_cores = draw(st.one_of(st.just(max_cores), st.integers(1, max_cores)))
    n_arcs = draw(st.integers(0, min(2 * n_cores, n_cores * (n_cores - 1))))
    hi = draw(st.sampled_from([0, 1, 5, 1000]))
    seed = draw(st.integers(0, 2 ** 32))
    return generate_random_graph(n_cores, n_arcs, volume_range=(0, hi), seed=seed)


@st.composite
def tied_graphs(draw, max_cores):
    """Up to four arcs per core, each volume drawn from {0, 1, 1, 2, 5}: a
    core's placed partners often tie on volume, so anchors fall to the
    placement order, and zero-volume arcs, which never make an anchor, are
    common."""
    n_cores = draw(st.integers(1, max_cores))
    every = [(s, d) for s in range(n_cores) for d in range(n_cores) if s != d]
    pairs = draw(st.lists(st.sampled_from(every), max_size=4 * n_cores, unique=True)) if every else []
    return graph_from_arcs(n_cores, [(s, d, draw(st.sampled_from([0, 1, 1, 2, 5])), 1) for s, d in pairs])


@st.composite
def meshes_with_graphs(draw, sides, graphs):
    """A mesh with a side drawn from ``sides`` and a graph from ``graphs(tiles)``."""
    mesh = Mesh3D(draw(sides))
    return mesh, draw(graphs(mesh.tile_count))


# Three components, priority order [1, 4, 3, 0, 7, 6, 2, 8, 5].
_THREE_COMPONENTS = graph_from_arcs(9, [(0, 1, 5, 1), (1, 2, 3, 1), (3, 4, 7, 1), (4, 5, 1, 1),
                                        (6, 7, 2, 1), (7, 8, 2, 1)])

# Graphs whose traffic runs out before every core is placed, so ddmap takes
# cores without traffic off its rank cursor; the order of each is given.
CURSOR_CASES = (
    # the seed's component drains, then the cursor takes 4, and after 4's
    # component drains it skips the placed 3 and 0 to take 7
    (Mesh3D(3), _THREE_COMPONENTS),
    # mesh 4's two seeds, 1 and 4, lie in different components
    (Mesh3D(4), _THREE_COMPONENTS),
    # cores 2, 3 and 4 linked only by zero-volume arcs, order [1, 0, 2, 3, 4, 5]:
    # 5 has traffic, so it goes before them although they rank first
    (Mesh3D(3), graph_from_arcs(6, [(0, 1, 4, 1), (2, 3, 0, 1), (3, 4, 0, 1), (4, 2, 0, 1),
                                    (1, 5, 2, 1)])),
    # order [0, 3, 5, 2, 4, 1, 6, 7, 8, 9]: cores 2 and 4 have no traffic and
    # rank between cores that have it, and 7 is isolated; the cursor skips
    # the placed 3 and 5 to take 2, then 1 and 6 to take 7
    (Mesh3D(3), graph_from_arcs(10, [(0, 1, 6, 1), (2, 9, 0, 1), (3, 1, 2, 1), (4, 8, 0, 1),
                                     (5, 3, 1, 1), (0, 6, 1, 1)])),
    # order [2, 5, 7, 0, 1, 3, 4, 6] on the seedless mesh 2, filled to the
    # last tile: the cursor skips every placed core to take the five isolated ones
    (Mesh3D(2), graph_from_arcs(8, [(5, 2, 3, 1), (2, 7, 1, 1)])),
    # order [0, 1, 2, 3, 4]: after 2 is placed, its first key pops stale
    # while 3 still has a live one, so the isolated 4 must wait for 3
    (Mesh3D(3), graph_from_arcs(5, [(0, 1, 9, 1), (0, 2, 5, 1), (0, 3, 1, 1), (1, 2, 2, 1)])),
)


def with_cursor_cases(test):
    """Run ``test`` on every ``CURSOR_CASES`` entry as well as on its draws."""
    for case in reversed(CURSOR_CASES):
        test = example(case=case)(test)
    return test


def assert_injective_total(mapping, g, mesh):
    assert set(mapping) == set(range(g.n_cores))
    tiles = list(mapping.values())
    assert len(set(tiles)) == len(tiles)
    assert all(0 <= t < mesh.tile_count for t in tiles)


class HeapSpy:
    """Stands in for ``heapq`` in ``mappers``: records every key that enters a heap."""

    def __init__(self):
        self.entered = []
        self.heapified = False

    def heapify(self, heap):
        self.heapified = True
        self.entered.extend(heap)
        heapq.heapify(heap)

    def heappush(self, heap, key):
        self.entered.append(key)
        heapq.heappush(heap, key)

    heappop = staticmethod(heapq.heappop)


class TestDdmap:
    def test_g1_trace(self, g1, mesh3):
        mapping = ddmap(g1, mesh3)
        # A seeds the interior diagonal, B (heaviest partner of A) lands on
        # A's north neighbour, then C beside A, then D beside B.
        assert mapping[0] == 13
        assert mapping[1] == 10
        assert mapping == {0: 13, 1: 10, 2: 14, 3: 11}
        assert list(mapping) == [0, 1, 2, 3]  # placement order preserved

    def test_single_core(self, mesh3):
        g = graph_from_arcs(1, [])
        assert ddmap(g, mesh3) == {0: 13}

    def test_arc_free_three_cores(self, mesh3):
        # no traffic anywhere: ids break ties, every anchor is the seed core
        g = graph_from_arcs(3, [])
        assert ddmap(g, mesh3) == {0: 13, 1: 10, 2: 14}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_top_priority_on_first_diagonal_tile(self, n):
        mesh = Mesh3D(n)
        for seed in range(10):
            g = generate_random_graph(8, 20, seed=seed)
            mapping = ddmap(g, mesh)
            top = priority_order(g)[0]
            assert mapping[top] == (n * n + n + 1)

    def test_n2_seeds_origin(self, g1, mesh2):
        mapping = ddmap(g1, mesh2)
        assert mapping[0] == 0
        assert_injective_total(mapping, g1, mesh2)

    def test_too_many_cores(self, mesh2):
        g = graph_from_arcs(9, [])
        with pytest.raises(ValueError, match="exceed"):
            ddmap(g, mesh2)

    def test_deterministic(self, mesh3):
        g = generate_random_graph(16, 24, seed=5)
        assert ddmap(g, mesh3) == ddmap(g, mesh3)

    @given(case=meshes_with_graphs(st.integers(2, 5), sparse_graphs))
    @with_cursor_cases
    @settings(max_examples=120, deadline=None)
    def test_matches_all_pairs_oracle(self, case):
        # same tiles in the same placement order as the dense greedy loop,
        # meshes filled to the last tile included
        mesh, g = case
        assert list(ddmap(g, mesh).items()) == list(oracles.ddmap(g, mesh).items())

    @given(case=meshes_with_graphs(st.integers(2, 4), lambda tiles: st.one_of(sparse_graphs(tiles),
                                                                              tied_graphs(tiles))))
    @with_cursor_cases
    @settings(max_examples=80, deadline=None)
    def test_matches_place_helper_form(self, case):
        # anchors kept as placements happen, against the form that scans a
        # core's placed partners when it places it, through a place helper
        # and per-call lozenge lookups: same tiles, same insertion order
        mesh, g = case
        assert list(ddmap(g, mesh).items()) == list(oracles.ddmap_place(g, mesh).items())

    @given(st.data(), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_each_lozenge_step_matches_the_lookup_form(self, data, n):
        # every search ddmap makes, replayed on a copy of its state through
        # the form that finds its visiting orders per call: same tile, same
        # cursors afterwards
        mesh = Mesh3D(n)
        g = data.draw(tied_graphs(mesh.tile_count))
        steps = []

        def checked(anchor, free, counts, mesh, resume):
            cursors = dict(resume)
            want = oracles.lozenge_lookup(anchor, bytearray(free), list(counts), mesh, cursors)
            got = lozenge_next_empty(anchor, free, counts, mesh, resume)
            assert (got, resume) == (want, cursors)
            steps.append(got)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mappers, "lozenge_next_empty", checked)
            mapping = ddmap(g, mesh)
        assert steps == list(mapping.values())[len(mapping) - len(steps):]

    @given(case=meshes_with_graphs(st.integers(2, 4), tied_graphs))
    @example(case=(Mesh3D(10), generate_random_graph(1000, 1500, seed=1)))
    @settings(max_examples=60, deadline=None)
    def test_only_cores_with_traffic_are_heaped(self, case):
        # every key that enters the heap, by heapify or by push, is below 0:
        # a core without traffic waits for the rank cursor instead
        mesh, g = case
        spy = HeapSpy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mappers, "heapq", spy)
            ddmap(g, mesh)
        assert spy.heapified
        assert all(key < 0 for key in spy.entered)

    def test_keys_past_int64_are_exact(self, mesh3):
        # core 0 seeds the mesh with a 2^61 volume to each of 3 partners, so
        # their first heap keys, rank - 2^61 * 8, lie below -2^63 and must
        # still order them exactly
        g = graph_from_arcs(8, [(0, d, 2 ** 61, 1) for d in (1, 2, 3)] + [(4, 5, 1, 1), (6, 5, 2, 1), (7, 4, 1, 1)])
        assert list(ddmap(g, mesh3).items()) == list(oracles.ddmap_place(g, mesh3).items())
        assert list(ddmap(g, mesh3).items()) == list(oracles.ddmap(g, mesh3).items())

    def test_matches_oracle_at_benchmark_scale(self):
        # 1000 cores fill a 10x10x10 mesh: only this deep do searches from
        # one anchor resume past several full layers
        g, mesh = generate_random_graph(1000, 1500, seed=1), Mesh3D(10)
        want = list(oracles.ddmap(g, mesh).items())
        assert list(ddmap(g, mesh).items()) == want
        assert list(oracles.ddmap_place(g, mesh).items()) == want


class TestTileOrders:
    def test_crinkle_n2(self, mesh2):
        assert crinkle_order(mesh2) == [0, 1, 3, 2, 4, 5, 7, 6]

    def test_crinkle_n3_serpentine(self, mesh3):
        order = crinkle_order(mesh3)
        assert order[:9] == [0, 1, 2, 5, 4, 3, 6, 7, 8]

    def test_spiral_starts_at_cube_center(self, mesh3):
        order = spiral_order(mesh3)
        assert order[0] == 13
        assert set(order[:9]) == set(range(9, 18))  # middle layer first

    def test_spiral_layer_visits(self, mesh3):
        order = spiral_order(mesh3)
        layers = [t // 9 for t in order]
        assert layers == [1] * 9 + [2] * 9 + [0] * 9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_both_orders_are_permutations(self, n):
        mesh = Mesh3D(n)
        for order in (crinkle_order(mesh), spiral_order(mesh)):
            assert sorted(order) == list(range(n ** 3))


class TestSequenceMap:
    def test_g1_crinkle(self, g1, mesh3):
        mapping = sequence_map(g1, mesh3, crinkle_order(mesh3))
        # priority [0,1,2,3] onto the serpentine prefix [0,1,2,5,...]
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 5}

    def test_g1_spiral_head(self, g1, mesh3):
        assert sequence_map(g1, mesh3, spiral_order(mesh3))[0] == 13

    def test_arc_free_pair(self, mesh3):
        g = graph_from_arcs(2, [])
        order = crinkle_order(mesh3)
        assert sequence_map(g, mesh3, order) == {0: 0, 1: 1}

    def test_too_many_cores(self, mesh2):
        g = graph_from_arcs(9, [])
        with pytest.raises(ValueError):
            sequence_map(g, mesh2, crinkle_order(mesh2))

    @pytest.mark.parametrize(
        "order, message",
        [
            ([0, 0, 1], "tile sequence repeats a tile"),
            ([2, 1, 2, 3], "tile sequence repeats a tile"),
            ([0, 9, -1], "tile 9 in the tile sequence is not a tile of the mesh (0..7)"),
            ([0, 1, -1], "tile -1 in the tile sequence is not a tile of the mesh (0..7)"),
            ([0, 1.5, 2], "tile 1.5 in the tile sequence is not a tile of the mesh (0..7)"),
            ([0, True, 2], "tile True in the tile sequence is not a tile of the mesh (0..7)"),
        ],
    )
    def test_bad_prefix_refused(self, mesh2, order, message):
        g = graph_from_arcs(3, [(0, 1, 5, 1), (1, 2, 3, 1)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sequence_map(g, mesh2, order)

    def test_only_the_prefix_is_read(self, mesh2):
        # a repeat or a bad tile after the first N entries is never used
        g = graph_from_arcs(3, [(0, 1, 5, 1), (1, 2, 3, 1)])
        want = {1: 5, 0: 4, 2: 3}
        assert sequence_map(g, mesh2, [5, 4, 3, 3, 99]) == want
        assert sequence_map(g, mesh2, np.array([5, 4, 3])) == want
        assert list(sequence_map(g, mesh2, (5, 4, 3)).items()) == list(want.items())


class TestAllMappers:
    @given(
        st.sampled_from(["ddmap", "spiral", "crinkle"]),
        st.integers(2, 27),
        st.integers(0, 40),
        st.integers(0, 1_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_injective_total_deterministic(self, kind, n_cores, n_arcs, seed):
        mesh = Mesh3D(3)
        g = generate_random_graph(n_cores, min(n_arcs, n_cores * (n_cores - 1)), seed=seed)
        mapping = map_with(kind, g, mesh)
        assert_injective_total(mapping, g, mesh)
        assert mapping == map_with(kind, g, mesh)

    def test_unknown_kind(self, g1, mesh3):
        with pytest.raises(ValueError, match="unknown mapper"):
            map_with("zigzag", g1, mesh3)


class TestOverflowingWeights:
    @pytest.mark.parametrize("kind", MAPPERS)
    @pytest.mark.parametrize("arcs, name", [([(0, 1, 2 ** 63, 1)], "volume"), ([(0, 1, 1, 2 ** 63)], "bandwidth")])
    def test_refused_by_name(self, kind, arcs, name, tmp_path):
        # such a graph is refused when it is built or read, so no mapper is handed one
        message = f"^total arc {name} {2 ** 63} does not fit int64$"
        with pytest.raises(ValueError, match=message):
            graph_from_arcs(3, arcs)
        path = tmp_path / "big.ctg"
        path.write_text("cores 3\n" + "".join(f"edge {s} {d} {v} {b}\n" for s, d, v, b in arcs))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message[1:]}"):
            run_benchmark(RunConfig(graph=path, mode="map", algo=kind))
