import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import EnergyModel, Mesh3D, evaluate, generate_random_graph
from nocmap.metrics import OBJECTIVES, HopKernel
from nocmap.taskgraph import TaskGraph, graph_from_arcs
from nocmap.topology import tile_coords

from oracles import brute_cost, brute_energy, brute_eta, brute_latency
from oracles import objective_values as three_sum_objective


def random_pair(seed, n=3):
    """Random (graph, injective placement) pair on an n-cube."""
    rng = random.Random(seed)
    n_cores = rng.randint(2, min(12, n ** 3))
    max_arcs = n_cores * (n_cores - 1)
    g = generate_random_graph(n_cores, rng.randint(1, max_arcs), seed=seed)
    placement = dict(enumerate(rng.sample(range(n ** 3), n_cores)))
    return g, placement


class TestBitEnergy:
    """One bit over h links visits h+1 routers: ``energy(h + 1, h)``; h = 0 is free."""

    def test_six_links(self):
        assert EnergyModel().energy(7, 6) == pytest.approx(4.682, abs=1e-12)

    def test_one_link(self):
        assert EnergyModel().energy(2, 1) == pytest.approx(1.017, abs=1e-12)

    def test_colocated_is_free(self):
        assert EnergyModel().energy(0, 0) == 0.0

    def test_strictly_increasing(self):
        values = [EnergyModel().energy(h + 1, h) for h in range(1, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_custom_model(self):
        m = EnergyModel(e_switch_bit=1.0, e_link_bit=2.0)
        assert m.energy(4, 3) == 4 * 1.0 + 3 * 2.0


class TestTotalEnergy:
    def test_single_arc_one_link(self, mesh3):
        g = graph_from_arcs(2, [(0, 1, 100, 1)])
        assert evaluate(g, {0: 13, 1: 10}, mesh3).total_energy == pytest.approx(101.7, rel=1e-12)

    def test_all_colocated(self, mesh3, g1):
        assert evaluate(g1, {0: 5, 1: 5, 2: 5, 3: 5}, mesh3).total_energy == 0.0

    def test_matches_brute_force_on_g1(self, mesh3, g1):
        placement = {0: 13, 1: 10, 2: 4, 3: 12}
        assert evaluate(g1, placement, mesh3).total_energy == brute_energy(g1, placement, 3)

    def test_unmapped_core(self, mesh3, g1):
        with pytest.raises(ValueError, match="unmapped"):
            evaluate(g1, {0: 0, 1: 1, 2: 2}, mesh3)

    def test_bad_tile(self, mesh3, g1):
        with pytest.raises(ValueError, match="invalid tile"):
            evaluate(g1, {0: 0, 1: 1, 2: 2, 3: 27}, mesh3)


class TestValidation:
    @pytest.mark.parametrize("extra", [{4: 0}, {-1: 3}, {9: 99}])
    def test_unknown_core_rejected(self, mesh3, g1, extra):
        mapping = {0: 13, 1: 10, 2: 4, 3: 12, **extra}
        with pytest.raises(ValueError, match=f"unknown core {next(iter(extra))}"):
            evaluate(g1, mapping, mesh3)

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({0: 13, 1: 10.0, 2: 4, 3: 12}, "tile of core 1 must be an integer, got 10.0"),
            ({0: 13, 1: 10.9, 2: 4, 3: 12}, "tile of core 1 must be an integer, got 10.9"),
            ({0: 13, 1: True, 2: 4, 3: 12}, "tile of core 1 must be an integer, got True"),
            ({0: 13, 1: "10", 2: 4, 3: 12}, "tile of core 1 must be an integer, got '10'"),
            ({0: 13, 1: 10, 2: 4, 3: np.float64(12)}, "tile of core 3 must be an integer, got np.float64(12.0)"),
            ({0.0: 13, 1: 10, 2: 4, 3: 12}, "core id must be an integer, got 0.0"),
            ({0: 13, True: 10, 2: 4, 3: 12}, "core id must be an integer, got True"),
            ({0: 13, 1: 10, 2: 4, 3: 12, "4": 5}, "core id must be an integer, got '4'"),
        ],
        ids=["float-tile", "fractional-tile", "bool-tile", "str-tile", "numpy-float-tile",
             "float-core", "bool-core", "str-core"],
    )
    def test_non_integer_core_or_tile_refused(self, mesh3, g1, mapping, message):
        # 10.9 used to be placed on tile 10, and a True key to stand for core 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(g1, mapping, mesh3)

    def test_numpy_integer_cores_and_tiles_accepted(self, mesh3, g1):
        plain = {0: 13, 1: 10, 2: 4, 3: 12}
        numpy = {np.int64(0): np.int32(13), np.uint8(1): np.int64(10), 2: np.uint16(4), np.int16(3): 12}
        assert evaluate(g1, numpy, mesh3) == evaluate(g1, plain, mesh3)

    @pytest.mark.parametrize("field", ["e_switch_bit", "e_link_bit", "rho"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_energy_model_rejects_non_finite_and_negative(self, field, value):
        with pytest.raises(ValueError, match="^energy model constants must be finite and non-negative$"):
            EnergyModel(**{field: value})

    @pytest.mark.parametrize("field", ["e_switch_bit", "e_link_bit", "rho"])
    @pytest.mark.parametrize("value", [None, "1", 1j])
    def test_energy_model_names_a_non_numeric_constant(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            EnergyModel(**{field: value})

    def test_largest_volume_is_exact(self, mesh3):
        # 7 routers and 6 links per bit between opposite corners of a 3-cube
        vol = (2 ** 63 - 1) // 7
        bw = (2 ** 63 - 1) // 6
        g = graph_from_arcs(2, [(0, 1, vol, bw)])
        rep = evaluate(g, {0: 0, 1: 26}, mesh3)
        assert rep.comm_cost == 6 * bw
        assert rep.total_energy == 0.284 * (7 * vol) + 0.449 * (6 * vol)
        assert rep.avg_latency == 6 * vol * 1.0 / 1

    @pytest.mark.parametrize("arc", [((2 ** 63 - 1) // 7 + 1, 1), (1, (2 ** 63 - 1) // 6 + 1)])
    def test_overflowing_sums_rejected(self, mesh3, arc):
        g = graph_from_arcs(2, [(0, 1, *arc)])
        with pytest.raises(ValueError, match="overflow"):
            evaluate(g, {0: 0, 1: 1}, mesh3)


class TestCommCost:
    def test_single_arc(self, mesh3):
        g = graph_from_arcs(2, [(0, 1, 100, 10)])
        assert evaluate(g, {0: 0, 1: 2}, mesh3).comm_cost == 20

    def test_colocated(self, mesh3, g1):
        assert evaluate(g1, {c: 7 for c in range(4)}, mesh3).comm_cost == 0

    def test_matches_brute_force(self, mesh3, g1):
        placement = {0: 13, 1: 10, 2: 4, 3: 12}
        assert evaluate(g1, placement, mesh3).comm_cost == brute_cost(g1, placement, 3)


class TestAvgLatency:
    def test_single_arc(self, mesh3):
        g = graph_from_arcs(2, [(0, 1, 100, 1)])
        assert evaluate(g, {0: 0, 1: 13}, mesh3).avg_latency == 300.0  # 3 links apart

    def test_two_arcs(self, mesh3):
        g = graph_from_arcs(3, [(0, 1, 10, 1), (0, 2, 30, 1)])
        placement = {0: 0, 1: 1, 2: 2}  # distances 1 and 2
        assert evaluate(g, placement, mesh3).avg_latency == (10 + 60) / 2

    def test_colocated(self, mesh3, g1):
        assert evaluate(g1, {c: 0 for c in range(4)}, mesh3).avg_latency == 0.0

    def test_eta_zero_is_undefined(self, mesh3):
        g = graph_from_arcs(2, [(0, 1, 0, 5)])
        assert evaluate(g, {0: 0, 1: 1}, mesh3).avg_latency is None

    def test_rho_scales(self, mesh3):
        g = graph_from_arcs(2, [(0, 1, 100, 1)])
        m = EnergyModel(rho=2.5)
        assert evaluate(g, {0: 0, 1: 1}, mesh3, m).avg_latency == 250.0


class TestEvaluate:
    def test_report_consistency(self, mesh3, g1):
        placement = {0: 13, 1: 10, 2: 4, 3: 12}
        rep = evaluate(g1, placement, mesh3)
        assert rep.total_energy == brute_energy(g1, placement, 3)
        assert rep.comm_cost == brute_cost(g1, placement, 3)
        assert rep.avg_latency == brute_latency(g1, placement, 3)
        assert rep.eta == brute_eta(g1) == 4

    def test_latency_none_when_no_transfers(self, mesh3):
        g = graph_from_arcs(2, [(0, 1, 0, 5)])
        rep = evaluate(g, {0: 0, 1: 1}, mesh3)
        assert rep.avg_latency is None and rep.eta == 0


class TestAgainstBruteForce:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_all_metrics_exact(self, seed):
        g, placement = random_pair(seed)
        rep = evaluate(g, placement, Mesh3D(3))
        assert rep.total_energy == brute_energy(g, placement, 3)
        assert rep.comm_cost == brute_cost(g, placement, 3)
        assert rep.eta == brute_eta(g)
        if rep.eta > 0:
            assert rep.avg_latency == brute_latency(g, placement, 3)


@st.composite
def graph_and_placement(draw):
    """A random graph on a random mesh, placed with many cores per tile."""
    n = draw(st.integers(2, 4))
    n_cores = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n_cores) for j in range(n_cores) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    arcs = [(i, j, draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 100))) for i, j in chosen]
    used_tiles = draw(st.integers(1, n ** 3))  # few tiles force co-located arcs
    placement = {c: draw(st.integers(0, used_tiles - 1)) for c in range(n_cores)}
    return graph_from_arcs(n_cores, arcs), placement, n


class TestEvaluateAgainstOracle:
    @given(graph_and_placement())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_exact(self, case):
        g, placement, n = case
        rep = evaluate(g, placement, Mesh3D(n))
        assert rep.total_energy == brute_energy(g, placement, n)
        assert rep.comm_cost == brute_cost(g, placement, n)
        assert rep.eta == brute_eta(g)
        expected = brute_latency(g, placement, n) if rep.eta else None
        assert rep.avg_latency == expected

    @given(graph_and_placement(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_arc_order_independent(self, case, rng):
        g, placement, n = case
        shuffled = TaskGraph(g.n_cores, tuple(rng.sample(g.arcs, len(g.arcs))))
        assert evaluate(shuffled, placement, Mesh3D(n)) == evaluate(g, placement, Mesh3D(n))


class TestObjectiveValues:
    """``HopKernel.objective_values`` takes one sum; the three-sum form must agree exactly."""

    @staticmethod
    def assert_agree(kernel, tiles, model):
        for objective in OBJECTIVES:
            fast = kernel.objective_values(tiles, objective, model)
            slow = three_sum_objective(kernel, tiles, objective, model)
            assert fast.dtype == slow.dtype and fast.shape == slow.shape
            assert np.array_equal(fast, slow)

    @given(graph_and_placement(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_three_sums(self, case, data):
        # a batch of placements onto few tiles, so co-located arcs (h = 0) are common
        g, placement, n = case
        rows = data.draw(st.integers(1, 5))
        used_tiles = data.draw(st.integers(1, n ** 3))
        tiles = np.array([placement[c] for c in range(g.n_cores)] + data.draw(st.lists(
            st.integers(0, used_tiles - 1), min_size=(rows - 1) * g.n_cores,
            max_size=(rows - 1) * g.n_cores,
        ))).reshape(rows, g.n_cores)
        model = EnergyModel(data.draw(st.floats(0, 2)), data.draw(st.floats(0, 2)))
        kernel = HopKernel(g, Mesh3D(n))
        self.assert_agree(kernel, tiles, model)
        self.assert_agree(kernel, tiles[0], model)  # one placement, not a batch

    def test_every_core_on_one_tile(self, mesh3):
        kernel = HopKernel(generate_random_graph(6, 12, seed=3), mesh3)
        tiles = np.full((2, 6), 13)
        self.assert_agree(kernel, tiles, EnergyModel())
        assert kernel.objective_values(tiles, "energy", EnergyModel()).tolist() == [0.0, 0.0]

    def test_work_arrays_follow_the_batch_shape(self, mesh3):
        # One kernel keeps its work arrays while the batch shape repeats and
        # replaces them when it changes; a fresh kernel must agree on every
        # batch, and a later call must not overwrite an earlier result.
        g = generate_random_graph(6, 12, seed=5)
        rng = np.random.default_rng(5)
        batches = [rng.integers(0, 27, size=shape) for shape in ((5, 6), (6,), (5, 6), (3, 6))]

        def scores(kernel, tiles):
            return [kernel.hops(tiles), *kernel(tiles), *(
                kernel.objective_values(tiles, objective, EnergyModel()) for objective in OBJECTIVES
            )]

        kernel = HopKernel(g, mesh3)
        kept = [scores(kernel, tiles) for tiles in batches]
        for tiles, got in zip(batches, kept):
            want = scores(HopKernel(g, mesh3), tiles)
            assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, want))

    def test_arc_arrays_are_the_graph_columns(self, mesh3):
        # the kernel reads the graph's one read-only copy of its arcs; it
        # builds no arc array of its own and cannot write into the graph's
        g = generate_random_graph(6, 12, seed=5)
        src, dst, volume, bandwidth = g.arc_columns
        kernel = HopKernel(g, mesh3)
        assert kernel.ends.tolist() == src.tolist() + dst.tolist()
        for mine, theirs in ((kernel.ends, g.arc_columns), (kernel.volume, volume), (kernel.bandwidth, bandwidth)):
            assert np.shares_memory(mine, theirs)
            with pytest.raises(ValueError, match="read-only"):
                mine[0] = 1
        assert kernel.total_volume == sum(a.volume for a in g.arcs)


CUBE_SYMMETRIES = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def apply_symmetry(tile, n, perm, signs):
    xyz = list(tile_coords(tile, n))
    out = []
    for axis in range(3):
        v = xyz[perm[axis]]
        out.append(v if signs[axis] == 1 else n - 1 - v)
    return out[0] * n * n + out[1] * n + out[2]


class TestInvariances:
    @given(st.integers(0, 5_000), st.sampled_from(CUBE_SYMMETRIES))
    @settings(max_examples=60, deadline=None)
    def test_energy_invariant_under_cube_symmetry(self, seed, symmetry):
        g, placement = random_pair(seed)
        mesh = Mesh3D(3)
        perm, signs = symmetry
        moved = {c: apply_symmetry(t, 3, perm, signs) for c, t in placement.items()}
        assert evaluate(g, placement, mesh).total_energy == evaluate(g, moved, mesh).total_energy

    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_edge_deletion_never_increases(self, seed):
        g, placement = random_pair(seed)
        mesh = Mesh3D(3)
        base = evaluate(g, placement, mesh)
        for drop in range(len(g.arcs)):
            kept = g.arcs[:drop] + g.arcs[drop + 1 :]
            smaller = evaluate(TaskGraph(g.n_cores, kept), placement, mesh)
            assert smaller.total_energy <= base.total_energy
            assert smaller.comm_cost <= base.comm_cost
