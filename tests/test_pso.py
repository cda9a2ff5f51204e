import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D, PsoParams, evaluate, generate_random_graph, pso_optimize
from nocmap.harness import exhaustive_oracle
from nocmap.mappers import sequence_map, spiral_order
from nocmap.pso import position_update, repair_permutation, velocity_update
from nocmap.taskgraph import graph_from_arcs


class ForcedRng:
    """Stub generator whose uniform draws always hit the upper bound."""

    def uniform(self, low, high, size):
        return np.full(size, high)


class ZeroRng:
    def uniform(self, low, high, size):
        return np.zeros(size)


class TestVelocityUpdate:
    def test_fixed_point_when_all_agree(self):
        v = velocity_update([2.0], [0.0], [2.0], [2.0], PsoParams(), ForcedRng(), 27)
        assert v[0] == 0.0

    def test_forced_maxima(self):
        v = velocity_update([2.0], [1.0], [4.0], [6.0], PsoParams(), ForcedRng(), 27)
        assert v[0] == pytest.approx(0.721348 + 2.4 + 5.2, abs=1e-12)

    def test_zero_weight_zero_rands(self):
        params = PsoParams(w=0.0)
        v = velocity_update([5.0], [123.0], [9.0], [3.0], params, ZeroRng(), 27)
        assert v[0] == 0.0

    def test_clamped_to_dimension(self):
        v = velocity_update([0.0], [100.0], [3.0], [3.0], PsoParams(), ForcedRng(), 4)
        assert v[0] == 4.0

    def test_swarm_collapses_onto_gbest_under_forced_pull(self):
        # w=0, c1=0, c2=1 with forced-maximum draws moves any particle
        # exactly onto gbest in one step; repair then changes nothing
        d = 6
        params = PsoParams(w=0.0, c1=0.0, c2=1.0)
        gbest = np.array([3, 1, 5, 0, 2, 4])
        positions = np.array([[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
        v = velocity_update(positions, np.zeros((2, d)), positions, gbest, params, ForcedRng(), d)
        moved = position_update(positions, v, d)
        for row in moved:
            assert repair_permutation(row.tolist(), d) == gbest.tolist()


class TestPositionUpdate:
    def test_floor_is_added(self):
        assert position_update([2], [8.321348], 27)[0] == 10

    def test_small_velocity_keeps_position(self):
        assert position_update([5], [0.999], 27)[0] == 5

    def test_clamped_high(self):
        assert position_update([26], [3.5], 27)[0] == 26

    def test_clamped_low(self):
        assert position_update([0], [-2.5], 27)[0] == 0

    def test_negative_floor(self):
        assert position_update([5], [-1.5], 27)[0] == 3


class TestRepair:
    def test_duplicate_filled_with_smallest_unused(self):
        assert repair_permutation([10, 10, 3], 11) == [10, 0, 3]

    def test_identity_on_valid(self):
        assert repair_permutation([2, 0, 1], 3) == [2, 0, 1]

    def test_all_same(self):
        assert repair_permutation([0, 0, 0], 3) == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            repair_permutation([3], 3)

    def test_too_long(self):
        with pytest.raises(ValueError):
            repair_permutation([0, 1, 2, 0], 3)

    @given(st.integers(1, 30).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.integers(0, d - 1), min_size=1, max_size=d))
    ))
    @settings(max_examples=120)
    def test_repair_properties(self, case):
        d, raw = case
        fixed = repair_permutation(raw, d)
        assert len(fixed) == len(raw)
        assert len(set(fixed)) == len(fixed)
        assert all(0 <= v < d for v in fixed)
        assert repair_permutation(fixed, d) == fixed
        # first occurrences survive
        seen = set()
        for i, v in enumerate(raw):
            if v not in seen:
                assert fixed[i] == v
                seen.add(v)


class TestOptimize:
    def test_single_core(self, mesh2):
        g = generate_random_graph(1, 0, seed=0)
        res = pso_optimize(g, mesh2, PsoParams(max_evals_per_simulation=400))
        assert res.fitness == 0.0
        assert set(res.mapping) == {0}

    def test_trace_monotone_and_budget(self, g1, mesh2):
        params = PsoParams(seed=3, max_evals_per_simulation=5_000)
        res = pso_optimize(g1, mesh2, params)
        values = [v for _, _, v in res.trace]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert res.trace[-1][1] <= 5_000
        assert res.trace[0][1] == params.swarm_size

    def test_deterministic(self, g1, mesh2):
        params = PsoParams(seed=11, max_evals_per_simulation=3_000)
        first = pso_optimize(g1, mesh2, params)
        second = pso_optimize(g1, mesh2, params)
        assert first.trace == second.trace
        assert first.mapping == second.mapping

    def test_mapping_matches_reported_fitness(self, g1, mesh2):
        res = pso_optimize(g1, mesh2, PsoParams(seed=2, max_evals_per_simulation=3_000))
        assert evaluate(g1, res.mapping, mesh2).total_energy == res.fitness

    def test_finds_small_optimum(self, g1, mesh2):
        opt, _ = exhaustive_oracle(g1, mesh2, "energy")
        res = pso_optimize(g1, mesh2, PsoParams(seed=0, max_evals_per_simulation=20_000))
        assert res.fitness == opt

    def test_seeded_never_worse(self, mesh3):
        g = generate_random_graph(10, 20, seed=4)
        seed_map = sequence_map(g, mesh3, spiral_order(mesh3))
        seed_fitness = evaluate(g, seed_map, mesh3).total_energy
        res = pso_optimize(
            g, mesh3, PsoParams(seed=1, max_evals_per_simulation=2_000), seed_mapping=seed_map
        )
        assert res.fitness <= seed_fitness

    def test_full_capacity_graph(self, mesh2):
        g = generate_random_graph(8, 14, seed=6)
        res = pso_optimize(g, mesh2, PsoParams(seed=0, max_evals_per_simulation=2_000))
        assert sorted(res.mapping.values()) == list(range(8))

    def test_cost_objective_is_integral(self, g1, mesh2):
        res = pso_optimize(
            g1, mesh2, PsoParams(seed=5, max_evals_per_simulation=2_000), objective="cost"
        )
        assert isinstance(res.fitness, int)

    def test_multiple_simulations_pick_best(self, g1, mesh2):
        params = PsoParams(seed=7, max_evals_per_simulation=1_000)
        single = pso_optimize(g1, mesh2, params)
        multi = pso_optimize(g1, mesh2, params, simulations=3)
        assert multi.fitness <= single.fitness

    def test_validation(self, g1, mesh2):
        with pytest.raises(ValueError, match="simulations"):
            pso_optimize(g1, mesh2, simulations=101)
        with pytest.raises(ValueError, match="budget"):
            pso_optimize(g1, mesh2, PsoParams(swarm_size=50, max_evals_per_simulation=10))
        with pytest.raises(ValueError, match="objective"):
            pso_optimize(g1, mesh2, objective="makespan")
        big = generate_random_graph(9, 0, seed=0)
        with pytest.raises(ValueError, match="exceed"):
            pso_optimize(big, Mesh3D(2))

    def test_large_mesh_runs_in_small_memory(self):
        # 64,000 tiles: a dense tile-to-tile hop table would need 30 GiB
        mesh = Mesh3D(40)
        g = graph_from_arcs(2, [(0, 1, 100, 10)])
        res = pso_optimize(g, mesh, PsoParams(swarm_size=2, max_evals_per_simulation=4))
        assert [evals for _, evals, _ in res.trace] == [2, 4]
        assert res.fitness == evaluate(g, res.mapping, mesh).total_energy

    def test_bad_seed_mapping(self, g1, mesh2):
        with pytest.raises(ValueError, match="injective"):
            pso_optimize(g1, mesh2, seed_mapping={0: 1, 1: 1, 2: 2, 3: 3})
        with pytest.raises(ValueError, match="misses"):
            pso_optimize(g1, mesh2, seed_mapping={0: 1})

    def test_seed_mapping_with_extra_core(self, g1, mesh2):
        seed_map = {0: 0, 1: 1, 2: 2, 3: 3, 7: 5}
        params = PsoParams(max_evals_per_simulation=400)
        with pytest.raises(ValueError, match="unknown core 7"):
            pso_optimize(g1, mesh2, params, seed_mapping=seed_map)
