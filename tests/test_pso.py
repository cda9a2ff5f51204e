import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D, PsoParams, evaluate, generate_random_graph, pso_optimize
from nocmap import pso
from nocmap.harness import exhaustive_oracle
from nocmap.mappers import ddmap, sequence_map, spiral_order
from nocmap.pso import position_update, repair_permutation, velocity_update
from nocmap.scheduler import cluster_graph, cluster_tasks
from nocmap.taskgraph import graph_from_arcs
from nocmap.topology import hop_table
from oracles import pso_optimize as reference_swarm
from oracles import repair_permutation as scalar_repair
from oracles import velocity_update as float_velocity


class ForcedRng:
    """Stub generator whose draws always hit the upper bound, so each factor is c1 or c2."""

    def random(self, out):
        out.fill(1.0)
        return out


class ZeroRng:
    def random(self, out):
        out.fill(0.0)
        return out


def one_particle(d, *values):
    """Arrays of a one-particle swarm of D = d: one (1, d) array per value, every slot holding it."""
    return [np.full((1, d), value) for value in values]


def stepped(position, velocity, pbest, gbest, params, rng):
    """``velocity`` after one velocity step, which updates it in place."""
    velocity_update(position, velocity, pbest, gbest, params, rng, np.empty((3, *velocity.shape)))
    return velocity


def moved(position, velocity):
    """The moved positions, in a new float array."""
    return position_update(position, velocity, np.empty(np.shape(velocity)))


def repaired(raw):
    """A C-ordered intp copy of the batch ``raw``, repaired in place."""
    tiles = np.array(raw, dtype=np.intp)
    repair_permutation(tiles, pso._repair_scratch(*tiles.shape))
    return tiles


class TestVelocityUpdate:
    # arrays are (position, velocity, pbest, gbest)
    def test_fixed_point_when_all_agree(self):
        v = stepped(*one_particle(27, 2, 0.0, 2, 2), PsoParams(), ForcedRng())
        assert (v == 0.0).all()

    def test_forced_maxima(self):
        v = stepped(*one_particle(27, 2, 1.0, 4, 6), PsoParams(), ForcedRng())
        assert v == pytest.approx(np.full((1, 27), 0.721348 + 2.4 + 5.2), abs=1e-12)

    def test_zero_weight_zero_rands(self):
        v = stepped(*one_particle(27, 5, 123.0, 9, 3), PsoParams(w=0.0), ZeroRng())
        assert (v == 0.0).all()

    def test_clamped_to_dimension(self):
        # D is the row length: 0.721348*100 + 1.2*3 + 1.3*3 is clamped to D = 4
        v = stepped(*one_particle(4, 0, 100.0, 3, 3), PsoParams(), ForcedRng())
        assert (v == 4.0).all()

    def test_swarm_collapses_onto_gbest_under_forced_pull(self):
        # w=0, c1=0, c2=1 with forced-maximum draws moves any particle
        # exactly onto gbest in one step; repair then changes nothing
        d = 6
        params = PsoParams(w=0.0, c1=0.0, c2=1.0)
        gbest = np.array([3, 1, 5, 0, 2, 4])
        positions = np.array([[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
        v = stepped(positions, np.zeros((2, d)), positions, gbest, params, ForcedRng())
        assert repaired(moved(positions, v)).tolist() == [gbest.tolist()] * 2

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_float_formula(self, data):
        # bit for bit, on a swarm of one or five particles with a broadcast gbest
        d = data.draw(st.integers(1, 40))
        shape = data.draw(st.sampled_from([(1, d), (5, d)]))
        size = int(np.prod(shape))

        def draw(elements, count):
            return np.array(data.draw(st.lists(elements, min_size=count, max_size=count)))

        tiles = st.integers(0, d - 1)
        position, pbest = draw(tiles, size).reshape(shape), draw(tiles, size).reshape(shape)
        gbest = draw(tiles, d)
        velocity = draw(st.floats(-d, d), size).reshape(shape)
        constant = st.floats(0, 3)
        params = PsoParams(c1=data.draw(constant), c2=data.draw(constant), w=data.draw(constant))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        fast = stepped(position, velocity.copy(), pbest, gbest, params, np.random.default_rng(seed))
        slow = float_velocity(position, velocity, pbest, gbest, params, np.random.default_rng(seed), d)
        assert fast.shape == slow.shape == shape
        assert np.array_equal(fast.view(np.int64), slow.view(np.int64))


class TestPositionUpdate:
    def test_floor_is_added(self):
        assert (moved(*one_particle(27, 2, 8.321348)) == 10).all()

    def test_small_velocity_keeps_position(self):
        assert (moved(*one_particle(27, 5, 0.999)) == 5).all()

    def test_clamped_high(self):
        assert (moved(*one_particle(27, 26, 3.5)) == 26).all()

    def test_clamped_low(self):
        assert (moved(*one_particle(27, 0, -2.5)) == 0).all()

    def test_negative_floor(self):
        assert (moved(*one_particle(27, 5, -1.5)) == 3).all()


class TestRepair:
    def test_duplicate_filled_with_smallest_unused(self):
        # D = 11: the second 10 takes 0, the one value the row is missing
        raw = [[10, 10, 3, 1, 2, 4, 5, 6, 7, 8, 9]]
        assert repaired(raw).tolist() == [[10, 0, 3, 1, 2, 4, 5, 6, 7, 8, 9]]

    def test_identity_on_valid(self):
        assert repaired([[2, 0, 1]]).tolist() == [[2, 0, 1]]

    def test_all_same(self):
        assert repaired([[0, 0, 0]]).tolist() == [[0, 1, 2]]

    @given(st.integers(1, 30).flatmap(
        lambda d: st.lists(st.integers(0, d - 1), min_size=d, max_size=d)
    ))
    @settings(max_examples=120)
    def test_repair_properties(self, raw):
        d = len(raw)
        fixed = repaired([raw])[0]
        assert len(fixed) == len(raw)
        assert len(set(fixed)) == len(fixed)
        assert all(0 <= v < d for v in fixed)
        assert repaired([fixed]).tolist() == [fixed.tolist()]
        # first occurrences survive
        seen = set()
        for i, v in enumerate(raw):
            if v not in seen:
                assert fixed[i] == v
                seen.add(v)

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_scalar_reference(self, data):
        # values from [0, hi) with hi <= d make duplicates common
        d = data.draw(st.integers(1, 64))
        hi = data.draw(st.integers(1, d))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, hi - 1), min_size=d, max_size=d), min_size=1, max_size=8
        ))
        batch = np.array(rows, dtype=np.intp)
        work = pso._repair_scratch(*batch.shape)
        repair_permutation(batch, work)
        assert batch.tolist() == [scalar_repair(row, d) for row in rows]
        # the work arrays carry nothing over: the swarm reuses them every step
        repair_permutation(batch, work)
        assert batch.tolist() == [scalar_repair(row, d) for row in rows]

    def test_matches_scalar_reference_at_bench_shape(self):
        # the swarm shape of a 100-core graph on a 5x5x5 mesh: 200 rows, D = 125
        d = 125
        rng = np.random.default_rng(7)
        positions = np.array([rng.permutation(d) for _ in range(200)])
        raw = moved(positions, rng.uniform(-8.0, 8.0, positions.shape)).astype(np.intp)
        assert all(len(set(row)) < d for row in raw.tolist())  # every row needs repair
        assert repaired(raw).tolist() == [scalar_repair(row, d) for row in raw.tolist()]

    @pytest.mark.parametrize("layout", ["fortran", "column-slice"])
    def test_non_contiguous_batch_refused(self, layout):
        # its flat view would be a copy, so a repair would leave the batch as it was
        rows = [[0, 0, 1], [2, 2, 2]]
        if layout == "fortran":
            batch = np.asfortranarray(np.array(rows, dtype=np.intp))
        else:
            batch = np.array([row + [0] for row in rows], dtype=np.intp)[:, :3]
        with pytest.raises(ValueError, match="^expected a C-contiguous batch$"):
            repair_permutation(batch, pso._repair_scratch(2, 3))
        assert batch.tolist() == rows


class TestParams:
    @pytest.mark.parametrize("field", ["c1", "c2", "w"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -5.0])
    def test_bad_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            PsoParams(**{field: value})

    @pytest.mark.parametrize("field", ["c1", "c2", "w"])
    @pytest.mark.parametrize("value", [None, "1", 1j, True, False, np.True_])
    def test_non_numeric_constant_named(self, field, value):
        # a bool used to pass as 1 or 0
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            PsoParams(**{field: value})

    @pytest.mark.parametrize("kind", [np.float32, np.float64])
    def test_numpy_constants_are_kept_as_floats(self, kind):
        values = dict(c1=kind(1.2), c2=kind(1.3), w=kind(0.721348))
        params = PsoParams(**values)
        assert params == PsoParams(**{k: float(v) for k, v in values.items()})
        assert {type(v) for v in (params.c1, params.c2, params.w)} == {float}

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            PsoParams(seed=-1)

    def test_swarm_checked_at_construction(self):
        with pytest.raises(ValueError, match="swarm size"):
            PsoParams(swarm_size=0)
        with pytest.raises(ValueError, match="budget"):
            PsoParams(swarm_size=50, max_evals_per_simulation=10)

    @pytest.mark.parametrize("field, value", [
        ("max_evals_per_simulation", 1000.5),
        ("max_evals_per_simulation", "1000"),
        ("swarm_size", 2.5),
        ("swarm_size", True),
        ("seed", 1.5),
        ("seed", True),
        ("seed", np.float64(2.0)),
    ])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            PsoParams(**{field: value})

    def test_numpy_integers_accepted(self, g1, mesh2):
        params = PsoParams(swarm_size=np.int64(5), max_evals_per_simulation=np.int32(50),
                           seed=np.uint8(3))
        plain = PsoParams(swarm_size=5, max_evals_per_simulation=50, seed=3)
        assert pso_optimize(g1, mesh2, params) == pso_optimize(g1, mesh2, plain)


# pso_optimize results as (tiles in core order, fitness, gbest after each swarm
# pass), recorded with the scalar repair of tests/oracles.py run once per
# particle; the whole-swarm repair must reproduce them exactly.  The ddmap seed
# is never beaten at this budget, so "random125" pins a moving gbest at D = 125.
GOLDEN = {
    "spiral27": (
        [13, 4, 12, 11, 2, 5, 3, 19, 1, 26, 15, 6, 7, 14, 8],
        21138.752,
        [22101.180999999997, 22101.180999999997, 22101.180999999997, 21811.646, 21811.646,
         21811.646, 21811.646, 21811.646, 21811.646, 21811.646, 21811.646, 21811.646,
         21138.752, 21138.752, 21138.752],
    ),
    "ddmap125": (
        [25, 43, 117, 123, 48, 38, 58, 77, 80, 85, 29, 106, 55, 92, 50, 101, 64, 67, 46, 33,
         40, 63, 91, 94, 82, 44, 37, 109, 1, 6, 61, 73, 74, 31, 32, 78, 47, 86, 75, 66, 79,
         70, 93, 56, 88, 53, 105, 90, 9, 49, 114, 76, 68, 69, 83, 103, 36, 51, 35, 19, 62,
         97, 41, 57, 27, 2, 28, 111, 122, 116, 98, 81, 96, 52, 87, 30, 45, 124, 113, 119,
         108, 89, 60, 71, 54, 112, 84, 26, 72, 99, 42, 107, 102, 104, 59, 118, 39, 65, 95,
         34],
        179021.767,
        [179021.767, 179021.767, 179021.767, 179021.767, 179021.767, 179021.767, 179021.767,
         179021.767, 179021.767, 179021.767],
    ),
    "random125": (
        [67, 91, 53, 99, 92, 30, 7, 14, 39, 17, 13, 100, 55, 81, 34, 63, 9, 56, 36, 28, 40,
         76, 71, 62, 50, 10, 89, 18, 74, 93, 84, 59, 47, 66, 21, 22, 20, 78, 23, 107, 15, 4,
         61, 77, 52, 5, 105, 85, 101, 86, 82, 42, 38, 25, 3, 120, 26, 124, 69, 70, 2, 1, 73,
         16, 0, 79, 37, 111, 72, 45, 51, 44, 65, 33, 6, 88, 80, 87, 32, 31, 68, 75, 24, 19,
         57, 35, 29, 41, 27, 83, 43, 90, 46, 54, 12, 48, 8, 11, 64, 58],
        312719.501,
        [331581.05700000003, 327794.37899999996, 320303.85199999996, 320303.85199999996,
         320303.85199999996, 318203.074, 318203.074, 312719.501, 312719.501, 312719.501],
    ),
}


def _golden_run(case: str):
    if case == "spiral27":
        mesh = Mesh3D(3)
        tasks = generate_random_graph(27, 40, seed=300)
        g = cluster_graph(tasks, cluster_tasks(tasks, mesh.tile_count))
        params = PsoParams(seed=0, max_evals_per_simulation=3_000)
        seed_map = sequence_map(g, mesh, spiral_order(mesh))
    else:
        mesh = Mesh3D(5)
        g = generate_random_graph(100, 180, seed=601)
        params = PsoParams(seed=1, max_evals_per_simulation=2_000)
        seed_map = ddmap(g, mesh) if case == "ddmap125" else None
    return pso_optimize(g, mesh, params, seed_mapping=seed_map)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_results(case):
    tiles, fitness, gbest = GOLDEN[case]
    res = _golden_run(case)
    assert [res.mapping[c] for c in sorted(res.mapping)] == tiles
    assert res.fitness == fitness
    assert res.trace == tuple((i, 200 * (i + 1), v) for i, v in enumerate(gbest))


class TestLoopAgainstReference:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_particle_by_particle_loop(self, data):
        # mapping, fitness and trace equal those of oracles.pso_optimize, which
        # moves int64 positions, repairs each row and evaluates each particle
        mesh = Mesh3D(data.draw(st.sampled_from([2, 3])))
        n_cores = data.draw(st.integers(2, min(12, mesh.tile_count)))
        n_arcs = data.draw(st.integers(0, min(30, n_cores * (n_cores - 1))))
        g = generate_random_graph(n_cores, n_arcs, seed=data.draw(st.integers(0, 2 ** 16)))
        swarm = data.draw(st.integers(1, 9))
        constant = st.floats(0, 3)
        params = PsoParams(
            c1=data.draw(constant), c2=data.draw(constant), w=data.draw(constant),
            swarm_size=swarm, max_evals_per_simulation=swarm * data.draw(st.integers(2, 30)),
            seed=data.draw(st.integers(0, 2 ** 32 - 1)),
        )
        objective = data.draw(st.sampled_from(["energy", "cost"]))
        seed_map = None
        if data.draw(st.booleans()):
            tiles = data.draw(st.permutations(range(mesh.tile_count)))
            seed_map = dict(enumerate(tiles[:n_cores]))
        res = pso_optimize(g, mesh, params, objective, seed_mapping=seed_map)
        mapping, fitness, trace = reference_swarm(g, mesh, params, objective, seed_mapping=seed_map)
        assert res.mapping == mapping
        assert res.fitness == fitness and type(res.fitness) is type(fitness)
        assert res.trace == trace


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

    @pytest.mark.parametrize("objective, kind", [("energy", float), ("cost", int)])
    def test_fitness_and_trace_are_python_numbers(self, g1, mesh2, objective, kind):
        # not numpy scalars: numpy 2 reprs them as np.float64(...), and json refuses np.int64
        res = pso_optimize(
            g1, mesh2, PsoParams(seed=5, max_evals_per_simulation=2_000), objective=objective
        )
        assert type(res.fitness) is kind
        assert all(type(gbest) is kind for _, _, gbest in res.trace)

    def test_validation(self, g1, mesh2):
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

    def test_oversize_swarm_refused_before_any_allocation(self):
        # 200 particles on 10^6 tiles: each (200, 10^6) float array alone would take 1.6 GB
        g = graph_from_arcs(2, [(0, 1, 100, 10)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                r"^a swarm of 200 particles on 1000000 tiles needs 23600006600 bytes of "
                r"arrays, more than 268435456$"
            )):
                pso_optimize(g, Mesh3D(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unknown_objective_refused_before_any_allocation(self):
        # 200 particles on 8000 tiles: the swarm's arrays would take about 113 MB
        g = generate_random_graph(100, 180, seed=1)
        params = PsoParams(max_evals_per_simulation=400)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^unknown objective 'bogus'$"):
                pso_optimize(g, Mesh3D(20), params, "bogus")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("objective", ["energy", "cost"])
    def test_peak_memory_within_swarm_budget(self, objective):
        # 200 particles on 8000 tiles, 12.8 MB per (200, 8000) array; the table
        # is rebuilt inside the trace, so it counts as well
        mesh = Mesh3D(20)
        g = generate_random_graph(100, 180, seed=1)
        params = PsoParams(max_evals_per_simulation=400)
        hop_table.cache_clear()
        tracemalloc.start()
        try:
            pso_optimize(g, mesh, params, objective)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = sum(a.nbytes for a in hop_table(mesh))
        assert peak <= pso._swarm_bytes(200, mesh.tile_count, len(g.arcs)) + table

    def test_bad_seed_mapping(self, g1, mesh2):
        with pytest.raises(ValueError, match="seed mapping: tile 1 holds more than one core"):
            pso_optimize(g1, mesh2, seed_mapping={0: 1, 1: 1, 2: 2, 3: 3})
        with pytest.raises(ValueError, match="seed mapping: core 1 is unmapped"):
            pso_optimize(g1, mesh2, seed_mapping={0: 1})

    @pytest.mark.parametrize(
        "seed_map, what",
        [
            ({0: 0, 1: 1, 2: 2}, "core 3 is unmapped"),
            ({0: 0, 1: 1, 2: 2, 3: 2}, "tile 2 holds more than one core"),
            ({0: 0, 1: 1, 2: 2, 3: 8}, "core 3 mapped to invalid tile 8"),
            ({0: -1, 1: 1, 2: 2, 3: 3}, "core 0 mapped to invalid tile -1"),
            ({0: 0, 1: 1, 2: 2, 3: 3, 4: 4}, "unknown core 4"),
            ({0: 0, 1: 1.0, 2: 2, 3: 3}, "tile of core 1 must be an integer, got 1.0"),
            ({0: 0, 1: 1, 2: 2, 3: True}, "tile of core 3 must be an integer, got True"),
            ({0: 0, 1: 1, 2: 2, 3: "3"}, "tile of core 3 must be an integer, got '3'"),
            ({0: 0, 1.0: 1, 2: 2, 3: 3}, "core id must be an integer, got 1.0"),
            ({0: 0, True: 1, 2: 2, 3: 3}, "core id must be an integer, got True"),
            ({0: 0, 1: 1, 2: 2, "3": 3}, "core id must be an integer, got '3'"),
        ],
        ids=["missing-core", "duplicate-tile", "tile-past-mesh", "negative-tile", "unknown-core",
             "float-tile", "bool-tile", "str-tile", "float-core", "bool-core", "str-core"],
    )
    def test_each_seed_fault_names_the_seed_mapping(self, g1, mesh2, seed_map, what):
        params = PsoParams(max_evals_per_simulation=400)
        with pytest.raises(ValueError, match=r"^seed mapping: .*" + re.escape(what)):
            pso_optimize(g1, mesh2, params, seed_mapping=seed_map)

    def test_cost_above_two_to_the_53_compares_exactly(self, mesh2):
        # float64 cannot tell 2^56 + 3 from 2^56 + 5, so float bests would miss improvements
        g = graph_from_arcs(4, [(0, 1, 1, 2 ** 56), (1, 2, 1, 1), (2, 3, 1, 1), (3, 0, 1, 1)])
        optimum, _ = exhaustive_oracle(g, mesh2, "cost")
        assert optimum == 2 ** 56 + 3
        for seed in range(20):
            params = PsoParams(swarm_size=20, max_evals_per_simulation=2_000, seed=seed)
            assert pso_optimize(g, mesh2, params, objective="cost").fitness == optimum

    def test_interleaved_calls_return_what_each_returns_alone(self, monkeypatch):
        # A second swarm and an oracle run inside the first swarm's first step,
        # so an array shared between calls would be overwritten mid-run; the
        # first swarm is small and takes many steps, so that would change its trace.
        first = (generate_random_graph(12, 30, seed=8), Mesh3D(3),
                 PsoParams(swarm_size=5, seed=4, max_evals_per_simulation=1_000))
        second = (generate_random_graph(6, 10, seed=9), Mesh3D(2),
                  PsoParams(swarm_size=30, seed=5, max_evals_per_simulation=900), "cost")
        oracle = (generate_random_graph(4, 6, seed=10), Mesh3D(2))
        alone = pso_optimize(*first), pso_optimize(*second), exhaustive_oracle(*oracle)

        inner = {}
        step = pso.velocity_update

        def interleaving_step(*args, **kwargs):
            if not inner:
                inner["started"] = True  # the second swarm's own steps pass straight through
                inner["results"] = pso_optimize(*second), exhaustive_oracle(*oracle)
            return step(*args, **kwargs)

        monkeypatch.setattr(pso, "velocity_update", interleaving_step)
        outer = pso_optimize(*first)
        assert (outer, *inner["results"]) == alone

    def test_numpy_integer_seed_mapping_accepted(self, g1, mesh2):
        params = PsoParams(max_evals_per_simulation=400)
        plain = pso_optimize(g1, mesh2, params, seed_mapping={0: 3, 1: 0, 2: 6, 3: 5})
        numpy = {np.int64(0): np.int32(3), 1: np.uint8(0), np.int16(2): 6, 3: np.int64(5)}
        assert pso_optimize(g1, mesh2, params, seed_mapping=numpy) == plain

    def test_seed_mapping_with_extra_core(self, g1, mesh2):
        seed_map = {0: 0, 1: 1, 2: 2, 3: 3, 7: 5}
        params = PsoParams(max_evals_per_simulation=400)
        with pytest.raises(ValueError, match="unknown core 7"):
            pso_optimize(g1, mesh2, params, seed_mapping=seed_map)
