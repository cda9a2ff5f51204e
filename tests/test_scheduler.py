import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D, cluster_schedule, ddmap, evaluate, generate_random_graph
from nocmap.harness import RunConfig, run_benchmark
from nocmap.scheduler import ClusterSet, cluster_graph, cluster_tasks, dynamic_schedule
from nocmap.taskgraph import TaskGraph

import oracles


@st.composite
def task_graphs(draw, max_tasks):
    """Sparse graphs (up to two arcs per task) with volumes from 0..hi:
    isolated tasks, zero-volume arcs and many more chains than tiles."""
    n_tasks = draw(st.integers(1, max_tasks))
    n_arcs = draw(st.integers(0, min(2 * n_tasks, n_tasks * (n_tasks - 1))))
    hi = draw(st.sampled_from([0, 1, 5, 1000]))
    seed = draw(st.integers(0, 2 ** 32))
    return generate_random_graph(n_tasks, n_arcs, volume_range=(0, hi), seed=seed)


@st.composite
def tied_graphs(draw, min_tasks, max_tasks):
    """Up to two arcs per task, each weight drawn from a few small values,
    zero included: zero-volume arcs and tied degrees, rankings and partners."""
    n_tasks = draw(st.integers(min_tasks, max_tasks))
    every = [(s, d) for s in range(n_tasks) for d in range(n_tasks) if s != d]
    pairs = draw(st.lists(st.sampled_from(every), max_size=2 * n_tasks, unique=True)) if every else []
    weight = st.sampled_from([0, 1, 1, 2, 5])
    return TaskGraph(n_tasks, [(s, d, draw(weight), draw(weight)) for s, d in pairs])


def assert_valid_schedule(schedule, g, mesh):
    assert set(schedule.placement) == set(range(g.n_cores))
    assert all(0 <= t < mesh.tile_count for t in schedule.placement.values())


def slots(schedule) -> dict[int, list[int]]:
    """Tasks per tile, in the order the schedule assigned them."""
    out: dict[int, list[int]] = {}
    for task, tile in schedule.placement.items():
        out.setdefault(tile, []).append(task)
    return out


class TestDynamic:
    def test_single_round_equals_ddmap(self, g1, mesh3):
        assert dynamic_schedule(g1, mesh3).placement == ddmap(g1, mesh3)

    def test_thirty_tasks_two_rounds(self, mesh3):
        g = generate_random_graph(30, 60, seed=1)
        s = dynamic_schedule(g, mesh3)
        assert_valid_schedule(s, g, mesh3)
        depths = [len(v) for v in slots(s).values()]
        assert max(depths) == 2
        assert sum(depths) == 30
        assert sum(1 for d in depths if d == 2) == 3

    def test_fiftyfour_arc_free_tasks_fill_twice(self, mesh3):
        g = TaskGraph(54, [])
        s = dynamic_schedule(g, mesh3)
        assert sorted(len(v) for v in slots(s).values()) == [2] * 27
        assert len(slots(s)) == 27

    @given(st.integers(1, 70), st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_depth_bound(self, n_tasks, seed):
        mesh = Mesh3D(3)
        g = generate_random_graph(n_tasks, min(40, n_tasks * (n_tasks - 1)), seed=seed)
        s = dynamic_schedule(g, mesh)
        assert_valid_schedule(s, g, mesh)
        bound = -(-n_tasks // 27)  # ceil
        assert max(len(v) for v in slots(s).values()) <= bound

    def test_empty_graph(self, mesh3):
        s = dynamic_schedule(TaskGraph(0, []), mesh3)
        assert s.placement == {}

    @given(st.data(), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_matches_residual_subgraph_oracle(self, data, n):
        # up to three rounds; placements equal in assignment order
        mesh = Mesh3D(n)
        g = data.draw(task_graphs(3 * mesh.tile_count))
        fast, slow = dynamic_schedule(g, mesh), oracles.dynamic_schedule(g, mesh)
        assert list(fast.placement.items()) == list(slow.placement.items())

    @given(tied_graphs(9, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_arc_rescan(self, g):
        # 9-40 tasks on a 2x2x2 mesh take 2-5 rounds; each round's ranking
        # from the arc columns must pick the cohort the Python rescan picks
        mesh = Mesh3D(2)
        fast, slow = dynamic_schedule(g, mesh), oracles.dynamic_schedule_rescan(g, mesh)
        assert list(fast.placement.items()) == list(slow.placement.items())

    def test_matches_oracle_at_benchmark_scale(self):
        # three full rounds of 512 tasks on an 8x8x8 mesh
        g, mesh = generate_random_graph(1536, 2304, seed=2), Mesh3D(8)
        fast, slow = dynamic_schedule(g, mesh), oracles.dynamic_schedule(g, mesh)
        assert list(fast.placement.items()) == list(slow.placement.items())


class TestClusterTasks:
    def test_g1_single_chain(self, g1):
        # chain 0 -(100)-> 1 -(50)-> 3 -(20)-> 2, then 2's arc back to the
        # scheduled core 0 cuts the chain
        cs = cluster_tasks(g1, 27)
        assert cs.clusters == ((0, 1, 3, 2),)

    def test_arc_free_tasks_become_singletons(self):
        g = TaskGraph(5, [])
        cs = cluster_tasks(g, 10)
        assert cs.clusters == ((0,), (1,), (2,), (3,), (4,))

    def test_chain_prefers_heavier_partner(self):
        g = TaskGraph(3, [(0, 1, 10, 1), (0, 2, 90, 1)])
        cs = cluster_tasks(g, 10)
        assert cs.clusters[0][:2] == (0, 2)

    def test_tie_breaks_to_lower_id(self):
        g = TaskGraph(3, [(0, 1, 50, 1), (0, 2, 50, 1)])
        cs = cluster_tasks(g, 10)
        assert cs.clusters[0][:2] == (0, 1)

    def test_merging_respects_cap(self):
        # three disjoint pairs form three singleton chains' worth of clusters
        g = TaskGraph(6, [(0, 1, 10, 1), (2, 3, 10, 1), (4, 5, 10, 1)])
        uncapped = cluster_tasks(g, 10)
        assert uncapped.clusters == ((0, 1), (2, 3), (4, 5))
        capped = cluster_tasks(g, 2)
        assert len(capped.clusters) == 2

    def test_merge_targets_heaviest_exchange(self):
        # three chains form: (0,1) runs out of partners, (2,3) and (4,5) are
        # cut by loop-backs; the surplus (4,5) exchanges 99 with (2,3) and 0
        # with (0,1), so capping at two merges it into the second cluster
        arcs = [
            (0, 1, 100, 1),
            (0, 2, 10, 1),
            (3, 0, 5, 1),
            (2, 3, 100, 1),
            (4, 5, 100, 1),
            (5, 3, 99, 1),
        ]
        g = TaskGraph(6, arcs)
        free = cluster_tasks(g, 27)
        assert free.clusters == ((0, 1), (2, 3), (4, 5))
        capped = cluster_tasks(g, 2)
        assert capped.clusters == ((0, 1), (2, 3, 4, 5))

    @given(st.integers(2, 30), st.integers(0, 60), st.integers(0, 500), st.integers(1, 27))
    @settings(max_examples=60, deadline=None)
    def test_partition_and_cap(self, n_tasks, n_arcs, seed, cap):
        g = generate_random_graph(n_tasks, min(n_arcs, n_tasks * (n_tasks - 1)), seed=seed)
        cs = cluster_tasks(g, cap)
        flat = [t for c in cs.clusters for t in c]
        assert sorted(flat) == list(range(n_tasks))
        assert len(cs.clusters) <= cap

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_all_pairs_oracle(self, data):
        # caps below the chain count make the surplus merge run
        g = data.draw(task_graphs(100))
        cap = data.draw(st.integers(1, g.n_cores + 1))
        assert cluster_tasks(g, cap) == oracles.cluster_tasks(g, cap)

    def test_zero_exchange_surplus_goes_to_first_cluster(self):
        # chains (0,1), (2,3) (cut: 3 also talks to 0) and (4,); the surplus
        # (4,) has only a zero-volume arc, into the second chain, so its
        # exchange is 0 with both and the merge picks cluster 0
        g = TaskGraph(5, [(0, 1, 5, 1), (2, 3, 7, 1), (3, 0, 1, 1), (4, 3, 0, 1)])
        assert cluster_tasks(g, 3).clusters == ((0, 1), (2, 3), (4,))
        assert cluster_tasks(g, 2).clusters == ((0, 1, 4), (2, 3))
        assert cluster_tasks(g, 2) == oracles.cluster_tasks(g, 2)

    @pytest.mark.parametrize("limit", [2.5, True, False, np.float64(2.0), "2", None])
    def test_limit_must_be_an_integer(self, limit):
        # five arc-free tasks make five chains, more than any limit here
        g = TaskGraph(5, [])
        with pytest.raises(ValueError, match=f"^cluster limit must be an integer, got {re.escape(repr(limit))}$"):
            cluster_tasks(g, limit)

    def test_numpy_integer_limit_accepted(self):
        g = TaskGraph(5, [(0, 1, 5, 1), (2, 3, 7, 1)])
        assert cluster_tasks(g, np.int64(2)) == cluster_tasks(g, 2)

    def test_invalid_partition_rejected(self):
        # a ClusterSet is checked by cluster_graph, which knows the task count
        g = TaskGraph(3, [(0, 1, 5, 1)])
        with pytest.raises(ValueError, match="^task id 1 appears more than once$"):
            cluster_graph(g, ClusterSet(((0, 1), (1, 2))))
        with pytest.raises(ValueError, match="^task id 1 appears more than once$"):
            cluster_graph(g, ClusterSet(((0, 1, 1), (2,))))
        with pytest.raises(ValueError, match="^cluster set does not cover this graph$"):
            cluster_graph(g, ClusterSet(((0,), (2,))))
        with pytest.raises(ValueError, match="^empty cluster$"):
            cluster_graph(g, ClusterSet(((0, 1), (), (2,))))

    @pytest.mark.parametrize("clusters, member", [
        (((True, 0), (2,)), True),  # was accepted, and cluster_graph read True as task 1
        (((0.0, 1), (2,)), 0.0),  # was accepted, and cluster_graph failed with a bare TypeError
        (((0, 1), (np.float64(2.0),)), np.float64(2.0)),
        (((0, "1"), (2,)), "1"),
    ], ids=repr)
    def test_non_integer_task_refused(self, clusters, member):
        g = TaskGraph(3, [(0, 1, 5, 1)])
        with pytest.raises(ValueError, match=f"^task id must be an integer, got {re.escape(repr(member))}$"):
            cluster_graph(g, ClusterSet(clusters))

    def test_numpy_integer_tasks_accepted(self, g1):
        cs = ClusterSet(((np.int64(0), np.int32(1)), (np.uint8(2), 3)))
        assert cs == ClusterSet(((0, 1), (2, 3)))
        assert cluster_graph(g1, cs) == cluster_graph(g1, ClusterSet(((0, 1), (2, 3))))


class TestClusterGraph:
    def test_g1_two_clusters(self, g1):
        cs = ClusterSet(((0, 1), (2, 3)))
        cg = cluster_graph(g1, cs)
        assert cg.n_cores == 2
        assert len(cg.arcs) == 1
        arc = cg.arcs[0]
        assert (arc.src, arc.dst, arc.volume, arc.bandwidth) == (0, 1, 120, 12)

    def test_single_cluster_drops_everything(self, g1):
        cg = cluster_graph(g1, ClusterSet(((0, 1, 2, 3),)))
        assert cg.n_cores == 1 and cg.arcs == ()

    def test_singletons_preserve_graph(self, g1):
        cs = ClusterSet(((0,), (1,), (2,), (3,)))
        cg = cluster_graph(g1, cs)
        assert sorted((a.src, a.dst, a.volume, a.bandwidth) for a in cg.arcs) == sorted(
            (a.src, a.dst, a.volume, a.bandwidth) for a in g1.arcs
        )

    def test_mismatched_cover_rejected(self, g1):
        with pytest.raises(ValueError, match="^cluster set does not cover this graph$"):
            cluster_graph(g1, ClusterSet(((0, 1),)))
        with pytest.raises(ValueError, match=r"^task id 4 out of range 0\.\.3$"):
            cluster_graph(g1, ClusterSet(((0, 1), (2, 3, 4))))
        with pytest.raises(ValueError, match=r"^task id -1 out of range 0\.\.3$"):
            cluster_graph(g1, ClusterSet(((0, 1), (2, -1))))

    @given(tied_graphs(1, 40), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_two_dict_aggregation(self, g, cap):
        # same chains as the candidate-list form, and the same cluster graph,
        # arc order included: cluster_tasks's set passes cluster_graph's check
        cs = cluster_tasks(g, cap)
        assert cs == oracles.cluster_tasks_candidates(g, cap)
        assert cluster_graph(g, cs) == oracles.cluster_graph_pairs(g, cs)


class TestClusterSchedule:
    def test_g1_all_on_center(self, g1, mesh3):
        s = cluster_schedule(g1, mesh3)
        assert set(s.placement.values()) == {13}
        assert evaluate(g1, s.placement, mesh3).total_energy == 0.0
        assert slots(s)[13] == [0, 1, 3, 2]  # chain order preserved in the slot

    def test_singleton_clusters_match_ddmap(self, mesh3):
        g = TaskGraph(4, [])
        s = cluster_schedule(g, mesh3)
        assert s.placement == ddmap(g, mesh3)

    def test_matches_oracle_at_benchmark_scale(self):
        # the benchmark's 3000-task schedule graph: its chains merge into a
        # cluster graph that fills the 10x10x10 mesh, so late searches skip
        # full layers by their counts
        g, mesh = generate_random_graph(3000, 4500, seed=1), Mesh3D(10)
        cs = oracles.cluster_tasks(g, mesh.tile_count)
        cluster_map = oracles.ddmap(cluster_graph(g, cs), mesh)
        assert len(cs.clusters) == mesh.tile_count
        want = [(task, cluster_map[i]) for i, cluster in enumerate(cs.clusters) for task in cluster]
        assert list(cluster_schedule(g, mesh).placement.items()) == want

    @given(tied_graphs(9, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_arc_forms(self, g):
        mesh = Mesh3D(2)
        fast, slow = cluster_schedule(g, mesh), oracles.cluster_schedule_pairs(g, mesh)
        assert list(fast.placement.items()) == list(slow.placement.items())

    def test_choice_of_mapper(self, mesh3):
        g = generate_random_graph(20, 30, seed=9)
        for mapper in ("ddmap", "spiral", "crinkle"):
            s = cluster_schedule(g, mesh3, mapper)
            assert_valid_schedule(s, g, mesh3)

    @given(st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_energy_decomposition_identity(self, seed):
        mesh = Mesh3D(3)
        g = generate_random_graph(20, 35, seed=seed)
        cs = cluster_tasks(g, mesh.tile_count)
        cg = cluster_graph(g, cs)
        cluster_map = ddmap(cg, mesh)
        task_level = cluster_schedule(g, mesh).placement
        cluster_level = evaluate(cg, cluster_map, mesh)
        assert evaluate(g, task_level, mesh).total_energy == cluster_level.total_energy


class TestOverflowingWeights:
    @pytest.mark.parametrize("schedule", [dynamic_schedule, cluster_schedule])
    @pytest.mark.parametrize(
        "arcs, name",
        [
            ([(0, 1, 2 ** 63, 1)], "volume"),
            ([(0, 1, 1, 2 ** 63)], "bandwidth"),
            ([(0, 1, 2 ** 62, 1), (1, 2, 2 ** 62, 1)], "volume"),
            ([(0, 1, 1, 2 ** 62), (2, 1, 1, 2 ** 62)], "bandwidth"),
        ],
    )
    def test_refused_by_name(self, schedule, arcs, name, tmp_path):
        # these used to schedule; a sum that does not fit int64 must not wrap, so such a
        # graph is refused when it is built or read and no scheduler is handed one
        message = f"^total arc {name} {2 ** 63} does not fit int64$"
        with pytest.raises(ValueError, match=message):
            TaskGraph(3, arcs)
        path = tmp_path / "big.ctg"
        path.write_text("cores 3\n" + "".join(f"edge {s} {d} {v} {b}\n" for s, d, v, b in arcs))
        mode = {dynamic_schedule: "dynamic", cluster_schedule: "cluster"}[schedule]
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message[1:]}"):
            run_benchmark(RunConfig(graph=path, mode=mode))

    @pytest.mark.parametrize("schedule", [dynamic_schedule, cluster_schedule])
    def test_largest_totals_schedule(self, schedule, mesh3):
        top = 2 ** 63 - 1
        g = TaskGraph(3, [(0, 1, top - 5, top - 7), (1, 2, 5, 7)])
        assert_valid_schedule(schedule(g, mesh3), g, mesh3)
