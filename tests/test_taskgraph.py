import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D, PsoParams, evaluate, generate_random_graph, pso_optimize, taskgraph
from nocmap.mappers import MAPPERS, ddmap
from nocmap.scheduler import ClusterSet, cluster_graph, cluster_schedule, cluster_tasks, dynamic_schedule
from nocmap.taskgraph import (
    Arc,
    GraphFormatError,
    TaskGraph,
    graph_from_arcs,
    induced_subgraph,
    parse_graph,
    priority_order,
    serialize_graph,
)

import oracles
from oracles import volume_matrix


graph_params = st.tuples(st.integers(2, 12), st.integers(0, 20), st.integers(0, 10_000))


def draw_graph(params):
    n_cores, n_arcs, seed = params
    return generate_random_graph(n_cores, min(n_arcs, n_cores * (n_cores - 1)), seed=seed)


class TestParse:
    def test_minimal_edge(self):
        g = parse_graph("cores 2\nedge 0 1 100 10")
        assert g.n_cores == 2
        assert len(g.arcs) == 1
        assert (g.arcs[0].volume, g.arcs[0].bandwidth) == (100, 10)

    def test_no_arcs(self):
        g = parse_graph("cores 1")
        assert g.n_cores == 1
        assert g.arcs == ()

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            parse_graph("cores 2\nedge 0 0 5 1")

    def test_comments_and_blanks(self):
        text = "# header\n\ncores 2  # two cores\nedge 0 1 5 1 # arc\n"
        g = parse_graph(text)
        assert g.n_cores == 2 and len(g.arcs) == 1

    @pytest.mark.parametrize(
        "text, line_no, what",
        [
            ("cores 2\nedge 0 1 5", 2, "expected 'edge"),
            ("cores 2\nedge 0 5 5 1", 2, "out of range"),
            ("cores 2\nedge 0 1 5 1\nedge 0 1 7 2", 3, "duplicate"),
            ("cores 2\nedge 0 1 -5 1", 2, "negative"),
            ("cores x", 1, "not an integer"),
            ("edge 0 1 5 1", 1, "header"),
            ("", 1, "missing"),
            ("cores 2\nnode 0", 2, "unknown directive"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no, what):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.line_no == line_no
        assert f"line {line_no}" in str(err.value)
        assert what in str(err.value)

    def test_syntax_fault_reported_before_arc_fault(self):
        # every line's syntax is checked before the arcs, so the later line wins
        with pytest.raises(GraphFormatError, match="^line 3: unknown directive 'node'$"):
            parse_graph("cores 2\nedge 0 0 5 1\nnode 3")

    def test_each_arc_checked_once(self, monkeypatch):
        calls = []
        check = taskgraph._check_arc
        monkeypatch.setattr(taskgraph, "_check_arc", lambda *args: calls.append(1) or check(*args))
        g = parse_graph("cores 3\nedge 0 1 5 1\nedge 1 2 6 1\nedge 2 0 7 1\n")
        assert len(g.arcs) == 3 and len(calls) == 3

    @given(graph_params)
    @settings(max_examples=60)
    def test_serialize_round_trip(self, params):
        g = draw_graph(params)
        back = parse_graph(serialize_graph(g))
        assert back.n_cores == g.n_cores
        assert sorted(back.arcs, key=lambda a: (a.src, a.dst)) == sorted(
            g.arcs, key=lambda a: (a.src, a.dst)
        )


def priority_keys(g):
    """Per core: the out-degree and the volume in and out that ``priority_order`` sorts by."""
    degs, ranks = taskgraph._traffic(g.n_cores, g.arc_columns[:2], g.arc_columns[2])
    return degs.tolist(), ranks.tolist()


def oracle_keys(g):
    """``priority_keys`` from the arc list and ``volume_matrix``."""
    vol = volume_matrix(g)
    degs = [0] * g.n_cores
    for a in g.arcs:
        degs[a.src] += 1
    return degs, [sum(vol[c][j] + vol[j][c] for j in range(g.n_cores) if j != c) for c in range(g.n_cores)]


class TestOrderingMetrics:
    def test_out_degree_g1(self, g1):
        degs, _ = priority_keys(g1)
        assert degs[0] == 2
        assert degs[1] == 1
        assert degs[3] == 0

    def test_ranking_g1(self, g1):
        _, ranks = priority_keys(g1)
        assert ranks[0] == 170
        assert ranks[3] == 70

    def test_ranking_isolated(self):
        g = graph_from_arcs(3, [(0, 1, 5, 1)])
        assert priority_keys(g) == ([1, 0, 0], [5, 5, 0])

    @given(graph_params)
    @settings(max_examples=60)
    def test_ranking_matches_matrix_sum(self, params):
        g = draw_graph(params)
        assert priority_keys(g) == oracle_keys(g)

    def test_priority_g1(self, g1):
        assert priority_order(g1) == [0, 1, 2, 3]

    def test_priority_no_arcs(self):
        assert priority_order(graph_from_arcs(3, [])) == [0, 1, 2]

    def test_priority_single_arc(self):
        assert priority_order(graph_from_arcs(2, [(0, 1, 5, 1)])) == [0, 1]

    def test_priority_empty_graph(self):
        with pytest.raises(ValueError):
            priority_order(graph_from_arcs(0, []))

    @given(graph_params)
    @settings(max_examples=60)
    def test_priority_is_sorted_permutation(self, params):
        g = draw_graph(params)
        order = priority_order(g)
        assert sorted(order) == list(range(g.n_cores))
        degs, ranks = oracle_keys(g)
        keys = [(degs[c], ranks[c], -c) for c in order]
        assert all(keys[i] >= keys[i + 1] for i in range(len(keys) - 1))
        assert order == oracles.residual_order(g, [True] * g.n_cores)


class TestGenerate:
    def test_no_arcs(self):
        g = generate_random_graph(4, 0, seed=7)
        assert g.n_cores == 4 and g.arcs == ()

    def test_deterministic(self):
        a = generate_random_graph(8, 12, seed=3)
        b = generate_random_graph(8, 12, seed=3)
        assert a == b

    def test_distinct_seeds_differ(self):
        assert generate_random_graph(8, 12, seed=3) != generate_random_graph(8, 12, seed=4)

    def test_infeasible_arc_count(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_random_graph(3, 7)

    @pytest.mark.parametrize(
        "n_cores, n_arcs, seed",
        [(1, 0, 0), (2, 2, 1), (3, 6, 2), (27, 40, 300), (30, 100, 3), (200, 500, 4), (50, 2450, 5)],
    )
    def test_same_graphs_as_all_pairs_sampler(self, n_cores, n_arcs, seed):
        want = oracles.generate_random_graph(n_cores, n_arcs, seed=seed)
        assert generate_random_graph(n_cores, n_arcs, seed=seed) == want

    def test_many_cores_few_arcs_is_cheap(self):
        # listing all n(n-1) ordered pairs would take ~1e10 tuples here
        tracemalloc.start()
        try:
            g = generate_random_graph(100_000, 10, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_cores == 100_000 and len({(a.src, a.dst) for a in g.arcs}) == 10
        assert peak < 1_000_000

    def test_weights_within_ranges(self):
        g = generate_random_graph(27, 40, (10, 1000), (1, 100), seed=42)
        assert g.n_cores == 27 and len(g.arcs) == 40
        pairs = {(a.src, a.dst) for a in g.arcs}
        assert len(pairs) == 40
        assert all(a.src != a.dst for a in g.arcs)
        assert all(10 <= a.volume <= 1000 and 1 <= a.bandwidth <= 100 for a in g.arcs)


class TestTaskGraph:
    def test_negative_core_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TaskGraph(-1, ())

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: TaskGraph(2.5, ()), "2.5"),
            (lambda: TaskGraph(3.0, ()), "3.0"),
            (lambda: TaskGraph(True, ()), "True"),
            (lambda: graph_from_arcs(2.5, []), "2.5"),
        ],
    )
    def test_non_integer_core_count_refused(self, build, shown):
        # a float count used to fail later, inside numpy, and True was taken as one core
        with pytest.raises(ValueError, match=f"^core count must be an integer, got {re.escape(shown)}$"):
            build()

    def test_numpy_integer_core_count_accepted(self):
        g = graph_from_arcs(np.int64(2), [(0, 1, 3, 2)])
        assert g == graph_from_arcs(2, [(0, 1, 3, 2)])
        assert ddmap(g, Mesh3D(2)) == ddmap(graph_from_arcs(2, [(0, 1, 3, 2)]), Mesh3D(2))

    def test_fields_are_count_and_arcs(self, g1):
        assert [f.name for f in dataclasses.fields(TaskGraph)] == ["n_cores", "arcs"]
        assert g1 == TaskGraph(4, g1.arcs)

    def test_arc_columns_are_the_arcs_read_only(self, g1):
        columns = g1.arc_columns
        assert columns.dtype == np.int64
        assert columns.tolist() == [[a.src for a in g1.arcs], [a.dst for a in g1.arcs],
                                    [a.volume for a in g1.arcs], [a.bandwidth for a in g1.arcs]]
        assert g1.arc_columns is columns  # built once, shared by every caller
        for write in (lambda: columns.__setitem__((2, 0), 0), lambda: columns[3].fill(0),
                      lambda: columns.sort(axis=1)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert columns.tolist()[2] == [100, 70, 50, 20]
        assert graph_from_arcs(3, []).arc_columns.shape == (4, 0)

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 1, 2 ** 63, 0)], f"total arc volume {2 ** 63} does not fit int64"),
            ([(0, 1, 2 ** 62, 0), (1, 0, 2 ** 62, 0)], f"total arc volume {2 ** 63} does not fit int64"),
            ([(0, 1, 0, 2 ** 64)], f"total arc bandwidth {2 ** 64} does not fit int64"),
        ],
    )
    def test_arc_columns_refuse_totals_past_int64(self, arcs, message):
        g = graph_from_arcs(2, arcs)  # the graph itself is valid
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            g.arc_columns

    def test_arc_columns_take_totals_of_exactly_int64_max(self):
        top = graph_from_arcs(2, [(0, 1, 2 ** 62, 2 ** 63 - 1), (1, 0, 2 ** 62 - 1, 0)])
        assert top.arc_columns[2:].sum(axis=1).tolist() == [2 ** 63 - 1, 2 ** 63 - 1]

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 2, 5, 1)], "core id out of range in arc 0->2"),
            ([(-1, 0, 5, 1)], "core id out of range in arc -1->0"),
            ([(1, 1, 5, 1)], "self-loop on core 1"),
            ([(0, 1, 5, 1), (0, 1, 7, 2)], "duplicate arc 0->1"),
            ([(0, 1, -5, 1)], "negative weight on arc 0->1"),
            ([(0, 1, 5, -1)], "negative weight on arc 0->1"),
        ],
    )
    def test_direct_construction_refuses_bad_arc(self, arcs, message):
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            TaskGraph(2, tuple(Arc(*quad) for quad in arcs))
        with pytest.raises(ValueError, match=exact):
            graph_from_arcs(2, arcs)

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 1, 1.5, 2.7)], "non-integer field 1.5 in arc 0->1"),
            ([(0, 1, 3, 2.0)], "non-integer field 2.0 in arc 0->1"),
            ([(0, 1, True, 2)], "non-integer field True in arc 0->1"),
            ([(0.0, 1, 3, 2)], "non-integer field 0.0 in arc 0.0->1"),
            ([(0, False, 3, 2)], "non-integer field False in arc 0->False"),
            ([(0, 1, 3, 2), (1, np.float64(0), 3, 2)], "non-integer field np.float64(0.0) in arc 1->0.0"),
            ([(0, 1, None, 2)], "non-integer field None in arc 0->1"),
        ],
    )
    def test_non_integer_fields_refused(self, arcs, message):
        # a float weight used to be scored truncated, and a bool or float id taken as an id
        exact = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=exact):
            TaskGraph(2, tuple(Arc(*quad) for quad in arcs))
        with pytest.raises(ValueError, match=exact):
            graph_from_arcs(2, arcs)

    def test_numpy_integer_fields_accepted(self):
        g = graph_from_arcs(2, [(np.int64(0), np.int32(1), np.uint8(3), np.int16(2))])
        assert g == graph_from_arcs(2, [(0, 1, 3, 2)])
        assert g.arc_columns.tolist() == [[0], [1], [3], [2]]


@st.composite
def any_graph(draw):
    """A random graph whose arcs may run both ways between a pair and carry zero volume."""
    n_cores = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n_cores) for j in range(n_cores) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return graph_from_arcs(n_cores, [(i, j, draw(st.integers(0, 1000)), 1) for i, j in chosen])


class TestNeighbours:
    @given(any_graph())
    @settings(max_examples=100)
    def test_matches_volume_matrix(self, g):
        m = volume_matrix(g)
        linked = {(a.src, a.dst) for a in g.arcs} | {(a.dst, a.src) for a in g.arcs}
        for a in range(g.n_cores):
            # every linked core is a neighbour, zero-volume arcs included
            want = {b: m[a][b] + m[b][a] for b in range(g.n_cores) if (a, b) in linked}
            assert g.neighbours[a] == want


class TestInducedSubgraph:
    def test_relabels_and_filters(self, g1):
        sub = induced_subgraph(g1, [1, 3])
        assert sub.n_cores == 2
        assert len(sub.arcs) == 1
        arc = sub.arcs[0]
        assert (arc.src, arc.dst, arc.volume) == (0, 1, 50)

    def test_duplicate_selection_rejected(self, g1):
        with pytest.raises(ValueError):
            induced_subgraph(g1, [0, 0])

    def test_core_off_the_graph_is_refused(self, g1):
        for core_ids in ([-1, 0], [0, 4], [4]):
            with pytest.raises(ValueError, match="out of range"):
                induced_subgraph(g1, core_ids)

    @pytest.mark.parametrize(
        "core_ids, shown",
        [([0, 1.5], "1.5"), ([True, 2], "True"), ([np.float64(2.0)], "np.float64(2.0)"), ([np.bool_(False)], "np.False_")],
    )
    def test_non_integer_id_is_refused_by_name(self, g1, core_ids, shown):
        # 1.5 used to select no arc and True to stand for core 1
        with pytest.raises(ValueError, match=f"^core id {re.escape(shown)} is not an integer$"):
            induced_subgraph(g1, core_ids)

    def test_numpy_integer_ids_are_accepted(self, g1):
        assert induced_subgraph(g1, [np.int64(3), np.int32(1)]) == induced_subgraph(g1, [3, 1])
        assert induced_subgraph(g1, np.array([2, 0])) == induced_subgraph(g1, [2, 0])


@st.composite
def tied_graphs(draw):
    """Up to three arcs per core with weights from 0, 1, 1, 2 and 5: zero-volume
    arcs and tied degrees and rankings are common."""
    n_cores = draw(st.integers(1, 14))
    every = [(s, d) for s in range(n_cores) for d in range(n_cores) if s != d]
    pairs = draw(st.lists(st.sampled_from(every), max_size=3 * n_cores, unique=True)) if every else []
    weight = st.sampled_from([0, 1, 1, 2, 5])
    return graph_from_arcs(n_cores, [(s, d, draw(weight), draw(weight)) for s, d in pairs])


def assert_same_graph(derived, constructed):
    """A graph built from arc columns agrees with the same arcs through the checking constructor."""
    # The views read from the columns come first, while the derived graph has no arcs yet.
    assert "arcs" not in vars(derived)
    assert derived.arc_columns.tolist() == constructed.arc_columns.tolist()
    assert derived.neighbours == constructed.neighbours
    assert [list(keys) for keys in derived.neighbours] == [list(keys) for keys in constructed.neighbours]
    assert priority_keys(derived) == oracle_keys(constructed)
    if constructed.n_cores:
        per_arc = oracles.residual_order(constructed, [True] * constructed.n_cores)
        assert priority_order(derived) == priority_order(constructed) == per_arc
    assert "arcs" not in vars(derived)
    assert derived == constructed and constructed == derived
    assert hash(derived) == hash(constructed)
    assert derived.arcs == constructed.arcs
    assert repr(derived) == repr(constructed)


class _NoArcs:
    """Stands in for ``TaskGraph.arcs``: a constructed graph's own arcs shadow
    it, so only reading a derived graph's arcs reaches it."""

    def __get__(self, g, owner=None):
        raise AssertionError("the arcs of a derived graph were made")


class TestDerivedGraphs:
    @given(tied_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_subgraph_matches_per_arc_relabelling(self, g, data):
        core_ids = data.draw(st.permutations(range(g.n_cores)))[:data.draw(st.integers(0, g.n_cores))]
        assert_same_graph(induced_subgraph(g, core_ids), oracles.induced_subgraph_arcs(g, core_ids))

    @given(tied_graphs(), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_cluster_graph_matches_two_dict_aggregation(self, g, cap):
        cs = cluster_tasks(g, cap)
        assert_same_graph(cluster_graph(g, cs), oracles.cluster_graph_pairs(g, cs))

    def test_empty_derived_graphs(self, g1):
        assert_same_graph(induced_subgraph(g1, []), TaskGraph(0, ()))
        empty = graph_from_arcs(0, [])
        assert_same_graph(cluster_graph(empty, ClusterSet(())), TaskGraph(0, ()))

    def test_derived_graph_of_a_derived_graph(self, g1):
        sub = induced_subgraph(induced_subgraph(g1, [3, 2, 0]), [2, 0])
        assert_same_graph(sub, oracles.induced_subgraph_arcs(g1, [0, 3]))

    def test_pipelines_never_make_derived_arcs(self, monkeypatch):
        g, mesh = generate_random_graph(60, 90, seed=3), Mesh3D(3)  # three dynamic rounds
        monkeypatch.setattr(TaskGraph, "arcs", _NoArcs())
        dynamic_schedule(g, mesh)
        for mapper in MAPPERS:
            cluster_schedule(g, mesh, mapper)
        cg = cluster_graph(g, cluster_tasks(g, mesh.tile_count))
        pso_optimize(cg, mesh, PsoParams(max_evals_per_simulation=400))
        evaluate(cg, ddmap(cg, mesh), mesh)
        assert "arcs" not in vars(cg)
