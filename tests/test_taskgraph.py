import copy
import dataclasses
import numbers
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocmap import Mesh3D, PsoParams, cli, evaluate, generate_random_graph, pso_optimize, taskgraph
from nocmap.mappers import MAPPERS, ddmap
from nocmap.scheduler import ClusterSet, cluster_graph, cluster_schedule, cluster_tasks, dynamic_schedule
from nocmap.taskgraph import (
    Arc,
    GraphFormatError,
    TaskGraph,
    _ids,
    _refuse_repeat,
    induced_subgraph,
    parse_graph,
    priority_order,
    serialize_graph,
)

import oracles
from conftest import G1_ARCS
from oracles import volume_matrix


graph_params = st.tuples(st.integers(2, 12), st.integers(0, 20), st.integers(0, 10_000))


def draw_graph(params):
    n_cores, n_arcs, seed = params
    return generate_random_graph(n_cores, min(n_arcs, n_cores * (n_cores - 1)), seed=seed)


# Each stands in for one arc field: ends off the graph or past int64, negative weights
# or weights past int64, numpy integers (accepted) and non-integers (refused).
ODD_FIELDS = [-1, 5, 2 ** 63, -(2 ** 64), 2 ** 62, 2 ** 63 - 1, 2 ** 64, -(2 ** 63) - 1,
              np.int64(1), np.int32(0), np.uint8(2), np.int64(-1), np.uint64(2 ** 63 - 1), np.uint64(2 ** 64 - 1),
              1.5, 2.0, np.float64(0), True, False, None]


@st.composite
def faulty_graphs(draw):
    """A core count, arcs as (src, dst, volume, bandwidth) tuples, and per arc 0-2 lines of
    comment or blank before it in a file.  The arcs start valid, with weights up to
    int64's, and then up to three faults are injected: a field swapped for one of
    ``ODD_FIELDS``, a loop, or the pair of another arc."""
    n_cores = draw(st.integers(0, 5))
    every = [(s, d) for s in range(n_cores) for d in range(n_cores) if s != d]
    pairs = draw(st.lists(st.sampled_from(every), unique=True, max_size=6)) if every else []
    weight = st.sampled_from([0, 1, 2, 3, 2 ** 62, 2 ** 63 - 1])
    quads = [[s, d, draw(weight), draw(weight)] for s, d in pairs]
    for _ in range(draw(st.integers(0, 3)) if quads else 0):
        quad, other = draw(st.sampled_from(quads)), draw(st.sampled_from(quads))
        fault = draw(st.sampled_from(["field", "field", "loop", "repeat"]))
        if fault == "field":
            quad[draw(st.integers(0, 3))] = draw(st.sampled_from(ODD_FIELDS))
        else:
            quad[:2] = [quad[0], quad[0]] if fault == "loop" else other[:2]
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(quads), max_size=len(quads)))
    return n_cores, [tuple(quad) for quad in quads], gaps


def arc_forms(quads):
    """The same arcs as plain (src, dst, volume, bandwidth) tuples and as ``Arc`` values."""
    return [list(map(tuple, quads)), [Arc(*quad) for quad in quads]]


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
        # one whole-array check per graph built, a refused file's included: no second pass finds the line
        calls = []
        check = taskgraph._checked_columns
        monkeypatch.setattr(taskgraph, "_checked_columns", lambda *args, **kw: calls.append(1) or check(*args, **kw))
        g = parse_graph("cores 3\nedge 0 1 5 1\nedge 1 2 6 1\nedge 2 0 7 1\n")
        assert len(g.arcs) == 3 and len(calls) == 1
        with pytest.raises(GraphFormatError, match="^line 3: duplicate arc 0->1$"):
            parse_graph("cores 3\nedge 0 1 5 1\nedge 0 1 6 1\n")
        assert len(calls) == 2
        TaskGraph(3, [(0, 1, 5, 1)])
        generate_random_graph(3, 4, seed=1)
        assert len(calls) == 4

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
        g = TaskGraph(3, [(0, 1, 5, 1)])
        assert priority_keys(g) == ([1, 0, 0], [5, 5, 0])

    @given(graph_params)
    @settings(max_examples=60)
    def test_ranking_matches_matrix_sum(self, params):
        g = draw_graph(params)
        assert priority_keys(g) == oracle_keys(g)

    def test_priority_g1(self, g1):
        assert priority_order(g1) == [0, 1, 2, 3]

    def test_priority_no_arcs(self):
        assert priority_order(TaskGraph(3, [])) == [0, 1, 2]

    def test_priority_single_arc(self):
        assert priority_order(TaskGraph(2, [(0, 1, 5, 1)])) == [0, 1]

    def test_priority_empty_graph(self):
        assert priority_order(TaskGraph(0, [])) == []

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
        assert generate_random_graph(0, 0) == TaskGraph(0, ())  # the empty graph, as every other builder takes it

    def test_deterministic(self):
        a = generate_random_graph(8, 12, seed=3)
        b = generate_random_graph(8, 12, seed=3)
        assert a == b

    def test_distinct_seeds_differ(self):
        assert generate_random_graph(8, 12, seed=3) != generate_random_graph(8, 12, seed=4)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),  # was the seed-1 graph
        (True, "seed must be an integer, got True"),
        (1.0, "seed must be an integer, got 1.0"),
        (2.5, "seed must be an integer, got 2.5"),
        (None, "seed must be an integer, got None"),
    ], ids=repr)
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_random_graph(6, 8, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert generate_random_graph(6, 8, seed=np.int64(3)) == generate_random_graph(6, 8, seed=3)

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

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((4, True), {}, "arc count must be an integer, got True"),
            ((4, 1.5), {}, "arc count must be an integer, got 1.5"),
            ((2.5, 1), {}, "core count must be an integer, got 2.5"),
            ((True, 0), {}, "core count must be an integer, got True"),
            ((np.float64(3), 1), {}, "core count must be an integer, got np.float64(3.0)"),
            ((4, 1), {"volume_range": (1.5, 3)}, "weight range bound must be an integer, got 1.5"),
            ((4, 1), {"bandwidth_range": (1, False)}, "weight range bound must be an integer, got False"),
        ],
    )
    def test_non_integer_arguments_refused(self, args, kwargs, message):
        # (4, True) used to make one arc, and a float count or bound failed inside random
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_random_graph(*args, **kwargs)

    def test_numpy_integer_arguments_accepted(self):
        g = generate_random_graph(np.int64(8), np.int32(12), (np.int64(10), np.int16(1000)), (np.uint8(1), 100),
                                  seed=3)
        assert g == generate_random_graph(8, 12, seed=3)
        assert type(g.n_cores) is int and all(type(v) is int for a in g.arcs for v in a)


class TestTaskGraph:
    def test_negative_core_count_rejected(self):
        # one rule and one text for every builder; a file's refusal names the header's line
        for build in (lambda: TaskGraph(-1, ()), lambda: generate_random_graph(-1, 0)):
            with pytest.raises(ValueError, match="^core count must be non-negative$"):
                build()
        with pytest.raises(GraphFormatError, match="^line 2: core count must be non-negative$"):
            parse_graph("# header\ncores -1\n")

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: TaskGraph(2.5, ()), "2.5"),
            (lambda: TaskGraph(3.0, ()), "3.0"),
            (lambda: TaskGraph(True, ()), "True"),
            (lambda: TaskGraph(2.5, [(0, 1, 3, 2)]), "2.5"),
        ],
    )
    def test_non_integer_core_count_refused(self, build, shown):
        # a float count used to fail later, inside numpy, and True was taken as one core
        with pytest.raises(ValueError, match=f"^core count must be an integer, got {re.escape(shown)}$"):
            build()

    def test_numpy_integer_core_count_accepted(self):
        g = TaskGraph(np.int64(2), [(0, 1, 3, 2)])
        assert g == TaskGraph(2, [(0, 1, 3, 2)])
        assert ddmap(g, Mesh3D(2)) == ddmap(TaskGraph(2, [(0, 1, 3, 2)]), Mesh3D(2))

    def test_fields_are_count_and_arc_columns(self, g1):
        assert [f.name for f in dataclasses.fields(TaskGraph)] == ["n_cores", "arc_columns"]
        assert set(vars(TaskGraph(4, G1_ARCS))) == {"n_cores", "arc_columns"}
        same = TaskGraph(4, g1.arcs)
        assert g1 == same and hash(g1) == hash(same) and not g1 != same
        others = [TaskGraph(5, G1_ARCS), TaskGraph(4, G1_ARCS[::-1]), TaskGraph(4, G1_ARCS[:3]),
                  TaskGraph(4, [(0, 1, 100, 11)] + G1_ARCS[1:]), induced_subgraph(g1, [0, 1, 2])]
        assert all(g1 != other and other != g1 for other in others)
        assert g1 != G1_ARCS and g1 != 4
        assert len({g1, same, *others}) == 1 + len(others)
        assert repr(g1) == (
            "TaskGraph(n_cores=4, arcs=(Arc(src=0, dst=1, volume=100, bandwidth=10), "
            "Arc(src=0, dst=2, volume=70, bandwidth=7), Arc(src=1, dst=3, volume=50, bandwidth=5), "
            "Arc(src=2, dst=3, volume=20, bandwidth=2)))"
        )
        assert repr(TaskGraph(0, [])) == "TaskGraph(n_cores=0, arcs=())"
        for name, value in (("n_cores", 5), ("arc_columns", g1.arc_columns), ("arcs", ()), ("other", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g1, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del g1.n_cores
        assert g1 == same and type(g1.n_cores) is int

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
        assert TaskGraph(3, []).arc_columns.shape == (4, 0)

    @pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_equal_and_read_only(self, g1, clone):
        # a copy with writeable columns could take a negative volume after the arcs were checked
        g1.arcs, g1.neighbours  # cached values are not carried over
        h = clone(g1)
        assert set(vars(h)) == {"n_cores", "arc_columns"} and h.arc_columns.dtype == np.int64
        assert type(h) is TaskGraph and h == g1 and h.arcs == g1.arcs and type(h.n_cores) is int
        with pytest.raises(ValueError, match="read-only"):
            h.arc_columns[2, 0] = -7
        assert h.arc_columns.tolist()[2] == [100, 70, 50, 20]

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([(0, 1, 2 ** 63, 0)], f"total arc volume {2 ** 63} does not fit int64"),
            ([(0, 1, 2 ** 62, 0), (1, 0, 2 ** 62, 0)], f"total arc volume {2 ** 63} does not fit int64"),
            ([(0, 1, 0, 2 ** 64)], f"total arc bandwidth {2 ** 64} does not fit int64"),
            ([(0, 1, np.uint64(2 ** 64 - 1), 0), (1, 0, np.uint64(2 ** 64 - 1), 0)],
             f"total arc volume {2 ** 65 - 2} does not fit int64"),  # summed exactly, not in uint64
        ],
    )
    def test_arc_columns_refuse_totals_past_int64(self, arcs, message):
        # refused when the graph is built, so no graph whose sums could wrap is ever handed on
        exact = f"^{re.escape(message)}$"
        text = "cores 2\n" + "".join(f"edge {s} {d} {v} {b}\n" for s, d, v, b in arcs)
        for build in (lambda: TaskGraph(2, arcs), lambda: TaskGraph(2, [Arc(*quad) for quad in arcs]),
                      lambda: parse_graph(text)):
            with pytest.raises(ValueError, match=exact) as err:
                build()
            assert type(err.value) is ValueError  # no one line of a file holds a total

    def test_arc_columns_take_totals_of_exactly_int64_max(self):
        top = TaskGraph(2, [(0, 1, 2 ** 62, 2 ** 63 - 1), (1, 0, 2 ** 62 - 1, 0)])
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
        for form in arc_forms(arcs):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TaskGraph(2, form)

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
        # a float weight used to be scored truncated, and a bool or float id taken as an id;
        # a non-integer field is refused before the arc's other faults, and (0, False) is no loop
        for form in arc_forms(arcs):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TaskGraph(2, form)

    def test_numpy_integer_fields_accepted(self):
        for form in arc_forms([(np.int64(0), np.int32(1), np.uint8(3), np.int16(2))]):
            g = TaskGraph(2, form)
            assert g == TaskGraph(2, [(0, 1, 3, 2)]) == TaskGraph(2, [Arc(0, 1, 3, 2)])
            assert g.arc_columns.tolist() == [[0], [1], [3], [2]]
            assert repr(g) == "TaskGraph(n_cores=2, arcs=(Arc(src=0, dst=1, volume=3, bandwidth=2),))"
            assert g.arcs == ((0, 1, 3, 2),) and all(type(v) is int for v in g.arcs[0])

    def test_id_past_int64_refused_whatever_the_core_count(self):
        # int64 columns cannot hold the id, so it is out of range even of 2 ** 64 cores
        with pytest.raises(ValueError, match=f"^core id out of range in arc 0->{2 ** 63}$"):
            TaskGraph(2 ** 64, [(0, 2 ** 63, 1, 1)])
        assert TaskGraph(2 ** 64, [(0, 2 ** 63 - 1, 1, 1)]).arc_columns.dtype == np.int64

    @given(faulty_graphs())
    @settings(max_examples=300, deadline=None)
    def test_check_matches_per_arc_reference(self, case):
        n_cores, quads, gaps = case
        want = oracles.arc_fault(n_cores, quads)
        if want is None:
            g = TaskGraph(n_cores, quads)
            assert g.arc_columns.tolist() == [[int(quad[f]) for quad in quads] for f in range(4)]
        else:
            with pytest.raises(ValueError) as err:
                TaskGraph(n_cores, quads)
            assert type(err.value) is ValueError and str(err.value) == want[1]
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for quad in quads for v in quad):
            return  # a graph file holds integers only
        lines, arc_lines = [f"cores {n_cores}"], []
        for (s, d, v, b), gap in zip(quads, gaps):
            lines += ["# a comment", ""][:gap] + [f"edge {s} {d} {v} {b}"]
            arc_lines.append(len(lines))
        text = "\n".join(lines)
        if want is None:
            assert parse_graph(text) == g
        elif want[0] is None:
            with pytest.raises(ValueError) as err:
                parse_graph(text)
            assert type(err.value) is ValueError and str(err.value) == want[1]
        else:
            with pytest.raises(GraphFormatError) as err:
                parse_graph(text)
            assert err.value.line_no == arc_lines[want[0]]
            assert str(err.value) == f"line {arc_lines[want[0]]}: {want[1]}"


@st.composite
def any_graph(draw):
    """A random graph whose arcs may run both ways between a pair and carry zero volume."""
    n_cores = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n_cores) for j in range(n_cores) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return TaskGraph(n_cores, [(i, j, draw(st.integers(0, 1000)), 1) for i, j in chosen])


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


# Each stands in for one id of a list: numpy integers (accepted), non-integers, and
# integers past int64 either way (refused).
odd_ids = st.one_of(
    st.integers(0, 12).map(np.int64), st.integers(0, 12).map(np.uint8), st.booleans(),
    st.sampled_from([1.0, 2.5, np.float64(3.0), float("nan"), "1", None]),
    st.integers(2 ** 63 - 1, 2 ** 65), st.integers(-2 ** 65, -2 ** 63 - 1),
)


@st.composite
def id_lists(draw):
    """Mostly plain ints in and around 0..12, repeats included, with up to two odd ids in them."""
    values = draw(st.lists(st.integers(-1, 13), max_size=10))
    for _ in range(draw(st.integers(0, 2)) if values else 0):
        values[draw(st.integers(0, len(values) - 1))] = draw(odd_ids)
    return values


class TestIds:
    @given(id_lists(), st.integers(0, 13))
    @settings(max_examples=400)
    def test_matches_the_per_value_rule(self, values, limit):
        # the whole-list scan must accept what the per-value rule accepts, and
        # refuse the rest with its text, which names the first faulty value
        try:
            want = oracles.ids(values, limit, "tile id")
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _ids(values, limit, "tile id")
            return
        got = _ids(values, limit, "tile id")
        assert got.dtype == np.intp and got.tolist() == want
        repeat = oracles.first_repeat(want)
        if repeat is not None:
            with pytest.raises(ValueError, match=f"^tile id {repeat} appears more than once$"):
                _refuse_repeat(got.tolist(), "tile id")

    def test_an_id_past_int64_is_out_of_range(self):
        for big in (2 ** 63, 2 ** 64, -2 ** 63 - 1):
            with pytest.raises(ValueError, match=f"^core id {big} out of range 0\\.\\.3$"):
                _ids([0, big], 4, "core id")


class TestInducedSubgraph:
    def test_relabels_and_filters(self, g1):
        sub = induced_subgraph(g1, [1, 3])
        assert sub.n_cores == 2
        assert len(sub.arcs) == 1
        arc = sub.arcs[0]
        assert (arc.src, arc.dst, arc.volume) == (0, 1, 50)

    def test_duplicate_selection_rejected(self, g1):
        with pytest.raises(ValueError, match="^core id 0 appears more than once$"):
            induced_subgraph(g1, [0, 0])
        with pytest.raises(ValueError, match="^core id 2 appears more than once$"):
            induced_subgraph(g1, [3, 2, 1, 2, 3])

    def test_core_off_the_graph_is_refused(self, g1):
        for core_ids, bad in (([-1, 0], -1), ([0, 4], 4), ([4], 4), ([0, 2 ** 64], 2 ** 64), ([4, 4], 4)):
            with pytest.raises(ValueError, match=f"^core id {bad} out of range 0\\.\\.3$"):
                induced_subgraph(g1, core_ids)

    @pytest.mark.parametrize(
        "core_ids, shown",
        [([0, 1.5], "1.5"), ([True, 2], "True"), ([np.float64(2.0)], "np.float64(2.0)"), ([np.bool_(False)], "np.False_")],
    )
    def test_non_integer_id_is_refused_by_name(self, g1, core_ids, shown):
        # 1.5 used to select no arc and True to stand for core 1
        with pytest.raises(ValueError, match=f"^core id must be an integer, got {re.escape(shown)}$"):
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
    return TaskGraph(n_cores, [(s, d, draw(weight), draw(weight)) for s, d in pairs])


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
    """Stands in for ``TaskGraph.arcs``: every read of a graph's arcs not already made reaches it."""

    def __get__(self, g, owner=None):
        raise AssertionError("the arcs of a graph were made")


def _no_arc(*fields):
    raise AssertionError("an Arc was made")


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
        empty = TaskGraph(0, [])
        assert_same_graph(cluster_graph(empty, ClusterSet(())), TaskGraph(0, ()))

    def test_derived_graph_of_a_derived_graph(self, g1):
        sub = induced_subgraph(induced_subgraph(g1, [3, 2, 0]), [2, 0])
        assert_same_graph(sub, oracles.induced_subgraph_arcs(g1, [0, 3]))

    def test_pipelines_never_make_derived_arcs(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(TaskGraph, "arcs", _NoArcs())
        monkeypatch.setattr(taskgraph, "Arc", _no_arc)
        g, mesh = generate_random_graph(60, 90, seed=3), Mesh3D(3)  # three dynamic rounds
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text
        path = tmp_path / "g.ctg"
        assert cli.main(["gen", "--cores", "20", "--arcs", "30", "--out", str(path)]) == 0
        for argv in (["map"], ["schedule"], ["schedule", "--mode", "cluster"]):
            assert cli.main(argv + ["--graph", str(path), "--out", str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().err == ""
        dynamic_schedule(g, mesh)
        for mapper in MAPPERS:
            cluster_schedule(g, mesh, mapper)
        cg = cluster_graph(g, cluster_tasks(g, mesh.tile_count))
        pso_optimize(cg, mesh, PsoParams(max_evals_per_simulation=400))
        evaluate(cg, ddmap(cg, mesh), mesh)
        assert "arcs" not in vars(cg)
