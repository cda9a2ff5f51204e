import csv
import dataclasses
import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocmap import (
    Mesh3D,
    PsoParams,
    RunConfig,
    ddmap,
    evaluate,
    generate_random_graph,
    run_benchmark,
)
from nocmap import harness
from nocmap.harness import (
    CSV_COLUMNS,
    ReportRow,
    audit_artifact,
    exhaustive_oracle,
    format_comparison,
    parse_mapping_artifact,
    write_mapping_artifact,
)
from nocmap.mappers import map_with
from nocmap.metrics import EnergyModel
from nocmap.taskgraph import TaskGraph, serialize_graph
from nocmap.topology import hop_table

from conftest import G1_ARCS
from oracles import brute_cost, brute_energy, coords, kernel_oracle, manhattan3


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.ctg"
    path.write_text(serialize_graph(TaskGraph(4, G1_ARCS)))
    return path


def make_row(**overrides):
    base = dict(
        benchmark="b", algo="ddmap", mode="map", total_energy=100.0,
        comm_cost=10, avg_latency=5.0, eta=2, runtime_ms=1.0, seed=0,
    )
    base.update(overrides)
    return ReportRow(**base)


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        placement = {0: 13, 1: 10, 2: 4}
        header = {"benchmark": "demo", "mesh": 3, "seed": 0}
        path = tmp_path / "demo.map"
        write_mapping_artifact(path, placement, header)
        parsed, parsed_header = parse_mapping_artifact(path.read_text())
        assert parsed == placement
        assert parsed_header == {"benchmark": "demo", "mesh": "3", "seed": "0"}

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_mapping_artifact("core 0 tile 4")

    @pytest.mark.parametrize("bad", ["core 0 -> tile x", "core 0 -> tile 4.5", "core x -> tile 4"])
    def test_non_integer_id_names_its_line(self, bad):
        with pytest.raises(ValueError, match="^artifact line 2: expected 'core <id> -> tile <id>'$"):
            parse_mapping_artifact(f"# mesh = 3\n{bad}\n")

    def test_duplicate_core_rejected(self):
        text = "# mesh = 3\ncore 0 -> tile 4\ncore 1 -> tile 5\ncore 0 -> tile 6\n"
        with pytest.raises(ValueError, match="line 4: duplicate line for core 0"):
            parse_mapping_artifact(text)

    def test_duplicate_header_key_rejected(self):
        # the key is stripped, so spacing does not make a second key
        text = "# mesh = 2\n# seed = 0\n#mesh=3\ncore 0 -> tile 4\n"
        with pytest.raises(ValueError, match="^artifact line 3: duplicate header key 'mesh'$"):
            parse_mapping_artifact(text)


class TestRunBenchmark:
    def test_row_matches_fresh_evaluation(self, g1_file, mesh3):
        cfg = RunConfig(graph=g1_file, mode="map", algo="ddmap")
        row, placement = run_benchmark(cfg)
        g = TaskGraph(4, G1_ARCS)
        assert placement == ddmap(g, mesh3)
        assert row.total_energy == evaluate(g, placement, mesh3).total_energy
        assert row.benchmark == "g1"
        assert row.mode == "map" and row.algo == "ddmap"

    @pytest.mark.parametrize(
        "cfg_kwargs",
        [
            dict(mode="map", algo="spiral"),
            dict(mode="map", algo="crinkle"),
            dict(mode="dynamic"),
            dict(mode="cluster", algo="ddmap"),
            dict(mode="pso", pso=PsoParams(seed=0, max_evals_per_simulation=1_000)),
        ],
    )
    def test_pipelines_are_deterministic(self, g1_file, tmp_path, cfg_kwargs):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rows = []
        for out in (out_a, out_b):
            cfg = RunConfig(
                graph=g1_file, out_dir=out, csv_path=out / "rows.csv", **cfg_kwargs
            )
            rows.append(run_benchmark(cfg)[0])
        artifacts_a = sorted(p.name for p in out_a.iterdir())
        artifacts_b = sorted(p.name for p in out_b.iterdir())
        assert artifacts_a == artifacts_b
        for name in artifacts_a:
            if name != "rows.csv":
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        strip = dataclasses.replace
        assert strip(rows[0], runtime_ms=0.0) == strip(rows[1], runtime_ms=0.0)

    def test_csv_columns_and_round_trip(self, g1_file, tmp_path):
        csv_path = tmp_path / "rows.csv"
        cfg = RunConfig(graph=g1_file, csv_path=csv_path)
        row, _ = run_benchmark(cfg)
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",") == CSV_COLUMNS
        with csv_path.open(newline="", encoding="utf-8") as fh:
            (record,) = csv.DictReader(fh)
        kinds = dict(total_energy=float, comm_cost=int, avg_latency=float, eta=int,
                     runtime_ms=float, seed=int)
        back = ReportRow(**{col: kinds.get(col, str)(record[col]) for col in CSV_COLUMNS})
        assert back == row  # every float cell round-trips exactly

    def test_eta_zero_graph_still_reports(self, tmp_path):
        path = tmp_path / "silent.ctg"
        path.write_text("cores 2\nedge 0 1 0 5\n")
        row, _ = run_benchmark(RunConfig(graph=path))
        assert row.eta == 0 and row.avg_latency is None
        assert row.total_energy == 0.0 and row.comm_cost >= 0

    def test_unknown_mode(self, g1_file):
        with pytest.raises(ValueError, match="unknown mode"):
            run_benchmark(RunConfig(graph=g1_file, mode="anneal"))

    @pytest.mark.parametrize(
        "kwargs, what",
        [
            (dict(algo="anneal"), "unknown algo 'anneal'"),
            (dict(mode="pso", objective="makespan"), "unknown objective 'makespan'"),
            (dict(mode="dynamic", algo="spiral"), "dynamic mode takes no algo, got 'spiral'"),
            (dict(mode="pso", algo="crinkle"), "pso mode takes no algo, got 'crinkle'"),
            (dict(seed_mapping="does-not-exist.map"), "seed_mapping is read in pso mode only"),
            (dict(mode="cluster", objective="cost"), "objective is read in pso mode only"),
            (dict(pso=PsoParams()), "pso is read in pso mode only"),
            (
                dict(seed_mapping="does-not-exist.map", objective="makespan"),
                "unknown objective 'makespan'",
            ),
        ],
    )
    def test_fields_the_mode_never_reads_rejected(self, g1_file, kwargs, what):
        with pytest.raises(ValueError, match=re.escape(what)):
            RunConfig(graph=g1_file, **kwargs)

    def test_pso_seeded_run(self, g1_file, tmp_path, mesh3):
        seed_cfg = RunConfig(graph=g1_file, mode="map", algo="spiral", out_dir=tmp_path)
        seed_row, seed_placement = run_benchmark(seed_cfg)
        artifact = tmp_path / "g1__map__spiral__seed0.map"
        assert artifact.exists()
        cfg = RunConfig(
            graph=g1_file, mode="pso", seed_mapping=artifact,
            pso=PsoParams(seed=0, max_evals_per_simulation=1_000),
        )
        row, _ = run_benchmark(cfg)
        assert row.total_energy <= seed_row.total_energy

    def test_one_seed_per_run(self, g1_file):
        with pytest.raises(ValueError, match="swarm seed 0 differs from run seed 5"):
            RunConfig(graph=g1_file, mode="pso", seed=5, pso=PsoParams(seed=0))

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),  # used to run and write a __seed1.5.map artifact
        (True, "seed must be an integer, got True"),
    ], ids=repr)
    def test_seed_must_be_a_non_negative_integer(self, g1_file, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(graph=g1_file, seed=seed)

    def test_seed_artifact_without_header(self, g1_file, tmp_path):
        artifact = tmp_path / "bare.map"
        artifact.write_text("".join(f"core {c} -> tile {c}\n" for c in range(4)))
        cfg = RunConfig(
            graph=g1_file, mesh_n=2, mode="pso", seed_mapping=artifact,
            pso=PsoParams(seed=0, max_evals_per_simulation=400),
        )
        row, _ = run_benchmark(cfg)
        assert row.total_energy <= evaluate(
            TaskGraph(4, G1_ARCS), {0: 0, 1: 1, 2: 2, 3: 3}, Mesh3D(2)
        ).total_energy

    def test_audit_reproduces_row(self, g1_file, tmp_path):
        out_dir = tmp_path / "runs"
        cfg = RunConfig(graph=str(g1_file), mode="cluster", out_dir=out_dir)
        row, _ = run_benchmark(cfg)
        (artifact,) = out_dir.iterdir()
        audited = audit_artifact(artifact)
        assert dataclasses.replace(audited, runtime_ms=row.runtime_ms) == row

    def test_pso_trace_artifact(self, g1_file, tmp_path):
        cfg = RunConfig(
            graph=g1_file, mode="pso", out_dir=tmp_path,
            pso=PsoParams(seed=0, max_evals_per_simulation=600),
        )
        run_benchmark(cfg)
        trace = tmp_path / "g1__pso__pso__seed0.map.trace.csv"
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,evals,gbest_fitness"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "arcs",
        [G1_ARCS, [(0, 1, 1, 2 ** 56), (1, 2, 1, 1), (2, 3, 1, 1), (3, 0, 1, 1)]],
        ids=["g1", "cost-above-2^53"],
    )
    def test_cost_trace_ends_at_the_rows_exact_cost(self, tmp_path, arcs):
        # costs are exact integers, written as such: 24, not 24.0, and 2^56 + 3
        # digit for digit, not rounded to a float
        graph = tmp_path / "g.ctg"
        graph.write_text(serialize_graph(TaskGraph(4, arcs)))
        cfg = RunConfig(
            graph=graph, mesh_n=2, mode="pso", objective="cost",
            pso=PsoParams(swarm_size=20, max_evals_per_simulation=2_000),
            out_dir=tmp_path / "out", csv_path=tmp_path / "rows.csv",
        )
        run_benchmark(cfg)
        (trace,) = (tmp_path / "out").glob("*.trace.csv")
        last = trace.read_text().splitlines()[-1].split(",")[2]
        with (tmp_path / "rows.csv").open(newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert last == row["comm_cost"]


@pytest.mark.parametrize(
    "load, key, value",
    [
        ("audit", "mesh", "abc"),
        ("audit", "graph", None),
        ("audit", "e_switch", "x"),
        ("audit", "seed", "1.5"),
        ("seed", "mesh", "abc"),
    ],
)
def test_bad_artifact_header_names_file_and_key(g1_file, tmp_path, load, key, value):
    run_benchmark(RunConfig(graph=str(g1_file), out_dir=tmp_path))
    artifact = tmp_path / "g1__map__ddmap__seed0.map"
    lines = artifact.read_text().splitlines(keepends=True)
    line = next(i for i, text in enumerate(lines) if text.startswith(f"# {key} = "))
    if value is None:
        del lines[line]
    else:
        lines[line] = f"# {key} = {value}\n"
    artifact.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"{re.escape(str(artifact))}.*'{key}'"):
        if load == "audit":
            audit_artifact(artifact)
        else:
            run_benchmark(RunConfig(graph=g1_file, mode="pso", seed_mapping=artifact))


def test_unreadable_graph_names_the_artifact(g1_file, tmp_path, monkeypatch):
    # the header's relative graph path is read from the current directory
    monkeypatch.chdir(tmp_path)
    run_benchmark(RunConfig(graph=g1_file.name, out_dir="sub"))
    monkeypatch.chdir(tmp_path / "sub")
    with pytest.raises(ValueError, match=(
        r"^artifact g1__map__ddmap__seed0\.map: header 'graph' = 'g1\.ctg' cannot be read: "
    )):
        audit_artifact("g1__map__ddmap__seed0.map")


class TestOracle:
    def test_single_core(self, mesh2):
        g = TaskGraph(1, [])
        value, mapping = exhaustive_oracle(g, mesh2)
        assert value == 0.0 and mapping == {0: 0}

    def test_two_cores_one_arc(self, mesh2):
        g = TaskGraph(2, [(0, 1, 100, 10)])
        value, mapping = exhaustive_oracle(g, mesh2)
        assert value == 100 * EnergyModel().energy(2, 1)  # one link, two routers
        assert manhattan3(mapping[0], mapping[1], 2) == 1

    def test_lexicographically_smallest_argmin(self, mesh2):
        g = TaskGraph(2, [(0, 1, 100, 10)])
        _, mapping = exhaustive_oracle(g, mesh2)
        assert (mapping[0], mapping[1]) == (0, 1)

    def test_oracle_bounds_heuristics(self, g1, mesh2):
        opt, _ = exhaustive_oracle(g1, mesh2, "energy")
        for algo in ("ddmap", "spiral", "crinkle"):
            assert opt <= evaluate(g1, map_with(algo, g1, mesh2), mesh2).total_energy

    def test_cost_objective(self, g1, mesh2):
        opt, mapping = exhaustive_oracle(g1, mesh2, "cost")
        assert isinstance(opt, int)
        assert opt >= 0 and len(set(mapping.values())) == 4

    def test_too_large_rejected(self, mesh3):
        g = generate_random_graph(10, 20, seed=0)
        with pytest.raises(ValueError, match="oracle limit"):
            exhaustive_oracle(g, mesh3)

    def test_unknown_objective_refused_before_any_allocation(self):
        # on a million tiles the hop table the walk reads takes 63 MB by itself
        g = TaskGraph(1, [])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^unknown objective 'bogus'$"):
                exhaustive_oracle(g, Mesh3D(100), "bogus")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_single_core_on_a_large_mesh(self):
        # 1540 first tiles and no weighted pair: no hop is read, so no Python
        # list of the 493,039-entry hop table or of the 64,000 tile codes is built
        mesh = Mesh3D(40)
        g = TaskGraph(1, [])
        hop_table(mesh)  # the kernel's cached table, built before tracing
        tracemalloc.start()
        try:
            energy = exhaustive_oracle(g, mesh)
            cost = exhaustive_oracle(g, mesh, "cost")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == (0.0, {0: 0}) and type(energy[0]) is float
        assert cost == (0, {0: 0}) and type(cost[0]) is int
        assert peak < 1 << 18
        # cold cache: with no weighted pair the 15 MB hop table of mesh 60 is
        # never built; its 4,960 first tiles take about 192 KiB
        hop_table.cache_clear()
        tracemalloc.start()
        try:
            energy = exhaustive_oracle(g, Mesh3D(60))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == (0.0, {0: 0}) and type(energy[0]) is float
        assert hop_table.cache_info().currsize == 0 and peak < 1 << 20


def plain_oracle(g, n, objective, model=EnergyModel()):
    """First minimum over every injective assignment, one brute-force evaluation each."""
    best = None
    for assign in itertools.permutations(range(n ** 3), g.n_cores):
        placement = dict(enumerate(assign))
        if objective == "cost":
            value = brute_cost(g, placement, n)
        else:
            value = brute_energy(g, placement, n, model.e_switch_bit, model.e_link_bit)
        if best is None or value < best[0]:
            best = (value, placement)
    return best


@st.composite
def oracle_cases(draw):
    """(mesh side, graph, objective, model): weights of 0..2 make many ties,
    and no arcs, only zero-weight arcs, or a model that charges nothing make
    every assignment tie."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 5 if n == 2 else 3))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda e: e[0] != e[1]),
        unique=True, max_size=k * (k - 1),
    ))
    weight = st.integers(0, 2)
    g = TaskGraph(k, [(s, d, draw(weight), draw(weight)) for s, d in pairs])
    objective = draw(st.sampled_from(["energy", "cost"]))
    model = draw(st.sampled_from([EnergyModel(), EnergyModel(0, 0, 1)]))
    return n, g, objective, model


BIG = 2 ** 55  # link-bit sums that differ by 1 or 2 round to one energy


class TestChunkedOracle:
    @pytest.mark.parametrize("seed", [1, 7, 64, 1 << 15])
    @pytest.mark.parametrize("objective", ["energy", "cost"])
    def test_matches_plain_loop(self, mesh2, objective, seed):
        # four graphs drawn from each seed, 1680 assignments apiece
        rng = random.Random(seed)
        for _ in range(4):
            g = generate_random_graph(4, rng.randint(1, 12), seed=rng.randrange(1 << 30))
            assert exhaustive_oracle(g, mesh2, objective) == plain_oracle(g, 2, objective)

    @pytest.mark.parametrize("charge", [1, 3, 1 << 15])
    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_zero_arcs(self, mesh2, n_cores, charge):
        # with no arcs every assignment ties at 0.0, whatever each bit is charged
        g = TaskGraph(n_cores, [])
        model = EnergyModel(charge, charge)
        expected = plain_oracle(g, 2, "energy", model)
        assert exhaustive_oracle(g, mesh2, "energy", model) == expected
        assert expected == (0.0, {c: c for c in range(n_cores)})
        cost = exhaustive_oracle(g, mesh2, "cost")
        assert cost == (0, expected[1]) and isinstance(cost[0], int)

    @given(oracle_cases())
    @example((2, TaskGraph(5, [(s, d, 1, 1) for s in range(5) for d in range(5) if s != d]),
              "energy", EnergyModel()))
    @example((3, TaskGraph(3, [(0, 2, 2, 1), (2, 1, 1, 2), (1, 2, 1, 1)]), "cost", EnergyModel()))
    @example((2, TaskGraph(4, [(0, 3, 2, 1), (3, 1, 1, 2), (2, 3, 1, 1)]), "energy", EnergyModel()))
    @example((3, TaskGraph(3, [(0, 1, 0, 0), (2, 0, 0, 0)]), "energy", EnergyModel()))
    @example((2, TaskGraph(4, [(0, 1, 2, 1), (1, 3, 1, 2), (3, 2, 2, 2)]), "energy",
              EnergyModel(0, 0, 1)))
    @example((2, TaskGraph(3, [(0, 1, BIG, 1), (0, 2, BIG + 1, 1), (1, 2, BIG + 2, 1)]),
              "energy", EnergyModel()))
    @example((2, TaskGraph(0, []), "energy", EnergyModel()))
    @example((3, TaskGraph(0, []), "cost", EnergyModel()))
    @settings(max_examples=80, deadline=None)
    def test_matches_plain_loop_on_both_meshes(self, case):
        n, g, objective, model = case
        value, mapping = exhaustive_oracle(g, Mesh3D(n), objective, model)
        expected = plain_oracle(g, n, objective, model)
        assert (value, mapping) == expected and type(value) is type(expected[0])

    @pytest.mark.parametrize("objective", ["energy", "cost"])
    def test_matches_kernel_enumeration_at_benchmark_shape(self, mesh3, objective):
        # 4 cores on mesh 3, the benchmark's oracle shape: 421,200 assignments,
        # every one scored by the metric kernel
        for g in (generate_random_graph(4, 6, seed=1), generate_random_graph(4, 10, seed=2),
                  TaskGraph(4, [(0, 1, 1, 2), (1, 2, 2, 1), (2, 3, 1, 1), (3, 0, 2, 2), (1, 3, 1, 1)])):
            value, mapping = exhaustive_oracle(g, mesh3, objective)
            expected = kernel_oracle(g, mesh3, objective)
            assert (value, mapping) == expected and type(value) is type(expected[0])


def cube_maps(n):
    """The cube's 48 axis permutations and reflections, each as the tile list it maps range(n^3) to."""
    maps = []
    for axes in itertools.permutations(range(3)):
        for flips in itertools.product((False, True), repeat=3):
            image = []
            for tile in range(n ** 3):
                x = coords(tile, n)
                y = [n - 1 - x[axis] if flip else x[axis] for axis, flip in zip(axes, flips)]
                image.append((y[0] * n + y[1]) * n + y[2])
            maps.append(image)
    return maps


class TestOracleSymmetry:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_maps_keep_every_hop_count(self, n):
        code, table = hop_table(Mesh3D(n))
        hops = table[code[:, None] - code[None, :]]
        maps = cube_maps(n)
        assert len({tuple(m) for m in maps}) == 48
        for image in maps:
            assert np.array_equal(hops[np.ix_(image, image)], hops)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_closed_form_first_tiles_are_the_orbit_minima(self, n):
        maps = cube_maps(n)
        minima = [t for t in range(n ** 3) if min(m[t] for m in maps) == t]
        assert harness._first_tiles(n) == minima
        assert len(minima) == {2: 1, 3: 4, 4: 4, 5: 10, 6: 10, 7: 20}[n]


class TestCompare:
    HEADER = "ddmap vs spiral (reduction = 100*(baseline-candidate)/baseline)"

    def test_identical_rows_reduce_zero(self):
        rows = [make_row(algo="ddmap"), make_row(algo="spiral")]
        assert format_comparison(rows, "ddmap", "spiral").splitlines() == [
            self.HEADER,
            "  b seed=0: energy 0.00%, cost 0.00%, latency 0.00%",
            "  mean: energy 0.00%, cost 0.00%, latency 0.00%",
        ]

    def test_halved_energy_is_fifty_percent(self):
        rows = [
            make_row(algo="ddmap", total_energy=100.0),
            make_row(algo="spiral", total_energy=200.0),
        ]
        lines = format_comparison(rows, "ddmap", "spiral").splitlines()
        assert lines[1] == "  b seed=0: energy 50.00%, cost 0.00%, latency 0.00%"

    def test_none_latency_skipped(self):
        rows = [
            make_row(algo="ddmap", avg_latency=None),
            make_row(algo="spiral", avg_latency=None),
        ]
        assert format_comparison(rows, "ddmap", "spiral").splitlines()[1:] == [
            "  b seed=0: energy 0.00%, cost 0.00%, latency n/a",
            "  mean: energy 0.00%, cost 0.00%, latency n/a",
        ]

    def test_benchmarks_in_sorted_order_and_other_algos_ignored(self):
        # the mean skips the latency that is undefined (zero baseline) on "a"
        rows = [
            make_row(benchmark="z", algo="spiral", total_energy=400.0, comm_cost=40),
            make_row(benchmark="z", algo="ddmap", total_energy=100.0, comm_cost=10),
            make_row(benchmark="z", algo="crinkle", total_energy=1.0),
            make_row(benchmark="a", algo="spiral", comm_cost=20, avg_latency=0.0),
            make_row(benchmark="a", algo="ddmap", total_energy=50.0, comm_cost=30),
        ]
        assert format_comparison(rows, "ddmap", "spiral").splitlines() == [
            self.HEADER,
            "  a seed=0: energy 50.00%, cost -50.00%, latency n/a",
            "  z seed=0: energy 75.00%, cost 75.00%, latency 0.00%",
            "  mean: energy 62.50%, cost 12.50%, latency 0.00%",
        ]
