import csv
import dataclasses
import itertools
import random
import re

import pytest

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
from nocmap.taskgraph import graph_from_arcs, serialize_graph

from conftest import G1_ARCS
from oracles import brute_cost, brute_energy, manhattan3


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.ctg"
    path.write_text(serialize_graph(graph_from_arcs(4, G1_ARCS)))
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


class TestRunBenchmark:
    def test_row_matches_fresh_evaluation(self, g1_file, mesh3):
        cfg = RunConfig(graph=g1_file, mode="map", algo="ddmap")
        row, placement = run_benchmark(cfg)
        g = graph_from_arcs(4, G1_ARCS)
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

    def test_seed_artifact_without_header(self, g1_file, tmp_path):
        artifact = tmp_path / "bare.map"
        artifact.write_text("".join(f"core {c} -> tile {c}\n" for c in range(4)))
        cfg = RunConfig(
            graph=g1_file, mesh_n=2, mode="pso", seed_mapping=artifact,
            pso=PsoParams(seed=0, max_evals_per_simulation=400),
        )
        row, _ = run_benchmark(cfg)
        assert row.total_energy <= evaluate(
            graph_from_arcs(4, G1_ARCS), {0: 0, 1: 1, 2: 2, 3: 3}, Mesh3D(2)
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


class TestOracle:
    def test_single_core(self, mesh2):
        g = graph_from_arcs(1, [])
        value, mapping = exhaustive_oracle(g, mesh2)
        assert value == 0.0 and mapping == {0: 0}

    def test_two_cores_one_arc(self, mesh2):
        g = graph_from_arcs(2, [(0, 1, 100, 10)])
        value, mapping = exhaustive_oracle(g, mesh2)
        assert value == 100 * EnergyModel().energy(2, 1)  # one link, two routers
        assert manhattan3(mapping[0], mapping[1], 2) == 1

    def test_lexicographically_smallest_argmin(self, mesh2):
        g = graph_from_arcs(2, [(0, 1, 100, 10)])
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


def plain_oracle(g, n, objective):
    """First minimum over every injective assignment, one brute-force evaluation each."""
    brute = brute_energy if objective == "energy" else brute_cost
    best = None
    for assign in itertools.permutations(range(n ** 3), g.n_cores):
        value = brute(g, dict(enumerate(assign)), n)
        if best is None or value < best[0]:
            best = (value, dict(enumerate(assign)))
    return best


class TestChunkedOracle:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 15])
    @pytest.mark.parametrize("objective", ["energy", "cost"])
    def test_matches_plain_loop(self, monkeypatch, mesh2, chunk, objective):
        # 1680 assignments per graph: small chunks put ties on chunk boundaries
        monkeypatch.setattr(harness, "ORACLE_CHUNK", chunk)
        for seed in range(4):
            rng = random.Random(seed)
            g = generate_random_graph(4, rng.randint(1, 12), seed=seed)
            assert exhaustive_oracle(g, mesh2, objective) == plain_oracle(g, 2, objective)

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 15])
    @pytest.mark.parametrize("n_cores", [1, 3])
    def test_zero_arcs(self, monkeypatch, mesh2, chunk, n_cores):
        monkeypatch.setattr(harness, "ORACLE_CHUNK", chunk)
        g = graph_from_arcs(n_cores, [])
        expected = plain_oracle(g, 2, "energy")
        assert exhaustive_oracle(g, mesh2) == expected == (0.0, {c: c for c in range(n_cores)})
        cost = exhaustive_oracle(g, mesh2, "cost")
        assert cost == (0, expected[1]) and isinstance(cost[0], int)


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
