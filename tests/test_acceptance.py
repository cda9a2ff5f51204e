"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion, plus the measured numbers of the paper's three experiments:
the mappers' mean metrics (criterion 6), cluster against dynamic scheduling
and ddmap against spiral and crinkle on clusters (criterion 7) and the seeded swarm against its seeds (criterion 8).
"""

import dataclasses
import statistics
import time
from contextlib import contextmanager

import numpy as np

from nocmap import (
    Mesh3D,
    PsoParams,
    RunConfig,
    cluster_schedule,
    ddmap,
    evaluate,
    generate_random_graph,
    pso_optimize,
    run_benchmark,
)
from nocmap.harness import exhaustive_oracle
from nocmap.mappers import crinkle_order, map_with, sequence_map, spiral_order
from nocmap.metrics import EnergyModel
from nocmap.scheduler import cluster_graph, cluster_tasks, dynamic_schedule
from nocmap.taskgraph import TaskGraph, priority_order, serialize_graph
from nocmap.topology import lozenge_next_empty

from conftest import G1_ARCS
from oracles import brute_cost, brute_energy, brute_eta, brute_latency, layer_counts, manhattan3


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS  {description}  [{elapsed:.1f}s]")


def test_criterion_1_bit_energy_arithmetic():
    with criterion(1, "per-bit energy arithmetic with default constants"):
        # h links visit h + 1 routers
        assert abs(EnergyModel().energy(6 + 1, 6) - 4.682) <= 1e-12
        assert abs(EnergyModel().energy(1 + 1, 1) - 1.017) <= 1e-12


def test_criterion_2_metric_oracle_equivalence():
    with criterion(2, "metrics match the independent brute-force evaluator on 200 pairs"):
        import random

        mesh = Mesh3D(3)
        for case in range(200):
            rng = random.Random(9_000 + case)
            n_cores = rng.randint(2, 12)
            n_arcs = rng.randint(1, n_cores * (n_cores - 1))
            g = generate_random_graph(n_cores, n_arcs, seed=case)
            placement = dict(enumerate(rng.sample(range(27), n_cores)))
            rep = evaluate(g, placement, mesh)
            assert rep.total_energy == brute_energy(g, placement, 3)
            assert rep.comm_cost == brute_cost(g, placement, 3)
            assert rep.eta == brute_eta(g)
            if rep.eta > 0:
                assert rep.avg_latency == brute_latency(g, placement, 3)


def test_criterion_3_topology_exhaustive():
    with criterion(3, "routing-distance metric axioms and single-free-tile searches"):
        for n in (2, 3, 4):
            tiles = n ** 3
            m = np.empty((tiles, tiles), dtype=np.int64)
            for a in range(tiles):
                for b in range(tiles):
                    m[a, b] = manhattan3(a, b, n)
            assert np.array_equal(m, m.T)
            assert all((m[a, b] == 0) == (a == b) for a in range(tiles) for b in range(tiles))
            assert bool(np.all(m[:, None, :] <= m[:, :, None] + m[None, :, :]))

        mesh = Mesh3D(3)
        for anchor in range(27):
            for free in range(27):
                mask = np.zeros(27, dtype=bool)
                mask[free] = True
                assert lozenge_next_empty(anchor, mask, layer_counts(mask, mesh), mesh) == free


def test_criterion_4_ddmap_anchor_and_validity():
    with criterion(4, "diagonal seeding and injective totality over 500 random graphs"):
        import random

        cases = 0
        for n in (3, 4, 5):
            mesh = Mesh3D(n)
            first, second = (n * n + n + 1), 2 * (n * n + n + 1)
            for i in range(167):
                rng = random.Random(n * 1_000 + i)
                n_cores = rng.randint(2, min(20, mesh.tile_count))
                n_arcs = rng.randint(0, min(40, n_cores * (n_cores - 1)))
                g = generate_random_graph(n_cores, n_arcs, seed=i)
                mapping = ddmap(g, mesh)
                cases += 1
                order = priority_order(g)
                assert mapping[order[0]] == first
                if n >= 4:
                    assert mapping[order[1]] == second
                assert set(mapping) == set(range(n_cores))
                tiles = list(mapping.values())
                assert len(set(tiles)) == len(tiles)
        assert cases >= 500


def test_criterion_5_pso_attains_exhaustive_optimum():
    with criterion(5, "swarm search attains the exhaustive optimum on >= 9/10 seeds"):
        mesh = Mesh3D(2)
        hits = 0
        for seed in range(10):
            g = generate_random_graph(4, 6, seed=100 + seed)
            optimum, _ = exhaustive_oracle(g, mesh, "energy")
            result = pso_optimize(g, mesh, PsoParams(seed=seed))
            values = [v for _, _, v in result.trace]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert result.fitness >= optimum
            hits += result.fitness == optimum
        assert hits >= 9


def test_criterion_6_mapper_energy_ordering():
    with criterion(6, "mean energy over 100 random graphs: ddmap < spiral < crinkle"):
        mesh = Mesh3D(3)
        means = {}
        for algo in ("ddmap", "spiral", "crinkle"):
            reports = []
            for seed in range(100):
                g = generate_random_graph(16, 24, seed=seed)
                reports.append(evaluate(g, map_with(algo, g, mesh), mesh))
            means[algo] = statistics.mean(r.total_energy for r in reports)
            print(
                f"  {algo:8s} mean energy {means[algo]:10.1f} pJ   "
                f"mean cost {statistics.mean(r.comm_cost for r in reports):8.1f}   "
                f"mean latency {statistics.mean(r.avg_latency for r in reports):8.1f}"
            )
        for other in ("spiral", "crinkle"):
            reduction = 100 * (means[other] - means["ddmap"]) / means[other]
            print(f"  ddmap vs {other}: {reduction:.1f}% mean energy reduction")
        assert means["ddmap"] < means["spiral"] < means["crinkle"]


def test_criterion_7_cluster_beats_dynamic():
    with criterion(7, "cluster beats dynamic on all three mean metrics; ddmap beats spiral and crinkle on clusters"):
        mesh = Mesh3D(3)
        dyn = {"energy": [], "cost": [], "latency": []}
        clu = {"energy": [], "cost": [], "latency": []}
        clu_energy = {"ddmap": [], "spiral": [], "crinkle": []}  # per cluster mapper
        for seed in range(50):
            g = generate_random_graph(27, 40, seed=seed)
            for store, placement in (
                (dyn, dynamic_schedule(g, mesh).placement),
                (clu, cluster_schedule(g, mesh).placement),
            ):
                rep = evaluate(g, placement, mesh)
                store["energy"].append(rep.total_energy)
                store["cost"].append(rep.comm_cost)
                store["latency"].append(rep.avg_latency)
            for mapper, energies in clu_energy.items():
                placement = cluster_schedule(g, mesh, mapper).placement
                energies.append(evaluate(g, placement, mesh).total_energy)

            # task-level evaluation must equal the cluster-level evaluation exactly
            parts = cluster_tasks(g, mesh.tile_count)
            cg = cluster_graph(g, parts)
            task_level = evaluate(g, cluster_schedule(g, mesh).placement, mesh)
            assert task_level.total_energy == evaluate(cg, ddmap(cg, mesh), mesh).total_energy

        for metric in ("energy", "cost", "latency"):
            mean_dyn = statistics.mean(dyn[metric])
            mean_clu = statistics.mean(clu[metric])
            assert mean_clu < mean_dyn
            print(
                f"  {metric}: dynamic {mean_dyn:.1f} -> cluster {mean_clu:.1f} "
                f"({100 * (mean_dyn - mean_clu) / mean_dyn:.1f}% reduction)"
            )

        # the paper's last claim: cluster mapping with ddmap against spiral and crinkle
        means = {mapper: statistics.mean(e) for mapper, e in clu_energy.items()}
        for other, paper in (("spiral", 9), ("crinkle", 14)):
            reduction = 100 * (means[other] - means["ddmap"]) / means[other]
            print(
                f"  cluster energy: ddmap {means['ddmap']:.1f} vs {other} {means[other]:.1f} "
                f"({reduction:.1f}% reduction; paper {paper}%)"
            )
            assert means["ddmap"] < means[other]


def test_criterion_8_seeded_pso_dominates_baselines():
    with criterion(8, "seeded swarm never regresses and improves >= 80% of instances"):
        mesh = Mesh3D(3)
        for order_fn, label in ((spiral_order, "spiral"), (crinkle_order, "crinkle")):
            gains = []
            for i in range(25):
                g = generate_random_graph(27, 40, seed=300 + i)
                cg = cluster_graph(g, cluster_tasks(g, mesh.tile_count))
                seed_map = sequence_map(cg, mesh, order_fn(mesh))
                seed_fitness = evaluate(cg, seed_map, mesh).total_energy
                result = pso_optimize(
                    cg, mesh, PsoParams(seed=i), "energy", seed_mapping=seed_map
                )
                assert result.fitness <= seed_fitness, label
                if result.fitness < seed_fitness:
                    gains.append(100 * (seed_fitness - result.fitness) / seed_fitness)
            print(
                f"  {label:8s} improved {len(gains)}/25 instances, mean energy reduction "
                f"on improved runs {statistics.mean(gains) if gains else 0.0:.1f}%"
            )
            assert len(gains) >= 20, label


def test_criterion_9_pipelines_are_byte_deterministic(tmp_path):
    with criterion(9, "re-runs produce byte-identical artifacts and CSV rows"):
        graph_path = tmp_path / "bench.ctg"
        graph_path.write_text(serialize_graph(TaskGraph(4, G1_ARCS)))
        pipelines = [
            dict(mode="map", algo="ddmap"),
            dict(mode="map", algo="spiral"),
            dict(mode="map", algo="crinkle"),
            dict(mode="dynamic"),
            dict(mode="cluster", algo="ddmap"),
            dict(mode="pso", pso=PsoParams(seed=0, max_evals_per_simulation=5_000)),
        ]
        for kwargs in pipelines:
            outs = []
            rows = []
            for run in ("first", "second"):
                out = tmp_path / f"{kwargs['mode']}_{kwargs.get('algo', 'x')}_{run}"
                cfg = RunConfig(
                    graph=graph_path, out_dir=out, csv_path=out / "rows.csv", **kwargs
                )
                rows.append(run_benchmark(cfg)[0])
                outs.append(out)
            names = [sorted(p.name for p in out.iterdir()) for out in outs]
            assert names[0] == names[1]
            for name in names[0]:
                if name == "rows.csv":
                    continue
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

            def strip_runtime(path):
                lines = []
                for line in (path / "rows.csv").read_text().splitlines():
                    cells = line.split(",")
                    del cells[7]  # runtime_ms column
                    lines.append(",".join(cells))
                return lines

            assert strip_runtime(outs[0]) == strip_runtime(outs[1])
            assert dataclasses.replace(rows[0], runtime_ms=0.0) == dataclasses.replace(
                rows[1], runtime_ms=0.0
            )
