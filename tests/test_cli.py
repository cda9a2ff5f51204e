import re

import pytest

from nocmap.cli import main


@pytest.fixture
def demo_graph(tmp_path):
    path = tmp_path / "demo.ctg"
    rc = main(["gen", "--cores", "6", "--arcs", "10", "--seed", "7", "--out", str(path)])
    assert rc == 0
    return path


def test_gen_then_map(demo_graph, capsys):
    rc = main(["map", "--graph", str(demo_graph), "--mesh", "3", "--algo", "ddmap"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[map/ddmap]" in out and "energy=" in out


def test_map_writes_artifact_and_csv(demo_graph, tmp_path, capsys):
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "map", "--graph", str(demo_graph), "--algo", "spiral",
        "--out", str(out_dir), "--csv", str(csv_path),
    ])
    assert rc == 0
    assert (out_dir / "demo__map__spiral__seed0.map").exists()
    assert csv_path.read_text().splitlines()[0].startswith("benchmark,algo,mode")


def test_schedule_modes(demo_graph, capsys):
    assert main(["schedule", "--graph", str(demo_graph), "--mode", "dynamic"]) == 0
    assert main([
        "schedule", "--graph", str(demo_graph), "--mode", "cluster",
        "--cluster-mapper", "crinkle",
    ]) == 0
    out = capsys.readouterr().out
    assert "[dynamic/ddmap]" in out and "[cluster/crinkle]" in out


def test_optimize_small_budget(demo_graph, capsys):
    rc = main([
        "optimize", "--graph", str(demo_graph), "--mesh", "2",
        "--objective", "energy", "--pso-swarm-size", "50", "--pso-evals", "500",
    ])
    assert rc == 0
    assert "[pso/pso]" in capsys.readouterr().out


def test_seed_mapping_from_another_mesh_rejected(demo_graph, tmp_path, capsys):
    seeds = tmp_path / "seeds"
    assert main(["map", "--graph", str(demo_graph), "--mesh", "2", "--out", str(seeds)]) == 0
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "optimize", "--graph", str(demo_graph), "--mesh", "3",
        "--seed-mapping", str(seeds / "demo__map__ddmap__seed0.map"),
        "--pso-swarm-size", "50", "--pso-evals", "500",
        "--out", str(out_dir), "--csv", str(csv_path),
    ])
    assert rc == 1
    assert "for mesh 2, not mesh 3" in capsys.readouterr().err
    assert not out_dir.exists() and not csv_path.exists()


@pytest.mark.parametrize("bad", ["core 0 -> tile x", "core 0 -> tile 4.5"])
def test_seed_mapping_with_non_integer_id_rejected(demo_graph, tmp_path, capsys, bad):
    seed = tmp_path / "bad.map"
    seed.write_text(f"# mesh = 2\n{bad}\n")
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "optimize", "--graph", str(demo_graph), "--mesh", "2", "--seed-mapping", str(seed),
        "--pso-swarm-size", "50", "--pso-evals", "500",
        "--out", str(out_dir), "--csv", str(csv_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{seed}: artifact line 2: expected 'core <id> -> tile <id>'" in err
    assert not out_dir.exists() and not csv_path.exists()


def test_oracle_output(tmp_path, capsys):
    path = tmp_path / "pair.ctg"
    path.write_text("cores 2\nedge 0 1 100 10\n")
    rc = main(["oracle", "--graph", str(path), "--mesh", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("optimum energy = 101.7")
    assert "core 0 -> tile 0" in out


def test_bench_all_algos_with_compare(demo_graph, tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    rc = main([
        "bench", "--glob", str(demo_graph), "--all-algos",
        "--csv", str(csv_path), "--compare", "ddmap", "crinkle",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("demo [map/") == 3
    assert "ddmap vs crinkle" in out
    assert len(csv_path.read_text().splitlines()) == 4  # header + 3 rows


def test_bench_dynamic_mode_refuses_other_algo(demo_graph, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "bench", "--glob", str(demo_graph), "--mode", "dynamic", "--algo", "spiral",
        "--csv", str(csv_path),
    ])
    assert rc == 1
    assert "'spiral'" in capsys.readouterr().err
    assert not csv_path.exists()


def test_bench_empty_glob(tmp_path, capsys):
    rc = main(["bench", "--glob", str(tmp_path / "*.nope")])
    assert rc == 1
    assert "no graphs match" in capsys.readouterr().err


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.ctg"
    bad.write_text("cores 2\nedge 0 0 5 1\n")
    rc = main(["map", "--graph", str(bad)])
    assert rc == 1
    assert "self-loop" in capsys.readouterr().err


def test_non_finite_energy_constant_rejected(demo_graph, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    rc = main(["map", "--graph", str(demo_graph), "--e-link", "nan", "--csv", str(csv_path)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not csv_path.exists()


def test_bench_checks_every_run_before_running_any(demo_graph, tmp_path, capsys):
    # ddmap is a valid dynamic-mode run; spiral is refused, so neither may run
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "bench", "--glob", str(demo_graph), "--mode", "dynamic", "--all-algos",
        "--csv", str(csv_path),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "'spiral'" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()


@pytest.mark.parametrize("flag, value", [
    ("--pso-w", "nan"), ("--pso-c1", "-5"), ("--pso-c2", "inf"),
])
def test_bad_swarm_constant_rejected(demo_graph, tmp_path, capsys, flag, value):
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "optimize", "--graph", str(demo_graph), "--mesh", "2", flag, value,
        "--pso-swarm-size", "50", "--pso-evals", "500", "--csv", str(csv_path),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert flag.removeprefix("--pso-") in captured.err and "finite and non-negative" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()


def test_bench_checks_compare_labels_before_running_any(demo_graph, tmp_path, capsys):
    # without --all-algos only ddmap runs, so spiral has no row to compare with
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "bench", "--glob", str(demo_graph), "--mesh", "2", "--out", str(out_dir),
        "--csv", str(csv_path), "--compare", "ddmap", "spiral",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "expected one row each for 'ddmap' and 'spiral'" in captured.err
    assert captured.out == ""
    assert not csv_path.exists() and not out_dir.exists()


@pytest.mark.parametrize("flags", [
    ["--mode", "cluster", "--compare", "cluster", "ddmap"],  # a mode is not an algo
    ["--all-algos", "--compare", "ddmap", "ddmap"],  # a row compared with itself
])
def test_bench_compare_needs_two_algos_it_runs(demo_graph, tmp_path, capsys, flags):
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "bench", "--glob", str(demo_graph), "--mesh", "2", "--out", str(out_dir),
        "--csv", str(csv_path), *flags,
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"expected one row each for '{flags[-2]}' and '{flags[-1]}'" in captured.err
    assert captured.out == ""
    assert not csv_path.exists() and not out_dir.exists()


def test_bench_refuses_two_graphs_with_one_name(tmp_path, capsys):
    # both would be benchmark 'x': one artifact name, two indistinguishable CSV rows
    for sub, seed in (("a", "1"), ("b", "2")):
        (tmp_path / sub).mkdir()
        path = str(tmp_path / sub / "x.ctg")
        assert main(["gen", "--cores", "6", "--arcs", "10", "--seed", seed, "--out", path]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "bench", "--glob", str(tmp_path / "*" / "x.ctg"), "--mesh", "2",
        "--out", str(out_dir), "--csv", str(csv_path),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    a, b = tmp_path / "a" / "x.ctg", tmp_path / "b" / "x.ctg"
    assert f"graphs {a} and {b} share the benchmark name 'x'" in captured.err
    assert captured.out == ""
    assert not csv_path.exists() and not out_dir.exists()


def test_bench_compare_text(tmp_path, capsys):
    for seed in ("1", "2"):
        path = str(tmp_path / f"g{seed}.ctg")
        assert main(["gen", "--cores", "8", "--arcs", "12", "--seed", seed, "--out", path]) == 0
    capsys.readouterr()
    rc = main([
        "bench", "--glob", str(tmp_path / "g*.ctg"), "--all-algos", "--compare", "ddmap", "crinkle",
    ])
    assert rc == 0
    out = re.sub(r"runtime_ms=[0-9.]+", "runtime_ms=X", capsys.readouterr().out)
    assert out == """\
g1 [map/ddmap] energy=5315.67 pJ cost=870 latency=441.083 eta=12 runtime_ms=X seed=0
g1 [map/spiral] energy=7483.89 pJ cost=803 latency=687.583 eta=12 runtime_ms=X seed=0
g1 [map/crinkle] energy=7187.75 pJ cost=777 latency=653.917 eta=12 runtime_ms=X seed=0
g2 [map/ddmap] energy=9168.57 pJ cost=984 latency=815.667 eta=12 runtime_ms=X seed=0
g2 [map/spiral] energy=11583.8 pJ cost=1070 latency=1090.25 eta=12 runtime_ms=X seed=0
g2 [map/crinkle] energy=8958.2 pJ cost=930 latency=791.75 eta=12 runtime_ms=X seed=0
ddmap vs crinkle (reduction = 100*(baseline-candidate)/baseline)
  g1 seed=0: energy 26.05%, cost -11.97%, latency 32.55%
  g2 seed=0: energy -2.35%, cost -5.81%, latency -3.02%
  mean: energy 11.85%, cost -8.89%, latency 14.76%
"""


@pytest.mark.parametrize("lines, fault", [
    (["core 0 -> tile 0", "core 1 -> tile 1"], "core 2 is unmapped"),
    ([f"core {c} -> tile {c % 5}" for c in range(6)], "tile 0 holds more than one core"),
])
def test_seed_mapping_placement_error_names_file(demo_graph, tmp_path, capsys, lines, fault):
    seed = tmp_path / "short.map"
    seed.write_text("\n".join(["# mesh = 2", *lines]) + "\n")
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "optimize", "--graph", str(demo_graph), "--mesh", "2", "--seed-mapping", str(seed),
        "--pso-swarm-size", "50", "--pso-evals", "500",
        "--out", str(out_dir), "--csv", str(csv_path),
    ])
    assert rc == 1
    assert f"error: {seed}: seed mapping: {fault}\n" in capsys.readouterr().err
    assert not out_dir.exists() and not csv_path.exists()
