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
