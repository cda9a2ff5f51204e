import functools
import itertools
import re

import pytest

from nocmap import cli
from nocmap.cli import build_parser, main


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


def test_csv_appends_to_a_report_once_headed(demo_graph, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_bytes(b"")  # an empty file is a new report
    for _ in range(2):
        assert main(["map", "--graph", str(demo_graph), "--csv", str(csv_path)]) == 0
    header, *rows = csv_path.read_text().splitlines()
    assert header.startswith("benchmark,algo,mode") and len(rows) == 2


@pytest.mark.parametrize("text", [
    b"cores 4\nedge 0 1 5 1\n",  # a graph file given as --csv by mistake
    b"\n",
    b"benchmark,algo,mode\r\n",  # a header of other columns
    b"benchmark,algo,mode,total_energy,comm_cost,avg_latency,eta,runtime_ms,seed,x\r\n",
    b"benchmark,algo,mode,total_energy,comm_cost,avg_latency,eta,runtime_ms,seed",  # no row end
    b"\xff\xfe\x00binary",
])
def test_csv_that_is_not_a_report_is_refused(demo_graph, tmp_path, capsys, text):
    victim = tmp_path / "victim.ctg"
    victim.write_bytes(text)
    out_dir = tmp_path / "runs"
    rc = main(["map", "--graph", str(demo_graph), "--out", str(out_dir), "--csv", str(victim)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(victim) in captured.err
    assert captured.out == ""
    assert victim.read_bytes() == text
    assert not out_dir.exists()


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


@pytest.mark.parametrize("command", [
    ["map"],
    ["schedule", "--mode", "dynamic"],
    ["schedule", "--mode", "cluster"],
    ["optimize", "--pso-swarm-size", "4", "--pso-evals", "12"],
])
def test_a_graph_of_no_cores_gets_one_result_line(tmp_path, capsys, command):
    empty = tmp_path / "empty.ctg"
    assert main(["gen", "--cores", "0", "--arcs", "0", "--out", str(empty)]) == 0
    assert empty.read_text() == "cores 0\n"
    capsys.readouterr()
    assert main([*command, "--graph", str(empty)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert out.startswith("empty [") and " energy=0 pJ cost=0 latency=n/a eta=0 " in out
    assert main(["oracle", "--graph", str(empty)]) == 0
    assert capsys.readouterr() == ("optimum energy = 0\n", "")  # and no core line


def test_gen_refuses_a_negative_core_count(tmp_path, capsys):
    out = tmp_path / "g.ctg"
    assert main(["gen", "--cores", "-1", "--arcs", "0", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: core count must be non-negative\n") and not out.exists()


def test_gen_refuses_a_negative_seed(tmp_path, capsys):
    # -1 used to write the seed-1 graph while printing seed -1
    out = tmp_path / "g.ctg"
    assert main(["gen", "--cores", "6", "--arcs", "8", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: seed must be non-negative, got -1\n") and not out.exists()


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


def test_seed_mapping_with_duplicate_header_key_rejected(demo_graph, tmp_path, capsys):
    # the last mesh line names the run's mesh, but the artifact says two things
    seed = tmp_path / "dup.map"
    seed.write_text("# mesh = 2\n# mesh = 3\n" + "".join(f"core {c} -> tile {c}\n" for c in range(6)))
    out_dir = tmp_path / "runs"
    rc = main([
        "optimize", "--graph", str(demo_graph), "--mesh", "3", "--seed-mapping", str(seed),
        "--pso-swarm-size", "50", "--pso-evals", "500", "--out", str(out_dir),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {seed}: artifact line 2: duplicate header key 'mesh'\n"
    assert not out_dir.exists()


def test_oversize_swarm_is_an_error_not_a_traceback(demo_graph, capsys):
    # 200 particles on a 100x100x100 mesh: 23.6 GB of swarm arrays, refused before any is built
    rc = main(["optimize", "--graph", str(demo_graph), "--mesh", "100"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: a swarm of 200 particles on 1000000 tiles needs 23600048000 bytes of arrays"
    )


@pytest.mark.parametrize("command", ["map", "schedule", "optimize", "oracle"])
def test_oversize_mesh_is_an_error_not_a_traceback(demo_graph, command, capsys):
    # refused by Mesh3D before any per-mesh table is allocated
    rc = main([command, "--graph", str(demo_graph), "--mesh", "5000"])
    assert rc == 1
    assert re.match(r"error: mesh side length 5000 is above the limit of \d+: ", capsys.readouterr().err)


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


def test_schedule_dynamic_mode_refuses_cluster_mapper(demo_graph, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "schedule", "--graph", str(demo_graph), "--mode", "dynamic", "--cluster-mapper", "spiral",
        "--csv", str(csv_path),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "dynamic mode takes no algo, got 'spiral'" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()


def test_bench_all_algos_and_algo_are_exclusive(demo_graph, tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "bench", "--glob", str(demo_graph), "--all-algos", "--algo", "spiral",
            "--csv", str(csv_path),
        ])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""
    assert not csv_path.exists()


def test_bench_empty_glob(tmp_path, capsys):
    pattern = str(tmp_path / "*.nope")
    rc = main(["bench", "--glob", pattern])
    assert rc == 1
    assert capsys.readouterr().err == f"error: no graphs match {pattern!r}\n"


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.ctg"
    bad.write_text("cores 2\nedge 0 0 5 1\n")
    rc = main(["map", "--graph", str(bad)])
    assert rc == 1
    assert "self-loop" in capsys.readouterr().err


def test_map_refuses_totals_past_int64(tmp_path, capsys):
    big = tmp_path / "big.ctg"
    big.write_text(f"cores 2\nedge 0 1 {2 ** 63 - 1} 1\nedge 1 0 1 1\n")
    out_dir, csv_path = tmp_path / "runs", tmp_path / "rows.csv"
    rc = main(["map", "--graph", str(big), "--out", str(out_dir), "--csv", str(csv_path)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {big}: total arc volume {2 ** 63} does not fit int64\n")
    assert not csv_path.exists() and not out_dir.exists()


@pytest.mark.parametrize("command", ["map", "schedule", "optimize", "oracle"])
def test_malformed_graph_is_named_by_its_file(tmp_path, capsys, command):
    # map, schedule, optimize and oracle printed the line number alone
    bad = tmp_path / "bad.ctg"
    bad.write_text("cores 2\nfoo 0 1\n")
    assert main([command, "--graph", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: line 2: unknown directive 'foo'\n")


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


@pytest.mark.parametrize("text, fault", [
    ("cores 2\nedge 0 0 5 1\n", "line 2: self-loop on core 0"),
    ("cores 9\n", "9 cores exceed 8 tiles"),
    (f"cores 2\nedge 0 1 {2 ** 63 - 1} 1\nedge 1 0 1 1\n", f"total arc volume {2 ** 63} does not fit int64"),
])
def test_bench_checks_every_graph_before_running_any(tmp_path, capsys, text, fault):
    # a.ctg runs on its own; b.ctg cannot run, so neither may
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "a.ctg").write_text("cores 4\nedge 0 1 100 10\nedge 1 2 50 5\n")
    (graphs / "b.ctg").write_text(text)
    out_dir = tmp_path / "runs"
    csv_path = tmp_path / "rows.csv"
    rc = main([
        "bench", "--glob", str(graphs / "*.ctg"), "--mesh", "2",
        "--out", str(out_dir), "--csv", str(csv_path),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {graphs / 'b.ctg'}: {fault}\n"
    assert captured.out == ""
    assert not csv_path.exists() and not out_dir.exists()


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
    ([f"core {c} -> tile {c % 5}" for c in range(6)], "tile id 0 appears more than once"),
], ids=["lines0-core 2 is unmapped", "lines1-tile 0 holds more than one core"])  # the names the cases always had
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
    assert capsys.readouterr().err == f"error: {seed}: seed mapping: {fault}\n"
    assert not out_dir.exists() and not csv_path.exists()


# The energy flags, and the flags every map, schedule, optimize and bench run
# takes, all off their defaults.
_ENERGY = ["--e-link", "1.5", "--e-switch", "2.5", "--rho", "3.5"]
_RUN = ["--mesh", "4", "--seed", "2", "--out", "o", "--csv", "c", *_ENERGY]
# command -> (the required flags, argv lists that together move every flag off
# its default, a bad choice or None, a non-integer)
_ARGV = {
    "map": (["--graph", "g"], [["--graph", "h", *_RUN, "--algo", "spiral"]],
            ["--algo", "nope"], ["--mesh", "2.5"]),
    "schedule": (["--graph", "g"],
                 [["--graph", "h", *_RUN, "--mode", "cluster", "--cluster-mapper", "crinkle"]],
                 ["--mode", "nope"], ["--mesh", "2.5"]),
    "optimize": (["--graph", "g"],
                 [["--graph", "h", *_RUN, "--objective", "cost", "--seed-mapping", "s.map",
                   "--pso-swarm-size", "7", "--pso-evals", "9", "--pso-c1", "0.5",
                   "--pso-c2", "0.25", "--pso-w", "0.125"]],
                 ["--objective", "nope"], ["--mesh", "2.5"]),
    "gen": (["--cores", "4", "--arcs", "6", "--out", "g"],
            [["--cores", "5", "--arcs", "7", "--out", "h", "--seed", "3"]],
            None, ["--cores", "x"]),
    "oracle": (["--graph", "g"],
               [["--graph", "h", "--mesh", "2", "--objective", "cost", *_ENERGY]],
               ["--objective", "nope"], ["--mesh", "2.5"]),
    "bench": (["--glob", "g"],
              [["--glob", "h", "--all-algos", "--mode", "cluster", *_RUN,
                "--compare", "ddmap", "spiral"],
               ["--glob", "h", "--algo", "crinkle"]],
              ["--mode", "nope"], ["--mesh", "2.5"]),
}


def _outcome(parser, argv, capsys):
    """A parse's namespace, or its exit code and output."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [[], ["-h"], ["nope"]])
def test_no_known_command_gets_the_full_parser(argv, capsys):
    expected = _outcome(build_parser(), argv, capsys)
    assert "{map,schedule,optimize,gen,oracle,bench}" in expected[1] + expected[2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == expected


@pytest.fixture
def builds(monkeypatch):
    """The parsers ``build_parser`` builds from an empty parser cache, as in a new process."""
    built = []
    fresh = cli.build_parser

    def counting():
        built.append(fresh())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    monkeypatch.setattr(cli, "build_parser", counting)
    return built


def test_a_process_builds_one_parser(demo_graph, builds, capsys):
    assert main(["map", "--graph", str(demo_graph), "--mesh", "2"]) == 0
    assert main(["map", "--graph", str(demo_graph), "--mesh", "3"]) == 0
    assert main(["schedule", "--graph", str(demo_graph), "--mesh", "2"]) == 0
    assert len(builds) == 1 and cli._parser() is builds[0]  # one parser, whatever the commands


def test_unknown_commands_share_the_full_parser(demo_graph, builds, capsys):
    assert main(["map", "--graph", str(demo_graph), "--mesh", "2"]) == 0
    for i in range(50):
        with pytest.raises(SystemExit) as exc:
            main([f"nope{i}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"invalid choice: 'nope{i}'" in err
        assert "{map,schedule,optimize,gen,oracle,bench}" in err
    for argv in [[], ["-h"], *([command, "-h"] for command in _ARGV)]:
        with pytest.raises(SystemExit):
            main(argv)
    assert len(builds) == 1  # the map run's parser, however many bad commands


def _reuse_sequence():
    """Every ``_ARGV`` parse of each command with an error exit after each, the
    commands taking turns: ``bench --compare`` is followed by a bench without it."""
    per_command = []
    for command, (required, every, bad_choice, non_int) in _ARGV.items():
        argvs = [[command, *required], [command, *required, "--bogus"]]
        for flags in every:
            argvs += [[command, *flags], [command, *required, *non_int]]
        if bad_choice is not None:
            argvs.append([command, *required, *bad_choice])
        per_command.append(argvs)
    return [argv for turn in itertools.zip_longest(*per_command) for argv in turn if argv]


@pytest.mark.parametrize("command", list(_ARGV))
def test_reused_parser_matches_fresh_parser(command, capsys):
    required, every, bad_choice, non_int = _ARGV[command]
    reused, fresh = cli._parser(), build_parser()

    defaults = _outcome(reused, [command, *required], capsys)
    assert defaults == _outcome(fresh, [command, *required], capsys)
    moved = set()
    for flags in every:
        parsed = _outcome(reused, [command, *flags], capsys)
        assert parsed == _outcome(fresh, [command, *flags], capsys)
        moved |= {key for key in parsed if parsed[key] != defaults[key]}
    assert moved == set(defaults) - {"command", "func"}

    code, out, err = _outcome(reused, [command, "-h"], capsys)
    assert code == 0 and out.startswith(f"usage: nocmap {command} ") and err == ""
    assert (code, out, err) == _outcome(fresh, [command, "-h"], capsys)

    errors = [[], [*required, "--bogus"], [*required, *non_int]]
    if bad_choice is not None:
        errors.append([*required, *bad_choice])
    for argv in errors:
        code, out, err = _outcome(reused, [command, *argv], capsys)
        assert code == 2 and out == "" and err.startswith("usage: nocmap")
        assert (code, out, err) == _outcome(fresh, [command, *argv], capsys)
    assert cli._parser() is reused


def test_reused_parsers_parse_as_fresh_ones(builds, capsys):
    for argv in _reuse_sequence() * 2:
        parsed = _outcome(cli._parser(), argv, capsys)
        assert parsed == _outcome(build_parser(), argv, capsys)
        if not isinstance(parsed, dict):
            assert parsed[0] == 2 and parsed[1] == "" and parsed[2].startswith("usage: nocmap")
    assert len(builds) == 1


def test_reused_parser_help_follows_columns(builds, monkeypatch, capsys):
    helps = {}
    for columns in ("60", "120", "60", "120"):  # all but the first reuse one parser
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["map", "-h"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == _outcome(build_parser(), ["map", "-h"], capsys)
        assert helps.setdefault(columns, captured.out) == captured.out
    assert len(builds) == 1
    widths = {columns: max(map(len, text.splitlines())) for columns, text in helps.items()}
    assert widths["60"] <= 60 < widths["120"] <= 120
