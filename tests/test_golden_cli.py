"""Golden CLI corpus: every shipped graph through every pipeline, byte for byte.

Each run's stdout, mapping artifact, PSO trace CSV and CSV report row must
match the digests in ``golden_cli.json``; the runtime is removed from stdout
and from the row first, since it is the only field that varies between
identical runs.

The ``ci/`` runs are the CI workflow's benchmark-scale commands: 3000 tasks
scheduled and 1000 cores mapped on a 10x10x10 mesh, the D = 125 swarm and
the oracle at its limit.  They work from a directory holding the generated
graphs under the workflow's names (``big.ctg``, ``g1000.ctg``, ``g100.ctg``,
``g5.ctg``), because an artifact header records the graph path as given;
so their artifacts, traces and oracle output are the bytes the workflow
used to pin by sha256.

A change that alters any output on purpose re-records the file, from the
repository root, with::

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json

and says why in its description.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from nocmap.cli import main
from nocmap.mappers import MAPPERS
from nocmap.metrics import OBJECTIVES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_cli.json")
PARTS = ("stdout", "artifact", "trace", "row")
RUNTIME = re.compile(r" runtime_ms=\S+")


# The CI workflow's generated graphs: file name -> ``gen`` arguments.
CI_GRAPHS = {
    "big.ctg": ["--cores", "3000", "--arcs", "4500", "--seed", "1"],
    "g1000.ctg": ["--cores", "1000", "--arcs", "1500", "--seed", "1"],
    "g512.ctg": ["--cores", "512", "--arcs", "768", "--seed", "1"],
    "g100.ctg": ["--cores", "100", "--arcs", "180", "--seed", "1"],
    "g5.ctg": ["--cores", "5", "--arcs", "8", "--seed", "1"],
}


def corpus() -> dict[str, list[str]]:
    """Run id -> CLI arguments, with graph paths relative to the repository root
    or, for ``ci/`` ids, to the directory of ``CI_GRAPHS``."""
    runs: dict[str, list[str]] = {}
    for path in sorted((ROOT / "benchmarks").glob("*.ctg")):
        name = path.stem
        base = ["--graph", f"benchmarks/{path.name}", "--mesh", "2" if name == "demo4" else "3"]
        for algo in MAPPERS:
            runs[f"{name}/map/{algo}"] = ["map", *base, "--algo", algo]
        runs[f"{name}/schedule/dynamic"] = ["schedule", *base, "--mode", "dynamic"]
        for algo in MAPPERS:
            runs[f"{name}/schedule/cluster/{algo}"] = [
                "schedule", *base, "--mode", "cluster", "--cluster-mapper", algo,
            ]
        for objective in OBJECTIVES:
            runs[f"{name}/optimize/{objective}"] = [
                "optimize", *base, "--objective", objective, "--pso-evals", "5000", "--seed", "3",
            ]
    for objective in OBJECTIVES:
        runs[f"demo4/oracle/{objective}"] = [
            "oracle", "--graph", "benchmarks/demo4.ctg", "--mesh", "2", "--objective", objective,
        ]
    runs["ci/big/schedule/dynamic"] = ["schedule", "--graph", "big.ctg", "--mesh", "10", "--mode", "dynamic"]
    runs["ci/big/schedule/cluster"] = ["schedule", "--graph", "big.ctg", "--mesh", "10", "--mode", "cluster"]
    runs["ci/g1000/map/ddmap"] = ["map", "--graph", "g1000.ctg", "--mesh", "10"]
    runs["ci/g512/map/ddmap"] = ["map", "--graph", "g512.ctg", "--mesh", "8"]
    for objective in OBJECTIVES:
        runs[f"ci/g100/optimize/{objective}"] = [
            "optimize", "--graph", "g100.ctg", "--mesh", "5", "--objective", objective,
        ]
        runs[f"ci/g5/oracle/{objective}"] = [
            "oracle", "--graph", "g5.ctg", "--mesh", "3", "--objective", objective,
        ]
    return runs


@contextlib.contextmanager
def _working_in(directory: Path):
    """Work from ``directory``, so artifact headers name graph paths relative to it."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def make_ci_graphs(directory: Path) -> Path:
    """Generate ``CI_GRAPHS`` into ``directory`` with the CLI, as the workflow does."""
    for name, args in CI_GRAPHS.items():
        with _working_in(directory), contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", *args, "--out", name]) == 0
    return directory


def _digest(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digests(argv: list[str], work: Path, cwd: Path = ROOT) -> dict[str, str | None]:
    """Run one CLI command from ``cwd``; digest each of its outputs.

    ``work`` must be an empty directory; the run writes its artifact and CSV
    row there, so runs that share an artifact name are digested apart.
    """
    out_dir, csv_path = work / "out", work / "rows.csv"
    if argv[0] != "oracle":
        argv = [*argv, "--out", str(out_dir), "--csv", str(csv_path)]
    sink = io.StringIO()
    with _working_in(cwd), contextlib.redirect_stdout(sink):
        code = main(argv)
    assert code == 0, f"exit {code}"
    outputs: dict[str, str | None] = dict.fromkeys(PARTS)
    outputs["stdout"] = RUNTIME.sub("", sink.getvalue())
    if out_dir.exists():
        (artifact,) = out_dir.glob("*.map")
        outputs["artifact"] = artifact.read_text(encoding="utf-8")
        traces = list(out_dir.glob("*.trace.csv"))
        outputs["trace"] = traces[0].read_text(encoding="utf-8") if traces else None
    if csv_path.exists():
        with csv_path.open(newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        outputs["row"] = repr(sorted((k, v) for k, v in row.items() if k != "runtime_ms"))
    return {part: _digest(text) for part, text in outputs.items()}


@pytest.fixture(scope="module")
def ci_graphs(tmp_path_factory) -> Path:
    return make_ci_graphs(tmp_path_factory.mktemp("ci_graphs"))


@pytest.mark.parametrize("run", list(corpus()))
def test_cli_output_matches_golden(run, tmp_path, request):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[run]
    cwd = request.getfixturevalue("ci_graphs") if run.startswith("ci/") else ROOT
    got = run_digests(corpus()[run], tmp_path, cwd)
    changed = [part for part in PARTS if got[part] != expected[part]]
    assert not changed, f"{run}: {', '.join(changed)} differ from the recorded output"


def test_golden_covers_the_corpus():
    assert set(json.loads(GOLDEN.read_text(encoding="utf-8"))) == set(corpus())


if __name__ == "__main__":
    golden = {}
    with tempfile.TemporaryDirectory() as graphs:
        make_ci_graphs(Path(graphs))
        for run_id, args in corpus().items():
            with tempfile.TemporaryDirectory() as tmp:
                cwd = Path(graphs) if run_id.startswith("ci/") else ROOT
                golden[run_id] = run_digests(args, Path(tmp), cwd)
    json.dump(golden, sys.stdout, indent=1)
    print()
