import ast
import importlib
import importlib.util
import types
from pathlib import Path

import nocmap
from nocmap import EnergyModel, Mesh3D, PsoParams, cluster_schedule, ddmap, evaluate, pso_optimize
from nocmap.harness import exhaustive_oracle
from nocmap.mappers import map_with
from nocmap.metrics import EvalReport
from nocmap.scheduler import dynamic_schedule
from nocmap.taskgraph import TaskGraph, priority_order

# The names the README's library and CLI sections use; everything else is
# imported from its submodule.
README_NAMES = {
    "EnergyModel",
    "Mesh3D",
    "PsoParams",
    "RunConfig",
    "cluster_schedule",
    "ddmap",
    "evaluate",
    "generate_random_graph",
    "pso_optimize",
    "run_benchmark",
}


def test_exports_are_the_readme_names():
    public = {
        name for name, value in vars(nocmap).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(nocmap.__all__) == README_NAMES


def test_library_modules_use_every_name_they_import():
    # A name a module imports and never reads is dead weight; the package
    # __init__ re-exports its imports through __all__, which counts as a use.
    package = Path(nocmap.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(nocmap.__all__)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def _sites(matches) -> set[str]:
    """``module:qualified.name`` of each function (or class, or module body) whose own code has a node that matches.

    Docstrings and ``help=`` texts are not code, so one that names a rule is no site of it.
    """
    sites = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue
            if isinstance(child, ast.keyword) and child.arg == "help":
                continue
            if matches(child):
                sites.add(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}{'.' if ':' in owner else ':'}{child.name}" if named else owner)

    for path in sorted(Path(nocmap.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name)
    return sites


def test_each_input_rule_is_decided_in_one_function():
    # What counts as an integer input, the refusal of more cores than tiles,
    # what counts as a real-valued constant, a mesh side's type and range, the
    # refusal of an unknown objective, of a non-integer arc field, of a
    # negative core count, of an id off its range, of a repeated id and of a
    # negative seed each have one home that every other check calls; a second
    # copy would let the two drift apart.  "core id out of range in arc" is
    # the arc rule, which _checked_columns decides for a whole array.
    integral = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "Integral"
                      or isinstance(node, ast.Name) and node.id == "Integral")
    assert integral == {"taskgraph.py:_is_integer"}
    capacity = _sites(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and "cores exceed" in node.value)
    assert capacity == {"topology.py:_check_capacity"}
    isfinite = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "isfinite"
                      or isinstance(node, ast.Name) and node.id == "isfinite")
    assert isfinite == {"metrics.py:_non_negative_float"}
    side = _sites(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "mesh side length" in node.value)
    assert side == {"topology.py:Mesh3D.__post_init__"}
    objective = _sites(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and "unknown objective" in node.value)
    assert objective == {"metrics.py:_check_objective"}
    for text, home in (("non-integer field", "taskgraph.py:_checked_columns"),
                       ("core count must be non-negative", "taskgraph.py:_core_count"),
                       ("out of range 0..", "taskgraph.py:_id"),
                       ("appears more than once", "taskgraph.py:_refuse_repeat"),
                       ("seed must be non-negative", "taskgraph.py:_seed")):
        sites = _sites(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and text in node.value)
        assert sites == {home}


def test_energy_of_a_sum_is_charged_in_one_place():
    # evaluate charges a placement's switch and link bits; HopKernel.score
    # charges an injective placement's hop sum, and every search reports
    # through it.  A third .energy( call would be a second copy of the rule.
    energy = _sites(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "energy")
    assert energy == {"metrics.py:evaluate", "metrics.py:HopKernel.score"}


def test_the_empty_graph_maps_to_nothing_everywhere():
    # every placement path takes the 0-core graph as the oracle does, with no
    # branch of its own: nothing to place, so an empty placement
    g, mesh = TaskGraph(0, []), Mesh3D(3)
    assert priority_order(g) == []
    assert ddmap(g, mesh) == map_with("spiral", g, mesh) == map_with("crinkle", g, mesh) == {}
    assert dynamic_schedule(g, mesh).placement == cluster_schedule(g, mesh).placement == {}
    result = pso_optimize(g, mesh, PsoParams(swarm_size=4, max_evals_per_simulation=12))
    assert result.mapping == {} and result.fitness == 0.0
    assert exhaustive_oracle(g, mesh, "energy") == (0.0, {})
    assert exhaustive_oracle(g, mesh, "cost") == (0, {})
    assert evaluate(g, {}, mesh, EnergyModel()) == EvalReport(0.0, 0, None, 0)


def _load_tracer():
    """``perfbench/tracer.py`` as a module, read from the repository and never installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_absent_from_the_library_are_the_two_deleted_ones():
    # Resolve each target as Tracer.install does (walk the dotted path from
    # the module, then read the owner's own attribute) without wrapping
    # anything: only the two functions the library has deleted may be
    # missing.  A rename in the library would silently zero a per-layer
    # metric and show up here.
    tracer = _load_tracer()
    absent = set()
    for module, attr, label, _ in tracer.TARGETS:
        *path, leaf = attr.split(".")
        owner = importlib.import_module(f"nocmap.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(leaf) is None:
            absent.add(f"{module}.{label}")
    assert absent == {"taskgraph.TaskGraph.volume_between", "topology.hop_matrix"}
