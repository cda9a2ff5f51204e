import ast
import types
from pathlib import Path

import nocmap

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
    # what counts as a real-valued constant, a mesh side's type and range, and
    # the refusal of an unknown objective each have one home that every other
    # check calls; a second copy would let the two drift apart.
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
