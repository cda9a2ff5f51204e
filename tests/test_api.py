import types

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
