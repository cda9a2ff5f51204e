"""Task-graph mapping, scheduling and swarm refinement for 3D mesh NoCs.

The package exports the names the README's library and CLI sections use;
everything else is imported from its submodule (``nocmap.taskgraph``,
``nocmap.topology``, ``nocmap.mappers``, ``nocmap.scheduler``,
``nocmap.metrics``, ``nocmap.pso``, ``nocmap.harness``, ``nocmap.cli``).
"""

from .harness import RunConfig, run_benchmark
from .mappers import ddmap
from .metrics import EnergyModel, evaluate
from .pso import PsoParams, pso_optimize
from .scheduler import cluster_schedule
from .taskgraph import generate_random_graph
from .topology import Mesh3D

__all__ = [
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
]

__version__ = "0.1.0"
