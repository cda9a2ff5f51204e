"""Task-graph mapping, scheduling and swarm refinement for 3D mesh NoCs."""

from .harness import (
    ComparisonRow,
    ComparisonSummary,
    ReportRow,
    RunConfig,
    append_report_csv,
    audit_artifact,
    compare_report,
    exhaustive_oracle,
    parse_mapping_artifact,
    read_report_csv,
    run_benchmark,
    write_mapping_artifact,
)
from .mappers import MAPPERS, crinkle_order, ddmap, map_with, sequence_map, spiral_order
from .metrics import (
    DEFAULT_ENERGY_MODEL,
    EnergyModel,
    EvalReport,
    Mapping,
    avg_latency,
    bit_energy,
    comm_cost,
    evaluate,
    total_energy,
    transfer_count,
)
from .pso import (
    PsoParams,
    PsoResult,
    position_update,
    pso_optimize,
    repair_permutation,
    velocity_update,
)
from .scheduler import (
    ClusterSet,
    Schedule,
    cluster_graph,
    cluster_schedule,
    cluster_tasks,
    dynamic_schedule,
)
from .taskgraph import (
    Arc,
    Core,
    GraphFormatError,
    TaskGraph,
    generate_random_graph,
    graph_from_arcs,
    induced_subgraph,
    parse_graph,
    priority_order,
    serialize_graph,
)
from .topology import (
    Mesh3D,
    Occupancy,
    diagonal_tiles,
    lozenge_next_empty,
    tile_coords,
    tile_index,
    xyz_hops,
)

__version__ = "0.1.0"
