"""Quasistatic brittle crack growth on triangle meshes: simulate and verify.

The package runs the time-incremental global-minimization scheme for crack
evolution on 2-D scalar (antiplane) problems with mesh-edge cracks, and
audits the produced evolutions against the defining conditions of the model:
global stability, irreversibility (cracks only grow), energy balance, the
crack-structure identity, and convex-duality certificates of minimality.
"""

import os

# one BLAS thread unless the user set a count: the dense factorizations here
# are small, and on a machine with few cores OpenBLAS's default of one thread
# per core makes them far slower (set before numpy loads, so it takes effect)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .audit import (
    AuditError,
    AuditReport,
    CheckResult,
    check_energy_balance,
    check_global_stability,
    check_irreversibility,
    check_structure,
    dual_certificate,
    stress_continuity_probe,
)
from .broken import (
    BrokenField,
    CrackSet,
    DofTopology,
    build_topology,
    embed_field,
    jump_across_edge,
    jump_support,
    trace_on_surface_part,
)
from .config import ConfigError, RunConfig, config_hash, load_config, parse_config
from .energy import (
    BodyPotential,
    BulkLaw,
    EnergyModel,
    SurfacePotential,
    TimeTable,
    Toughness,
    body_rate,
    body_value_and_gradient,
    bulk_energy_density,
    elastic_energy,
    stress,
    surface_energy,
    surface_rate,
    surface_value_and_gradient,
    total_energy,
    validate_growth,
)
from .evolution import (
    BRUTE_FORCE,
    GREEDY,
    GREEDY_WITH_PAIRS,
    EvolutionError,
    EvolutionRecord,
    RecordError,
    SearchStrategy,
    TimeGrid,
    check_initial_minimality,
    incremental_step,
    left_envelope,
    right_envelope,
    run_evolution,
    sample_power_terms,
)
from .mesh import (
    BoundaryLabel,
    EdgeGeometry,
    Mesh,
    MeshError,
    build_structured_mesh,
    crackable_edges,
    edge_geometry,
    mesh_fingerprint,
)
from .minimize import (
    ElasticSolver,
    FloatingComponentError,
    SolveError,
    SolveReport,
    euler_residual,
    minimize_elastic,
)
from .vtkio import write_field_vtk, write_mesh_vtk

__version__ = "0.1.0"
