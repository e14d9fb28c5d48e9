"""Static analysis: problems, reductions, and decision engines (§2.3, §5)."""

from .problems import (
    DEFAULT_MAX_NODES,
    Verdict,
    SatResult,
    ContainmentResult,
    Problem,
    ProblemKind,
)
from .registry import (
    Engine,
    EngineDeclined,
    EngineRegistry,
    default_registry,
    plan_and_run,
)
from .reductions import (
    NodeSatReduction,
    EDTDSatReduction,
    containment_to_node_unsat,
    sat_to_edtd_sat,
    edtd_sat_to_sat,
)
from .engines import (
    node_satisfiable,
    path_satisfiable,
    check_containment,
    relevant_alphabet,
)
from .simplepaths import (
    SimplePath,
    instantiate,
    intersect_simple,
    simple_to_path,
    suffixes,
)
from .expspace import (
    downward_cap_satisfiable,
    TypeSystem,
    CompleteType,
    TooManyModalAtoms,
)
from .session import (
    SchemaSession,
    schema_id_of,
    session_for,
    reset_sessions,
)
from .containment import satisfiable, contains, equivalent
from .shrink import shrink_witness, shrink_sat_witness, shrink_counterexample
from .optimize import (
    ContainmentGraph,
    containment_graph,
    equivalence_classes,
    minimal_cover,
    simplify_union,
)

__all__ = [
    "DEFAULT_MAX_NODES",
    "Verdict", "SatResult", "ContainmentResult",
    "Problem", "ProblemKind",
    "Engine", "EngineDeclined", "EngineRegistry", "default_registry",
    "plan_and_run",
    "NodeSatReduction", "EDTDSatReduction",
    "containment_to_node_unsat", "sat_to_edtd_sat", "edtd_sat_to_sat",
    "node_satisfiable", "path_satisfiable", "check_containment",
    "relevant_alphabet",
    "SimplePath", "instantiate", "intersect_simple", "simple_to_path",
    "suffixes",
    "downward_cap_satisfiable", "TypeSystem", "CompleteType",
    "TooManyModalAtoms",
    "SchemaSession", "schema_id_of", "session_for", "reset_sessions",
    "satisfiable", "contains", "equivalent",
    "ContainmentGraph", "containment_graph", "equivalence_classes",
    "minimal_cover", "simplify_union",
    "shrink_witness", "shrink_sat_witness", "shrink_counterexample",
]
