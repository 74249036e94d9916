"""Complete EFX allocations for fair division on triangle-free multigraphs.

The solver moves through three stages over partial allocations -- build a
picking order and an initial orientation, repair it with a potential-driven
local search, then dump the remaining unit bundles on enviers -- and every
stage's guarantees are re-checked by independent definition-level verifiers.
"""

from .errors import (
    InconsistentSpecError,
    InternalSolverError,
    NotTriangleFreeError,
    SearchSpaceTooLargeError,
    StateError,
    TriFreeError,
    ValidationError,
)
from .model import (
    AdditiveValuation,
    Allocation,
    Bundle,
    Good,
    Instance,
    MonotoneTableValuation,
    TransformedAdditiveValuation,
)
from .cuts import CutTable, PairCut, PickOrder, claimable, efx_cut, free_units, pair_state
from .phase1 import SolverState, augment, check_invariants, greedy_replay, run_phase1
from .phase2 import phase2_step, run_phase2, structure_report, unallocated_incident
from .phase3 import SolveConfig, SolveMetrics, SolveResult, run_phase3, solve, solve_state
from .verify import (
    EnvyGraph,
    check_efx,
    check_envied_by_one,
    check_completeness,
    check_orientation,
    check_properties,
    envy_graph,
    max_envy_path_length,
)
from .oracle import enumerate_efx_allocations, scan_strong_envy, verify_cut_exhaustive
from .generate import GenSpec, SplitMix64, gen_instance, gen_triangle_instance, suite_spec
from .serialize import (
    allocation_from_json,
    allocation_to_json,
    envy_graph_dot,
    instance_from_json,
    instance_to_json,
)

__all__ = [
    "AdditiveValuation",
    "Allocation",
    "Bundle",
    "CutTable",
    "EnvyGraph",
    "GenSpec",
    "Good",
    "InconsistentSpecError",
    "Instance",
    "InternalSolverError",
    "MonotoneTableValuation",
    "NotTriangleFreeError",
    "PairCut",
    "PickOrder",
    "SearchSpaceTooLargeError",
    "SolveConfig",
    "SolveMetrics",
    "SolveResult",
    "SolverState",
    "SplitMix64",
    "StateError",
    "TransformedAdditiveValuation",
    "TriFreeError",
    "ValidationError",
    "allocation_from_json",
    "allocation_to_json",
    "augment",
    "check_efx",
    "check_envied_by_one",
    "check_completeness",
    "check_invariants",
    "check_orientation",
    "check_properties",
    "claimable",
    "efx_cut",
    "enumerate_efx_allocations",
    "envy_graph",
    "envy_graph_dot",
    "free_units",
    "gen_instance",
    "gen_triangle_instance",
    "greedy_replay",
    "instance_from_json",
    "instance_to_json",
    "max_envy_path_length",
    "pair_state",
    "phase2_step",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "scan_strong_envy",
    "solve",
    "solve_state",
    "structure_report",
    "suite_spec",
    "unallocated_incident",
    "verify_cut_exhaustive",
]
