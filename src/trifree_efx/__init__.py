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
    Good,
    Instance,
    MonotoneTableValuation,
    TransformedAdditiveValuation,
)
from .cuts import efx_cut, pair_state
from .phase1 import run_phase1
from .phase2 import run_phase2
from .phase3 import SolveConfig, SolveMetrics, SolveResult, run_phase3, solve, solve_state
from .verify import check_completeness, check_efx, check_properties, envy_graph
from .oracle import enumerate_efx_allocations, verify_cut_exhaustive
from .generate import GenSpec, gen_adversarial_suite, gen_instance
from .serialize import (
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
)

__all__ = [
    "AdditiveValuation",
    "Allocation",
    "GenSpec",
    "Good",
    "InconsistentSpecError",
    "Instance",
    "InternalSolverError",
    "MonotoneTableValuation",
    "NotTriangleFreeError",
    "SearchSpaceTooLargeError",
    "SolveConfig",
    "SolveMetrics",
    "SolveResult",
    "StateError",
    "TransformedAdditiveValuation",
    "TriFreeError",
    "ValidationError",
    "allocation_from_json",
    "allocation_to_json",
    "check_completeness",
    "check_efx",
    "check_properties",
    "efx_cut",
    "enumerate_efx_allocations",
    "envy_graph",
    "gen_adversarial_suite",
    "gen_instance",
    "instance_from_json",
    "instance_to_json",
    "pair_state",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "solve",
    "solve_state",
    "verify_cut_exhaustive",
]
