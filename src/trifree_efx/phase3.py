"""Stage three: hand the remaining free bundles out and finish the solve.

After stage two, free goods only sit between an envied agent and a
non-envier, or between two envied agents.  Each envied agent has exactly one
envier, and on a triangle-free skeleton the enviers of two adjacent envied
agents are distinct.  Giving every envied agent's primary free bundles to
her envier therefore allocates everything, and the receiver -- who may get
goods she is not incident to -- never starts envying anyone.  This is the
one stage that needs the triangle-free assumption, and the one stage that
turns the orientation into a general allocation.

``solve`` wires the three stages together behind a triangle-freeness guard
and re-verifies the final allocation (complete + EFX) from first principles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .cuts import free_units
from .errors import InternalSolverError, NotTriangleFreeError
from .model import Allocation, Instance
from .phase1 import SolveMetrics, SolverState, TraceFn, run_phase1
from .phase2 import run_phase2
from .verify import check_completeness, check_efx, envy_graph


@dataclass
class SolveConfig:
    """Knobs for one solver run.

    ``validate_steps`` re-checks every invariant after every mutation; it is
    the default and recommended mode.  Turning it off keeps the stage-boundary
    and final checks but skips the per-step ones (useful for large benchmark
    instances).
    """

    validate_steps: bool = True
    trace: TraceFn = None


@dataclass
class SolveResult:
    allocation: Allocation
    sigma: list[int]
    metrics: SolveMetrics


def run_phase3(
    state: SolverState,
    *,
    validate: bool = True,
    trace: TraceFn = None,
    metrics: Optional[SolveMetrics] = None,
) -> Allocation:
    """Dump every envied agent's primary free bundles on her envier.

    The envy picture and the free-unit labels are frozen on entry; with
    ``validate`` the labels are also recomputed live before each dump, which
    must agree.  The output must be a complete EFX allocation.
    """
    instance, alloc = state.instance, state.alloc
    metrics = metrics if metrics is not None else SolveMetrics()
    graph = envy_graph(instance, alloc)
    envied = graph.envied_agents()
    metrics.envied_after_phase2 = len(envied)
    enviers: dict[int, int] = {}
    for i in envied:
        who = graph.enviers_of(i)
        if len(who) != 1:
            raise InternalSolverError(
                f"envied agent {i} has {len(who)} enviers at the dump stage"
            )
        enviers[i] = who[0]
    for a, b in instance.skeleton_edges():
        if a in enviers and b in enviers and enviers[a] == enviers[b]:
            raise InternalSolverError(
                f"adjacent envied agents {a} and {b} share the envier {enviers[a]}; "
                "the skeleton cannot be triangle-free"
            )
    units = free_units(instance, alloc, state.order, state.cuts)
    for i in envied:
        j = enviers[i]
        dumped = units.primary[i]
        if validate:
            live = free_units(instance, alloc, state.order, state.cuts)
            if live.primary[i] != dumped:
                raise InternalSolverError(
                    f"live free-unit labels of agent {i} diverged from the frozen ones"
                )
        alloc.set_bundle(j, alloc.bundle(j) | dumped)
        metrics.phase3_dumps += 1
        if trace is not None:
            trace(
                {
                    "phase": 3,
                    "event": "dump",
                    "envied": i,
                    "receiver": j,
                    "goods": sorted(dumped),
                }
            )
    missing = check_completeness(instance, alloc)
    if not missing.ok:
        raise InternalSolverError(
            f"dump stage left goods unallocated: {missing.violations[:5]}"
        )
    efx = check_efx(instance, alloc)
    if not efx.ok:
        raise InternalSolverError(
            f"dump stage broke the no-strong-envy guarantee: {efx.violations[:5]}"
        )
    return alloc


def solve(instance: Instance, config: Optional[SolveConfig] = None) -> SolveResult:
    """Compute a complete EFX allocation of a triangle-free instance."""
    result, _ = solve_state(instance, config)
    return result


def solve_state(
    instance: Instance, config: Optional[SolveConfig] = None
) -> tuple[SolveResult, SolverState]:
    """Like :func:`solve` but also hands back the final solver state.

    Test harnesses use this to inspect the picking order, the fixed pair
    splits and the stage outputs without re-running anything.
    """
    config = config or SolveConfig()
    triangle = instance.find_triangle()
    if triangle is not None:
        raise NotTriangleFreeError(triangle)
    metrics = SolveMetrics()
    started = time.perf_counter()
    state = run_phase1(
        instance, validate=config.validate_steps, metrics=metrics, trace=config.trace
    )
    run_phase2(state, validate=config.validate_steps, metrics=metrics, trace=config.trace)
    allocation = run_phase3(
        state, validate=config.validate_steps, trace=config.trace, metrics=metrics
    )

    metrics.cuts_computed = len(state.cuts.stats)
    metrics.pr_moves_total = sum(s.moves for s in state.cuts.stats)
    metrics.wall_time_s = time.perf_counter() - started
    return SolveResult(allocation=allocation, sigma=state.sigma(), metrics=metrics), state
