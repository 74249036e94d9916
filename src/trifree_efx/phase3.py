"""Stage three: hand the remaining free bundles out and finish the solve.

After stage two, free goods only sit between an envied agent and a
non-envier, or between two envied agents.  Each envied agent has exactly one
envier, and on a triangle-free skeleton the enviers of two adjacent envied
agents are distinct.  Giving every envied agent's primary free bundles to
her envier therefore allocates everything, and the receiver -- who may get
goods she is not incident to -- never starts envying anyone.  This is the
one stage that needs the triangle-free assumption, and the one stage that
turns the orientation into a general allocation.

The stage opens with one check of properties (1)-(7) on its input, which
is the check of stage two's output, and reads each envied agent's envier
(the check's envier index, its only form of the envy relation) and the
labels it dumps from that check.  ``solve`` wires the three stages together
behind a triangle-freeness guard and re-verifies the final allocation
(complete + EFX) from first principles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

# ``free_units`` and ``envy_graph`` are no longer called here, but the
# benchmark's tracer wraps both by name, so a reintroduced call is counted
from .cuts import free_units, own_labels  # noqa: F401
from .errors import InternalSolverError, NotTriangleFreeError
from .model import Allocation, Instance
from .phase1 import SolveMetrics, SolverState, TraceFn, run_phase1
from .phase2 import run_phase2
from .verify import check_completeness, check_efx, check_properties, envy_graph  # noqa: F401


@dataclass
class SolveConfig:
    """Knobs for one solver run.

    ``validate_steps`` re-checks every invariant after every mutation; it is
    the default and recommended mode.  Turning it off keeps the stage-boundary
    and final checks but skips the per-step ones (useful for large benchmark
    instances).  The stage-boundary checks are the ones stages two and three
    open with, each one check of properties (1)-(7) on its input, and the
    final one is the complete-and-EFX check; an unvalidated solve therefore
    builds the envy graph three times.
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

    The stage opens with one check of properties (1)-(7) on the stage-two
    output; any failure is an internal error.  The enviers and the free-unit
    labels are read from that check and frozen; with ``validate`` the dumped
    agent's primary label is also read from her own pairs before each dump,
    and must agree.  The output must be a complete
    EFX allocation.
    """
    instance, alloc = state.instance, state.alloc
    metrics = metrics if metrics is not None else SolveMetrics()
    report = check_properties(instance, alloc, state.order, state.cuts)
    if not report.ok:
        raise InternalSolverError(f"stage-two output: {report.summary()}")
    check = report.free_bundles
    envied = sorted(check.enviers)
    metrics.envied_after_phase2 = len(envied)
    enviers: dict[int, int] = {}
    for i in envied:
        who = check.enviers[i]
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
    units = check.units
    for i in envied:
        j = enviers[i]
        dumped = units.primary[i]
        if validate:
            live, _ = own_labels(instance, alloc, state.order, state.cuts, i)
            if live != dumped:
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
    phase1_done = time.perf_counter()
    run_phase2(state, validate=config.validate_steps, metrics=metrics, trace=config.trace)
    phase2_done = time.perf_counter()
    allocation = run_phase3(
        state, validate=config.validate_steps, trace=config.trace, metrics=metrics
    )
    metrics.phase1_s = phase1_done - started
    metrics.phase2_s = phase2_done - phase1_done
    metrics.phase3_s = time.perf_counter() - phase2_done

    metrics.cuts_computed = len(state.cuts.stats)
    metrics.pr_moves_total = sum(s.moves for s in state.cuts.stats)
    metrics.wall_time_s = time.perf_counter() - started
    return SolveResult(allocation=allocation, sigma=state.sigma(), metrics=metrics), state
