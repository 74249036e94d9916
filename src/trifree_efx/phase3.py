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
labels it dumps from that check, the state's whole report
(:meth:`.phase1.SolverState.report`): the last validated step's, or stage
two's opening one when stage two took no step, when still current, else a
new check.  ``solve`` wires the three stages together behind a
triangle-freeness guard and re-verifies the final allocation (complete +
EFX) from first principles; when nothing was dumped, the allocation is the
one the opening check saw, and its property (1) is the EFX verdict.
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
from .verify import (  # noqa: F401
    CheckReport,
    check_completeness,
    check_efx,
    envy_graph,
)


@dataclass
class SolveConfig:
    """Knobs for one solver run.

    ``validate_steps`` checks every stage-one round and every stage-two step
    from scratch (:func:`.phase1.check_transition`); it is the default and
    recommended mode.  Turning it off keeps the stage-boundary and final
    checks but skips the per-round and per-step ones.  The stage-boundary
    checks are the ones stages two and three open with, each one check of
    properties (1)-(7) on its input, and the final one is the
    complete-and-EFX check.  Each state is checked from scratch once: a
    stage opens with the state's whole report
    (:meth:`.phase1.SolverState.report`), the last one computed on the very
    state it is handed when there is one, so a validated solve runs one
    check per round and per step, whole for the last round and the last
    step only, and an unvalidated solve builds the envy graph once when
    stage two takes no step, one more when it does, and one more when stage
    three dumps.
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

    The stage opens with the state's whole report of properties (1)-(7) on
    the stage-two output (:meth:`.phase1.SolverState.report`); any failure
    is an internal error.  Each envied agent's one envier (her row
    of the check's envier index) and the free-unit labels are read from
    that check and frozen; with ``validate`` the dumped agent's primary
    label is also read from her own pairs before each dump, and must agree.
    The output must be a complete EFX allocation; with no dump the opening
    report, still current, gives the EFX verdict.
    """
    instance, alloc = state.instance, state.alloc
    metrics = metrics if metrics is not None else SolveMetrics()
    report = state.report()
    if not report.ok:
        raise InternalSolverError(f"stage-two output: {report.summary()}")
    check = report.free_bundles
    enviers = check.enviers
    envied = sorted(enviers)
    metrics.envied_after_phase2 = len(envied)
    for i in envied:
        if len(enviers[i]) != 1:
            raise InternalSolverError(
                f"envied agent {i} has {len(enviers[i])} enviers at the dump stage"
            )
    for a, b in instance.skeleton_edges():
        if a in enviers and b in enviers and enviers[a][0] == enviers[b][0]:
            raise InternalSolverError(
                f"adjacent envied agents {a} and {b} share the envier {enviers[a][0]}; "
                "the skeleton cannot be triangle-free"
            )
    units = check.units
    for i in envied:
        j = enviers[i][0]
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
    kept = state.kept_report()
    if kept is None:
        efx = check_efx(instance, alloc)
    else:
        efx = CheckReport("efx", kept.graph.strong)
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
