"""Stage two: repair loop adding the free-bundle properties (5)-(7).

Starting from a stage-one state (properties (1)-(4)), the loop repeatedly
applies the first applicable rule, scanning agents by ascending id.  Each
rule fires exactly when one of the properties fails, so the rule candidates
are read off :func:`.verify.free_bundle_check`, computed once per state:

* rule A -- a non-envied agent breaks (5), i.e. still has a primary free
  unit bundle beside her: she absorbs all her primary free bundles.
* rule B -- a non-envied agent breaks (6), i.e. values the free goods
  incident to her above her own bundle: for every pair with something free
  she trades her held unit bundle for the free one, keeping pairs with
  nothing free untouched.
* rule C -- an envied agent breaks (7), i.e. would prefer her envier's
  bundle joined with one of her free-unit labels: the two swap their unit
  bundles of the shared pair, then she absorbs that label's free bundles.

Each step strictly lowers the triple (number of envied agents, rule-B
violators, rule-A violators) in lexicographic order, so the loop ends after
at most ``n**3`` steps, at which point properties (1)-(7) all hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cuts import free_units
from .errors import InternalSolverError
from .model import Bundle
from .phase1 import SolveMetrics, SolverState, TraceFn
from .verify import FreeBundleCheck, check_properties, envy_graph, free_bundle_check


class Potential(NamedTuple):
    """Lexicographic descent certificate for the repair loop."""

    envied: int
    leftover_violations: int  # rule-B candidates
    claim_violations: int  # rule-A candidates

    @classmethod
    def of(cls, check: FreeBundleCheck) -> "Potential":
        return cls(len(check.envied), len(check.breaks_6), len(check.breaks_5))


def unallocated_incident(state: SolverState, i: int) -> Bundle:
    """All free goods incident to agent ``i``."""
    return state.alloc.unallocated_goods(state.instance) & state.instance.incident_goods(i)


def _scan(state: SolverState) -> FreeBundleCheck:
    instance, alloc = state.instance, state.alloc
    graph = envy_graph(instance, alloc)
    return free_bundle_check(instance, alloc, state.order, state.cuts, graph)


@dataclass
class StepRecord:
    branch: str
    agent: int
    partner: Optional[int]
    potential_before: Potential


def _apply_rule_a(state: SolverState, scan: FreeBundleCheck, i: int) -> None:
    alloc = state.alloc
    alloc.set_bundle(i, alloc.bundle(i) | scan.units.primary[i])


def _apply_rule_b(state: SolverState, i: int) -> None:
    instance, alloc = state.instance, state.alloc
    loose = unallocated_incident(state, i)
    keep = set()
    for j in instance.neighbors(i):
        if not instance.pair_goods(i, j) & loose:
            keep |= alloc.bundle(i) & instance.pair_goods(i, j)
    alloc.set_bundle(i, frozenset(keep) | loose)


def _apply_rule_c(state: SolverState, scan: FreeBundleCheck, i: int, j: int, label: str) -> None:
    instance, alloc = state.instance, state.alloc
    pair = instance.pair_goods(i, j)
    held_i = alloc.bundle(i) & pair
    held_j = alloc.bundle(j) & pair
    if not held_i:
        raise InternalSolverError(
            f"rule C on pair ({i},{j}): the envied agent holds nothing of the pair"
        )
    if held_j != pair - held_i:
        raise InternalSolverError(
            f"rule C on pair ({i},{j}): the envier does not hold the complement "
            f"unit bundle"
        )
    # swap the pair's unit bundles between the two agents
    alloc.set_bundle(i, alloc.bundle(i) - held_i)
    alloc.set_bundle(j, (alloc.bundle(j) - held_j) | held_i)
    alloc.set_bundle(i, alloc.bundle(i) | held_j)
    before = getattr(scan.units, label)[i]
    after = getattr(free_units(instance, alloc, state.order, state.cuts), label)[i]
    if before != after:
        raise InternalSolverError(
            f"{label} free-unit label of agent {i} changed across the pair swap"
        )
    alloc.set_bundle(i, alloc.bundle(i) | after)


def phase2_step(
    state: SolverState, *, scan: Optional[FreeBundleCheck] = None, trace: TraceFn = None
) -> Optional[StepRecord]:
    """Apply one repair rule; ``None`` when properties (5)-(7) already hold."""
    if scan is None:
        scan = _scan(state)
    if scan.ok:
        return None
    phi = Potential.of(scan)
    if scan.breaks_5:
        i = scan.breaks_5[0]
        _apply_rule_a(state, scan, i)
        record = StepRecord("A", i, None, phi)
    elif scan.breaks_6:
        i = scan.breaks_6[0]
        _apply_rule_b(state, i)
        record = StepRecord("B", i, None, phi)
    else:
        i, j, label = scan.breaks_7[0]
        _apply_rule_c(state, scan, i, j, label)
        record = StepRecord("C", i, j, phi)
    if trace is not None:
        trace(
            {
                "phase": 2,
                "event": "step",
                "branch": record.branch,
                "agent": record.agent,
                "partner": record.partner,
                "potential": list(phi),
            }
        )
    return record


def run_phase2(
    state: SolverState,
    *,
    validate: bool = True,
    metrics: Optional[SolveMetrics] = None,
    trace: TraceFn = None,
) -> SolverState:
    """Iterate repair steps until properties (1)-(7) all hold.

    The potential must drop strictly on every step and the loop must finish
    within ``n**3`` steps; either failure is an internal error.  With
    ``validate`` set, properties (1)-(4) are re-checked and rule-specific
    postconditions asserted after every step.
    """
    instance = state.instance
    metrics = metrics if metrics is not None else SolveMetrics()
    cap = max(1, instance.n**3)
    scan = _scan(state)
    while True:
        record = phase2_step(state, scan=scan, trace=trace)
        if record is None:
            break
        metrics.phase2_iterations += 1
        metrics.phase2_branches[record.branch] += 1
        if metrics.phase2_iterations > cap:
            raise InternalSolverError(
                f"repair loop exceeded {cap} iterations on {instance.n} agents"
            )
        # the checks on either side of the step give its before and after envy
        after = _scan(state)
        if validate:
            _validate_step(state, record, scan, after)
        phi = Potential.of(after)
        if phi >= record.potential_before:
            raise InternalSolverError(
                f"repair potential failed to drop: {record.potential_before} -> {phi}"
            )
        scan = after
    report = check_properties(
        instance, state.alloc, state.order, state.cuts, which=set(range(1, 8))
    )
    if not report.ok:
        raise InternalSolverError(f"stage-two output: {report.summary()}")
    return state


def _validate_step(
    state: SolverState, record: StepRecord, before: FreeBundleCheck, after: FreeBundleCheck
) -> None:
    report = check_properties(
        state.instance, state.alloc, state.order, state.cuts, which={1, 2, 3, 4}
    )
    if not report.ok:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} broke {report.summary()}"
        )
    prev_envy = {(e.src, e.dst) for e in before.graph.edges}
    now_envy = {(e.src, e.dst) for e in after.graph.edges}
    if record.branch in ("A", "B") and not now_envy <= prev_envy:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} created envy "
            f"{sorted(now_envy - prev_envy)}"
        )
    if record.branch == "C":
        envied_now = after.envied
        if record.agent in envied_now:
            raise InternalSolverError(
                f"rule C left agent {record.agent} envied"
            )
        if record.partner in envied_now:
            raise InternalSolverError(
                f"rule C made the envier {record.partner} envied"
            )
        if not len(envied_now) < len(before.envied):
            raise InternalSolverError(
                "rule C did not shrink the set of envied agents"
            )

