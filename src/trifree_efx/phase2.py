"""Stage two: repair loop adding the free-bundle properties (5)-(7).

Starting from a stage-one state (properties (1)-(4)), the loop repeatedly
applies the first applicable rule, scanning agents by ascending id:

* rule A -- a non-envied agent still has a primary free unit bundle beside
  her: she absorbs all her primary free bundles.
* rule B -- a non-envied agent values the free goods incident to her above
  her own bundle: for every pair with something free she trades her held
  unit bundle for the free one, keeping pairs with nothing free untouched.
* rule C -- an envied agent would prefer her envier's bundle joined with one
  of her free-unit labels: the two swap their unit bundles of the shared
  pair, then she absorbs that label's free bundles.

Each step strictly lowers the triple (number of envied agents, rule-B
violators, rule-A violators) in lexicographic order, so the loop ends after
at most ``n**3`` steps, at which point properties (1)-(7) all hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cuts import FreeUnits, free_units, pair_state
from .errors import InternalSolverError
from .model import Bundle
from .phase1 import SolveMetrics, SolverState, TraceFn
from .verify import check_properties, envy_graph


class Potential(NamedTuple):
    """Lexicographic descent certificate for the repair loop."""

    envied: int
    leftover_violations: int  # rule-B candidates
    claim_violations: int  # rule-A candidates


def unallocated_incident(state: SolverState, i: int) -> Bundle:
    """All free goods incident to agent ``i``."""
    return state.alloc.unallocated_goods(state.instance) & state.instance.incident_goods(i)


@dataclass
class _Scan:
    """One snapshot of everything the branch selection needs."""

    envied: set[int]
    enviers: dict[int, list[int]]
    units: FreeUnits
    rule_a: list[int]
    rule_b: list[int]
    rule_c: list[tuple[int, int, int]]  # (agent, envier, label index)

    @property
    def potential(self) -> Potential:
        return Potential(len(self.envied), len(self.rule_b), len(self.rule_a))

    @property
    def done(self) -> bool:
        return not (self.rule_a or self.rule_b or self.rule_c)


def _scan(state: SolverState) -> _Scan:
    instance, alloc = state.instance, state.alloc
    graph = envy_graph(instance, alloc)
    envied = set(graph.envied_agents())
    enviers = {i: graph.enviers_of(i) for i in envied}
    units = free_units(instance, alloc, state.order, state.cuts)
    rule_a: list[int] = []
    rule_b: list[int] = []
    rule_c: list[tuple[int, int, int]] = []
    free = alloc.unallocated_goods(instance)
    for i in range(instance.n):
        v = instance.valuations[i].value
        own = v(alloc.bundle(i))
        if i not in envied:
            if units.primary[i]:
                rule_a.append(i)
            if v(free & instance.incident_goods(i)) > own:
                rule_b.append(i)
        else:
            for j in enviers[i]:
                for u, bundle in enumerate((units.primary[i], units.secondary[i]), start=1):
                    if v(alloc.bundle(j) | bundle) > own:
                        rule_c.append((i, j, u))
    return _Scan(envied, enviers, units, rule_a, rule_b, rule_c)


@dataclass
class StepRecord:
    branch: str
    agent: int
    partner: Optional[int]
    potential_before: Potential


def _apply_rule_a(state: SolverState, scan: _Scan, i: int) -> None:
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


def _apply_rule_c(state: SolverState, scan: _Scan, i: int, j: int, u: int) -> None:
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
    before = scan.units.primary[i] if u == 1 else scan.units.secondary[i]
    after_units = free_units(instance, alloc, state.order, state.cuts)
    after = after_units.primary[i] if u == 1 else after_units.secondary[i]
    if before != after:
        raise InternalSolverError(
            f"free-unit label {u} of agent {i} changed across the pair swap"
        )
    alloc.set_bundle(i, alloc.bundle(i) | after)


def phase2_step(state: SolverState, *, scan: Optional[_Scan] = None, trace: TraceFn = None) -> Optional[StepRecord]:
    """Apply one repair rule; ``None`` when properties (5)-(7) already hold."""
    if scan is None:
        scan = _scan(state)
    if scan.done:
        return None
    phi = scan.potential
    if scan.rule_a:
        i = min(scan.rule_a)
        _apply_rule_a(state, scan, i)
        record = StepRecord("A", i, None, phi)
    elif scan.rule_b:
        i = min(scan.rule_b)
        _apply_rule_b(state, i)
        record = StepRecord("B", i, None, phi)
    else:
        i, j, u = min(scan.rule_c)
        _apply_rule_c(state, scan, i, j, u)
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
    prev_phi: Optional[Potential] = None
    while True:
        if prev_phi is not None and scan.potential >= prev_phi:
            raise InternalSolverError(
                f"repair potential failed to drop: {prev_phi} -> {scan.potential}"
            )
        prev_envy = (
            {(e.src, e.dst) for e in envy_graph(instance, state.alloc).edges}
            if validate
            else None
        )
        record = phase2_step(state, scan=scan, trace=trace)
        if record is None:
            break
        metrics.phase2_iterations += 1
        metrics.phase2_branches[record.branch] += 1
        if metrics.phase2_iterations > cap:
            raise InternalSolverError(
                f"repair loop exceeded {cap} iterations on {instance.n} agents"
            )
        prev_phi = record.potential_before
        if validate:
            _validate_step(state, record, prev_envy)
        scan = _scan(state)
    report = check_properties(
        instance, state.alloc, state.order, state.cuts, which=set(range(1, 8))
    )
    if not report.ok:
        raise InternalSolverError(f"stage-two output: {report.summary()}")
    return state


def _validate_step(state: SolverState, record: StepRecord, prev_envy: set) -> None:
    instance = state.instance
    graph = envy_graph(instance, state.alloc)
    now_envy = {(e.src, e.dst) for e in graph.edges}
    report = check_properties(
        instance, state.alloc, state.order, state.cuts, which={1, 2, 3, 4}
    )
    if not report.ok:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} broke {report.summary()}"
        )
    if record.branch in ("A", "B") and not now_envy <= prev_envy:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} created envy "
            f"{sorted(now_envy - prev_envy)}"
        )
    if record.branch == "C":
        envied_now = set(graph.envied_agents())
        if record.agent in envied_now:
            raise InternalSolverError(
                f"rule C left agent {record.agent} envied"
            )
        if record.partner in envied_now:
            raise InternalSolverError(
                f"rule C made the envier {record.partner} envied"
            )
        envied_before = {dst for _, dst in prev_envy}
        if not len(envied_now) < len(envied_before):
            raise InternalSolverError(
                "rule C did not shrink the set of envied agents"
            )


def structure_report(state: SolverState) -> list[tuple[tuple[int, int], str]]:
    """Classify every adjacent pair by envy status and assert its free-good
    pattern (assumes properties (1)-(5)).

    * both endpoints non-envied: nothing of the pair is free;
    * an envied agent and her envier: nothing free;
    * an envied agent and a non-envied non-envier: the free goods form
      exactly one unit bundle;
    * two envied agents: the whole pair is free.
    """
    instance, alloc = state.instance, state.alloc
    graph = envy_graph(instance, alloc)
    envied = set(graph.envied_agents())
    out = []
    for a, b in instance.skeleton_edges():
        cut, goods, _, _, free = pair_state(instance, alloc, state.order, state.cuts, a, b)
        if a not in envied and b not in envied:
            case = "both-non-envied"
            ok = not free
        elif a in envied and b in envied:
            case = "both-envied"
            ok = free == goods
        else:
            i = a if a in envied else b
            j = b if a in envied else a
            if j in graph.enviers_of(i):
                case = "envied-with-envier"
                ok = not free
            else:
                case = "envied-beside-non-envier"
                ok = free in cut.parts()
        if not ok:
            raise InternalSolverError(
                f"pair ({a},{b}) breaks the {case} free-good pattern: free={sorted(free)}"
            )
        out.append(((a, b), case))
    return out
