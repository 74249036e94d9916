"""Stage one: build a picking order and an initial partial orientation.

The picking order is grown from both ends.  Each round starts by moving the
lowest-id unplaced agent to the *back* of the order (she will pick late) and
then follows a chain of "most tempting partner" links: whenever the partner
an agent most wants to take goods from is itself unplaced, that partner is
placed at the *front* (picking early) and gets to claim first, possibly
redirecting the chain.  Every round places at least one agent and hands each
newly placed agent her claimable bundle from exactly one pair.

Between rounds the state keeps five invariants (checked by
``check_invariants``): placed agents hold goods only among themselves (1),
unplaced agents hold nothing (2), front agents envy nobody (5), back agents
do not envy each other (6), and the numbered properties (1)-(4) of
:mod:`.verify` hold, (2) and (3) for the placed agents (7).  Invariant (7)
is a :func:`.verify.check_properties` report narrowed to (1)-(4), and (5)
and (6) read the envy graph it built; (1) and (2) read only the picking
order and the bundles.  Property (4), no envy chain, follows from
invariants (1), (2), (5) and (6), so a correct run never trips it.  Codes
(3) and (4) are unused: property (1), checked under (7), covers the
orientation and the absence of strong envy.

When no agents remain unplaced, the allocation satisfies the numbered
properties (1)-(4) of :mod:`.verify`.  Stage two asserts them in the check
it opens with, so this stage does not check its own output again.  Each
round checks that it set only the bundles of the agents it placed, in both
modes, and a validated run checks every round from scratch by the one
protocol of validated transitions, :func:`check_transition`, which stage
two's steps share; the last round's whole report stays on the state
(:meth:`SolverState.report`) for stage two to open with, and its reads,
copied, seed the validator's ledger (:class:`.verify.Ledger`) for stage
two's steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .cuts import CutTable, PickOrder, claimable
from .errors import InternalSolverError, StateError
from .model import EMPTY_BUNDLE, Allocation, Bundle, Instance
# ``envy_graph`` is no longer called here, but the benchmark's tracer wraps
# it by name, so a reintroduced call is counted
from .verify import (  # noqa: F401
    STAGE_ONE_PROPERTIES,
    Ledger,
    PropertyReport,
    check_properties,
    envy_graph,
)

TraceFn = Optional[Callable[[dict], None]]

INVARIANT_NAMES = {
    1: "placed agents hold goods only between placed agents",
    2: "unplaced agents hold nothing",
    5: "front agents envy nobody",
    6: "back agents do not envy each other",
    7: "EFX orientation without envy chains, and pair structure and "
    "free-bundle preference for placed agents",
}


@dataclass
class SolveMetrics:
    """Counters of one solver run, filled in by the three stages and ``solve``.

    ``validate_s`` is the part of the stage times a validated run spends
    checking its rounds and steps: :func:`check_transition`, the rest of
    stage two's step validation and its ledger seeding, and
    :func:`greedy_replay`; it is 0.0 when unvalidated.
    """

    augment_calls: int = 0
    empty_picks: int = 0
    phase2_iterations: int = 0
    phase2_branches: dict = field(default_factory=lambda: {"A": 0, "B": 0, "C": 0})
    envied_after_phase2: int = 0
    phase3_dumps: int = 0
    cuts_computed: int = 0
    pr_moves_total: int = 0
    phase1_s: float = 0.0
    phase2_s: float = 0.0
    phase3_s: float = 0.0
    validate_s: float = 0.0
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        """The counters as a flat dict; ``phase2_branches`` is a copy."""
        out = dict(self.__dict__)
        out["phase2_branches"] = dict(self.phase2_branches)
        return out


@dataclass
class SolverState:
    """Allocation, picking order and memoised pair splits, threaded through
    all three stages.

    The state also keeps the last whole from-scratch property report
    computed on it (:meth:`report`), stamped with the allocation and order
    objects, the allocation's change count and the order's placed count.
    The report is handed back (:meth:`kept_report`) only while all four
    still match, so after any ``set_bundle`` or placement it is never
    reused.  A validated run also keeps its ledger of from-scratch reads
    here (:meth:`ledger`, :meth:`seed_ledger`), stamped in the same way.  A
    copy made with ``dataclasses.replace`` starts without either.
    """

    instance: Instance
    alloc: Allocation
    order: PickOrder
    cuts: CutTable
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _ledger: Optional[Ledger] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def fresh(cls, instance: Instance) -> "SolverState":
        return cls(
            instance=instance,
            alloc=Allocation(instance.n),
            order=PickOrder(instance.n),
            cuts=CutTable(instance),
        )

    def sigma(self) -> list[int]:
        return self.order.full_order()

    def claimable(self, i: int, j: int):
        return claimable(self.instance, self.alloc, self.order, self.cuts, i, j)

    def _counts(self) -> tuple[int, int]:
        """The allocation's change count and the order's placed count."""
        return self.alloc.changes, self.order.n - len(self.order.unplaced)

    def report(self) -> PropertyReport:
        """The whole from-scratch report of this state as it is now: the
        kept one while it is current, else a new check, which is kept."""
        report = self.kept_report()
        if report is None:
            report = check_properties(self.instance, self.alloc, self.order, self.cuts)
            self._kept = (report, self.alloc, self.order, self._counts())
        return report

    def kept_report(self) -> Optional[PropertyReport]:
        """The kept report if the state has not changed since it was
        computed, else ``None``; a stale report is dropped, so it is not
        held while the next check is built."""
        if self._kept is None:
            return None
        report, alloc, order, counts = self._kept
        if alloc is self.alloc and order is self.order and counts == self._counts():
            return report
        self._kept = None
        return None

    def ledger(self, scope: frozenset[int] = frozenset()) -> Optional[Ledger]:
        """The validator's ledger if its entries read this state as it is
        now but for the bundles of ``scope`` (:meth:`.verify.Ledger.current`),
        else ``None``."""
        ledger = self._ledger
        if ledger is not None and ledger.current(self.alloc, self.order, scope):
            return ledger
        return None

    def seed_ledger(self, report: Optional[PropertyReport] = None) -> None:
        """Seed the validator's ledger with the reads of ``report``, a whole
        report of this state as it is now, or, without one, with those of
        the fresh state, where nobody holds anything."""
        if report is None:
            self._ledger = Ledger.fresh(self.alloc, self.order)
        else:
            self._ledger = Ledger.of(self.instance, self.alloc, self.order, report)


@dataclass
class InvariantViolation:
    code: int
    witness: tuple

    def __str__(self) -> str:
        return f"invariant ({self.code}) broken: {INVARIANT_NAMES[self.code]} at {self.witness}"


def _best_partner(state: SolverState, i: int) -> tuple[int, Bundle]:
    """The partner whose claimable bundle agent ``i`` values most, and that
    bundle.

    Agent ``i`` values only goods on her own edges, so only her neighbours
    are visited.  The search starts from agent 0 at value 0 and moves only
    on a strictly higher value, so ties go to the lowest id and an agent
    with nothing of value to take resolves to agent 0, neighbour or not.
    If agent 0 is her neighbour she then takes her zero-valued unit bundle
    from pair ``(i, 0)``; otherwise that pair is empty and she takes nothing.
    The bundle stays what ``i`` may claim while the pair's goods and its
    later picker stay as they are: between the search and the hand-out,
    :func:`augment` only places the partner at the front or hands the
    partner goods of another pair, and neither changes the pair.
    """
    value = state.instance.valuations[i].value
    best_j, best_val, best = 0, 0, EMPTY_BUNDLE
    for j in state.instance.neighbors(i):
        bundle = state.claimable(i, j)
        val = value(bundle)
        if val > best_val or j == best_j:
            best_j, best_val, best = j, val, bundle
    return best_j, best


def augment(
    state: SolverState, *, metrics: Optional[SolveMetrics] = None, trace: TraceFn = None
) -> list[int]:
    """Place at least one unplaced agent and hand new agents their bundles;
    the agents placed, front ones first.

    Each bundle handed out is traced as a ``pick`` event; the closing
    ``round`` event lists only the agents this round placed at the front
    and at the back, each in placement order.  A round that set the bundle
    of an agent it did not place is an internal error.
    """
    order, alloc = state.order, state.alloc
    if not order.unplaced:
        raise StateError("augment called with every agent already placed")
    metrics = metrics if metrics is not None else SolveMetrics()
    metrics.augment_calls += 1

    def give(agent: int, goods) -> None:
        alloc.set_bundle(agent, goods)
        if not goods:
            metrics.empty_picks += 1
        if trace is not None:
            trace({"phase": 1, "event": "pick", "agent": agent, "goods": sorted(goods)})

    i = order.lowest_unplaced()
    front0, back, changes0 = len(order.front), [i], alloc.changes
    order.prepend_back(i)
    j, claim = _best_partner(state, i)
    while j in order.unplaced:
        order.append_front(j)
        k, taken = _best_partner(state, j)
        if k == i:
            give(j, taken)
            j, claim = _best_partner(state, i)
        elif k not in order.unplaced:
            give(j, taken)
            break
        else:
            give(j, taken)
            give(i, claim)
            i = k
            order.prepend_back(i)
            back.append(i)
            j, claim = _best_partner(state, i)
    give(i, claim)
    front = order.front[front0:]
    stray = alloc.set_since(changes0).difference(front, back)
    if stray:
        raise InternalSolverError(
            f"a stage-one round set the bundles of agents {sorted(stray)} it did not place"
        )
    if trace is not None:
        trace({"phase": 1, "event": "round", "front": front, "back": back})
    return front + back


def check_transition(
    state: SolverState,
    scope: Iterable[int],
    failures: Callable[[PropertyReport], list[str]],
    *,
    whole: bool = False,
) -> PropertyReport:
    """Check ``state`` from scratch after one transition, a stage-one round
    or a stage-two step that set the bundles and placed agents of ``scope``
    only; the report the verdict was read from.  This is the one protocol
    of validated transitions.

    ``failures(report)`` lists the caller's findings on a report as
    messages.  Unless ``whole`` is set, the check is scoped to ``scope``
    when the state's ledger is current but for the bundles of ``scope``
    (:meth:`SolverState.ledger`), and its report is returned when it has no
    findings: its verdict is the whole check's, by the argument
    :func:`.verify.check_properties` states, as the state before passed a
    check, each round and step asserts it kept to ``scope``, and the check
    brings the ledger up to date.  Scoped findings, or no current ledger,
    send the check whole (:meth:`SolverState.report`): its findings are the
    error, scoped findings it does not share are an error of their own, and
    its reads seed the ledger afresh.  Callers check whole the last
    transition of a stage, whose report the next stage opens with; a
    transition from a state no check has read, which has no ledger, is
    checked whole too.
    """
    scope = frozenset(scope)
    ledger = None if whole else state.ledger(scope)
    if ledger is not None:
        scoped = check_properties(
            state.instance, state.alloc, state.order, state.cuts, scope=scope, ledger=ledger
        )
        found = failures(scoped)
        if not found:
            return scoped
    report = state.report()
    bad = failures(report)
    if bad:
        raise InternalSolverError("; ".join(bad))
    state.seed_ledger(report)
    if ledger is not None:
        raise InternalSolverError(
            f"the check scoped to agents {sorted(scope)} failed "
            f"({'; '.join(found)}) where the whole check passed"
        )
    return report


def check_invariants(
    state: SolverState, report: Optional[PropertyReport] = None
) -> list[InvariantViolation]:
    """Check the between-round invariants against ``report``, a property
    report of ``state`` as it is now (by default :meth:`SolverState.report`);
    empty list means all hold.

    Each failure of the report's (1)-(4) is a code-7 row ``(property,
    *row)``, and (5) and (6) read the envy graph it built.  On a report
    scoped to the agents a round placed, (1) and (2) read their bundles
    only, and (5) and (6) the envy pairs touching them, which its graph
    holds.
    """
    instance, alloc, order = state.instance, state.alloc, state.order
    unplaced = order.unplaced
    if report is None:
        report = state.report()
    out: list[InvariantViolation] = []

    if unplaced:  # a complete order breaks neither (1) nor (2)
        agents = range(instance.n) if report.scope is None else sorted(report.scope)
        goods = instance.goods
        for p in agents:
            if p not in unplaced:
                stray = [
                    g for g in alloc.bundle(p) if goods[g].u in unplaced or goods[g].v in unplaced
                ]
                out.extend(InvariantViolation(1, (p, g)) for g in sorted(stray))
        for u in agents:
            if u in unplaced and alloc.bundle(u):
                out.append(InvariantViolation(2, (u, min(alloc.bundle(u)))))

    # an agent is at the front, at the back or unplaced, so a pair breaks one at most
    in_front, in_back = order.in_front, order.in_back
    broken = [
        (i, j)
        for j, row in report.graph.enviers.items()
        for i in row
        if in_front(i) or (in_back(i) and in_back(j))
    ]
    for i, j in sorted(broken):
        out.append(InvariantViolation(5 if in_front(i) else 6, (i, j)))

    for prop, violations in report.failures.items():
        if prop in STAGE_ONE_PROPERTIES:
            for v in violations:
                out.append(InvariantViolation(7, (prop,) + tuple(v)))
    return out


def run_phase1(
    instance: Instance,
    *,
    state: Optional[SolverState] = None,
    validate: bool = True,
    metrics: Optional[SolveMetrics] = None,
    trace: TraceFn = None,
) -> SolverState:
    """Drive augmentation until every agent is placed.

    With ``validate`` set, :func:`check_transition` checks every round
    against the invariants (:func:`check_invariants`), scoped to the agents
    it placed; whole for the last round, which stage two opens with, and
    for the first one of a handed state, which has no ledger, unlike a
    fresh one, whose ledger is seeded from the fresh state.  The finished
    allocation is also replayed greedily along the order, which must
    reproduce it exactly.
    """
    if state is None:
        state = SolverState.fresh(instance)
        if validate:
            state.seed_ledger()
    metrics = metrics if metrics is not None else SolveMetrics()

    def broken(report: PropertyReport) -> list[str]:
        return [str(v) for v in check_invariants(state, report)]

    while state.order.unplaced:
        before = len(state.order.unplaced)
        placed = augment(state, metrics=metrics, trace=trace)
        if len(state.order.unplaced) >= before:
            raise InternalSolverError("a round failed to place any agent")
        if validate:
            started = time.perf_counter()
            check_transition(state, placed, broken, whole=not state.order.unplaced)
            metrics.validate_s += time.perf_counter() - started
    if metrics.augment_calls > instance.n:
        raise InternalSolverError(
            f"{metrics.augment_calls} rounds for {instance.n} agents"
        )
    if validate:
        started = time.perf_counter()
        replay = greedy_replay(state)
        if replay != state.alloc:
            raise InternalSolverError(
                "greedy replay along the finished order diverged from the allocation"
            )
        metrics.validate_s += time.perf_counter() - started
    return state


def greedy_replay(state: SolverState) -> Allocation:
    """Re-pick along the finished order with the same fixed pair splits.

    Each agent takes the claimable bundle she values most at her turn; the
    result must coincide with the stage-one allocation.
    """
    replay = replace(state, alloc=Allocation(state.instance.n))
    for i in state.sigma():
        replay.alloc.set_bundle(i, _best_partner(replay, i)[1])
    return replay.alloc
