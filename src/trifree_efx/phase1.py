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
is one :func:`.verify.check_properties` call narrowed to (1)-(4), and (5)
and (6) read the envy graph it built; (1) and (2) read only the picking
order and the bundles.  Property (4), no envy chain, follows from
invariants (1), (2), (5) and (6), so a correct run never trips it.  Codes
(3) and (4) are unused: property (1), checked under (7), covers the
orientation and the absence of strong envy.

When no agents remain unplaced, the allocation satisfies the numbered
properties (1)-(4) of :mod:`.verify`.  Stage two asserts them in the check
it opens with, so this stage does not check its own output again: a
validated run's last round check, which runs on the complete order and so
decides (5)-(7) too, stays on the state for stage two to open with.  Each
round also checks that it set only the bundles of the agents it placed, in
both modes.  That premise is what lets a validated run check every other
round from scratch over the agents it placed only (``check_invariants``
with ``scope``): the state before the round passed its check, and nothing
outside those agents and their neighbours can have changed.  The last
round, and the first one of a run handed a state it did not start, are
checked whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .cuts import CutTable, PickOrder, claimable
from .errors import InternalSolverError, StateError
from .model import EMPTY_BUNDLE, Allocation, Bundle, Instance
# ``envy_graph`` is no longer called here, but the benchmark's tracer wraps
# it by name, so a reintroduced call is counted
from .verify import (  # noqa: F401
    STAGE_ONE_PROPERTIES,
    PropertyReport,
    check_properties,
    envy_graph,
    envy_pairs,
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
    """Counters of one solver run, filled in by the three stages and ``solve``."""

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

    The state also holds the last from-scratch property report computed on
    it (:meth:`keep_report`), stamped with the allocation and order objects,
    the allocation's change count and the order's placed count.  The report
    is handed back (:meth:`kept_report`) only while all four still match, so
    after any ``set_bundle`` or placement it is never reused, and a copy
    made with ``dataclasses.replace`` starts without one.
    """

    instance: Instance
    alloc: Allocation
    order: PickOrder
    cuts: CutTable
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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

    def keep_report(self, report: PropertyReport) -> PropertyReport:
        """Keep ``report``, a whole from-scratch check of this state as it is
        now, and return it; a scoped report is refused."""
        if report.scope is not None:
            raise StateError("a scoped property report cannot be kept for reuse")
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


def check_invariants(
    state: SolverState, scope: Optional[Iterable[int]] = None
) -> list[InvariantViolation]:
    """Check the between-round invariants; empty list means all hold.

    Invariant (7) is one :func:`.verify.check_properties`, narrowed to
    properties (1)-(4), and each of its failures is a code-7 row
    ``(property, *row)``; the order-only invariants (5) and (6) read the
    envy graph it built.  The whole report stays on the state
    (:meth:`SolverState.keep_report`).

    With ``scope``, the agents a round placed, the check is scoped to them:
    (7) is the scoped :func:`.verify.check_properties`, (1) and (2) read
    their bundles only, and (5) and (6) the envy toward them and their
    neighbours, which holds every envy pair touching them.  Only
    their bundles were set and only they were placed since the state passed
    the check before, so the other agents' rows are unchanged (see the
    scoped check); the report is not kept.
    """
    instance, alloc, order = state.instance, state.alloc, state.order
    unplaced = order.unplaced
    report = check_properties(instance, alloc, order, state.cuts, scope=scope)
    if scope is None:
        state.keep_report(report)
        agents = range(instance.n)
    else:
        agents = sorted(scope)
    out: list[InvariantViolation] = []

    for p in agents:
        if p in unplaced:
            continue
        for g in sorted(alloc.bundle(p)):
            good = instance.goods[g]
            if good.u in unplaced or good.v in unplaced:
                out.append(InvariantViolation(1, (p, g)))
    for u in agents:
        if u in unplaced and alloc.bundle(u):
            out.append(InvariantViolation(2, (u, min(alloc.bundle(u)))))

    for i, j in envy_pairs(report.graph.enviers):
        if order.in_front(i):
            out.append(InvariantViolation(5, (i, j)))
        if order.in_back(i) and order.in_back(j):
            out.append(InvariantViolation(6, (i, j)))

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

    With ``validate`` set, the invariants are re-checked after every round,
    and the final allocation is replayed greedily along the finished order,
    which must reproduce it exactly.  A round's check is scoped to the
    agents it placed (:func:`check_invariants`) once the state before it
    passed a check: a fresh state passes vacuously, a state handed in is
    checked whole after the first round.  The last round's check, on the
    complete order, is whole; it decides (1)-(7) and stays on the state for
    stage two to open with.  A scoped check that fails is rerun whole, so
    the error names what the whole check finds.  The numbered properties
    (1)-(4) of the result are asserted by :func:`.phase2.run_phase2`, which
    opens with one check of (1)-(7) on its input.
    """
    checked = state is None  # a fresh state passes every invariant vacuously
    if state is None:
        state = SolverState.fresh(instance)
    metrics = metrics if metrics is not None else SolveMetrics()
    while state.order.unplaced:
        before = len(state.order.unplaced)
        placed = augment(state, metrics=metrics, trace=trace)
        if len(state.order.unplaced) >= before:
            raise InternalSolverError("a round failed to place any agent")
        if validate:
            scoped = checked and bool(state.order.unplaced)
            bad = check_invariants(state, placed if scoped else None)
            if bad and scoped:
                bad = check_invariants(state) or bad
            if bad:
                raise InternalSolverError(
                    "; ".join(str(v) for v in bad)
                )
            checked = True
    if metrics.augment_calls > instance.n:
        raise InternalSolverError(
            f"{metrics.augment_calls} rounds for {instance.n} agents"
        )
    if validate:
        replay = greedy_replay(state)
        if replay != state.alloc:
            raise InternalSolverError(
                "greedy replay along the finished order diverged from the allocation"
            )
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
