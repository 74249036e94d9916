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
do not envy each other (6), and the numbered properties (1)-(3) of
:mod:`.verify` hold, (2) and (3) for the placed agents (7).  Invariant (7)
is one :func:`.verify.check_properties` call, and (5) and (6) read the envy
graph it built; (1) and (2) read only the picking order and the bundles.
Codes (3) and (4) are unused: property (1), checked under (7), covers the
orientation and the absence of strong envy.

When no agents remain unplaced, the allocation satisfies the numbered
properties (1)-(4) of :mod:`.verify`.  Stage two asserts them in the check
it opens with, so this stage does not check its own output again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

from .cuts import CutTable, PickOrder, claimable
from .errors import InternalSolverError, StateError
from .model import Allocation, Instance
# ``envy_graph`` is no longer called here, but the benchmark's tracer wraps
# it by name, so a reintroduced call is counted
from .verify import check_properties, envy_graph  # noqa: F401

TraceFn = Optional[Callable[[dict], None]]

INVARIANT_NAMES = {
    1: "placed agents hold goods only between placed agents",
    2: "unplaced agents hold nothing",
    5: "front agents envy nobody",
    6: "back agents do not envy each other",
    7: "EFX orientation, and pair structure and free-bundle preference for "
    "placed agents",
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
        return asdict(self)


@dataclass
class SolverState:
    """Allocation, picking order and memoised pair splits, threaded through
    all three stages."""

    instance: Instance
    alloc: Allocation
    order: PickOrder
    cuts: CutTable

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


@dataclass
class InvariantViolation:
    code: int
    witness: tuple

    def __str__(self) -> str:
        return f"invariant ({self.code}) broken: {INVARIANT_NAMES[self.code]} at {self.witness}"


def _best_partner(state: SolverState, i: int) -> int:
    """The partner whose claimable bundle agent ``i`` values most.

    Agent ``i`` values only goods on her own edges, so only her neighbours
    are visited.  The search starts from agent 0 at value 0 and moves only
    on a strictly higher value, so ties go to the lowest id and an agent
    with nothing of value to take resolves to agent 0, neighbour or not.
    If agent 0 is her neighbour she then takes her zero-valued unit bundle
    from pair ``(i, 0)``; otherwise that pair is empty and she takes nothing.
    """
    value = state.instance.valuations[i].value
    best_j, best_val = 0, 0
    for j in state.instance.neighbors(i):
        val = value(state.claimable(i, j))
        if val > best_val:
            best_j, best_val = j, val
    return best_j


def augment(
    state: SolverState, *, metrics: Optional[SolveMetrics] = None, trace: TraceFn = None
) -> None:
    """Place at least one unplaced agent and hand new agents their bundles."""
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

    def round_snapshot() -> None:
        if trace is not None:
            trace(
                {
                    "phase": 1,
                    "event": "round",
                    "front": list(order.front),
                    "back": order.back,
                    "unplaced": sorted(order.unplaced),
                    "bundles": [
                        sorted(alloc.bundle(p)) for p in range(state.instance.n)
                    ],
                }
            )

    i = order.lowest_unplaced()
    order.prepend_back(i)
    j = _best_partner(state, i)
    while j in order.unplaced:
        order.append_front(j)
        k = _best_partner(state, j)
        if k == i:
            give(j, state.claimable(j, i))
            j = _best_partner(state, i)
        elif k not in order.unplaced:
            give(j, state.claimable(j, k))
            break
        else:
            give(j, state.claimable(j, k))
            give(i, state.claimable(i, j))
            i = k
            order.prepend_back(i)
            j = _best_partner(state, i)
    give(i, state.claimable(i, j))
    round_snapshot()


def check_invariants(state: SolverState) -> list[InvariantViolation]:
    """Check the between-round invariants; empty list means all hold.

    Invariant (7) is one :func:`.verify.check_properties` of properties
    (1)-(3), and each of its failures is a code-7 row ``(property, *row)``;
    the order-only invariants (5) and (6) read the envy graph it built.
    """
    instance, alloc, order = state.instance, state.alloc, state.order
    unplaced = order.unplaced
    report = check_properties(instance, alloc, order, state.cuts, which={1, 2, 3})
    out: list[InvariantViolation] = []

    for p in range(instance.n):
        if p in unplaced:
            continue
        for g in sorted(alloc.bundle(p)):
            good = instance.goods[g]
            if good.u in unplaced or good.v in unplaced:
                out.append(InvariantViolation(1, (p, g)))
    for u in sorted(unplaced):
        if alloc.bundle(u):
            out.append(InvariantViolation(2, (u, min(alloc.bundle(u)))))

    front = set(order.front)
    back = set(order.back)
    for edge in report.graph.edges:
        if edge.src in front:
            out.append(InvariantViolation(5, (edge.src, edge.dst)))
        if edge.src in back and edge.dst in back:
            out.append(InvariantViolation(6, (edge.src, edge.dst)))

    for prop, violations in report.failures.items():
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
    which must reproduce it exactly.  The numbered properties (1)-(4)
    of the result are asserted by :func:`.phase2.run_phase2`, which opens
    with one check of (1)-(7) on its input.
    """
    if state is None:
        state = SolverState.fresh(instance)
    metrics = metrics if metrics is not None else SolveMetrics()
    while state.order.unplaced:
        before = len(state.order.unplaced)
        augment(state, metrics=metrics, trace=trace)
        if len(state.order.unplaced) >= before:
            raise InternalSolverError("a round failed to place any agent")
        if validate:
            bad = check_invariants(state)
            if bad:
                raise InternalSolverError(
                    "; ".join(str(v) for v in bad)
                )
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
        replay.alloc.set_bundle(i, replay.claimable(i, _best_partner(replay, i)))
    return replay.alloc
