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
modes.  A validated run also reports every round and the finished stage to
the run's :class:`Validator`, defined here beside the invariants it checks
and the replay; its docstring states what it checks and when.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields, replace
from functools import wraps
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .cuts import CutTable, PickOrder, claimable, own_labels, read_pairs
from .errors import InternalSolverError, StateError
from .model import EMPTY_BUNDLE, Allocation, Bundle, Instance
# ``envy_graph`` is no longer called here, but the benchmark's tracer wraps
# it by name, so a reintroduced call is counted
from .verify import (  # noqa: F401
    STAGE_ONE_PROPERTIES,
    FreeBundleCheck,
    Ledger,
    PropertyReport,
    check_properties,
    envy_graph,
    free_bundle_check,
    with_neighbours,
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

    ``validate_s`` is the part of the stage times a validated run spends in
    its :class:`Validator`, checking its rounds, steps and dumps; it is 0.0
    when unvalidated.
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
    reused.  A validated run also keeps its :class:`Validator` here
    (:meth:`Validator.of`).  A copy made with ``dataclasses.replace``
    starts without either.
    """

    instance: Instance
    alloc: Allocation
    order: PickOrder
    cuts: CutTable
    _kept: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _validator: Optional["Validator"] = field(default=None, init=False, repr=False, compare=False)

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
    Her pairs are read in one :func:`.cuts.read_pairs` call, and
    :func:`.cuts.claimable` decides each neighbour's bundle from its read.
    The bundle stays what ``i`` may claim while the pair's goods and its
    later picker stay as they are: between the search and the hand-out,
    :func:`augment` only places the partner at the front or hands the
    partner goods of another pair, and neither changes the pair.
    """
    instance = state.instance
    value = instance.valuations[i].value
    neighbours = instance.neighbors(i)
    pairs = read_pairs(instance, state.alloc, state.order, state.cuts, [(i, j) for j in neighbours])
    best_j, best_val, best = 0, 0, EMPTY_BUNDLE
    for j, pair in zip(neighbours, pairs):
        bundle = claimable(instance, i, pair)
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

    With ``validate`` set, every round and the stage's end are reported to
    the state's :class:`Validator`.  The round guard counts this call's
    rounds, while ``metrics`` keeps accumulating across calls.
    """
    fresh, state = state is None, state or SolverState.fresh(instance)
    metrics = metrics if metrics is not None else SolveMetrics()
    validator = Validator.of(state, metrics, fresh=fresh) if validate else None
    rounds = 0
    while state.order.unplaced:
        before = len(state.order.unplaced)
        placed = augment(state, metrics=metrics, trace=trace)
        rounds += 1
        if len(state.order.unplaced) >= before:
            raise InternalSolverError("a round failed to place any agent")
        if validator is not None:
            validator.round_placed(state, placed)
    if rounds > instance.n:
        raise InternalSolverError(f"{rounds} rounds for {instance.n} agents")
    if validator is not None:
        validator.stage_one_done(state)
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


def _has(rows: list[int], i: int) -> bool:
    """Whether ascending ``rows`` holds ``i``."""
    lo = bisect_left(rows, i)
    return lo < len(rows) and rows[lo] == i


_AGENT = itemgetter(0)


def _breaks_7_of(rows: list[tuple[int, int, str]], i: int) -> list[tuple[int, int, str]]:
    """The rows of agent ``i`` in the ascending (7) break list ``rows``."""
    lo = bisect_left(rows, i, key=_AGENT)
    return rows[lo : bisect_right(rows, i, lo, key=_AGENT)]


_FIELDS = tuple(f.name for f in fields(FreeBundleCheck))


def _differ(live: FreeBundleCheck, reference: FreeBundleCheck) -> list[str]:
    """The fields in which ``live`` differs from ``reference``, row by row
    over the agents and the pair reads ``reference`` holds."""
    found = set()
    units, near = live.units, reference.units
    for i, own in reference.own.items():
        if live.enviers.get(i) != reference.enviers.get(i):
            found.add("enviers")
        if units.primary[i] != near.primary[i] or units.secondary[i] != near.secondary[i]:
            found.add("units")
        if live.own[i] != own:
            found.add("own")
        if live.loose[i] != reference.loose[i]:
            found.add("loose")
        if _has(live.breaks_5, i) != (i in reference.breaks_5):
            found.add("breaks_5")
        if _has(live.breaks_6, i) != (i in reference.breaks_6):
            found.add("breaks_6")
        if _breaks_7_of(live.breaks_7, i) != _breaks_7_of(reference.breaks_7, i):
            found.add("breaks_7")
    if any(live.pairs[p] != read for p, read in reference.pairs.items()):
        found.add("pairs")
    return [name for name in _FIELDS if name in found]


def _timed(event):
    """``event`` timed into the run's ``validate_s``, which nothing else adds to."""

    @wraps(event)
    def timed(self, *args):
        started = time.perf_counter()
        event(self, *args)
        self.metrics.validate_s += time.perf_counter() - started

    return timed


@dataclass
class Validator:
    """Everything a validated run checks beyond solving, beside the stages.

    A validated stage reports each event to the state's validator
    (:meth:`of`) in one call: stage one each round (:meth:`round_placed`)
    and its end (:meth:`stage_one_done`), stage two its opening
    (:meth:`stage_two_opened`) and each step (:meth:`step`), stage three
    each dump (:meth:`dump`).  Each event is timed into
    ``SolveMetrics.validate_s``.  An unvalidated run makes no validator.

    **The transition protocol** (:meth:`check_transition`).  A round or a
    step that set the bundles and placed agents of ``C`` only is checked
    from scratch after it, scoped to ``C`` while the validator's ledger of
    from-scratch reads (:class:`.verify.Ledger`) is current but for the
    bundles of ``C``.  A scoped report without findings is the verdict: it
    is the whole check's, by the argument :func:`.verify.check_properties`
    states, as the state before passed a check, each round and step asserts
    it kept to ``C``, and the check brings the ledger up to date.  Scoped
    findings, or no current ledger, send the check whole
    (:meth:`.SolverState.report`): its findings are the error, scoped
    findings it does not share are an error of their own, and its reads
    seed the ledger afresh.  A stage's last transition, a round after which
    no agent is unplaced or a step after which the live check has no
    break, is checked whole and seeds no ledger: no scoped check of the
    stage follows, and the next stage opens with its report.  A run from a
    fresh state seeds the ledger with that state's reads, so its first
    round is checked scoped; a handed state's first round is checked whole.

    **Stage one.**  A round's findings are the broken invariants
    (:func:`check_invariants`).  The finished allocation must equal its
    greedy replay along the order (:func:`greedy_replay`).

    **Stage two.**  When a rule fires on the opening report, the ledger is
    seeded from a copy of it.  Before each step the validator holds the
    live check's ``(envier, envied)`` pairs toward ``C ∪ N(C)``, ``C`` the
    agents the rule changes, the only envy a step can change.  A step's
    findings are a broken property (1)-(4) and every field in which the
    live check differs from the from-scratch one, row by row
    (:func:`_differ`): over ``C ∪ N(C)`` and the pairs touching ``C`` when
    scoped, everywhere when whole.  Then the rule's postconditions must
    hold against the pairs held before it: rules A and B create no envy
    there, and rule C leaves neither agent envied and lowers the number of
    envied agents there.  A live row outside ``C ∪ N(C)`` is compared only
    at the stage's last step, so the rows of the agent the next rule fires
    on, when she is outside ``C ∪ N(C)``, must also equal those the ledger
    gives; the first rule fires on the opening report itself.  The ledger
    never reads the live check, nor the live check the ledger.  The
    ``pick`` of a stage-two event is the rule the stage fires next,
    ``(branch, agent, partner, label)``, or ``None``.

    **Stage three.**  Before each dump, the dumped agent's primary label,
    read from her own pairs (:func:`.cuts.own_labels`), must equal the one
    the opening check froze.
    """

    metrics: SolveMetrics
    ledger: Optional[Ledger] = None
    envy_before: Optional[set[tuple[int, int]]] = None

    @classmethod
    def of(cls, state: SolverState, metrics: SolveMetrics, *, fresh: bool = False) -> "Validator":
        """The validator ``state`` keeps, made on first use, timing into
        ``metrics``; ``fresh`` seeds its ledger for the fresh state ``state`` is."""
        validator = state._validator = state._validator or cls(metrics)
        validator.metrics = metrics
        if fresh:
            validator.ledger = Ledger.fresh(state.alloc, state.order)
        return validator

    def current(self, state: SolverState, scope: frozenset[int] = frozenset()) -> Optional[Ledger]:
        """The ledger if its entries read ``state`` as it is now but for the
        bundles of ``scope`` (:meth:`.verify.Ledger.current`), else ``None``."""
        fits = self.ledger is not None and self.ledger.current(state.alloc, state.order, scope)
        return self.ledger if fits else None

    def check_transition(
        self, state: SolverState, scope: Iterable[int], failures, *, whole: bool = False
    ) -> PropertyReport:
        """Check ``state`` after a transition that changed ``scope`` only,
        by the protocol above; the report the verdict was read from.
        ``failures(report)`` lists the caller's findings on a report as
        messages; ``whole`` skips the scoped check and the reseeding."""
        scope = frozenset(scope)
        ledger = None if whole else self.current(state, scope)
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
        if not whole:
            self.ledger = Ledger.of(state.instance, state.alloc, state.order, report)
        if ledger is not None:
            raise InternalSolverError(
                f"the check scoped to agents {sorted(scope)} failed "
                f"({'; '.join(found)}) where the whole check passed"
            )
        return report

    @_timed
    def round_placed(self, state: SolverState, placed: list[int]) -> None:
        """A stage-one round placed ``placed``."""

        def broken(report: PropertyReport) -> list[str]:
            return [str(v) for v in check_invariants(state, report)]

        self.check_transition(state, placed, broken, whole=not state.order.unplaced)

    @_timed
    def stage_one_done(self, state: SolverState) -> None:
        """Stage one placed every agent."""
        if greedy_replay(state) != state.alloc:
            raise InternalSolverError(
                "greedy replay along the finished order diverged from the allocation"
            )

    @_timed
    def stage_two_opened(self, state: SolverState, report: PropertyReport, pick) -> None:
        """Stage two opened with ``report``; its free-bundle check is the live one."""
        if pick is not None:
            self.ledger = Ledger.of(state.instance, state.alloc, state.order, report)
        self._hold_envy(state, report.free_bundles, pick)

    @_timed
    def step(self, state: SolverState, record, live: FreeBundleCheck, pick) -> None:
        """Stage two took the step ``record``; its live check is now ``live``."""
        rule = f"rule {record.branch} on agent {record.agent}"

        def failures(report: PropertyReport) -> list[str]:
            if not STAGE_ONE_PROPERTIES.isdisjoint(report.failures):
                return [f"{rule} broke {report.only(STAGE_ONE_PROPERTIES).summary()}"]
            differ = _differ(live, report.free_bundles)
            if not differ:
                return []
            return [f"after {rule} the live free-bundle check differs from the reference in {differ}"]

        report = self.check_transition(state, record.changed(), failures, whole=live.ok)
        envied_now = report.free_bundles.enviers
        near = with_neighbours(state.instance, record.changed())
        before = {(k, d) for k, d in self.envy_before if d in near}
        now = {(k, d) for d in near for k in envied_now.get(d, ())}
        created = now - before
        if record.branch in ("A", "B") and created:
            raise InternalSolverError(f"{rule} created envy {sorted(created)}")
        if record.branch == "C":
            if record.agent in envied_now:
                raise InternalSolverError(f"rule C left agent {record.agent} envied")
            if record.partner in envied_now:
                raise InternalSolverError(f"rule C made the envier {record.partner} envied")
            if not len({d for _, d in now}) < len({d for _, d in before}):
                raise InternalSolverError("rule C did not shrink the set of envied agents")
        if pick is not None and pick[1] not in near:
            self._check_rule_agent(state, live, pick)
        self._hold_envy(state, live, pick)

    @_timed
    def dump(self, state: SolverState, i: int, dumped: Bundle) -> None:
        """Stage three dumps ``dumped``, agent ``i``'s frozen primary label."""
        if own_labels(state.instance, state.alloc, state.order, state.cuts, i)[0] != dumped:
            raise InternalSolverError(
                f"live free-unit labels of agent {i} diverged from the frozen ones"
            )

    def _hold_envy(self, state: SolverState, live: FreeBundleCheck, pick) -> None:
        """Hold ``live``'s envy pairs toward ``pick``'s ``C ∪ N(C)``, if any."""
        if pick is not None:
            _, i, j, _ = pick
            near = with_neighbours(state.instance, (i,) if j is None else (i, j))
            self.envy_before = {(k, d) for d in near for k in live.enviers.get(d, ())}

    def _check_rule_agent(self, state: SolverState, live: FreeBundleCheck, pick) -> None:
        """The rows of the agent ``pick`` fires on must be the ledger's."""
        branch, i, _, _ = pick
        instance, ledger = state.instance, self.current(state)
        pairs = [(i, k) if i < k else (k, i) for k in instance.neighbors(i)]
        reference = free_bundle_check(
            instance, state.alloc, ledger.enviers, ledger.own, ledger.pairs, (i,), pairs
        )
        differ = _differ(live, reference)
        if differ:
            raise InternalSolverError(
                f"before rule {branch} on agent {i} the live free-bundle check "
                f"differs from the reference in {differ}"
            )
