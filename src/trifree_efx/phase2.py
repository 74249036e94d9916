"""Stage two: repair loop adding the free-bundle properties (5)-(7).

Starting from a stage-one state (properties (1)-(4)), the loop repeatedly
applies the first applicable rule, scanning agents by ascending id.  Each
rule fires exactly when one of the properties fails, so the rule candidates
are read off a :class:`.verify.FreeBundleCheck` of the current state:

* rule A -- a non-envied agent breaks (5), i.e. still has a primary free
  unit bundle beside her: she absorbs all her primary free bundles.
* rule B -- a non-envied agent breaks (6), i.e. values the free goods
  incident to her above her own bundle: for every pair with something free
  she trades her held unit bundle for the free one, keeping pairs with
  nothing free untouched.  Her free goods and each pair's are read off the
  check, as rules A and C read their labels.
* rule C -- an envied agent breaks (7), i.e. would prefer her envier's
  bundle joined with one of her free-unit labels: the two swap their unit
  bundles of the shared pair, then she absorbs that label's free bundles.

The stage opens with the whole from-scratch report of properties (1)-(7)
on its input (:meth:`.phase1.SolverState.report`), the one a validated
stage one's last round left on the state when nothing changed since.
(1)-(4) must hold, and the report's :class:`.verify.FreeBundleCheck` itself
becomes the live one (:class:`LiveCheck`), updated in place after every
step; the stage holds no other free-bundle check.  A rule changes the
bundles of at most two agents ``C``, each step checks that no other
agent's bundle was set, and only ``C`` and its neighbours ``N(C)`` are
rechecked.  A validated run also reports the opening and every step to
the run's :class:`.phase1.Validator`, whose docstring states what it
checks and when.  Stage three opens with the state's report in the same
way.

Each step strictly lowers the triple (number of envied agents, rule-B
violators, rule-A violators) in lexicographic order, so the loop ends after
at most ``n**3`` steps, at which point properties (1)-(7) all hold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

# ``free_units``, ``envy_graph`` and ``check_properties`` are no longer
# called here, but the benchmark's tracer wraps them by name, so a
# reintroduced call is counted
from .cuts import free_units, own_labels, read_pairs  # noqa: F401
from .errors import InternalSolverError
from .model import Bundle
from .phase1 import _AGENT, SolveMetrics, SolverState, TraceFn, Validator, _breaks_7_of, _has
from .verify import (  # noqa: F401
    STAGE_ONE_PROPERTIES,
    FreeBundleCheck,
    agent_free_bundle_breaks,
    check_properties,
    envy_graph,
    viewer_envy,
    with_neighbours,
)


class Potential(NamedTuple):
    """Lexicographic descent certificate for the repair loop."""

    envied: int
    leftover_violations: int  # rule-B candidates
    claim_violations: int  # rule-A candidates

    @classmethod
    def of(cls, check: FreeBundleCheck) -> "Potential":
        return cls(len(check.enviers), len(check.breaks_6), len(check.breaks_5))


def _splice(rows: list, i: int, new: list, key=None) -> None:
    """Replace the run of ``rows`` whose ``key`` is ``i`` (the rows equal to
    ``i`` without a key) with ``new``; ``rows`` is in ascending ``key``
    order and stays so."""
    lo = bisect_left(rows, i, key=key)
    rows[lo : bisect_right(rows, i, lo, key=key)] = new


@dataclass
class StepRecord:
    branch: str
    agent: int
    partner: Optional[int]
    potential_before: Potential

    def changed(self) -> tuple[int, ...]:
        """The agents whose bundles the step changed."""
        return (self.agent,) if self.partner is None else (self.agent, self.partner)


class LiveCheck:
    """Stage two's free-bundle check, kept up to date after every step.

    It takes over the seeding from-scratch check, ``check``, without a
    copy: after a rule changes the bundles of the agents ``C``,
    :meth:`update` changes it in place and returns it.  Its envier index is
    the very dict of the opening report's envy graph, which therefore
    changes with it; nothing reads that graph after the stage opens.  The
    opening report may be kept on the state for reuse, but :meth:`update`
    runs only after a step's ``set_bundle`` calls, which make the kept
    report stale, so a report it has changed is never reused.  Only the
    pairs touching ``C``, ``C``'s own values and outgoing envy, each
    neighbour's envy toward ``C``, and properties (5)-(7) of ``C`` and its
    neighbours ``N(C)`` are recomputed.  Every field then equals the
    from-scratch check's: the enviers, the labels, the own values, the free
    goods, the pair reads and the break lists.  The envier lists and the
    break lists are kept in order as they change, so a step sorts only what
    it changed and copies nothing of size ``n``.  The envy relation is held
    only as the check's envier index, with no edge list and no strong-envy
    flags, and the live check keeps nothing beside ``check``.

    This is exact because stage two keeps property (2), so every good is
    free or held by an endpoint of its pair, and valuations are local.
    Agent ``i``'s envy toward ``j``, her labels and her free incident goods
    therefore read only the goods of her own pairs, and those change only
    when ``i`` or one of her neighbours is in ``C``.  Distinct pairs share no
    goods, so an agent's labels and free goods are disjoint unions over her
    pairs: the pairs touching ``C`` are reread once each, in one
    :func:`.cuts.read_pairs` call, and when a pair's read changed its old
    part of both endpoints' sets is swapped for its new one, so a step
    costs set work linear in the degrees of ``C``.  The same reads give the
    envy parts: of ``j``'s bundle, a neighbour ``i`` sees the part ``j``
    holds of their pair.  The rules are the from-scratch ones: the pair
    read's labels, :func:`.verify.viewer_envy` per viewer and
    :func:`.verify.agent_free_bundle_breaks` per agent, whose break-list
    entries are spliced only when they changed.

    A neighbour ``k`` outside ``C`` keeps her own bundle, so her value for
    it is unchanged.  When she was non-envied and kept (6) before the step,
    and no pair of hers that was reread gained a free good, her free goods
    only shrank, and by monotonicity she still keeps (6) if she is still
    non-envied; her (6) valuation is then skipped.
    """

    def __init__(self, state: SolverState, check: FreeBundleCheck):
        self.state = state
        self.check = check

    def _set_envy(self, i: int, parts: dict[int, Bundle]) -> None:
        """Recompute agent ``i``'s envy toward the owners of ``parts``, her
        neighbours, from the parts of their bundles she sees; an empty part
        is worth 0 to her, so its owner is not envied."""
        enviers = self.check.enviers
        seen = {j: part for j, part in parts.items() if part}
        envied = viewer_envy(self.state.instance, i, self.check.own[i], seen)
        for j in parts:
            row = enviers.get(j)
            if (row is not None and _has(row, i)) == (j in envied):
                continue
            if j in envied:
                insort(enviers.setdefault(j, []), i)
            else:
                _splice(row, i, [])
                if not row:
                    del enviers[j]

    def _decide(self, i: int, holds_6: bool) -> None:
        """Recompute agent ``i``'s properties (5)-(7); ``holds_6`` as for
        :func:`.verify.agent_free_bundle_breaks`.  A break list is spliced
        only when her entry in it changed."""
        check = self.check
        b5, b6, b7 = agent_free_bundle_breaks(
            self.state.instance,
            self.state.alloc,
            i,
            check.own[i],
            check.enviers.get(i, []),
            check.units.primary[i],
            check.units.secondary[i],
            check.loose[i],
            holds_6=holds_6,
        )
        for rows, broken in ((check.breaks_5, b5), (check.breaks_6, b6)):
            if _has(rows, i) != broken:
                _splice(rows, i, [i] if broken else [])
        if _breaks_7_of(check.breaks_7, i) != b7:
            _splice(check.breaks_7, i, b7, _AGENT)

    def update(self, changed: Iterable[int]) -> FreeBundleCheck:
        """The check after a step that changed the bundles of ``changed``,
        updated in place."""
        state, check = self.state, self.check
        instance, alloc = state.instance, state.alloc
        own, reads, loose = check.own, check.pairs, check.loose
        primary, secondary = check.units.primary, check.units.secondary
        changed = set(changed)
        read: list[tuple[int, int]] = []  # the pairs touching C, each once
        for c in changed:
            own[c] = instance.valuations[c].value(alloc.bundle(c))
            for k in instance.neighbors(c):
                if k not in changed or c < k:  # a pair inside C is read once
                    read.append((c, k) if c < k else (k, c))
        # each agent of C ∪ N(C) -> the parts her neighbours across a read pair hold
        views: dict[int, dict[int, Bundle]] = {i: {} for i in with_neighbours(instance, changed)}
        gained: set[int] = set()  # agents with a pair that gained a free good
        for (a, b), pair in zip(read, read_pairs(instance, alloc, state.order, state.cuts, read)):
            views[a][b], views[b][a] = pair[3], pair[2]
            new = pair[5:]
            old = reads[a, b]
            if new == old:
                continue
            # the pair's old part of both endpoints' sets is swapped for its new one
            reads[a, b] = new
            old_free, new_free = old[0], new[0]
            for agent, old_labels, new_labels in ((a, old[1], new[1]), (b, old[2], new[2])):
                part = loose[agent]
                part -= old_free
                part |= new_free
                if old_labels is not new_labels:
                    part = primary[agent]
                    part -= old_labels[0]
                    part |= new_labels[0]
                    part = secondary[agent]
                    part -= old_labels[1]
                    part |= new_labels[1]
            if not new_free <= old_free:
                gained.update((a, b))
        # neighbours that kept (6) without envy before the step and whose
        # free goods only shrank
        shrank = views.keys() - changed - gained
        holds_6 = {k for k in shrank if k not in check.enviers and not _has(check.breaks_6, k)}
        for i, parts in views.items():
            self._set_envy(i, parts)
        for i in views:
            self._decide(i, i in holds_6)
        return check


def _apply_rule_a(state: SolverState, scan: FreeBundleCheck, i: int) -> None:
    alloc = state.alloc
    alloc.set_bundle(i, alloc.bundle(i) | scan.units.primary[i])


def _apply_rule_b(state: SolverState, scan: FreeBundleCheck, i: int) -> None:
    instance, alloc = state.instance, state.alloc
    keep = set()
    for j in instance.neighbors(i):
        if not scan.pairs[min(i, j), max(i, j)][0]:  # nothing of the pair is free
            keep |= alloc.bundle(i) & instance.pair_goods(i, j)
    alloc.set_bundle(i, keep | scan.loose[i])


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
    primary, secondary = own_labels(instance, alloc, state.order, state.cuts, i)
    after = primary if label == "primary" else secondary
    if before != after:
        raise InternalSolverError(
            f"{label} free-unit label of agent {i} changed across the pair swap"
        )
    alloc.set_bundle(i, alloc.bundle(i) | after)


def _pick(scan: FreeBundleCheck) -> Optional[tuple[str, int, Optional[int], Optional[str]]]:
    """The rule ``scan`` fires next, as ``(branch, agent, partner, label)``;
    ``None`` when properties (5)-(7) hold."""
    if scan.breaks_5:
        return "A", scan.breaks_5[0], None, None
    if scan.breaks_6:
        return "B", scan.breaks_6[0], None, None
    if scan.breaks_7:
        i, j, label = scan.breaks_7[0]
        return "C", i, j, label
    return None


def phase2_step(
    state: SolverState, *, scan: FreeBundleCheck, trace: TraceFn = None
) -> Optional[StepRecord]:
    """Apply one repair rule, picked from ``scan``, the free-bundle check of
    ``state``; ``None`` when properties (5)-(7) already hold.

    The live check rechecks only around the agents the record names, so a
    rule that set the bundle of any other agent is an internal error.
    """
    pick = _pick(scan)
    if pick is None:
        return None
    branch, i, j, label = pick
    phi = Potential.of(scan)
    changes0 = state.alloc.changes
    if branch == "A":
        _apply_rule_a(state, scan, i)
    elif branch == "B":
        _apply_rule_b(state, scan, i)
    else:
        _apply_rule_c(state, scan, i, j, label)
    record = StepRecord(branch, i, j, phi)
    stray = state.alloc.set_since(changes0).difference(record.changed())
    if stray:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} set the bundles of "
            f"agents {sorted(stray)} outside the step"
        )
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
    """Iterate repair steps until properties (5)-(7) hold as well.

    The stage opens with the state's whole report of properties (1)-(7)
    (:meth:`.phase1.SolverState.report`): a failure of (1)-(4) is an
    internal error, and the report's free-bundle part becomes the
    :class:`LiveCheck` that gives every step's check.  The potential must
    drop strictly on every step and the loop must finish within ``n**3``
    steps of this call; either failure is an internal error.  With
    ``validate`` set, the opening and every step are reported to the
    state's :class:`.phase1.Validator`.  The output is checked by
    :func:`.phase3.run_phase3`.
    """
    instance = state.instance
    metrics = metrics if metrics is not None else SolveMetrics()
    cap = max(1, instance.n**3)
    report = state.report()
    broken = report.only(STAGE_ONE_PROPERTIES)
    if not broken.ok:
        raise InternalSolverError(f"stage-one output: {broken.summary()}")
    live = LiveCheck(state, report.free_bundles)
    scan = live.check
    validator = Validator.of(state, metrics) if validate else None
    if validator is not None:
        validator.stage_two_opened(state, report, _pick(scan))
    steps = 0
    while (record := phase2_step(state, scan=scan, trace=trace)) is not None:
        steps += 1
        metrics.phase2_iterations += 1
        metrics.phase2_branches[record.branch] += 1
        if steps > cap:
            raise InternalSolverError(
                f"repair loop exceeded {cap} iterations on {instance.n} agents"
            )
        scan = live.update(record.changed())
        if validator is not None:
            validator.step(state, record, scan, _pick(scan))
        phi = Potential.of(scan)
        if phi >= record.potential_before:
            raise InternalSolverError(
                f"repair potential failed to drop: {record.potential_before} -> {phi}"
            )
    return state
