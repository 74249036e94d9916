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

The stage opens with one from-scratch :func:`.verify.check_properties` of
properties (1)-(7) on its input: (1)-(4) must hold, and a copy of the
check's :class:`.verify.FreeBundleCheck` becomes the live one
(:class:`LiveCheck`), updated in place after every step.  A rule changes the
bundles of at most two agents ``C``, and only ``C`` and its neighbours
``N(C)`` are rechecked.  With ``validate`` set, every step also runs one
from-scratch check of (1)-(7): (1)-(4) must still hold and its free-bundle
check, reads included, must equal the live one field by field.  The stage's
output is checked by stage three, which opens with the same check.

Each step strictly lowers the triple (number of envied agents, rule-B
violators, rule-A violators) in lexicographic order, so the loop ends after
at most ``n**3`` steps, at which point properties (1)-(7) all hold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

# ``free_units`` and ``envy_graph`` are no longer called here, but the
# benchmark's tracer wraps both by name, so a reintroduced call is counted
from .cuts import free_units, own_labels, pair_labels, pair_state  # noqa: F401
from .errors import InternalSolverError
from .phase1 import SolveMetrics, SolverState, TraceFn
from .verify import (  # noqa: F401
    STAGE_ONE_PROPERTIES,
    FreeBundleCheck,
    agent_free_bundle_breaks,
    check_properties,
    envy_graph,
    viewer_envy,
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


_AGENT = itemgetter(0)


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

    It copies the seeding from-scratch check once, with
    :meth:`.verify.FreeBundleCheck.copy` so the seed stays as it was, and
    owns that copy, ``check``: after a rule changes the bundles of the
    agents ``C``, :meth:`update` changes it in place and returns it.  Only
    the pairs touching ``C``, ``C``'s own values and outgoing envy, each
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
    pairs: each pair touching ``C`` is reread once, and when the read
    changed its old part of both endpoints' sets is swapped for its new
    one, so a step costs set work linear in the degrees of ``C``.  The rules
    are the from-scratch ones: :func:`.cuts.pair_labels` per pair,
    :func:`.verify.viewer_envy` per viewer and
    :func:`.verify.agent_free_bundle_breaks` per agent.
    """

    def __init__(self, state: SolverState, check: FreeBundleCheck):
        self.state = state
        self.check = check.copy()

    def _refresh_pair(self, a: int, b: int) -> None:
        """Reread the pair of ``a`` and ``b`` and, when the read changed,
        swap its old part of both endpoints' sets for its new one."""
        if a > b:
            a, b = b, a
        state, check = self.state, self.check
        old = check.pairs[a, b]
        pair = pair_state(state.instance, state.alloc, state.order, state.cuts, a, b)
        new = (pair[4], *pair_labels(a, b, pair))
        if new == old:
            return
        check.pairs[a, b] = new
        units = check.units
        for agent, side in ((a, 1), (b, 2)):
            for sets, old_part, new_part in (
                (check.loose, old[0], new[0]),
                (units.primary, old[side][0], new[side][0]),
                (units.secondary, old[side][1], new[side][1]),
            ):
                part = sets[agent]
                part -= old_part
                part |= new_part

    def _set_envy(self, i: int, owners: Iterable[int]) -> None:
        """Recompute agent ``i``'s envy toward ``owners``, all neighbours of hers."""
        instance, alloc = self.state.instance, self.state.alloc
        enviers = self.check.enviers
        parts = {}
        for j in owners:
            row = enviers.get(j)
            if row is not None:
                _splice(row, i, [])
                if not row:
                    del enviers[j]
            part = alloc.bundle(j) & instance.pair_goods(i, j)
            if part:
                parts[j] = part
        for j in viewer_envy(instance, i, self.check.own[i], parts):
            insort(enviers.setdefault(j, []), i)

    def _decide(self, i: int) -> None:
        """Recompute agent ``i``'s properties (5)-(7)."""
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
        )
        _splice(check.breaks_5, i, [i] if b5 else [])
        _splice(check.breaks_6, i, [i] if b6 else [])
        _splice(check.breaks_7, i, b7, _AGENT)

    def update(self, changed: Iterable[int]) -> FreeBundleCheck:
        """The check after a step that changed the bundles of ``changed``,
        updated in place."""
        instance, alloc = self.state.instance, self.state.alloc
        own = self.check.own
        changed = set(changed)
        # each neighbour outside C -> her neighbours in C
        toward: dict[int, list[int]] = {}
        for c in changed:
            own[c] = instance.valuations[c].value(alloc.bundle(c))
            for k in instance.neighbors(c):
                if k not in changed:
                    toward.setdefault(k, []).append(c)
                    self._refresh_pair(c, k)
                elif c < k:  # a pair inside C, read once
                    self._refresh_pair(c, k)
        for c in changed:
            self._set_envy(c, instance.neighbors(c))
        for k, owners in toward.items():
            self._set_envy(k, owners)
        for i in changed.union(toward):
            self._decide(i)
        return self.check


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


def phase2_step(
    state: SolverState, *, scan: FreeBundleCheck, trace: TraceFn = None
) -> Optional[StepRecord]:
    """Apply one repair rule, picked from ``scan``, the free-bundle check of
    ``state``; ``None`` when properties (5)-(7) already hold."""
    if scan.ok:
        return None
    phi = Potential.of(scan)
    if scan.breaks_5:
        i = scan.breaks_5[0]
        _apply_rule_a(state, scan, i)
        record = StepRecord("A", i, None, phi)
    elif scan.breaks_6:
        i = scan.breaks_6[0]
        _apply_rule_b(state, scan, i)
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
    """Iterate repair steps until properties (5)-(7) hold as well.

    The stage opens with one check of properties (1)-(7) on the stage-one
    output: a failure of (1)-(4) is an internal error, and the check's
    free-bundle part seeds the :class:`LiveCheck` that gives every step's
    check.  The potential must drop strictly on every step and the loop must
    finish within ``n**3`` steps; either failure is an internal error.  With
    ``validate`` set, each step runs one from-scratch check of (1)-(7):
    (1)-(4) must still hold, its free-bundle check must equal the live one,
    and rule-specific postconditions are asserted.  The output is checked by
    :func:`.phase3.run_phase3`.
    """
    instance = state.instance
    metrics = metrics if metrics is not None else SolveMetrics()
    cap = max(1, instance.n**3)
    report = check_properties(instance, state.alloc, state.order, state.cuts)
    broken = report.only(STAGE_ONE_PROPERTIES)
    if not broken.ok:
        raise InternalSolverError(f"stage-one output: {broken.summary()}")
    # the from-scratch check of the state before the next step
    reference = report.free_bundles
    scan = reference
    # a state that needs no repair needs no live check
    live = None if scan.ok else LiveCheck(state, scan)
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
        scan = live.update(record.changed())
        if validate:
            reference = _validate_step(state, record, reference, scan)
        phi = Potential.of(scan)
        if phi >= record.potential_before:
            raise InternalSolverError(
                f"repair potential failed to drop: {record.potential_before} -> {phi}"
            )
    return state


def _validate_step(
    state: SolverState, record: StepRecord, before: FreeBundleCheck, after: FreeBundleCheck
) -> FreeBundleCheck:
    """Check one step from scratch and return that check.

    Properties (1)-(4) must still hold, the live check ``after`` must equal
    the from-scratch one, and the rule's postconditions must hold against
    ``before``, the from-scratch check of the state before the step.
    """
    report = check_properties(state.instance, state.alloc, state.order, state.cuts)
    broken = report.only(STAGE_ONE_PROPERTIES)
    if not broken.ok:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} broke {broken.summary()}"
        )
    reference = report.free_bundles
    if after != reference:
        differ = [
            f.name
            for f in fields(FreeBundleCheck)
            if getattr(after, f.name) != getattr(reference, f.name)
        ]
        raise InternalSolverError(
            f"after rule {record.branch} on agent {record.agent} the live "
            f"free-bundle check differs from the reference in {differ}"
        )
    prev_envy = _envy_pairs(before)
    now_envy = _envy_pairs(reference)
    if record.branch in ("A", "B") and not now_envy <= prev_envy:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} created envy "
            f"{sorted(now_envy - prev_envy)}"
        )
    if record.branch == "C":
        envied_now = reference.enviers
        if record.agent in envied_now:
            raise InternalSolverError(
                f"rule C left agent {record.agent} envied"
            )
        if record.partner in envied_now:
            raise InternalSolverError(
                f"rule C made the envier {record.partner} envied"
            )
        if not len(envied_now) < len(before.enviers):
            raise InternalSolverError(
                "rule C did not shrink the set of envied agents"
            )
    return reference


def _envy_pairs(check: FreeBundleCheck) -> set[tuple[int, int]]:
    """Every ``(envier, envied)`` pair of ``check``."""
    return {(j, i) for i, js in check.enviers.items() for j in js}
