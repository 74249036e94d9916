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
  nothing free untouched.
* rule C -- an envied agent breaks (7), i.e. would prefer her envier's
  bundle joined with one of her free-unit labels: the two swap their unit
  bundles of the shared pair, then she absorbs that label's free bundles.

The stage opens with one from-scratch :func:`.verify.check_properties` of
properties (1)-(7) on its input: (1)-(4) must hold, and the check's
:class:`.verify.FreeBundleCheck` seeds a live one (:class:`LiveCheck`).  A
rule changes the bundles of at most two agents ``C``, and only ``C`` and its
neighbours ``N(C)`` are rechecked.  With ``validate`` set, every step also
runs one from-scratch check of (1)-(7): (1)-(4) must still hold and its
free-bundle check must equal the live one field by field.  The stage's
output is checked by stage three, which opens with the same check.

Each step strictly lowers the triple (number of envied agents, rule-B
violators, rule-A violators) in lexicographic order, so the loop ends after
at most ``n**3`` steps, at which point properties (1)-(7) all hold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional

# ``free_units`` and ``envy_graph`` are no longer called here, but the
# benchmark's tracer wraps both by name, so a reintroduced call is counted
from .cuts import FreeUnits, Labels, free_units, own_labels, pair_labels, pair_state  # noqa: F401
from .errors import InternalSolverError
from .model import Bundle
from .phase1 import SolveMetrics, SolverState, TraceFn
from .verify import (  # noqa: F401
    FREE_BUNDLE_PROPERTIES,
    STAGE_ONE_PROPERTIES,
    EnvyEdge,
    EnvyGraph,
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
        return cls(len(check.envied), len(check.breaks_6), len(check.breaks_5))


def unallocated_incident(state: SolverState, i: int) -> Bundle:
    """All free goods incident to agent ``i``, read from her own goods only."""
    return state.alloc.free_among(state.instance.incident_goods(i))


def _scan(state: SolverState) -> FreeBundleCheck:
    """The from-scratch free-bundle check of ``state``."""
    report = check_properties(
        state.instance, state.alloc, state.order, state.cuts, FREE_BUNDLE_PROPERTIES
    )
    return report.free_bundles


def _splice(rows: list, i: int, new: list, key=None) -> None:
    """Replace the run of ``rows`` whose ``key`` is ``i`` (the rows equal to
    ``i`` without a key) with ``new``; ``rows`` is in ascending ``key``
    order and stays so."""
    lo = bisect_left(rows, i, key=key)
    rows[lo : bisect_right(rows, i, lo, key=key)] = new


_SRC = attrgetter("src")
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

    It starts from a from-scratch :func:`.verify.check_properties` and takes
    over what that check read (:class:`.verify.StateReads`): each pair's free
    goods and labels, each agent's free incident goods and the value of her
    own bundle.  After a rule changes the bundles of the agents ``C``,
    :meth:`update` recomputes only the pairs touching ``C``, ``C``'s outgoing
    envy, each neighbour's envy toward ``C``, and properties (5)-(7) for
    ``C`` and its neighbours ``N(C)``.  It returns a check equal field by
    field to the from-scratch one: the edges with their strong flags and
    order, the envied set, the labels and the break lists.  The edge list
    and the break lists are kept in order as they change, so a step sorts
    only what it changed and copies nothing of size ``n``: the check that
    :meth:`check` and :meth:`update` return is a view of the live state,
    valid until the next update.

    This is exact because stage two keeps property (2), so every good is
    free or held by an endpoint of its pair, and valuations are local.
    Agent ``i``'s envy toward ``j``, her labels and her free incident goods
    therefore read only the goods of her own pairs, and those change only
    when ``i`` or one of her neighbours is in ``C``.  Distinct pairs share no
    goods, so an agent's labels and free goods are disjoint unions over her
    pairs.  The live check owns its label and free-goods sets (it copies the
    seeding check's once, which is never changed) and updates them in place:
    a neighbour outside ``C`` has each changed pair's old part swapped for
    its new one, and each agent of ``C`` is rebuilt once from her pair
    reads, so a step costs set work linear in the degrees of ``C``.  The
    rules are the from-scratch ones: :func:`.cuts.pair_labels` per pair,
    :func:`.verify.viewer_envy` per viewer and
    :func:`.verify.agent_free_bundle_breaks` per agent.
    """

    def __init__(self, state: SolverState, check: FreeBundleCheck):
        self.state = state
        reads = check.reads
        n = state.instance.n
        # (a, b) with a < b -> (free goods, a's labels, b's labels)
        self._pairs = dict(reads.pairs)
        self._primary = [set(s) for s in check.units.primary]
        self._secondary = [set(s) for s in check.units.secondary]
        self._loose = [set(s) for s in reads.loose]
        self._own = list(reads.own)
        self._out: list[dict[int, EnvyEdge]] = [{} for _ in range(n)]
        self._into: list[set[int]] = [set() for _ in range(n)]
        for e in check.graph.edges:
            self._out[e.src][e.dst] = e
            self._into[e.dst].add(e.src)
        self._edges = list(check.graph.edges)  # in (src, dst) order
        self._envied = set(check.envied)
        self._breaks_5 = list(check.breaks_5)
        self._breaks_6 = list(check.breaks_6)
        self._breaks_7 = list(check.breaks_7)  # in (envied agent, envier, label) order

    def _read_pair(self, a: int, b: int) -> tuple[Bundle, Labels, Labels]:
        state = self.state
        pair = pair_state(state.instance, state.alloc, state.order, state.cuts, a, b)
        return (pair[4], *pair_labels(a, b, pair))

    def _refresh_neighbour(self, k: int, c: int) -> None:
        """Reread the pair of ``k`` and ``c``, with ``k`` outside C and ``c``
        in it, and swap its old part of ``k``'s sets for its new one."""
        key = (k, c) if k < c else (c, k)
        old = self._pairs[key]
        new = self._read_pair(*key)
        if new == old:
            return
        self._pairs[key] = new
        side = 1 if k < c else 2
        for sets, old_part, new_part in (
            (self._loose, old[0], new[0]),
            (self._primary, old[side][0], new[side][0]),
            (self._secondary, old[side][1], new[side][1]),
        ):
            part = sets[k]
            part -= old_part
            part |= new_part

    def _rebuild(self, c: int) -> None:
        """Rebuild agent ``c``'s sets from her pair reads."""
        pairs = self._pairs
        loose: set[int] = set()
        primary: set[int] = set()
        secondary: set[int] = set()
        for k in self.state.instance.neighbors(c):
            if c < k:
                free, (first, second), _ = pairs[c, k]
            else:
                free, _, (first, second) = pairs[k, c]
            loose |= free
            primary |= first
            secondary |= second
        self._loose[c] = loose
        self._primary[c] = primary
        self._secondary[c] = secondary

    def _set_envy(self, i: int, owners: Iterable[int]) -> None:
        """Recompute agent ``i``'s envy toward ``owners``, all neighbours of hers."""
        instance, alloc = self.state.instance, self.state.alloc
        out = self._out[i]
        parts = {}
        for j in owners:
            if out.pop(j, None) is not None:
                self._into[j].discard(i)
            part = alloc.bundle(j) & instance.pair_goods(i, j)
            if part:
                parts[j] = part
        for e in viewer_envy(instance, alloc, i, self._own[i], parts):
            out[e.dst] = e
            self._into[e.dst].add(i)
        _splice(self._edges, i, [out[j] for j in sorted(out)], _SRC)

    def _decide(self, i: int) -> None:
        """Recompute agent ``i``'s envied status and properties (5)-(7)."""
        enviers = sorted(self._into[i])
        b5, b6, b7 = agent_free_bundle_breaks(
            self.state.instance,
            self.state.alloc,
            i,
            self._own[i],
            enviers,
            self._primary[i],
            self._secondary[i],
            self._loose[i],
        )
        if enviers:
            self._envied.add(i)
        else:
            self._envied.discard(i)
        _splice(self._breaks_5, i, [i] if b5 else [])
        _splice(self._breaks_6, i, [i] if b6 else [])
        _splice(self._breaks_7, i, b7, _AGENT)

    def update(self, changed: Iterable[int]) -> FreeBundleCheck:
        """The check after a step that changed the bundles of ``changed``."""
        instance, alloc = self.state.instance, self.state.alloc
        changed = set(changed)
        # each neighbour outside C -> her neighbours in C
        toward: dict[int, list[int]] = {}
        for c in changed:
            self._own[c] = instance.valuations[c].value(alloc.bundle(c))
            for k in instance.neighbors(c):
                if k not in changed:
                    self._refresh_neighbour(k, c)
                    toward.setdefault(k, []).append(c)
                elif c < k:  # a pair inside C, read once
                    self._pairs[c, k] = self._read_pair(c, k)
        for c in changed:
            self._rebuild(c)
        for c in changed:
            self._set_envy(c, instance.neighbors(c))
        for k, owners in toward.items():
            self._set_envy(k, owners)
        for i in changed.union(toward):
            self._decide(i)
        return self.check()

    def check(self) -> FreeBundleCheck:
        """The live check, as a view valid until the next update."""
        return FreeBundleCheck(
            EnvyGraph(self.state.instance.n, self._edges),
            self._envied,
            FreeUnits(self._primary, self._secondary),
            self._breaks_5,
            self._breaks_6,
            self._breaks_7,
        )


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
    primary, secondary = own_labels(instance, alloc, state.order, state.cuts, i)
    after = primary if label == "primary" else secondary
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
            if f.compare and getattr(after, f.name) != getattr(reference, f.name)
        ]
        raise InternalSolverError(
            f"after rule {record.branch} on agent {record.agent} the live "
            f"free-bundle check differs from the reference in {differ}"
        )
    prev_envy = {(e.src, e.dst) for e in before.graph.edges}
    now_envy = {(e.src, e.dst) for e in reference.graph.edges}
    if record.branch in ("A", "B") and not now_envy <= prev_envy:
        raise InternalSolverError(
            f"rule {record.branch} on agent {record.agent} created envy "
            f"{sorted(now_envy - prev_envy)}"
        )
    if record.branch == "C":
        envied_now = reference.envied
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
    return reference
