"""Definition-level checkers for fairness and structure.

Everything here is recomputed from ``(instance, allocation)`` alone -- no
solver bookkeeping is reused, and a scoped check reuses only its own
earlier from-scratch reads -- so agreement between the solver and these
checks is meaningful evidence.  The only shared vocabulary is the fixed
pair splits (unit bundles), which the structural property checks need by
definition.

``check_properties`` checks a state in one pass: each agent's own value is
computed once, the pairs are read once, in one :func:`.cuts.read_pairs`
call, and the envy graph is built once, a whole check's from those reads;
the report carries the graph it built.  Which properties it
checks is decided by the picking order: (1)-(4) always, (5)-(7) once the
order is complete; callers narrow a report with ``PropertyReport.only``.
The pass has two setups: whole, or scoped to some agents, where it rereads
from scratch only what a change of their bundles can have changed and takes
the rest from a :class:`Ledger` of earlier from-scratch reads; both share
its pair loop, its report assembly and its one property-(4) rule.
``envy_graph`` returns the envy relation as its envier index together with
the strong-envy witnesses, the one place strong envy is decided; property
(1), ``check_efx`` and the DOT export read the witnesses there, and
``envy_pairs`` lists the index as ``(envier, envied)`` pairs.
``agent_free_bundle_breaks`` is the one place the free-bundle properties
(5)-(7) are decided: ``free_bundle_check`` runs it for every agent from the
reads of a whole pass, a ledger for the agents a scoped pass rechecks.  The
:class:`FreeBundleCheck` they return carries the reads with the verdict, the
envy relation as its envier index: stage two picks its repair rule from it,
``check_properties`` only formats it, and stage two's live check is the
check stage two opens with, updated in place.  The envy comparison of one
viewer (``viewer_envy``) and the per-agent rule are also what the live check
reruns for the agents a step touched.  Pair goods held by a third party are
reported by property (2); the free-bundle check never raises on them.

Envy vocabulary: agent ``i`` envies ``j`` when she values ``j``'s bundle
strictly above her own, and *strongly* envies when some single good can be
removed from ``j``'s bundle with the envy surviving.  An allocation is EFX
when no strong envy exists between any ordered pair.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

# ``free_units`` is no longer called here, but the benchmark's tracer wraps
# ``verify.free_units`` by name, so a reintroduced call is counted
from .cuts import (  # noqa: F401
    CutTable,
    FreeUnits,
    Labels,
    PickOrder,
    free_units,
    read_pairs,
)
from .model import EMPTY_BUNDLE, Allocation, Bundle, Instance

ALL_PROPERTIES = frozenset(range(1, 8))
STAGE_ONE_PROPERTIES = frozenset(range(1, 5))


@dataclass
class EnvyGraph:
    """The envy relation of an allocation.

    ``enviers[j]`` holds envied agent ``j``'s enviers in ascending order (a
    non-envied agent has no entry).  ``strong`` holds ``(i, j, good)`` for
    every pair where ``i`` strongly envies ``j``, in ``(i, j)`` order, with
    ``good`` the :func:`strong_envy_witness`.
    """

    enviers: dict[int, list[int]]
    strong: list[tuple[int, int, int]]


def envy_pairs(enviers: Mapping[int, Iterable[int]]) -> list[tuple[int, int]]:
    """Every ``(envier, envied)`` pair of an envier index, in ascending order."""
    return sorted((i, j) for j, row in enviers.items() for i in row)


def strong_envy_witness(
    instance: Instance, viewer: int, own: Bundle, other: Bundle
) -> Optional[int]:
    """Smallest good whose removal from ``other`` leaves ``viewer`` envious."""
    v = instance.valuations[viewer].value
    base = v(own)
    for g in sorted(other):
        if v(other - {g}) > base:
            return g
    return None


def envy_graph(instance: Instance, alloc: Allocation) -> EnvyGraph:
    """The directed envy relation of an allocation, with strong-envy witnesses.

    One scan over the owners' bundles, resting on two model facts:

    * valuations are local: ``AdditiveValuation._raw`` skips non-incident
      goods and ``MonotoneTableValuation.value`` maps only known bits, so
      agent ``i`` values ``j``'s bundle exactly as the part of it incident
      to ``i``;
    * every valuation is worth 0 on the empty bundle (weights are >= 0,
      ``transform[0] == 0`` and ``table[0] == 0`` are enforced), so ``i``
      envies nobody whose bundle holds no good incident to her.

    Each good of ``j``'s bundle is recorded under ``seen[i][j]`` for each of
    its endpoints ``i != j``; ``i`` envies ``j`` when that part is worth more
    to her than her own bundle, and each such pair is asked once for a
    strong-envy witness.  The whole property check builds the same relation
    from its pair reads instead (:func:`_whole_envy`).
    """
    goods = instance.goods
    seen: dict[int, dict[int, list[int]]] = {}
    for j, bundle in enumerate(alloc.bundles()):
        for g in bundle:
            good = goods[g]
            for i in (good.u, good.v):
                if i != j:
                    seen.setdefault(i, {}).setdefault(j, []).append(g)
    return _envy_of_parts(instance, alloc, None, seen)


def _envy_of_parts(
    instance: Instance,
    alloc: Allocation,
    own: Optional[Sequence[int] | Mapping[int, int]],
    seen: Mapping[int, Mapping[int, Iterable[int]]],
) -> EnvyGraph:
    """The envy of each viewer ``i`` in ``seen`` toward each owner ``j`` in
    ``seen[i]``, the part of ``j``'s bundle incident to ``i``, with the
    strong-envy witnesses, as :func:`envy_graph` gives it."""
    enviers: dict[int, list[int]] = {}
    strong: list[tuple[int, int, int]] = []
    for i in sorted(seen):
        mine = alloc.bundle(i)
        own_i = instance.valuations[i].value(mine) if own is None else own[i]
        for j in viewer_envy(instance, i, own_i, seen[i]):
            enviers.setdefault(j, []).append(i)
            witness = strong_envy_witness(instance, i, mine, alloc.bundle(j))
            if witness is not None:
                strong.append((i, j, witness))
    return EnvyGraph(enviers, strong)


def viewer_envy(
    instance: Instance, i: int, own: int, parts: Mapping[int, Iterable[int]]
) -> list[int]:
    """The owners in ``parts`` that agent ``i`` envies, in ascending order.

    ``own`` is her value for her own bundle and ``parts[j]`` the part of
    ``j``'s bundle incident to her; she envies ``j`` when that part is worth
    more than ``own``.  This is the one place the envy comparison is
    written; the strong-envy witnesses are :func:`envy_graph`'s alone.
    """
    v = instance.valuations[i].value
    return [j for j in sorted(parts) if v(parts[j]) > own]


@dataclass
class CheckReport:
    """Outcome of one check: empty violation list means it passed."""

    name: str
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "ok": self.ok,
            "violations": [list(v) for v in self.violations],
        }


def check_efx(instance: Instance, alloc: Allocation) -> CheckReport:
    """No ordered pair may exhibit strong envy; witnesses are (i, j, good)."""
    return CheckReport("efx", envy_graph(instance, alloc).strong)


def check_orientation(
    instance: Instance, alloc: Allocation, agents: Optional[Iterable[int]] = None
) -> CheckReport:
    """Every agent's bundle, or only those of ``agents``, must hold only
    goods incident to her."""
    report = CheckReport("orientation")
    for i in range(instance.n) if agents is None else sorted(agents):
        stray = alloc.bundle(i) - instance.incident_goods(i)
        if stray:
            report.violations.extend((i, g) for g in sorted(stray))
    return report


def check_completeness(instance: Instance, alloc: Allocation) -> CheckReport:
    report = CheckReport("complete")
    for g in sorted(instance.all_goods - alloc.allocated_goods()):
        report.violations.append((g,))
    return report


# -- numbered structural properties -----------------------------------------
#
# (1) the allocation is an EFX orientation;
# (2) each pair's goods are placed as whole unit bundles on its endpoints,
#     at most one bundle per endpoint;
# (3) nobody values any free incident unit bundle above her own bundle;
# (4) no envy chain of length two (the envy graph is a union of stars);
# (5) no non-envied agent has a primary free unit bundle left beside her;
# (6) every non-envied agent weakly prefers her bundle to all free goods
#     incident to her, taken together;
# (7) every envied agent weakly prefers her own bundle to her envier's
#     bundle joined with either of her free-unit labels.


PairRead = tuple[Bundle, Labels, Labels]  # (free goods, a's labels, b's labels)


@dataclass
class FreeBundleCheck:
    """Which agents break the free-bundle properties (5)-(7) in one state,
    and the reads they were decided from.

    ``enviers[i]`` holds envied agent ``i``'s enviers in ascending order (a
    non-envied agent has no entry); it is the only form of the envy relation
    the check holds.  ``units`` are the agents' free-unit labels, ``own[i]``
    is agent ``i``'s value for her own bundle, ``loose[i]`` the free goods
    incident to her and ``pairs[a, b]`` (``a < b``) the free goods of the
    pair and the labels it gives ``a`` and ``b``, as its
    :func:`.cuts.read_pairs` read ends.  Each
    break list is in ascending order; stage two repairs its first entry.
    Every field is compared, so a check kept up to date step by step (stage
    two's live check) equals the from-scratch one only when all its reads do.
    A check of some agents only (:meth:`Ledger.check`, as a scoped
    :func:`check_properties` gives it) holds their own values, labels and
    free goods in dicts over them, their enviers, their break-list entries
    and the reads of the pairs it was given.
    """

    enviers: dict[int, list[int]]
    units: FreeUnits
    own: list[int]
    loose: list[set[int]]
    pairs: dict[tuple[int, int], PairRead]
    breaks_5: list[int]  # non-envied agents with a primary free bundle
    breaks_6: list[int]  # non-envied agents preferring their free goods
    breaks_7: list[tuple[int, int, str]]  # (envied agent, envier, label)

    @property
    def ok(self) -> bool:
        return not (self.breaks_5 or self.breaks_6 or self.breaks_7)


def free_bundle_check(
    instance: Instance,
    alloc: Allocation,
    enviers: Mapping[int, list[int]],
    own: Sequence[int],
    pairs: dict[tuple[int, int], PairRead],
) -> FreeBundleCheck:
    """Decide properties (5)-(7) for every agent.

    ``enviers``, ``own`` and ``pairs`` are the envier index of ``alloc``,
    each agent's value for her own bundle and every pair's free goods and
    labels, as :class:`FreeBundleCheck` holds them; :func:`check_properties`
    reads them in its one pass.  An agent's labels and free incident goods
    are the unions over her pairs, of which a pair with nothing free gives
    nothing.
    """
    agents = range(instance.n)
    primary, secondary, loose = ([set() for _ in agents] for _ in range(3))
    for (a, b), (free, labels_a, labels_b) in pairs.items():
        if not free:  # the labels are parts of the free goods
            continue
        for i, (primary_i, secondary_i) in ((a, labels_a), (b, labels_b)):
            primary[i] |= primary_i
            secondary[i] |= secondary_i
            loose[i] |= free
    breaks_5: list[int] = []
    breaks_6: list[int] = []
    breaks_7: list[tuple[int, int, str]] = []
    for i in agents:
        b5, b6, b7 = agent_free_bundle_breaks(
            instance,
            alloc,
            i,
            own[i],
            enviers.get(i, []),
            primary[i],
            secondary[i],
            loose[i],
        )
        if b5:
            breaks_5.append(i)
        if b6:
            breaks_6.append(i)
        breaks_7.extend(b7)
    return FreeBundleCheck(
        enviers,
        FreeUnits(primary, secondary),
        own,
        loose,
        pairs,
        breaks_5,
        breaks_6,
        breaks_7,
    )


def agent_free_bundle_breaks(
    instance: Instance,
    alloc: Allocation,
    i: int,
    own: int,
    enviers: Sequence[int],
    primary: Bundle,
    secondary: Bundle,
    loose: Bundle,
    *,
    holds_6: bool = False,
) -> tuple[bool, bool, list[tuple[int, int, str]]]:
    """Whether agent ``i`` breaks (5) and (6), and her (7) rows.

    ``own`` is her value for her own bundle, ``enviers`` her enviers in
    ascending order, ``primary`` and ``secondary`` her free-unit labels and
    ``loose`` the free goods incident to her.  A non-envied agent can break
    only (5) and (6), an envied one only (7).  ``holds_6`` says that
    ``v(loose) <= own`` is already known, so (6) is not valued again: the
    caller sets it for an agent that was non-envied and kept (6) in a state
    with the same own bundle and a superset of ``loose``.  This is the one
    place the per-agent rule is written.
    """
    v = instance.valuations[i].value
    if not enviers:
        return bool(primary), not holds_6 and v(loose) > own, []
    return (
        False,
        False,
        [
            (i, j, label)
            for j in enviers
            for label, bundle in (("primary", primary), ("secondary", secondary))
            if v(alloc.bundle(j) | bundle) > own
        ],
    )


@dataclass(eq=False)
class Ledger:
    """From-scratch reads of one state of a run, which its validator keeps
    to check the states after it scoped (:func:`check_properties`).

    ``own[i]`` is agent ``i``'s value for her own bundle, ``enviers[j]``
    envied agent ``j``'s enviers in ascending order (a non-envied agent has
    no entry) and, once the order is complete, ``pairs[a, b]`` (``a < b``)
    the pair's free goods and labels, as :class:`FreeBundleCheck` holds
    them; ``pairs`` is ``None`` before.  Every entry is written by a
    from-scratch read only: :meth:`of` copies the reads of a whole report
    and shares no container with it (stage two's live check is such a
    report's free-bundle check, updated in place), :meth:`fresh` writes
    those of a state where nobody holds anything, and a scoped check writes
    what it rereads.  The ledger is stamped with the allocation and order it
    read and the allocation's change count when its entries were last
    current (:meth:`current`).
    """

    own: list[int]
    enviers: dict[int, list[int]]
    pairs: Optional[dict[tuple[int, int], PairRead]]
    alloc: Allocation
    order: PickOrder
    changes: int

    @classmethod
    def fresh(cls, alloc: Allocation, order: PickOrder) -> "Ledger":
        """The reads of a state where nobody holds anything: every own
        value is 0, as every valuation is on the empty bundle, and nobody
        envies anybody."""
        return cls([0] * alloc.n, {}, None, alloc, order, alloc.changes)

    @classmethod
    def of(
        cls, instance: Instance, alloc: Allocation, order: PickOrder, report: "PropertyReport"
    ) -> "Ledger":
        """The reads of ``report``, a whole report of the state as it is
        now, copied; the own values of an incomplete order, which such a
        report does not carry, are read afresh."""
        check = report.free_bundles
        if check is None:
            own = [instance.valuations[i].value(alloc.bundle(i)) for i in range(instance.n)]
            pairs = None
        else:
            own, pairs = list(check.own), dict(check.pairs)
        enviers = {j: list(row) for j, row in report.graph.enviers.items()}
        return cls(own, enviers, pairs, alloc, order, alloc.changes)

    def current(self, alloc: Allocation, order: PickOrder, scope: frozenset[int]) -> bool:
        """Whether the entries read the state of ``alloc`` and ``order`` as
        it is now but for the bundles of ``scope``: no other agent's bundle
        was set since the stamp, and on a complete order the pair reads
        are kept."""
        return (
            alloc is self.alloc
            and order is self.order
            and (self.pairs is not None or bool(order.unplaced))
            and alloc.set_since(self.changes) <= scope
        )

    def reread_envy(
        self,
        instance: Instance,
        alloc: Allocation,
        scope: frozenset[int],
        reads: Mapping[tuple[int, int], tuple],
    ) -> EnvyGraph:
        """Reread from scratch the envy pairs with an endpoint in ``scope``,
        with their strong-envy witnesses, write them into :attr:`enviers`
        and return them as an :class:`EnvyGraph`.

        Every agent sees the goods ``scope`` holds that are incident to
        her, as in :func:`envy_graph`.  An agent ``c`` of ``scope`` sees of
        each other neighbour ``k``, who holds only goods of her own pairs
        while the ledger is current, the part ``k`` holds of their pair,
        taken from its :func:`.cuts.read_pairs` read in ``reads`` when the
        check read it.  ``own`` must already hold the own values of
        ``scope``.
        """
        goods, enviers = instance.goods, self.enviers
        seen: dict[int, dict[int, Iterable[int]]] = {}
        for c in scope:
            for g in alloc.bundle(c):
                good = goods[g]
                for i in (good.u, good.v):
                    if i != c:
                        seen.setdefault(i, {}).setdefault(c, []).append(g)
        for c in scope:
            enviers.pop(c, None)
            for k in instance.neighbors(c):
                if k in scope:
                    continue
                row = enviers.get(k)
                if row is not None and c in row:
                    row.remove(c)
                    if not row:
                        del enviers[k]
                pair = reads.get((c, k) if c < k else (k, c))
                if pair is None:
                    part = alloc.bundle(k) & instance.pair_goods(c, k)
                else:
                    part = pair[3] if c < k else pair[2]
                if part:
                    seen.setdefault(c, {})[k] = part
        graph = _envy_of_parts(instance, alloc, self.own, seen)
        for j, row in graph.enviers.items():
            if j in scope:
                enviers[j] = list(row)
            else:
                for i in row:
                    insort(enviers.setdefault(j, []), i)
        return graph

    def check(
        self,
        instance: Instance,
        alloc: Allocation,
        agents: Iterable[int],
        pairs: Iterable[tuple[int, int]],
    ) -> FreeBundleCheck:
        """Properties (5)-(7) of ``agents``, decided from the entries with
        :func:`agent_free_bundle_breaks` as :func:`free_bundle_check`
        decides them for every agent: an agent's labels and free goods are
        the unions over her pairs, of which a pair with nothing free gives
        nothing.  The check holds dicts over ``agents`` and the entries of
        ``pairs``.  Each agent's unions are taken over her own pairs, so
        the work is in the degrees of ``agents``, not in the pairs kept."""
        own_of, enviers_of, reads = self.own, self.enviers, self.pairs
        enviers: dict[int, list[int]] = {}
        primary: dict[int, set[int]] = {}
        secondary: dict[int, set[int]] = {}
        own: dict[int, int] = {}
        loose: dict[int, set[int]] = {}
        breaks_5: list[int] = []
        breaks_6: list[int] = []
        breaks_7: list[tuple[int, int, str]] = []
        for i in sorted(agents):
            primary_i, secondary_i, loose_i = set(), set(), set()
            for k in instance.neighbors(i):
                free, labels_low, labels_high = reads[(i, k) if i < k else (k, i)]
                if free:  # the labels are parts of the free goods
                    first, second = labels_low if i < k else labels_high
                    primary_i |= first
                    secondary_i |= second
                    loose_i |= free
            row = enviers_of.get(i)
            if row is not None:
                enviers[i] = row
            primary[i], secondary[i], loose[i] = primary_i, secondary_i, loose_i
            own[i] = own_of[i]
            b5, b6, b7 = agent_free_bundle_breaks(
                instance, alloc, i, own[i], row or [], primary_i, secondary_i, loose_i
            )
            if b5:
                breaks_5.append(i)
            if b6:
                breaks_6.append(i)
            breaks_7.extend(b7)
        return FreeBundleCheck(
            enviers,
            FreeUnits(primary, secondary),
            own,
            loose,
            {p: reads[p] for p in pairs},
            breaks_5,
            breaks_6,
            breaks_7,
        )


def check_properties(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    *,
    scope: Optional[Iterable[int]] = None,
    ledger: Optional[Ledger] = None,
) -> "PropertyReport":
    """Check every numbered property that applies; see the list above.

    Properties (1)-(4) are always checked, (2) and (3) for the pairs
    touching the agents that ``order`` has placed.  Properties (5)-(7) are
    checked exactly when ``order`` is complete.  The report carries the
    envy graph as ``graph`` and the free-bundle check, when (5)-(7) were
    checked, as ``free_bundles``; callers narrow it with
    :meth:`PropertyReport.only`.

    The check is one pass over the state with two setups, whole and scoped,
    which differ only in what they read.  Each own value is computed once,
    the envy graph is built once and the checked pairs, those with a placed
    endpoint, are read once each in one :func:`.cuts.read_pairs` call.  A
    pair's read decides (2) for the pair and (3) for each placed endpoint;
    on a complete order it also gives the pair's free goods and labels for
    (5)-(7).  Property (4) is :func:`_first_chain`'s.  The whole setup holds
    own values in a list, builds the envy relation from its reads
    (:func:`_whole_envy`), checks every pair and decides (5)-(7) with
    :func:`free_bundle_check`.

    With ``scope`` given, the check is scoped to those agents, ``C``, and
    ``ledger`` must be current but for the bundles of ``C``
    (:meth:`Ledger.current`).  It rereads from scratch ``C``'s own values,
    the envy pairs with an endpoint in ``C`` (:meth:`Ledger.reread_envy`),
    the pairs touching ``C`` and those of the goods ``C`` holds outside
    them, writes each read into the ledger, stamps it, and decides with the
    same rules

    * (1) for the bundles of ``C`` and the envy pairs touching ``C``;
    * (2) and (3) for the pairs it reread, with the ledger's own values of
      the endpoints outside ``C``;
    * (4) for the chains through those envy pairs, reading the other envy
      pairs from the ledger;
    * on a complete order, (5)-(7) for ``C ∪ N(C)``, from the ledger
      (:meth:`Ledger.check`).

    The report's ``scope`` is ``C``, its graph holds the envy pairs touching
    ``C``, and its free-bundle check holds dicts over ``C ∪ N(C)`` and the
    reads of the pairs it reread.  Its verdict on (1)-(4) is the whole
    check's, and its (5)-(7) rows are the whole check's rows of
    ``C ∪ N(C)``, when the state passed (1)-(4) in a check before (whole or
    scoped), since then only the bundles of ``C`` were set and only agents
    of ``C`` placed (the premise each stage-one round and stage-two step
    asserts), and every ledger entry equalled a from-scratch read of the
    state checked before:

    * the other agents kept their bundles and passed (1), so each holds
      only goods of her own pairs, and valuations are local: ``i`` values
      ``j``'s bundle as its goods incident to ``i``.  Envy between two
      agents outside ``C`` and its strong-envy witness are unchanged;
      goods that agents of ``C`` hold are seen by each of their endpoints;
    * a pair's read changes only when an endpoint's bundle or placement
      did or an agent of ``C`` took or gave back one of its goods, and
      placing an agent never reorders two placed ones, so the other pairs
      keep their reads and their (2) and (3) verdicts;
    * a chain made only of unchanged envy pairs was there before, so a new
      chain has a link touching ``C``: its middle pair touches ``C`` or
      leaves the envied end of such a pair;
    * an agent outside ``C`` keeps her own value.

    So every ledger entry the check did not reread still equals a
    from-scratch read of the state, and every entry it wrote is one: the
    ledger is current again.  An agent outside ``C ∪ N(C)`` keeps her own
    value, her pairs, and so her labels and free goods, and her enviers,
    so her (5)-(7) rows are unchanged too.  Every scoped failure row is a
    row of the whole check.
    """
    unplaced = order.unplaced
    complete = not unplaced
    pairs: dict[tuple[int, int], PairRead] = {}
    if scope is None:
        own = [instance.valuations[i].value(alloc.bundle(i)) for i in range(instance.n)]
        orientation = check_orientation(instance, alloc).violations
        read = instance.skeleton_edges()
    else:
        scope = frozenset(scope)
        own = ledger.own
        for c in scope:
            own[c] = instance.valuations[c].value(alloc.bundle(c))
        orientation = check_orientation(instance, alloc, scope).violations
        changed = _pairs_touching(instance, scope)
        goods = instance.goods
        for _, g in orientation:
            u, v = goods[g].u, goods[g].v
            changed.add((u, v) if u < v else (v, u))
        read = sorted(changed)
        if complete:
            pairs = ledger.pairs
    unread = [(a, b) for a, b in read if a in unplaced and b in unplaced]
    if unread:
        read = [(a, b) for a, b in read if a not in unplaced or b not in unplaced]
    reads = dict(zip(read, read_pairs(instance, alloc, order, cuts, read)))
    faults: list[tuple] = []  # (2), in pair order
    valued: dict[int, list[tuple]] = {}  # (3) rows of each agent, by partner
    for (a, b), pair in reads.items():
        cut, fault, free = pair[0], pair[4], pair[5]
        if fault is not None:
            faults.append(fault)
        if complete:
            pairs[a, b] = pair[5:]
        if not free:  # (3) values free parts only
            continue
        for i, j in ((a, b), (b, a)):
            if i in unplaced:
                continue
            v = instance.valuations[i].value
            for part in (cut.first, cut.second):
                if part and part <= free and v(part) > own[i]:
                    valued.setdefault(i, []).append((i, j, sorted(part)))
    if scope is None:
        graph = _whole_envy(instance, alloc, own, reads, unread, orientation)
    else:
        graph = ledger.reread_envy(instance, alloc, scope, reads)
    checked = ALL_PROPERTIES if complete else STAGE_ONE_PROPERTIES
    report = PropertyReport(checked=checked, graph=graph, scope=scope)

    report.extend(1, orientation)
    report.extend(1, graph.strong)
    report.extend(2, faults)
    for i in sorted(valued):
        report.extend(3, valued[i])
    middles = envy_pairs(graph.enviers)
    if scope is None:
        report.extend(4, _first_chain(graph.enviers, middles))
    else:
        report.extend(4, _first_chain(ledger.enviers, _chain_middles(instance, ledger, middles)))
    if complete:
        if scope is None:
            check = free_bundle_check(instance, alloc, graph.enviers, own, pairs)
        else:
            check = ledger.check(instance, alloc, with_neighbours(instance, scope), read)
        report.free_bundles = check
        report.extend(5, [(i, sorted(check.units.primary[i])) for i in check.breaks_5])
        report.extend(6, [(i, sorted(check.loose[i])) for i in check.breaks_6])
        report.extend(7, check.breaks_7)
    if scope is not None:
        ledger.changes = alloc.changes
    return report


def _whole_envy(
    instance: Instance,
    alloc: Allocation,
    own: Sequence[int],
    reads: Mapping[tuple[int, int], tuple],
    unread: Iterable[tuple[int, int]],
    strays: Iterable[tuple[int, int]],
) -> EnvyGraph:
    """The envy relation :func:`envy_graph` gives, from a whole check's
    pair reads ``reads``, the pairs ``unread`` with no endpoint placed and
    the ``(holder, good)`` rows ``strays`` of :func:`check_orientation`.
    Of ``j``'s bundle ``i`` sees the part ``j`` holds of their pair and
    ``j``'s stray goods incident to ``i``, so this is exact for any
    allocation."""
    seen: dict[int, dict[int, Bundle]] = {}
    parts = [(a, b, pair[2], pair[3]) for (a, b), pair in reads.items()]
    for a, b in unread:
        parts.append((a, b, *(alloc.bundle(i) & instance.pair_goods(a, b) for i in (a, b))))
    for a, b, held_a, held_b in parts:
        if held_b:
            seen.setdefault(a, {})[b] = held_b
        if held_a:
            seen.setdefault(b, {})[a] = held_a
    goods = instance.goods
    for j, g in strays:
        for i in (goods[g].u, goods[g].v):
            row = seen.setdefault(i, {})
            row[j] = row.get(j, EMPTY_BUNDLE) | {g}
    return _envy_of_parts(instance, alloc, own, seen)


def with_neighbours(instance: Instance, agents: Iterable[int]) -> frozenset[int]:
    """``agents`` and their neighbours."""
    return frozenset(agents).union(*(instance.neighbors(c) for c in agents))


def _pairs_touching(instance: Instance, agents) -> set[tuple[int, int]]:
    """Every pair with an endpoint in ``agents``, as ``(a, b)`` with ``a < b``."""
    return {(d, k) if d < k else (k, d) for d in agents for k in instance.neighbors(d)}


def _chain_middles(
    instance: Instance, ledger: Ledger, edges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The envy pairs that can be the middle of a chain through a change of
    a scoped check's agents: ``edges``, every envy pair touching them, and
    those leaving the envied end ``j`` of one.  The ledger, current again,
    gives ``j``'s envy: toward the scope among ``edges``, and toward the
    others, which hold only goods of their own pairs, toward her
    neighbours."""
    enviers = ledger.enviers
    middles = list(edges)
    for j in {j for _, j in edges}:
        middles += [(j, k) for k in instance.neighbors(j) if j in enviers.get(k, ())]
    return middles


def _first_chain(
    enviers: Mapping[int, list[int]], candidates: Iterable[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """The property-(4) row of a state, ``[]`` for none: the smallest
    candidate envy pair ``(i, j)`` whose envier ``i`` is envied, with the
    last of ``i``'s enviers.  ``enviers`` is the whole envier index of the
    state, and the candidates are every envy pair (a whole check) or
    :func:`_chain_middles` (a scoped one).  This is the one place (4) is
    decided."""
    middles = [(i, j) for i, j in candidates if i in enviers]
    if not middles:
        return []
    i, j = min(middles)
    return [(enviers[i][-1], i, j)]


@dataclass
class PropertyReport:
    checked: frozenset[int]
    failures: dict[int, list[tuple]] = field(default_factory=dict)
    # the envy graph, and the check that decided (5)-(7) when they were
    # checked; not serialised
    graph: Optional[EnvyGraph] = field(default=None, compare=False, repr=False)
    free_bundles: Optional[FreeBundleCheck] = field(default=None, compare=False, repr=False)
    # the agents a scoped check was scoped to, ``None`` for a whole check
    scope: Optional[frozenset[int]] = field(default=None, compare=False)

    def extend(self, prop: int, violations: list[tuple]) -> None:
        if violations:
            self.failures.setdefault(prop, []).extend(violations)

    @property
    def ok(self) -> bool:
        return not self.failures

    def only(self, props: Iterable[int]) -> "PropertyReport":
        """This report restricted to the properties ``props``."""
        checked = self.checked & frozenset(props)
        return PropertyReport(
            checked,
            {k: v for k, v in self.failures.items() if k in checked},
            scope=self.scope,
        )

    def failed_properties(self) -> list[int]:
        return sorted(self.failures)

    def to_dict(self) -> dict:
        return {
            "checked": sorted(self.checked),
            "ok": self.ok,
            "failures": {
                str(k): [list(v) for v in vs] for k, vs in sorted(self.failures.items())
            },
        }

    def summary(self) -> str:
        if self.ok:
            return f"properties {sorted(self.checked)} hold"
        parts = []
        for k in self.failed_properties():
            parts.append(f"({k}) x{len(self.failures[k])}")
        return "violated: " + ", ".join(parts)
