"""Definition-level checkers for fairness and structure.

Everything here is recomputed from ``(instance, allocation)`` alone -- no
solver bookkeeping is reused -- so agreement between the solver and these
checks is meaningful evidence.  The only shared vocabulary is the fixed
pair splits (unit bundles), which the structural property checks need by
definition.

``check_properties`` checks a state in one pass: each agent's own value is
computed once, the envy graph is built once and each pair is read once with
``pair_state``; the report carries the graph it built.  Which properties it
checks is decided by the picking order: (1)-(4) always, (5)-(7) once the
order is complete; callers narrow a report with ``PropertyReport.only``.
The pass has two setups: whole, or scoped to some agents, where it reads
from scratch only what a change of their bundles can have changed; both
share its pair loop, its report assembly and its one property-(4) rule.
``envy_graph`` returns the envy relation as its envier index together with
the strong-envy witnesses, the one place strong envy is decided; property
(1), ``check_efx`` and the DOT export read the witnesses there, and
``envy_pairs`` lists the index as ``(envier, envied)`` pairs.
``free_bundle_check`` is the one place the free-bundle properties (5)-(7)
are decided, and the :class:`FreeBundleCheck` it returns carries the reads
with the verdict, the envy relation as the graph's envier index: stage two
picks its repair rule from it, ``check_properties`` only formats it, and
stage two's live check is the check stage two opens with, updated in place.
Its per-agent rule (``agent_free_bundle_breaks``) and the envy comparison of
one viewer (``viewer_envy``) are also what the live check reruns for the
agents a step touched.  Pair goods held by a third party are reported by
property (2); the free-bundle check never raises on them.

Envy vocabulary: agent ``i`` envies ``j`` when she values ``j``'s bundle
strictly above her own, and *strongly* envies when some single good can be
removed from ``j``'s bundle with the envy surviving.  An allocation is EFX
when no strong envy exists between any ordered pair.
"""

from __future__ import annotations

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
    pair_fault,
    pair_labels,
    pair_state,
)
from .model import Allocation, Bundle, Instance

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


def envy_graph(
    instance: Instance,
    alloc: Allocation,
    own: Optional[Sequence[int] | Mapping[int, int]] = None,
    owners: Optional[Iterable[int]] = None,
) -> EnvyGraph:
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
    strong-envy witness.  ``own``, when given, holds each agent's value for
    her own bundle.  With ``owners`` given, only the envy toward them is
    decided, from their bundles alone: every agent's envy toward each of
    them, with its witness, as in the whole relation.
    """
    goods = instance.goods
    if owners is None:
        holders = enumerate(alloc.bundles())
    else:
        holders = ((j, alloc.bundle(j)) for j in sorted(owners))
    seen: dict[int, dict[int, list[int]]] = {}
    for j, bundle in holders:
        for g in bundle:
            good = goods[g]
            for i in (good.u, good.v):
                if i != j:
                    seen.setdefault(i, {}).setdefault(j, []).append(g)
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
        for g in sorted(stray):
            report.violations.append((i, g))
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
    incident to her and ``pairs[a, b]`` (``a < b``) the
    :func:`.cuts.pair_state` free goods of the pair and the labels that
    :func:`.cuts.pair_labels` gives ``a`` and ``b``.  Each
    break list is in ascending order; stage two repairs its first entry.
    Every field is compared, so a check kept up to date step by step (stage
    two's live check) equals the from-scratch one only when all its reads do.
    A check of some agents only (a scoped :func:`check_properties`) holds
    their own values, labels and free goods in dicts over them, their
    enviers, the pairs touching them and their break-list entries.
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
    own: Sequence[int] | Mapping[int, int],
    pairs: dict[tuple[int, int], PairRead],
    agents: Optional[Iterable[int]] = None,
) -> FreeBundleCheck:
    """Decide properties (5)-(7) for every agent, or for ``agents`` only.

    ``enviers``, ``own`` and ``pairs`` are the envier index of ``alloc``,
    each agent's value for her own bundle and every pair's free goods and
    labels, as :class:`FreeBundleCheck` holds them; :func:`check_properties`
    reads them in its one pass.  An agent's labels and free incident goods
    are the unions over her pairs.  With ``agents`` given, only they are
    decided: ``pairs`` must hold every pair of each of them, ``enviers`` and
    ``own`` their rows, and the check's labels and free goods are dicts over
    ``agents`` (the check of a scoped :func:`check_properties`).
    """
    whole = agents is None
    if whole:
        agents = range(instance.n)
        primary, secondary, loose = ([set() for _ in agents] for _ in range(3))
    else:
        agents = sorted(agents)
        primary, secondary, loose = ({i: set() for i in agents} for _ in range(3))
    for (a, b), (free, labels_a, labels_b) in pairs.items():
        for i, (primary_i, secondary_i) in ((a, labels_a), (b, labels_b)):
            if whole or i in loose:
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


def check_properties(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    *,
    scope: Optional[Iterable[int]] = None,
) -> "PropertyReport":
    """Check every numbered property that applies; see the list above.

    Properties (1)-(4) are always checked, (2) and (3) for the pairs
    touching the agents that ``order`` has placed.  Properties (5)-(7) are
    checked exactly when ``order`` is complete, and are decided by
    :func:`free_bundle_check`.  The report carries the envy graph as
    ``graph`` and the free-bundle check, when (5)-(7) were checked, as
    ``free_bundles``; callers narrow it with :meth:`PropertyReport.only`.

    The check is one pass over the state with two setups, whole and scoped,
    which differ only in what they read.  Each agent's own value is computed
    once, the envy graph is built once and each pair is read at most once
    with :func:`.cuts.pair_state`.  For a checked pair with a placed
    endpoint, that read decides (2) for the pair and (3) for each placed
    endpoint; on a complete order every read also gives the pair's free
    goods and labels for (5)-(7).  Property (4) is :func:`_first_chain`'s.
    The whole setup holds own values in a list, builds the envy toward
    every owner and checks every pair.

    With ``scope`` given, the check is scoped to those agents, ``C``: it
    reads own values when first needed, the envy toward ``C ∪ N(C)`` and,
    on a complete order, the pairs touching ``C ∪ N(C)``, and it decides,
    from scratch and with the same per-pair and per-agent rules,

    * (1) for the bundles of ``C`` and for the envy toward ``C ∪ N(C)``,
      which holds every envy pair with an endpoint in ``C``;
    * (2) and (3) for the pairs touching ``C`` and those of the goods ``C``
      holds outside them;
    * (4) for the chains through those envy pairs;
    * on a complete order, (5)-(7) for ``C ∪ N(C)``.

    The report's ``scope`` is ``C`` and its free-bundle check holds dicts
    over ``C ∪ N(C)`` for its per-agent fields.  Its verdict on (1)-(4) is
    the whole check's, and its (5)-(7) rows are the whole check's rows of
    ``C ∪ N(C)``, when the state passed (1)-(4) in a check before (whole or
    scoped) and since then only the bundles of ``C`` were set and only
    agents of ``C`` placed (the premise each stage-one round and stage-two
    step asserts):

    * the other agents kept their bundles and passed (1), so each holds
      only goods of her own pairs, and valuations are local: ``i`` values
      ``j``'s bundle as its goods incident to ``i``.  Envy between two
      agents outside ``C`` and its strong-envy witness are unchanged;
      goods that agents of ``C`` hold are seen by each of their endpoints;
    * a pair's read changes only when an endpoint's bundle or placement
      did or an agent of ``C`` took or gave back one of its goods, and
      placing an agent never reorders two placed ones, so the other pairs
      keep their (2) and (3) verdicts;
    * a chain made only of unchanged envy pairs was there before, so a new
      chain has a link touching ``C``;
    * an agent outside ``C ∪ N(C)`` keeps her own value, her pairs, and so
      her labels and free goods, and her enviers, so her (5)-(7) rows are
      unchanged too.

    Every scoped failure row is a row of the whole check.
    """
    unplaced = order.unplaced
    complete = not unplaced
    if scope is None:
        near = changed = None
        own = [instance.valuations[i].value(alloc.bundle(i)) for i in range(instance.n)]
        graph = envy_graph(instance, alloc, own)
        read = instance.skeleton_edges()
    else:
        scope = frozenset(scope)
        near = with_neighbours(instance, scope)
        own = _OwnValues(instance, alloc)
        graph = envy_graph(instance, alloc, own, owners=near)
        goods = instance.goods
        changed = _pairs_touching(instance, scope)
        for c in scope:
            for g in alloc.bundle(c) - instance.incident_goods(c):
                u, v = goods[g].u, goods[g].v
                changed.add((u, v) if u < v else (v, u))
        read = sorted(changed | _pairs_touching(instance, near) if complete else changed)
    checked = ALL_PROPERTIES if complete else STAGE_ONE_PROPERTIES
    report = PropertyReport(checked=checked, graph=graph, scope=scope)

    faults: list[tuple] = []  # (2), in pair order
    valued: dict[int, list[tuple]] = {}  # (3) rows of each agent, by partner
    pairs: dict[tuple[int, int], PairRead] = {}
    for a, b in read:
        if changed is None or (a, b) in changed:
            ends = [(i, j) for i, j in ((a, b), (b, a)) if i not in unplaced]
            if not ends:
                continue
            pair = _check_pair(instance, alloc, order, cuts, a, b, ends, own, faults, valued)
        else:
            pair = pair_state(instance, alloc, order, cuts, a, b)
        if complete:
            pairs[a, b] = (pair[4], *pair_labels(a, b, pair))

    report.extend(1, check_orientation(instance, alloc, scope).violations)
    report.extend(1, graph.strong)
    report.extend(2, faults)
    for i in sorted(valued):
        report.extend(3, valued[i])
    report.extend(4, _first_chain(instance, alloc, own, graph, scope, near))
    if complete:
        if near is not None:
            own = {i: own[i] for i in near}
        check = free_bundle_check(instance, alloc, graph.enviers, own, pairs, near)
        report.free_bundles = check
        report.extend(5, [(i, sorted(check.units.primary[i])) for i in check.breaks_5])
        report.extend(6, [(i, sorted(check.loose[i])) for i in check.breaks_6])
        report.extend(7, check.breaks_7)
    return report


def _check_pair(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    a: int,
    b: int,
    ends: list[tuple[int, int]],
    own: Sequence[int] | Mapping[int, int],
    faults: list[tuple],
    valued: dict[int, list[tuple]],
):
    """Read the pair of ``a`` and ``b`` once, add its (2) fault to
    ``faults`` and the (3) rows of its endpoints ``ends`` (``(endpoint,
    partner)``) to ``valued``, and return the read."""
    pair = pair_state(instance, alloc, order, cuts, a, b)
    fault = pair_fault(a, b, pair)
    if fault is not None:
        faults.append(fault)
    cut, free = pair[0], pair[4]
    for i, j in ends:
        v = instance.valuations[i].value
        for part in cut.parts():
            if part and part <= free and v(part) > own[i]:
                valued.setdefault(i, []).append((i, j, sorted(part)))
    return pair


class _OwnValues(dict):
    """Each agent's value for her own bundle, computed when first read."""

    def __init__(self, instance: Instance, alloc: Allocation):
        super().__init__()
        self.instance, self.alloc = instance, alloc

    def __missing__(self, i: int) -> int:
        value = self[i] = self.instance.valuations[i].value(self.alloc.bundle(i))
        return value


def with_neighbours(instance: Instance, agents: Iterable[int]) -> frozenset[int]:
    """``agents`` and their neighbours."""
    return frozenset(agents).union(*(instance.neighbors(c) for c in agents))


def _pairs_touching(instance: Instance, agents) -> set[tuple[int, int]]:
    """Every pair with an endpoint in ``agents``, as ``(a, b)`` with ``a < b``."""
    return {(d, k) if d < k else (k, d) for d in agents for k in instance.neighbors(d)}


def _first_chain(
    instance: Instance, alloc: Allocation, own, graph: EnvyGraph, scope, near
) -> list[tuple[int, int, int]]:
    """The property-(4) row of a state, ``[]`` for none: the smallest
    candidate envy pair ``(i, j)`` whose envier ``i`` is envied, with the
    last of ``i``'s enviers.  This is the one place (4) is decided.

    For a whole check (``scope`` and ``near`` are ``None``), ``graph`` is
    the whole envy relation and every envy pair is a candidate.  For a check
    scoped to ``scope``, ``graph`` holds the envy toward ``near``, ``scope``
    and its neighbours, and the envy pairs not touching ``scope`` form no
    chain, so a chain's middle pair is an envy pair touching ``scope`` or
    leaves the envied end of one: those are the candidates.  An envied
    end's envy toward ``near`` is read from ``graph``; the agents outside
    ``near`` hold only goods of their own pairs, so her envy toward them is
    computed toward her neighbours among them.  Rows outside ``graph`` are
    computed only for candidates.
    """
    edges = envy_pairs(graph.enviers)
    if scope is None:
        candidates = edges
    else:
        candidates = [(i, j) for i, j in edges if i in scope or j in scope]
        ends = {j for _, j in candidates}
        candidates += [(i, j) for i, j in edges if i in ends]
        for i in ends:
            parts = {}
            for k in instance.neighbors(i):
                if k not in near:
                    part = alloc.bundle(k) & instance.pair_goods(i, k)
                    if part:
                        parts[k] = part
            candidates += [(i, k) for k in viewer_envy(instance, i, own[i], parts)]

    def enviers(i: int) -> list[int]:
        if near is None or i in near:
            return graph.enviers.get(i, [])
        return envy_graph(instance, alloc, own, owners=(i,)).enviers.get(i, [])

    middles = [(i, j) for i, j in candidates if enviers(i)]
    if not middles:
        return []
    i, j = min(middles)
    return [(enviers(i)[-1], i, j)]


def local_free_bundle_check(
    instance: Instance, alloc: Allocation, order: PickOrder, cuts: CutTable, agents
) -> FreeBundleCheck:
    """Properties (5)-(7) of ``agents`` alone, decided from scratch on a
    complete order, with dicts for the per-agent fields: the free-bundle
    check of a :func:`check_properties` scoped to them, from each of their
    pairs read once and the envy toward them."""
    own = _OwnValues(instance, alloc)
    enviers = envy_graph(instance, alloc, own, owners=agents).enviers
    pairs: dict[tuple[int, int], PairRead] = {}
    for a, b in sorted(_pairs_touching(instance, agents)):
        pair = pair_state(instance, alloc, order, cuts, a, b)
        pairs[a, b] = (pair[4], *pair_labels(a, b, pair))
    return free_bundle_check(instance, alloc, enviers, {i: own[i] for i in agents}, pairs, agents)


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
