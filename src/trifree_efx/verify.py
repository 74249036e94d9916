"""Definition-level checkers for fairness and structure.

Everything here is recomputed from ``(instance, allocation)`` alone -- no
solver bookkeeping is reused -- so agreement between the solver and these
checks is meaningful evidence.  The only shared vocabulary is the fixed
pair splits (unit bundles), which the structural property checks need by
definition.

``check_properties`` checks a state in one pass: each agent's own value is
computed once, the envy graph is built once and each pair is read once with
``pair_state``; the report carries the graph it built.  ``envy_graph`` is
the one place strong-envy flags are computed, and property (1),
``check_efx`` and the DOT export read them there.  ``free_bundle_check`` is
the one place the free-bundle properties (5)-(7) are decided from those
reads, and the :class:`FreeBundleCheck` it returns carries the reads with
the verdict, the envy relation as its envier index only: stage two picks
its repair rule from it, ``check_properties`` only formats it, and stage
two's live check is the check stage two opens with, updated in place.  Its
per-agent rule (``agent_free_bundle_breaks``) and the envy comparison of one
viewer (``viewer_envy``) are also what the live check reruns for the agents
a step touched.  Pair goods held by a third party are reported by property (2);
the free-bundle check never raises on them.

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
FREE_BUNDLE_PROPERTIES = frozenset(range(5, 8))


@dataclass(frozen=True)
class EnvyEdge:
    src: int
    dst: int
    strong: bool


@dataclass
class EnvyGraph:
    edges: list[EnvyEdge]

    def enviers(self) -> dict[int, list[int]]:
        """Each envied agent's enviers, in ascending order."""
        out: dict[int, list[int]] = {}
        for e in self.edges:
            out.setdefault(e.dst, []).append(e.src)
        return out


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
    instance: Instance, alloc: Allocation, own: Optional[Sequence[int]] = None
) -> EnvyGraph:
    """The directed envy relation of an allocation, with strong-envy flags.

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
    to her than her own bundle.  Edges come out in ``(src, dst)`` order.
    ``own``, when given, holds each agent's value for her own bundle.
    """
    goods = instance.goods
    seen: list[dict[int, list[int]]] = [{} for _ in range(instance.n)]
    for j, bundle in enumerate(alloc.bundles()):
        for g in bundle:
            good = goods[g]
            for i in (good.u, good.v):
                if i != j:
                    seen[i].setdefault(j, []).append(g)
    edges = []
    for i, by_owner in enumerate(seen):
        if by_owner:
            mine = alloc.bundle(i)
            own_i = instance.valuations[i].value(mine) if own is None else own[i]
            for j in viewer_envy(instance, i, own_i, by_owner):
                witness = strong_envy_witness(instance, i, mine, alloc.bundle(j))
                edges.append(EnvyEdge(i, j, witness is not None))
    return EnvyGraph(edges)


def viewer_envy(
    instance: Instance, i: int, own: int, parts: Mapping[int, Iterable[int]]
) -> list[int]:
    """The owners in ``parts`` that agent ``i`` envies, in ascending order.

    ``own`` is her value for her own bundle and ``parts[j]`` the part of
    ``j``'s bundle incident to her; she envies ``j`` when that part is worth
    more than ``own``.  This is the one place the envy comparison is
    written; the strong-envy flags are :func:`envy_graph`'s alone.
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


def _efx_witnesses(
    instance: Instance, alloc: Allocation, graph: EnvyGraph
) -> list[tuple[int, int, int]]:
    """``(i, j, good)`` for every strong-envy edge of ``graph``, in edge order."""
    bundle = alloc.bundle
    return [
        (e.src, e.dst, strong_envy_witness(instance, e.src, bundle(e.src), bundle(e.dst)))
        for e in graph.edges
        if e.strong
    ]


def check_efx(instance: Instance, alloc: Allocation) -> CheckReport:
    """No ordered pair may exhibit strong envy; witnesses are (i, j, good)."""
    graph = envy_graph(instance, alloc)
    return CheckReport("efx", _efx_witnesses(instance, alloc, graph))


def check_orientation(instance: Instance, alloc: Allocation) -> CheckReport:
    report = CheckReport("orientation")
    for i in range(instance.n):
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
    enviers: dict[int, list[int]],
    own: list[int],
    pairs: dict[tuple[int, int], PairRead],
) -> FreeBundleCheck:
    """Decide properties (5)-(7) for every agent.

    ``enviers``, ``own`` and ``pairs`` are the envier index of ``alloc``,
    each agent's value for her own bundle and every pair's free goods and
    labels, as :class:`FreeBundleCheck` holds them; :func:`check_properties`
    reads them in its one pass.  An agent's labels and free incident goods
    are the unions over her pairs.
    """
    n = instance.n
    primary: list[set[int]] = [set() for _ in range(n)]
    secondary: list[set[int]] = [set() for _ in range(n)]
    loose: list[set[int]] = [set() for _ in range(n)]
    for (a, b), (free, (primary_a, secondary_a), (primary_b, secondary_b)) in pairs.items():
        primary[a] |= primary_a
        secondary[a] |= secondary_a
        primary[b] |= primary_b
        secondary[b] |= secondary_b
        loose[a] |= free
        loose[b] |= free
    breaks_5: list[int] = []
    breaks_6: list[int] = []
    breaks_7: list[tuple[int, int, str]] = []
    for i in range(n):
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
) -> tuple[bool, bool, list[tuple[int, int, str]]]:
    """Whether agent ``i`` breaks (5) and (6), and her (7) rows.

    ``own`` is her value for her own bundle, ``enviers`` her enviers in
    ascending order, ``primary`` and ``secondary`` her free-unit labels and
    ``loose`` the free goods incident to her.  A non-envied agent can break
    only (5) and (6), an envied one only (7).  This is the one place the
    per-agent rule is written.
    """
    v = instance.valuations[i].value
    if not enviers:
        return bool(primary), v(loose) > own, []
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
    which: Iterable[int] = ALL_PROPERTIES,
) -> "PropertyReport":
    """Check the requested numbered properties; see the list above.

    Properties (2) and (3) are checked for the pairs touching the agents
    that ``order`` has placed, which is every pair once the order is
    complete.  Properties (5)-(7) are decided by :func:`free_bundle_check`
    and need a complete order.  The report carries the envy graph, when one
    was built, as ``graph`` and the free-bundle check, when (5)-(7) were
    checked, as ``free_bundles``.

    The check is one pass over the state.  Each agent's own value is
    computed once and the envy graph is built at most once, for (1), (4)
    and (5)-(7).  Each pair that touches a placed agent (each pair, when
    (5)-(7) are checked) is read once with :func:`.cuts.pair_state`, and
    that read decides (2) for the pair, (3) for each of its placed
    endpoints, and the pair's free goods and labels for (5)-(7).
    """
    which = frozenset(which)
    if not which <= ALL_PROPERTIES:
        raise ValueError(f"unknown property numbers: {sorted(which - ALL_PROPERTIES)}")
    n = instance.n
    unplaced = order.unplaced
    free_props = bool(which & FREE_BUNDLE_PROPERTIES)
    own = None
    if which - {2}:
        own = [instance.valuations[i].value(alloc.bundle(i)) for i in range(n)]
    graph = envy_graph(instance, alloc, own) if which & {1, 4, 5, 6, 7} else None
    report = PropertyReport(checked=which, graph=graph)

    faults: list[tuple] = []  # (2), in pair order
    valued: dict[int, list[tuple]] = {}  # (3) rows of each agent, by partner
    pairs: dict[tuple[int, int], PairRead] = {}
    if which & {2, 3} or free_props:
        for a, b in instance.skeleton_edges():
            ends = [(i, j) for i, j in ((a, b), (b, a)) if i not in unplaced]
            if not (ends or free_props):
                continue
            pair = pair_state(instance, alloc, order, cuts, a, b)
            if 2 in which and ends:
                fault = pair_fault(a, b, pair)
                if fault is not None:
                    faults.append(fault)
            if 3 in which:
                cut, free = pair[0], pair[4]
                for i, j in ends:
                    v = instance.valuations[i].value
                    for part in cut.parts():
                        if part and part <= free and v(part) > own[i]:
                            valued.setdefault(i, []).append((i, j, sorted(part)))
            if free_props:
                pairs[a, b] = (pair[4], *pair_labels(a, b, pair))

    check = None
    if free_props:
        check = free_bundle_check(instance, alloc, graph.enviers(), own, pairs)
    if 1 in which:
        report.extend(1, check_orientation(instance, alloc).violations)
        report.extend(1, _efx_witnesses(instance, alloc, graph))
    report.extend(2, faults)
    for i in sorted(valued):
        report.extend(3, valued[i])
    if 4 in which:
        enviers = graph.enviers() if check is None else check.enviers
        chains = [
            (enviers[e.src][-1], e.src, e.dst) for e in graph.edges if e.src in enviers
        ]
        if chains:
            report.extend(4, [chains[0]])
    if check is not None:
        report.free_bundles = check
        if 5 in which:
            report.extend(5, [(i, sorted(check.units.primary[i])) for i in check.breaks_5])
        if 6 in which:
            report.extend(6, [(i, sorted(check.loose[i])) for i in check.breaks_6])
        if 7 in which:
            report.extend(7, check.breaks_7)
    return report


@dataclass
class PropertyReport:
    checked: frozenset[int]
    failures: dict[int, list[tuple]] = field(default_factory=dict)
    # the envy graph and the check that decided (5)-(7), when they were
    # built; not serialised
    graph: Optional[EnvyGraph] = field(default=None, compare=False, repr=False)
    free_bundles: Optional[FreeBundleCheck] = field(default=None, compare=False, repr=False)

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
            checked, {k: v for k, v in self.failures.items() if k in checked}
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
