"""Definition-level checkers for fairness and structure.

Everything here is recomputed from ``(instance, allocation)`` alone -- no
solver bookkeeping is reused -- so agreement between the solver and these
checks is meaningful evidence.  The only shared vocabulary is the fixed
pair splits (unit bundles), which the structural property checks need by
definition.

``free_bundle_check`` is the one place the free-bundle properties (5)-(7)
are decided: stage two picks its repair rule from it, and
``check_properties`` only formats what it returns.  Its per-agent rule
(``agent_free_bundle_breaks``) and the envy comparison of one viewer
(``viewer_envy``) are also what stage two's live check reruns for the agents
a step touched.  Pair goods held by a third party are reported by property
(2); the free-bundle check never raises on them.

Envy vocabulary: agent ``i`` envies ``j`` when she values ``j``'s bundle
strictly above her own, and *strongly* envies when some single good can be
removed from ``j``'s bundle with the envy surviving.  An allocation is EFX
when no strong envy exists between any ordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .cuts import CutTable, FreeUnits, PickOrder, free_units, pair_fault, pair_state
from .model import Allocation, Bundle, Instance

ALL_PROPERTIES = frozenset(range(1, 8))


@dataclass(frozen=True)
class EnvyEdge:
    src: int
    dst: int
    strong: bool


@dataclass
class EnvyGraph:
    n: int
    edges: list[EnvyEdge]

    def enviers_of(self, i: int) -> list[int]:
        return [e.src for e in self.edges if e.dst == i]

    def envied_agents(self) -> list[int]:
        return sorted({e.dst for e in self.edges})


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
            own = instance.valuations[i].value(alloc.bundle(i))
            edges.extend(viewer_envy(instance, alloc, i, own, by_owner))
    return EnvyGraph(instance.n, edges)


def viewer_envy(
    instance: Instance,
    alloc: Allocation,
    i: int,
    own: int,
    parts: Mapping[int, Iterable[int]],
) -> list[EnvyEdge]:
    """Agent ``i``'s envy edges toward the owners in ``parts``, by ascending owner.

    ``own`` is her value for her own bundle and ``parts[j]`` the part of
    ``j``'s bundle incident to her; she envies ``j`` when that part is worth
    more than ``own``.  This is the one place the envy comparison and its
    strong flag are written.
    """
    v = instance.valuations[i].value
    own_bundle = alloc.bundle(i)
    edges = []
    for j in sorted(parts):
        if v(parts[j]) > own:
            other = alloc.bundle(j)
            strong = strong_envy_witness(instance, i, own_bundle, other) is not None
            edges.append(EnvyEdge(i, j, strong))
    return edges


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


@dataclass
class FreeBundleCheck:
    """Which agents break the free-bundle properties (5)-(7) in one state.

    Each list is in ascending order; stage two repairs its first entry.
    """

    graph: EnvyGraph
    envied: set[int]
    units: FreeUnits
    breaks_5: list[int]  # non-envied agents with a primary free bundle
    breaks_6: list[int]  # non-envied agents preferring their free goods
    breaks_7: list[tuple[int, int, str]]  # (envied agent, envier, label)

    @property
    def ok(self) -> bool:
        return not (self.breaks_5 or self.breaks_6 or self.breaks_7)


def free_bundle_check(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    graph: EnvyGraph,
) -> FreeBundleCheck:
    """Decide properties (5)-(7) for every agent, given the envy graph of
    ``alloc``; the order must be complete."""
    enviers: dict[int, list[int]] = {}
    for e in graph.edges:
        enviers.setdefault(e.dst, []).append(e.src)
    units = free_units(instance, alloc, order, cuts)
    free = alloc.unallocated_goods(instance)
    breaks_5: list[int] = []
    breaks_6: list[int] = []
    breaks_7: list[tuple[int, int, str]] = []
    for i in range(instance.n):
        b5, b6, b7 = agent_free_bundle_breaks(
            instance,
            alloc,
            i,
            instance.valuations[i].value(alloc.bundle(i)),
            enviers.get(i, []),
            units.primary[i],
            units.secondary[i],
            free & instance.incident_goods(i),
        )
        if b5:
            breaks_5.append(i)
        if b6:
            breaks_6.append(i)
        breaks_7.extend(b7)
    return FreeBundleCheck(graph, set(enviers), units, breaks_5, breaks_6, breaks_7)


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


def _property3_violations(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    i: int,
) -> list[tuple]:
    out = []
    v = instance.valuations[i].value
    own = v(alloc.bundle(i))
    for j in instance.neighbors(i):
        if not order.determined(i, j):
            continue
        cut, _, _, _, free = pair_state(instance, alloc, order, cuts, i, j)
        for part in cut.parts():
            if part and part <= free and v(part) > own:
                out.append((i, j, sorted(part)))
    return out


def check_properties(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    which: Iterable[int] = ALL_PROPERTIES,
    *,
    agents: Optional[Sequence[int]] = None,
) -> "PropertyReport":
    """Check the requested numbered properties; see the list above.

    ``agents`` restricts properties (2) and (3) to pairs touching the given
    agents (used while the picking order is still partial).  Properties
    (5)-(7) are decided by :func:`free_bundle_check` and need a complete
    order.  The envy graph is built at most once, for (1), (4) and (5)-(7).
    """
    which = frozenset(which)
    if not which <= ALL_PROPERTIES:
        raise ValueError(f"unknown property numbers: {sorted(which - ALL_PROPERTIES)}")
    report = PropertyReport(checked=which)
    scope = set(range(instance.n)) if agents is None else set(agents)

    graph = envy_graph(instance, alloc) if which & {1, 4, 5, 6, 7} else None
    if 1 in which:
        report.extend(1, check_orientation(instance, alloc).violations)
        report.extend(1, _efx_witnesses(instance, alloc, graph))
    if 2 in which:
        for a, b in instance.skeleton_edges():
            if a not in scope and b not in scope:
                continue
            if not order.determined(a, b):
                continue
            bad = pair_fault(a, b, pair_state(instance, alloc, order, cuts, a, b))
            if bad is not None:
                report.extend(2, [bad])
    if 3 in which:
        for i in sorted(scope):
            report.extend(3, _property3_violations(instance, alloc, order, cuts, i))
    if 4 in which:
        into = {e.dst: e.src for e in graph.edges}
        chains = [
            (into[e.src], e.src, e.dst) for e in graph.edges if e.src in into
        ]
        if chains:
            report.extend(4, [chains[0]])
    if which & {5, 6, 7}:
        check = free_bundle_check(instance, alloc, order, cuts, graph)
        if 5 in which:
            report.extend(5, [(i, sorted(check.units.primary[i])) for i in check.breaks_5])
        if 6 in which:
            free = alloc.unallocated_goods(instance)
            report.extend(
                6, [(i, sorted(free & instance.incident_goods(i))) for i in check.breaks_6]
            )
        if 7 in which:
            report.extend(7, check.breaks_7)
    return report


@dataclass
class PropertyReport:
    checked: frozenset[int]
    failures: dict[int, list[tuple]] = field(default_factory=dict)

    def extend(self, prop: int, violations: list[tuple]) -> None:
        if violations:
            self.failures.setdefault(prop, []).extend(violations)

    @property
    def ok(self) -> bool:
        return not self.failures

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
