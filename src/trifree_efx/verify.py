"""Definition-level checkers for fairness and structure.

Everything here is recomputed from ``(instance, allocation)`` alone -- no
solver bookkeeping is reused -- so agreement between the solver and these
checks is meaningful evidence.  The only shared vocabulary is the fixed
pair splits (unit bundles), which the structural property checks need by
definition.

Envy vocabulary: agent ``i`` envies ``j`` when she values ``j``'s bundle
strictly above her own, and *strongly* envies when some single good can be
removed from ``j``'s bundle with the envy surviving.  An allocation is EFX
when no strong envy exists between any ordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .cuts import CutTable, PickOrder, free_units, pair_state
from .model import Allocation, Bundle, Instance

# Instances at least this big (n * m) with all-additive valuations go through
# the vectorised envy computation; everything else uses the direct loops.
_FAST_PATH_CELLS = 50_000

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

    def envies(self, i: int) -> list[int]:
        return [e.dst for e in self.edges if e.src == i]

    def has_strong_envy(self) -> bool:
        return any(e.strong for e in self.edges)


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


def _weight_matrix(instance: Instance) -> np.ndarray:
    cached = getattr(instance, "_weight_matrix", None)
    if cached is None:
        w = np.zeros((instance.n, instance.m), dtype=np.int64)
        for i, val in enumerate(instance.valuations):
            for g, x in val.weights.items():  # type: ignore[attr-defined]
                w[i, g] = x
        instance._weight_matrix = w  # type: ignore[attr-defined]
        cached = w
    return cached


def _envy_graph_additive(instance: Instance, alloc: Allocation) -> EnvyGraph:
    n = instance.n
    w = _weight_matrix(instance)
    values = np.zeros((n, n), dtype=np.int64)
    min_contrib = np.zeros((n, n), dtype=np.int64)
    nonempty = np.zeros(n, dtype=bool)
    for j in range(n):
        goods = sorted(alloc.bundle(j))
        if goods:
            cols = w[:, goods]
            values[:, j] = cols.sum(axis=1)
            min_contrib[:, j] = cols.min(axis=1)
            nonempty[j] = True
    own = values.diagonal()
    envy = values > own[:, None]
    strong = nonempty[None, :] & (values - min_contrib > own[:, None])
    np.fill_diagonal(envy, False)
    np.fill_diagonal(strong, False)
    edges = [
        EnvyEdge(int(i), int(j), bool(strong[i, j]))
        for i, j in np.argwhere(envy)
    ]
    return EnvyGraph(n, edges)


def envy_graph(instance: Instance, alloc: Allocation, *, method: str = "auto") -> EnvyGraph:
    """The directed envy relation of an allocation, with strong-envy flags."""
    if method not in ("auto", "generic", "additive"):
        raise ValueError(f"unknown method {method!r}")
    if method == "additive" or (
        method == "auto"
        and instance.all_additive()
        and instance.n * instance.m >= _FAST_PATH_CELLS
    ):
        return _envy_graph_additive(instance, alloc)
    edges = []
    for i in range(instance.n):
        v = instance.valuations[i].value
        own_bundle = alloc.bundle(i)
        own = v(own_bundle)
        for j in range(instance.n):
            if j == i:
                continue
            other = alloc.bundle(j)
            if v(other) > own:
                strong = (
                    strong_envy_witness(instance, i, own_bundle, other) is not None
                )
                edges.append(EnvyEdge(i, j, strong))
    return EnvyGraph(instance.n, edges)


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


def check_efx(instance: Instance, alloc: Allocation, *, method: str = "auto") -> CheckReport:
    """No ordered pair may exhibit strong envy; witnesses are (i, j, good)."""
    graph = envy_graph(instance, alloc, method=method)
    report = CheckReport("efx")
    for edge in graph.edges:
        if not edge.strong:
            continue
        g = strong_envy_witness(
            instance, edge.src, alloc.bundle(edge.src), alloc.bundle(edge.dst)
        )
        report.violations.append((edge.src, edge.dst, g))
    return report


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


def max_envy_path_length(instance: Instance, alloc: Allocation) -> int:
    """0 = no envy, 1 = envy but no chain, 2 = some chain of length >= 2.

    A chain through an agent who both envies and is envied (including a
    mutual-envy pair) counts as length >= 2; longer paths are not measured.
    """
    graph = envy_graph(instance, alloc)
    if not graph.edges:
        return 0
    sources = {e.src for e in graph.edges}
    targets = {e.dst for e in graph.edges}
    return 2 if sources & targets else 1


def check_envied_by_one(instance: Instance, alloc: Allocation) -> CheckReport:
    """Every envied agent has one envier and holds only goods they share.

    This is the structural fingerprint of envy inside a partial EFX
    orientation; it is what later phases rely on.
    """
    graph = envy_graph(instance, alloc)
    report = CheckReport("envied_by_one")
    for i in graph.envied_agents():
        enviers = graph.enviers_of(i)
        if len(enviers) > 1:
            report.violations.append((i, tuple(enviers)))
            continue
        j = enviers[0]
        stray = alloc.bundle(i) - instance.pair_goods(i, j)
        if stray:
            report.violations.append((i, j, min(stray)))
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


def _pair_pattern_violation(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    a: int,
    b: int,
) -> Optional[tuple]:
    cut, goods, held_a, held_b, free = pair_state(instance, alloc, order, cuts, a, b)
    outside = goods.difference(held_a, held_b, free)
    if outside:
        return (a, b, "held-outside-pair", min(outside))
    for who, held in ((a, held_a), (b, held_b)):
        if held and held not in cut.parts():
            return (a, b, "torn-unit-bundle", who)
    if held_a and held_b and held_a == held_b:
        return (a, b, "same-part-twice", None)
    return None


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
        cut = cuts.cut(i, j, order.later(i, j))
        for part in cut.parts():
            if not part:
                continue
            if any(alloc.is_allocated(g) for g in part):
                continue
            if v(part) > own:
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
    (5)-(7) need the full envy picture and are intended for complete orders.
    """
    which = frozenset(which)
    if not which <= ALL_PROPERTIES:
        raise ValueError(f"unknown property numbers: {sorted(which - ALL_PROPERTIES)}")
    report = PropertyReport(checked=which)
    scope = set(range(instance.n)) if agents is None else set(agents)

    if 1 in which:
        report.extend(1, check_orientation(instance, alloc).violations)
        report.extend(1, check_efx(instance, alloc).violations)
    if 2 in which:
        for a, b in instance.skeleton_edges():
            if a not in scope and b not in scope:
                continue
            if not order.determined(a, b):
                continue
            bad = _pair_pattern_violation(instance, alloc, order, cuts, a, b)
            if bad is not None:
                report.extend(2, [bad])
    if 3 in which:
        for i in sorted(scope):
            report.extend(3, _property3_violations(instance, alloc, order, cuts, i))
    if 4 in which:
        graph = envy_graph(instance, alloc)
        into = {e.dst: e.src for e in graph.edges}
        chains = [
            (into[e.src], e.src, e.dst) for e in graph.edges if e.src in into
        ]
        if chains:
            report.extend(4, [chains[0]])

    if which & {5, 6, 7}:
        graph = envy_graph(instance, alloc)
        envied = set(graph.envied_agents())
        units = free_units(instance, alloc, order, cuts)
        free = alloc.unallocated_goods(instance)
        if 5 in which:
            for i in range(instance.n):
                if i in envied:
                    continue
                primary = units.primary[i]
                if primary:
                    report.extend(5, [(i, sorted(primary))])
        if 6 in which:
            for i in range(instance.n):
                if i in envied:
                    continue
                v = instance.valuations[i].value
                loose = free & instance.incident_goods(i)
                if v(loose) > v(alloc.bundle(i)):
                    report.extend(6, [(i, sorted(loose))])
        if 7 in which:
            for i in sorted(envied):
                v = instance.valuations[i].value
                own = v(alloc.bundle(i))
                for j in graph.enviers_of(i):
                    for label, bundle in (
                        ("primary", units.primary[i]),
                        ("secondary", units.secondary[i]),
                    ):
                        if v(alloc.bundle(j) | bundle) > own:
                            report.extend(7, [(i, j, label)])
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
