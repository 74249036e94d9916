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
    instance: Instance, alloc: Allocation, own: Optional[Sequence[int]] = None
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
    her own bundle.
    """
    goods = instance.goods
    seen: list[dict[int, list[int]]] = [{} for _ in range(instance.n)]
    for j, bundle in enumerate(alloc.bundles()):
        for g in bundle:
            good = goods[g]
            for i in (good.u, good.v):
                if i != j:
                    seen[i].setdefault(j, []).append(g)
    enviers: dict[int, list[int]] = {}
    strong: list[tuple[int, int, int]] = []
    for i, by_owner in enumerate(seen):
        if by_owner:
            mine = alloc.bundle(i)
            own_i = instance.valuations[i].value(mine) if own is None else own[i]
            for j in viewer_envy(instance, i, own_i, by_owner):
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
    instance: Instance, alloc: Allocation, order: PickOrder, cuts: CutTable
) -> "PropertyReport":
    """Check every numbered property that applies; see the list above.

    Properties (1)-(4) are always checked, (2) and (3) for the pairs
    touching the agents that ``order`` has placed.  Properties (5)-(7) are
    checked exactly when ``order`` is complete, and are decided by
    :func:`free_bundle_check`.  The report carries the envy graph as
    ``graph`` and the free-bundle check, when (5)-(7) were checked, as
    ``free_bundles``; callers narrow it with :meth:`PropertyReport.only`.

    The check is one pass over the state.  Each agent's own value is
    computed once and the envy graph is built once.  Each pair that touches
    a placed agent (each pair, once the order is complete) is read once with
    :func:`.cuts.pair_state`, and that read decides (2) for the pair, (3)
    for each of its placed endpoints, and the pair's free goods and labels
    for (5)-(7).
    """
    unplaced = order.unplaced
    complete = not unplaced
    own = [instance.valuations[i].value(alloc.bundle(i)) for i in range(instance.n)]
    graph = envy_graph(instance, alloc, own)
    checked = ALL_PROPERTIES if complete else STAGE_ONE_PROPERTIES
    report = PropertyReport(checked=checked, graph=graph)

    faults: list[tuple] = []  # (2), in pair order
    valued: dict[int, list[tuple]] = {}  # (3) rows of each agent, by partner
    pairs: dict[tuple[int, int], PairRead] = {}
    for a, b in instance.skeleton_edges():
        ends = [(i, j) for i, j in ((a, b), (b, a)) if i not in unplaced]
        if not ends:
            continue
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
        if complete:
            pairs[a, b] = (free, *pair_labels(a, b, pair))

    report.extend(1, check_orientation(instance, alloc).violations)
    report.extend(1, graph.strong)
    report.extend(2, faults)
    for i in sorted(valued):
        report.extend(3, valued[i])
    enviers = graph.enviers
    chains = [(enviers[i][-1], i, j) for i, j in envy_pairs(enviers) if i in enviers]
    report.extend(4, chains[:1])
    if complete:
        check = free_bundle_check(instance, alloc, enviers, own, pairs)
        report.free_bundles = check
        report.extend(5, [(i, sorted(check.units.primary[i])) for i in check.breaks_5])
        report.extend(6, [(i, sorted(check.loose[i])) for i in check.breaks_6])
        report.extend(7, check.breaks_7)
    return report


@dataclass
class PropertyReport:
    checked: frozenset[int]
    failures: dict[int, list[tuple]] = field(default_factory=dict)
    # the envy graph, and the check that decided (5)-(7) when they were
    # checked; not serialised
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
