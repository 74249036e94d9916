"""Fair-division instances on multigraphs.

Agents are vertices and goods are edges: several parallel goods may connect
the same pair of agents, and an agent only derives value from goods incident
to her own vertex.  Values are non-negative integers throughout, so all
comparisons are exact.

Three valuation classes are supported:

* ``additive``             -- one non-negative integer weight per incident
                              good; the value of a bundle is the weight sum.
* ``transformed_additive`` -- a strictly increasing integer transform applied
                              to the additive weight sum.  This keeps the
                              cancelability property (removing the same good
                              from two bundles never flips their order) while
                              going strictly beyond additive.
* ``monotone_table``       -- an explicit value for every subset of incident
                              goods, validated to be monotone.  Only allowed
                              for agents of degree at most 20 (table size).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Optional, Sequence

from .errors import InternalSolverError, ValidationError

Bundle = frozenset[int]
EMPTY_BUNDLE: Bundle = frozenset()

MONOTONE_TABLE_DEGREE_CAP = 20


@dataclass(frozen=True)
class Good:
    """One good: an edge between two distinct agents."""

    id: int
    u: int
    v: int


class Valuation:
    """Base class: integer-valued, monotone, local to the incident goods."""

    class_name = "abstract"

    def __init__(self, owner: int, incident: Iterable[int]):
        self.owner = owner
        self.incident = frozenset(incident)

    def value(self, goods: Iterable[int]) -> int:
        raise NotImplementedError


class AdditiveValuation(Valuation):
    class_name = "additive"

    def __init__(self, owner: int, weights: dict[int, int]):
        for g, w in weights.items():
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValidationError(
                    f"agent {owner}: weight of good {g} must be a non-negative "
                    f"integer, got {w!r}"
                )
        super().__init__(owner, weights)
        self.weights = dict(weights)

    def _raw(self, goods) -> int:
        """The weight sum of the incident goods among ``goods``, in
        O(min(len(goods), degree))."""
        w = self.weights
        if len(w) <= len(goods):
            return sum(x for g, x in w.items() if g in goods)
        total = 0
        for g in goods:
            total += w.get(g, 0)
        return total

    # the hottest call of a solve: one frame, no delegation
    value = _raw


class TransformedAdditiveValuation(AdditiveValuation):
    class_name = "transformed_additive"

    def __init__(self, owner: int, weights: dict[int, int], transform: Sequence[int]):
        super().__init__(owner, weights)
        transform = tuple(transform)
        if not transform or transform[0] != 0:
            raise ValidationError(f"agent {owner}: transform must start at 0")
        for a, b in zip(transform, transform[1:]):
            if not isinstance(b, int) or b <= a:
                raise ValidationError(
                    f"agent {owner}: transform must be strictly increasing integers"
                )
        total = sum(self.weights.values())
        if len(transform) <= total:
            raise ValidationError(
                f"agent {owner}: transform covers sums up to {len(transform) - 1} "
                f"but incident weights sum to {total}"
            )
        self.transform = transform

    def value(self, goods) -> int:
        return self.transform[self._raw(goods)]


def check_agent_count(n, valuations: int) -> None:
    """Reject a non-positive agent count, or ``valuations`` valuations for
    other than ``n`` agents, before anything of size ``n`` is built."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"agent count must be a positive integer, got {n!r}")
    if valuations != n:
        raise ValidationError(
            f"need one valuation per agent: got {valuations} for {n} agents"
        )


def check_table_degree(owner: int, degree: int) -> None:
    """Reject a monotone table over more goods than the cap allows."""
    if degree > MONOTONE_TABLE_DEGREE_CAP:
        raise ValidationError(
            f"agent {owner}: degree {degree} exceeds the monotone-table cap "
            f"of {MONOTONE_TABLE_DEGREE_CAP}"
        )


class MonotoneTableValuation(Valuation):
    class_name = "monotone_table"

    def __init__(self, owner: int, good_order: Sequence[int], table: Sequence[int]):
        good_order = tuple(good_order)
        if list(good_order) != sorted(good_order):
            raise ValidationError(
                f"agent {owner}: table good order must be ascending good ids"
            )
        d = len(good_order)
        check_table_degree(owner, d)
        table = tuple(table)
        if len(table) != 1 << d:
            raise ValidationError(
                f"agent {owner}: table needs {1 << d} entries, got {len(table)}"
            )
        if table[0] != 0:
            raise ValidationError(f"agent {owner}: empty set must be worth 0")
        for i, x in enumerate(table):
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValidationError(
                    f"agent {owner}: table entry {i} must be a non-negative integer"
                )
        for mask in range(1 << d):
            for b in range(d):
                if not mask >> b & 1 and table[mask] > table[mask | 1 << b]:
                    raise ValidationError(
                        f"agent {owner}: table is not monotone at subset "
                        f"{mask:#x} with good bit {b}"
                    )
        super().__init__(owner, good_order)
        self.good_order = good_order
        self.table = table
        self._bit = {g: k for k, g in enumerate(good_order)}

    def value(self, goods) -> int:
        bit = self._bit
        mask = 0
        if len(bit) <= len(goods):
            for g, k in bit.items():
                if g in goods:
                    mask |= 1 << k
        else:
            for g in goods:
                k = bit.get(g)
                if k is not None:
                    mask |= 1 << k
        return self.table[mask]


VALUATION_CLASSES = ("additive", "transformed_additive", "monotone_table")


class Instance:
    """Immutable multigraph fair-division instance.

    Safe to share across threads once constructed; all derived structure
    (incidence sets, pair sets, skeleton adjacency) is precomputed here.
    """

    def __init__(self, n: int, goods: Sequence[Good], valuations: Sequence[Valuation]):
        valuations = tuple(valuations)
        check_agent_count(n, len(valuations))
        goods = tuple(goods)
        for idx, g in enumerate(goods):
            if g.id != idx:
                raise ValidationError(
                    f"good ids must be dense and ascending: position {idx} has id {g.id}"
                )
            if not (0 <= g.u < n and 0 <= g.v < n):
                raise ValidationError(f"good {g.id}: endpoint out of range")
            if g.u == g.v:
                raise ValidationError(f"good {g.id}: self-loops are not allowed")
        self.n = n
        self.m = len(goods)
        self.goods = goods

        incident: list[set[int]] = [set() for _ in range(n)]
        pair: dict[tuple[int, int], set[int]] = {}
        for g in goods:
            incident[g.u].add(g.id)
            incident[g.v].add(g.id)
            key = (g.u, g.v) if g.u < g.v else (g.v, g.u)
            pair.setdefault(key, set()).add(g.id)
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for a, b in pair:
            neighbors[a].append(b)
            neighbors[b].append(a)
        self._incident = tuple(frozenset(s) for s in incident)
        self._pair = {k: frozenset(s) for k, s in pair.items()}
        self._neighbors = tuple(tuple(sorted(ns)) for ns in neighbors)

        for i, val in enumerate(valuations):
            if val.owner != i:
                raise ValidationError(
                    f"valuation at position {i} is owned by agent {val.owner}"
                )
            if val.incident != self._incident[i]:
                raise ValidationError(
                    f"agent {i}: valuation covers goods {sorted(val.incident)} but "
                    f"the graph makes {sorted(self._incident[i])} incident"
                )
        self.valuations = valuations
        self.all_goods: Bundle = frozenset(range(self.m))

    # -- graph structure ---------------------------------------------------

    def incident_goods(self, i: int) -> Bundle:
        return self._incident[i]

    def pair_goods(self, i: int, j: int) -> Bundle:
        key = (i, j) if i < j else (j, i)
        return self._pair.get(key, EMPTY_BUNDLE)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def skeleton_edges(self) -> list[tuple[int, int]]:
        return sorted(self._pair)

    def find_triangle(self) -> Optional[tuple[int, int, int]]:
        neigh = [set(ns) for ns in self._neighbors]
        for a, b in self.skeleton_edges():
            common = neigh[a] & neigh[b]
            if common:
                return (a, b, min(common))
        return None

    def is_triangle_free(self) -> bool:
        return self.find_triangle() is None


class Allocation:
    """A partial allocation: one bundle per agent, pairwise disjoint.

    Disjointness is enforced structurally through an owner map, so every
    mutation either keeps the invariant or raises.
    """

    def __init__(self, n: int):
        self.n = n
        self._bundles: list[Bundle] = [EMPTY_BUNDLE] * n
        self._owner: dict[int, int] = {}

    @classmethod
    def from_bundles(cls, n: int, bundles: Sequence[Iterable[int]]) -> "Allocation":
        if len(bundles) != n:
            raise ValidationError(f"need {n} bundles, got {len(bundles)}")
        alloc = cls(n)
        for i, goods in enumerate(bundles):
            bundle = frozenset(goods)
            for g in bundle:
                if g in alloc._owner:
                    raise ValidationError(
                        f"good {g} appears in bundles of agents "
                        f"{alloc._owner[g]} and {i}"
                    )
                alloc._owner[g] = i
            alloc._bundles[i] = bundle
        return alloc

    def bundle(self, i: int) -> Bundle:
        return self._bundles[i]

    def bundles(self) -> tuple[Bundle, ...]:
        return tuple(self._bundles)

    def allocated_goods(self) -> Bundle:
        return frozenset(self._owner)

    def free_among(self, goods: Iterable[int]) -> Bundle:
        """The goods of ``goods`` that nobody holds, in O(len(goods))."""
        return frozenset(filterfalse(self._owner.__contains__, goods))

    def set_bundle(self, i: int, goods: Iterable[int]) -> None:
        """Replace agent ``i``'s bundle; the new goods must be free or hers."""
        new = frozenset(goods)
        old = self._bundles[i]
        for g in new - old:
            holder = self._owner.get(g)
            if holder is not None and holder != i:
                raise InternalSolverError(
                    f"good {g} is already held by agent {holder}, "
                    f"cannot give it to agent {i}"
                )
        for g in old - new:
            del self._owner[g]
        for g in new - old:
            self._owner[g] = i
        self._bundles[i] = new

    def is_complete(self, instance: Instance) -> bool:
        return len(self._owner) == instance.m

    def __eq__(self, other) -> bool:
        return isinstance(other, Allocation) and self._bundles == other._bundles

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{i}:{{{','.join(map(str, sorted(b)))}}}"
            for i, b in enumerate(self._bundles)
        )
        return f"Allocation({parts})"
