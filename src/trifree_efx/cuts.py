"""Two-way EFX splits of shared good sets, and the bookkeeping around them.

For every adjacent pair of agents the goods they share are split once, by a
designated endpoint (the *cutter*), into two parts such that the cutter does
not strongly envy either part against the other.  The two parts are the
pair's *unit bundles*: they are fixed for the rest of a solver run and are
always allocated atomically.

The split itself is computed by local search: starting from a deterministic
initial partition, while some part contains a good whose removal leaves that
part strictly more valuable than the other part, move such a good across.
A violation can only come from the strictly more valuable part, so each move
either raises the value of the lighter part or strictly shrinks the heavier
part while the lighter part's value stays put; the iteration count is
therefore at most ``len(goods) * (max value + 1)``.

For additive (and transformed-additive) valuations the initial partition is
a largest-first greedy split, which is already feasible, so the local search
performs zero moves; the tests assert this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalSolverError, StateError
from .model import EMPTY_BUNDLE, AdditiveValuation, Allocation, Bundle, Instance


@dataclass(frozen=True)
class PairCut:
    """The fixed two-way split of one pair's shared goods."""

    a: int  # endpoint, a < b
    b: int
    cutter: int  # in {a, b}
    first: Bundle
    second: Bundle

    def parts(self) -> tuple[Bundle, Bundle]:
        return (self.first, self.second)


@dataclass
class CutStats:
    pair: tuple[int, int]
    cutter: int
    moves: int


def _feasibility_witness(value, p1: Bundle, p2: Bundle) -> Optional[tuple[int, int]]:
    """Return (part index, good) breaking the two-way EFX condition, if any."""
    for idx, (own, other) in enumerate(((p1, p2), (p2, p1))):
        v_own = value(own)
        for g in other:
            if value(other - {g}) > v_own:
                return (1 - idx, g)
    return None


def _largest_first_split(weights: dict[int, int], goods: Bundle) -> tuple[set[int], set[int]]:
    part1: set[int] = set()
    part2: set[int] = set()
    s1 = s2 = 0
    for g in sorted(goods, key=lambda g: (-weights[g], g)):
        if s1 <= s2:
            part1.add(g)
            s1 += weights[g]
        else:
            part2.add(g)
            s2 += weights[g]
    return part1, part2


def _rebalance(value, p1: set[int], p2: set[int], cap: int) -> int:
    """Local-search until both parts are feasible; returns the move count."""
    moves = 0
    while True:
        v1, v2 = value(p1), value(p2)
        ordered = ((p1, p2, v2), (p2, p1, v1)) if v1 >= v2 else ((p2, p1, v1), (p1, p2, v2))
        best = None  # (remainder value, -good) maximised
        src = dst = None
        for a, b, v_other in ordered:
            for g in a:
                rem = value(a - {g})
                if rem > v_other and (best is None or (rem, -g) > best):
                    best = (rem, -g)
                    src, dst = a, b
            if best is not None:
                break
        if best is None:
            return moves
        g = -best[1]
        src.discard(g)
        dst.add(g)
        moves += 1
        if moves > cap:
            raise InternalSolverError(
                f"two-way split local search exceeded its move cap of {cap}"
            )


def efx_cut(instance: Instance, cutter: int, goods: Bundle) -> tuple[Bundle, Bundle]:
    """Split ``goods`` (incident to ``cutter``) into two EFX-feasible parts."""
    parts, _ = _efx_cut_with_moves(instance, cutter, goods)
    return parts


def _efx_cut_with_moves(
    instance: Instance, cutter: int, goods: Bundle
) -> tuple[tuple[Bundle, Bundle], int]:
    if not goods <= instance.incident_goods(cutter):
        raise StateError(
            f"cut request for agent {cutter} contains non-incident goods"
        )
    valuation = instance.valuations[cutter]
    value = valuation.value
    if not goods:
        return (EMPTY_BUNDLE, EMPTY_BUNDLE), 0
    if isinstance(valuation, AdditiveValuation):
        # covers transformed_additive too: the transform preserves order,
        # so greedy placement by raw weight is unchanged
        p1, p2 = _largest_first_split(valuation.weights, goods)
    else:
        p1, p2 = set(goods), set()
    cap = len(goods) * (value(goods) + 1) + 1
    moves = _rebalance(value, p1, p2, cap)
    f1, f2 = frozenset(p1), frozenset(p2)
    witness = _feasibility_witness(value, f1, f2)
    if witness is not None:
        raise InternalSolverError(
            f"cut for agent {cutter} failed its feasibility post-check "
            f"at part {witness[0]}, good {witness[1]}"
        )
    return (f1, f2), moves


class CutTable:
    """Memoised pair splits for one solver run (single writer)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self._memo: dict[tuple[int, int, int], PairCut] = {}
        self.stats: list[CutStats] = []

    def cut(self, i: int, j: int, cutter: int) -> PairCut:
        a, b = (i, j) if i < j else (j, i)
        if cutter not in (a, b):
            raise StateError(f"cutter {cutter} is not an endpoint of pair ({a},{b})")
        key = (a, b, cutter)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        goods = self.instance.pair_goods(a, b)
        (first, second), moves = _efx_cut_with_moves(self.instance, cutter, goods)
        cut = PairCut(a, b, cutter, first, second)
        self._memo[key] = cut
        self.stats.append(CutStats(pair=(a, b), cutter=cutter, moves=moves))
        return cut


class PickOrder:
    """A picking order under construction.

    The order is built from both ends: a fixed ``front`` (earliest picks), a
    fixed ``back`` (latest picks), and an undetermined middle of unplaced
    agents.  The relative position of two agents is known unless both are
    still unplaced.
    """

    def __init__(self, n: int):
        self.n = n
        self.front: list[int] = []
        self._back_rev: list[int] = []  # placement order; sigma order is reversed
        self.unplaced: set[int] = set(range(n))
        # position in the order as one integer: the k-th front placement
        # ranks k, the k-th back placement 2n - k, unplaced agents rank n
        self._ranks: dict[int, int] = {}

    @classmethod
    def complete(cls, order: Sequence[int]) -> "PickOrder":
        po = cls(len(order))
        if sorted(order) != list(range(len(order))):
            raise StateError("a complete order must be a permutation of the agents")
        for i in order:
            po.append_front(i)
        return po

    def append_front(self, i: int) -> None:
        self.unplaced.remove(i)
        self._ranks[i] = len(self.front)
        self.front.append(i)

    def prepend_back(self, i: int) -> None:
        self.unplaced.remove(i)
        self._ranks[i] = 2 * self.n - len(self._back_rev)
        self._back_rev.append(i)

    @property
    def back(self) -> list[int]:
        return list(reversed(self._back_rev))

    def determined(self, a: int, b: int) -> bool:
        return not (a in self.unplaced and b in self.unplaced)

    def precedes(self, a: int, b: int) -> bool:
        if a in self.unplaced and b in self.unplaced:
            raise StateError(
                f"relative order of agents {a} and {b} is not determined yet"
            )
        n = self.n
        return self._ranks.get(a, n) < self._ranks.get(b, n)

    def later(self, a: int, b: int) -> int:
        return b if self.precedes(a, b) else a

    def full_order(self) -> list[int]:
        if self.unplaced:
            raise StateError("order is not complete yet")
        return self.front + self.back


def pair_state(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    a: int,
    b: int,
) -> tuple[PairCut, Bundle, Bundle, Bundle, Bundle]:
    """The state of an adjacent pair's goods: ``(cut, goods, held_a, held_b, free)``.

    ``cut`` is the pair's fixed split, cut by whichever endpoint picks later;
    ``held_a`` and ``held_b`` are the pair goods each endpoint holds and
    ``free`` the unallocated ones.  The three sets are disjoint, and a pair
    good in none of them is held by a third agent.  ``a`` and ``b`` may come
    in either order; the held sets follow it.  This is the one place a pair's
    state is read, and the only place the later-picker-cuts rule is written.
    """
    goods = instance.pair_goods(a, b)
    held_a = alloc.bundle(a) & goods
    held_b = alloc.bundle(b) & goods
    free = alloc.free_among(goods)
    return cuts.cut(a, b, order.later(a, b)), goods, held_a, held_b, free


def pair_fault(
    a: int, b: int, pair: tuple[PairCut, Bundle, Bundle, Bundle, Bundle]
) -> Optional[tuple[int, int, str, int]]:
    """Why the :func:`pair_state` result ``pair`` of ``(a, b)`` is not whole
    unit bundles on the pair's endpoints, or ``None`` when it is.

    The fault is ``(lo, hi, "held-outside-pair", smallest such good)`` or
    ``(lo, hi, "torn-unit-bundle", lower-id endpoint holding a torn part)``,
    with ``lo < hi`` the pair's endpoints.  Two endpoints can never hold the
    same part, since bundles are disjoint.
    """
    cut, goods, held_a, held_b, free = pair
    outside = goods.difference(held_a, held_b, free)
    if outside:
        return (cut.a, cut.b, "held-outside-pair", min(outside))
    if a > b:
        a, b, held_a, held_b = b, a, held_b, held_a
    for who, held in ((a, held_a), (b, held_b)):
        if held and held not in cut.parts():
            return (cut.a, cut.b, "torn-unit-bundle", who)
    return None


def claimable(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    i: int,
    j: int,
) -> Bundle:
    """Goods of the pair ``(i, j)`` that agent ``i`` may still take.

    * no goods shared with ``j``: nothing;
    * nothing of the pair allocated: the unit bundle ``i`` values most
      (ties prefer the split's first part);
    * only ``j`` holds from the pair: the remaining unit bundle;
    * ``i`` already holds from the pair (or both do): nothing.

    A :func:`pair_fault` (a torn unit bundle, a third party holding pair
    goods) never arises in a valid run and raises ``StateError``.
    """
    if not instance.pair_goods(i, j):
        return EMPTY_BUNDLE
    pair = pair_state(instance, alloc, order, cuts, i, j)
    fault = pair_fault(i, j, pair)
    if fault is not None:
        raise StateError(
            "pair (%d,%d) is not whole unit bundles on its endpoints: %s %d" % fault
        )
    cut, goods, held_i, held_j, free = pair
    if free == goods:
        vi = instance.valuations[i].value
        return cut.first if vi(cut.first) >= vi(cut.second) else cut.second
    if not held_i and held_j:
        return goods - held_j
    return EMPTY_BUNDLE


@dataclass
class FreeUnits:
    """Per-agent unions of the free-unit labels of the pairs beside her.

    Each adjacent pair gives each endpoint a primary and a secondary label;
    exactly one of these cases applies:

    * the agent holds one of the pair's unit bundles: both labels are empty;
    * both unit bundles are free: one becomes the agent's primary label and
      the other her secondary, assigned so that the two endpoints' labels
      cross (the lower-id endpoint's primary is the split's first part);
    * exactly one unit bundle is free (and not hers): both labels name it;
    * everything of the pair is taken by others: both labels are empty.

    ``primary[i]`` and ``secondary[i]`` are the unions of agent ``i``'s
    labels over all her pairs.
    """

    primary: list[set[int]]
    secondary: list[set[int]]


Labels = tuple[Bundle, Bundle]  # (primary, secondary)
NO_LABELS: Labels = (EMPTY_BUNDLE, EMPTY_BUNDLE)


def pair_labels(
    a: int, b: int, pair: tuple[PairCut, Bundle, Bundle, Bundle, Bundle]
) -> tuple[Labels, Labels]:
    """The ``(primary, secondary)`` labels that the :func:`pair_state` result
    ``pair`` of ``(a, b)`` gives ``a`` and ``b``, by the rule of :class:`FreeUnits`.

    This is the one place the per-pair label rule is written.
    """
    cut, _, held_a, held_b, free = pair
    first, second = cut.first, cut.second
    free_first, free_second = first <= free, second <= free
    if free_first and free_second:
        # nothing of the pair is held; the lower-id endpoint's primary is the first part
        low, high = (first, second), (second, first)
        return (low, high) if a < b else (high, low)
    if free_first or free_second:
        loose = first if free_first else second
        return (
            NO_LABELS if held_a else (loose, loose),
            NO_LABELS if held_b else (loose, loose),
        )
    return NO_LABELS, NO_LABELS


def free_units(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
) -> FreeUnits:
    """Compute the free-unit labelling for every adjacent ordered pair.

    Pair goods held by a third party count as taken; property (2) of
    :func:`.verify.check_properties` is what reports them.
    """
    primary: list[set[int]] = [set() for _ in range(instance.n)]
    secondary: list[set[int]] = [set() for _ in range(instance.n)]
    for a, b in instance.skeleton_edges():
        pair = pair_state(instance, alloc, order, cuts, a, b)
        (primary_a, secondary_a), (primary_b, secondary_b) = pair_labels(a, b, pair)
        primary[a] |= primary_a
        secondary[a] |= secondary_a
        primary[b] |= primary_b
        secondary[b] |= secondary_b
    return FreeUnits(primary, secondary)


def own_labels(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    i: int,
) -> tuple[set[int], set[int]]:
    """Agent ``i``'s ``(primary, secondary)`` entries of :func:`free_units`,
    read from her own pairs only."""
    primary: set[int] = set()
    secondary: set[int] = set()
    for k in instance.neighbors(i):
        pair = pair_state(instance, alloc, order, cuts, i, k)
        first, second = pair_labels(i, k, pair)[0]
        primary |= first
        secondary |= second
    return primary, secondary
