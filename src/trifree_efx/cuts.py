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
a largest-first greedy split, which is already feasible; that is decided in
O(k) from the parts' weight sums and lightest goods
(:func:`_additive_split_ok`), so the local search and its subset-wise
post-check run only for monotone tables.

A pair's state is read only by :func:`read_pairs`, one loop over the pairs
asked for that gives each pair's cut by the later picker, goods, held
parts, free goods, property-(2) fault and free-unit labels.  Stage one's
partner search, the property check and stage two's live check each make
one call per visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
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


def _additive_split_ok(weights: dict[int, int], p1, p2) -> bool:
    """Whether ``(p1, p2)`` is a two-way EFX split under additive ``weights``.

    Dropping good ``g`` from part B leaves ``raw(B) - w(g)``, largest for the
    lightest good, so A is safe against B iff ``raw(B) - min w(B) <= raw(A)``
    (vacuous for an empty B).  A strictly increasing transform keeps every
    such comparison, so this decides transformed-additive splits too: it
    equals ``_feasibility_witness(value, p1, p2) is None`` in O(k).
    """
    get = weights.__getitem__
    raw1, raw2 = sum(map(get, p1)), sum(map(get, p2))
    return (not p2 or raw2 - min(map(get, p2)) <= raw1) and (
        not p1 or raw1 - min(map(get, p1)) <= raw2
    )


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
    """The cutter's split of ``goods`` and the local-search moves it took.

    An additive (or transformed-additive) cutter's largest-first split is
    checked in O(k) by :func:`_additive_split_ok` and returned with 0 moves.
    A split failing that check, which the greedy never produces, and every
    monotone table take the generic path: local search from the initial
    split (all goods in the first part, for a table), then the subset-wise
    post-check :func:`_feasibility_witness`.
    """
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
        if _additive_split_ok(valuation.weights, p1, p2):
            return (frozenset(p1), frozenset(p2)), 0
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
    still unplaced.  A placed agent is never unplaced again, so the
    lowest-id unplaced agent only moves up: :meth:`lowest_unplaced` keeps a
    cursor on it and costs O(n) in total over a whole construction.
    """

    def __init__(self, n: int):
        self.n = n
        self.front: list[int] = []
        self._back_rev: list[int] = []  # placement order; sigma order is reversed
        self.unplaced: set[int] = set(range(n))
        # position in the order as one integer: the k-th front placement
        # ranks k, the k-th back placement 2n - k, unplaced agents rank n
        self._ranks: dict[int, int] = {}
        self._lowest = 0  # no agent below it is unplaced

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

    def lowest_unplaced(self) -> int:
        """The lowest-id unplaced agent, in amortised O(1)."""
        if not self.unplaced:
            raise StateError("every agent is already placed")
        low = self._lowest
        while low not in self.unplaced:
            low += 1
        self._lowest = low
        return low

    @property
    def back(self) -> list[int]:
        return list(reversed(self._back_rev))

    def in_front(self, i: int) -> bool:
        return self._ranks.get(i, self.n) < self.n

    def in_back(self, i: int) -> bool:
        return self._ranks.get(i, self.n) > self.n

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


Labels = tuple[Bundle, Bundle]  # (primary, secondary)
NO_LABELS: Labels = (EMPTY_BUNDLE, EMPTY_BUNDLE)


def read_pairs(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    pairs: Sequence[tuple[int, int]],
) -> list[tuple]:
    """Read each adjacent pair ``(a, b)`` of ``pairs`` once: one
    ``(cut, goods, held_a, held_b, fault, free, labels_a, labels_b)`` per
    pair, in the order of ``pairs``.

    ``cut`` is the pair's fixed split, cut by whichever endpoint picks later
    (the order of the two must be determined); ``held_a`` and ``held_b`` are
    the pair goods each endpoint holds and ``free`` the unallocated ones.
    The three sets are disjoint, and a pair good in none of them is held by
    a third agent.  The held sets and the labels follow the order of ``a``
    and ``b``; ``read[5:]`` is the pair's :class:`.verify.FreeBundleCheck`
    entry when ``a < b``.  ``fault`` says why the goods are not whole unit
    bundles on the endpoints ``lo < hi``, ``None`` when they are:
    ``(lo, hi, "held-outside-pair", smallest such good)`` or ``(lo, hi,
    "torn-unit-bundle", lower-id endpoint holding a torn part)``.  The
    labels are the ``(primary, secondary)`` pair the rule of
    :class:`FreeUnits` gives each endpoint.

    This is the one place the later-picker-cuts rule, the pair-fault rule
    and the per-pair label rule are written.  The loop reads the model's
    containers directly and takes a memoised cut without a
    :meth:`CutTable.cut` call.
    """
    goods_of, bundles, owners = instance._pair, alloc._bundles, alloc._owner
    allocated, owned = owners.keys(), owners.__contains__
    rank, n, memo = order._ranks.get, order.n, cuts._memo
    out = []
    for a, b in pairs:
        lo, hi = (a, b) if a < b else (b, a)
        goods = goods_of.get((lo, hi), EMPTY_BUNDLE)
        held_a, held_b = bundles[a] & goods, bundles[b] & goods
        rank_a, rank_b = rank(a, n), rank(b, n)
        if rank_a == rank_b == n:
            raise StateError(f"relative order of agents {a} and {b} is not determined yet")
        later = b if rank_a < rank_b else a
        cut = memo.get((lo, hi, later))
        if cut is None:
            cut = cuts.cut(lo, hi, later)
        first, second = cut.first, cut.second
        if len(held_a) + len(held_b) == len(goods):
            rest = EMPTY_BUNDLE
        else:
            rest = goods.difference(held_a, held_b) if held_a or held_b else goods
        # isdisjoint looks up the goods of rest only
        free = rest if allocated.isdisjoint(rest) else frozenset(filterfalse(owned, rest))
        fault = (lo, hi, "held-outside-pair", min(rest - free)) if len(free) < len(rest) else None
        if fault is None:
            held_lo, held_hi = (held_a, held_b) if a < b else (held_b, held_a)
            if held_lo and held_lo != first and held_lo != second:
                fault = (lo, hi, "torn-unit-bundle", lo)
            elif held_hi and held_hi != first and held_hi != second:
                fault = (lo, hi, "torn-unit-bundle", hi)
        labels_a = labels_b = NO_LABELS  # every label is a part of the free goods
        if free and len(free) == len(goods):
            # nothing of the pair is held; the lower-id endpoint's primary is the first part
            low, high = (first, second), (second, first)
            labels_a, labels_b = (low, high) if a < b else (high, low)
        elif free and (first <= free or second <= free):  # one unit bundle is free
            loose = (first, first) if first <= free else (second, second)
            labels_a = NO_LABELS if held_a else loose
            labels_b = NO_LABELS if held_b else loose
        out.append((cut, goods, held_a, held_b, fault, free, labels_a, labels_b))
    return out


def pair_state(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
    a: int,
    b: int,
) -> tuple:
    """The :func:`read_pairs` read of the one pair ``(a, b)``."""
    return read_pairs(instance, alloc, order, cuts, ((a, b),))[0]


def claimable(instance: Instance, i: int, pair: tuple) -> Bundle:
    """Goods of a pair that agent ``i`` may still take, from ``pair``, its
    :func:`read_pairs` read from ``i``'s end ``(i, j)``.

    * no goods shared with ``j``: nothing;
    * nothing of the pair allocated: the unit bundle ``i`` values most
      (ties prefer the split's first part);
    * only ``j`` holds from the pair: the remaining unit bundle;
    * ``i`` already holds from the pair (or both do): nothing.

    A pair fault (a torn unit bundle, a third party holding pair goods)
    never arises in a valid run and raises ``StateError``.
    """
    cut, goods, held_i, held_j, fault, free, _, _ = pair
    if fault is not None:
        raise StateError(
            "pair (%d,%d) is not whole unit bundles on its endpoints: %s %d" % fault
        )
    if len(free) == len(goods):
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
    labels over all her pairs: lists over every agent from
    :func:`free_units`, dicts over the agents a
    :class:`.verify.FreeBundleCheck` decides.
    """

    primary: list[set[int]] | dict[int, set[int]]
    secondary: list[set[int]] | dict[int, set[int]]


def free_units(
    instance: Instance,
    alloc: Allocation,
    order: PickOrder,
    cuts: CutTable,
) -> FreeUnits:
    """Compute the free-unit labelling for every adjacent ordered pair, as
    each agent's :func:`own_labels`.

    Pair goods held by a third party count as taken; property (2) of
    :func:`.verify.check_properties` is what reports them.
    """
    labels = [own_labels(instance, alloc, order, cuts, i) for i in range(instance.n)]
    return FreeUnits([primary for primary, _ in labels], [secondary for _, secondary in labels])


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
    pairs = [(i, k) for k in instance.neighbors(i)]
    for pair in read_pairs(instance, alloc, order, cuts, pairs):
        first, second = pair[6]
        primary |= first
        secondary |= second
    return primary, secondary
