"""Small instance builders shared across test modules, and the per-pair
reference reads that :func:`trifree_efx.cuts.read_pairs` is checked against."""

from trifree_efx import cuts as kernel
from trifree_efx.cuts import NO_LABELS
from trifree_efx.generate import _additive_instance as additive_instance
from trifree_efx.verify import check_properties


def claim(instance, alloc, order, cuts, i, j):
    """What agent ``i`` may take of the pair ``(i, j)``, from one fresh
    read (:func:`trifree_efx.cuts.claimable`); nothing when the two share
    no goods."""
    if not instance.pair_goods(i, j):
        return frozenset()
    return kernel.claimable(instance, i, kernel.pair_state(instance, alloc, order, cuts, i, j))


def owner_tuple(alloc, instance):
    """The holder of each good in id order, ``None`` for a free good."""
    owner = {g: i for i, bundle in enumerate(alloc.bundles()) for g in bundle}
    return tuple(owner.get(g) for g in range(instance.m))


def scratch_check(state):
    """The from-scratch free-bundle check of a solver state."""
    report = check_properties(state.instance, state.alloc, state.order, state.cuts)
    return report.free_bundles


def two_agent_parallel(weights_0, weights_1=None):
    """Two agents joined by len(weights_0) parallel goods."""
    weights_1 = weights_0 if weights_1 is None else weights_1
    rows = [
        (0, 1, {0: w0, 1: w1}) for w0, w1 in zip(weights_0, weights_1)
    ]
    return additive_instance(2, rows)


def c4_instance(per_pair_weights):
    """Four-cycle 0-1-2-3-0; per_pair_weights maps pair index to weight list.

    Pair order: (0,1), (1,2), (2,3), (0,3).
    """
    pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
    rows = []
    for pair_idx, (u, v) in enumerate(pairs):
        for w in per_pair_weights[pair_idx]:
            if isinstance(w, tuple):
                rows.append((u, v, {u: w[0], v: w[1]}))
            else:
                rows.append((u, v, {u: w, v: w}))
    return additive_instance(4, rows)


# -- the per-pair reads, written out one rule at a time ----------------------------


def pair_state(instance, alloc, order, cuts, a, b):
    """The state of an adjacent pair's goods: ``(cut, goods, held_a, held_b,
    free)``, the cut by whichever endpoint picks later; the held sets follow
    the order of ``a`` and ``b``."""
    goods = instance.pair_goods(a, b)
    held_a = alloc.bundle(a) & goods
    held_b = alloc.bundle(b) & goods
    free = alloc.free_among(goods)
    return cuts.cut(a, b, order.later(a, b)), goods, held_a, held_b, free


def pair_fault(a, b, pair):
    """Why the :func:`pair_state` result ``pair`` of ``(a, b)`` is not whole
    unit bundles on the pair's endpoints, or ``None`` when it is."""
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


def pair_labels(a, b, pair):
    """The ``(primary, secondary)`` labels that the :func:`pair_state` result
    ``pair`` of ``(a, b)`` gives ``a`` and ``b``: crossed when both unit
    bundles are free (the lower-id endpoint's primary is the first part),
    both naming the one free unit bundle for an endpoint holding nothing of
    the pair, empty otherwise."""
    cut, _, held_a, held_b, free = pair
    first, second = cut.first, cut.second
    free_first, free_second = first <= free, second <= free
    if free_first and free_second:
        low, high = (first, second), (second, first)
        return (low, high) if a < b else (high, low)
    if free_first or free_second:
        loose = first if free_first else second
        return (
            NO_LABELS if held_a else (loose, loose),
            NO_LABELS if held_b else (loose, loose),
        )
    return NO_LABELS, NO_LABELS


def reference_read(instance, alloc, order, cuts, a, b):
    """The :func:`trifree_efx.cuts.read_pairs` read of ``(a, b)`` assembled
    from the three reference reads."""
    cut, goods, held_a, held_b, free = pair = pair_state(instance, alloc, order, cuts, a, b)
    return (cut, goods, held_a, held_b, pair_fault(a, b, pair), free, *pair_labels(a, b, pair))
