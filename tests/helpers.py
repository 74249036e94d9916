"""Small instance builders shared across test modules."""

from trifree_efx.generate import _additive_instance as additive_instance
from trifree_efx.verify import check_properties


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
