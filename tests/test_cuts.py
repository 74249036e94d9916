from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import (
    Allocation,
    CutTable,
    MonotoneTableValuation,
    PickOrder,
    StateError,
    claimable,
    efx_cut,
    free_units,
    pair_state,
)
from trifree_efx.cuts import _efx_cut_with_moves
from trifree_efx.generate import gen_instance, suite_spec
from trifree_efx.phase1 import run_phase1
from trifree_efx.phase2 import phase2_step

from helpers import additive_instance, two_agent_parallel


def all_two_way_splits(goods):
    goods = sorted(goods)
    for r in range(len(goods) + 1):
        for part in combinations(goods, r):
            yield frozenset(part), frozenset(goods) - frozenset(part)


def is_feasible_split(value, p1, p2):
    return all(
        value(other - {g}) <= value(own)
        for own, other in ((p1, p2), (p2, p1))
        for g in other
    )


# -- efx_cut ------------------------------------------------------------------


def test_cut_five_three_three():
    inst = two_agent_parallel([5, 3, 3])
    goods = inst.pair_goods(0, 1)
    value = inst.valuations[0].value
    # independent check: enumerate every split, collect the feasible ones
    feasible = {
        (p1, p2) for p1, p2 in all_two_way_splits(goods) if is_feasible_split(value, p1, p2)
    }
    got = efx_cut(inst, 0, goods)
    assert got in feasible
    assert got == (frozenset({0}), frozenset({1, 2}))


def test_cut_empty_set():
    inst = two_agent_parallel([1])
    assert efx_cut(inst, 0, frozenset()) == (frozenset(), frozenset())


def test_cut_single_good():
    inst = two_agent_parallel([7])
    assert efx_cut(inst, 1, frozenset({0})) == (frozenset({0}), frozenset())


def test_cut_rejects_non_incident_goods():
    inst = additive_instance(3, [(0, 1, {0: 1, 1: 1}), (1, 2, {1: 1, 2: 1})])
    with pytest.raises(StateError):
        efx_cut(inst, 0, frozenset({0, 1}))


@given(st.lists(st.integers(0, 40), min_size=1, max_size=9))
@settings(max_examples=300)
def test_additive_cut_is_feasible_with_zero_moves(weights):
    inst = two_agent_parallel(weights)
    goods = inst.pair_goods(0, 1)
    (p1, p2), moves = _efx_cut_with_moves(inst, 0, goods)
    assert moves == 0  # greedy split is already feasible for weight sums
    assert is_feasible_split(inst.valuations[0].value, p1, p2)
    assert p1 | p2 == goods and not (p1 & p2)


@given(st.lists(st.integers(0, 15), min_size=1, max_size=7), st.data())
@settings(max_examples=200)
def test_transformed_cut_is_feasible_with_zero_moves(weights, data):
    from trifree_efx import Good, Instance, TransformedAdditiveValuation, AdditiveValuation

    total = sum(weights)
    transform = [0]
    for _ in range(total):
        transform.append(transform[-1] + data.draw(st.integers(1, 4)))
    goods = [Good(g, 0, 1) for g in range(len(weights))]
    w = dict(enumerate(weights))
    inst = Instance(
        2,
        goods,
        [TransformedAdditiveValuation(0, w, transform), AdditiveValuation(1, w)],
    )
    pair = inst.pair_goods(0, 1)
    (p1, p2), moves = _efx_cut_with_moves(inst, 0, pair)
    assert moves == 0
    assert is_feasible_split(inst.valuations[0].value, p1, p2)


@st.composite
def table_instances(draw):
    from trifree_efx import Good, Instance, AdditiveValuation

    d = draw(st.integers(1, 6))
    base = draw(st.lists(st.integers(0, 25), min_size=1 << d, max_size=1 << d))
    table = [0] * (1 << d)
    for mask in range(1, 1 << d):
        best = base[mask]
        for b in range(d):
            if mask >> b & 1:
                best = max(best, table[mask ^ (1 << b)])
        table[mask] = best
    goods = [Good(g, 0, 1) for g in range(d)]
    val0 = MonotoneTableValuation(0, list(range(d)), table)
    val1 = AdditiveValuation(1, {g: 1 for g in range(d)})
    return Instance(2, goods, [val0, val1])


@given(table_instances())
@settings(max_examples=200, deadline=None)
def test_table_cut_feasible_and_within_move_cap(inst):
    goods = inst.pair_goods(0, 1)
    value = inst.valuations[0].value
    (p1, p2), moves = _efx_cut_with_moves(inst, 0, goods)
    assert is_feasible_split(value, p1, p2)
    assert moves <= len(goods) * (value(goods) + 1)


# -- memoised cut table --------------------------------------------------------


def test_cut_table_memoisation_is_pure():
    inst = two_agent_parallel([5, 3, 3])
    cuts = CutTable(inst)
    first = cuts.cut(0, 1, cutter=1)
    again = cuts.cut(1, 0, cutter=1)
    assert first is again
    assert len(cuts.stats) == 1


def test_cut_table_rejects_foreign_cutter():
    inst = two_agent_parallel([1])
    with pytest.raises(StateError):
        CutTable(inst).cut(0, 1, cutter=5)


# -- picking order -------------------------------------------------------------


def test_pick_order_semantics():
    order = PickOrder(5)
    order.append_front(2)
    order.prepend_back(0)
    order.prepend_back(4)
    # sigma so far: [2, {1,3}, 4, 0]
    assert order.precedes(2, 1) and order.precedes(2, 0)
    assert order.precedes(1, 4) and order.precedes(4, 0)
    assert not order.precedes(0, 2)
    assert order.later(2, 0) == 0
    assert not order.determined(1, 3)
    with pytest.raises(StateError):
        order.precedes(1, 3)
    with pytest.raises(StateError):
        order.full_order()
    order.append_front(1)
    order.append_front(3)
    assert order.full_order() == [2, 1, 3, 4, 0]


def test_pick_order_complete_requires_permutation():
    with pytest.raises(StateError):
        PickOrder.complete([0, 0, 1])


# -- claimable (availability rows) ----------------------------------------------


def make_state(inst, order_list):
    return Allocation(inst.n), PickOrder.complete(order_list), CutTable(inst)


def test_claimable_free_pair_takes_preferred_part():
    # cutter is agent 1 (later); parts ({5}, {3,3}) by her weights; agent 0
    # prefers the pair of threes
    inst = two_agent_parallel([5, 3, 3], [5, 3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    assert claimable(inst, alloc, order, cuts, 0, 1) == frozenset({1, 2})
    assert claimable(inst, alloc, order, cuts, 1, 0) == frozenset({1, 2})


def test_claimable_tie_prefers_first_part():
    inst = two_agent_parallel([3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    cut = cuts.cut(0, 1, order.later(0, 1))
    assert claimable(inst, alloc, order, cuts, 0, 1) == cut.first


def test_claimable_partner_holds_leaves_remainder():
    inst = two_agent_parallel([5, 3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    cut = cuts.cut(0, 1, order.later(0, 1))
    alloc.set_bundle(1, cut.second)
    assert claimable(inst, alloc, order, cuts, 0, 1) == cut.first
    assert claimable(inst, alloc, order, cuts, 1, 0) == frozenset()


def test_claimable_own_holding_blocks_pair():
    inst = two_agent_parallel([5, 3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    cut = cuts.cut(0, 1, order.later(0, 1))
    alloc.set_bundle(0, cut.first)
    assert claimable(inst, alloc, order, cuts, 0, 1) == frozenset()
    alloc.set_bundle(1, cut.second)
    assert claimable(inst, alloc, order, cuts, 0, 1) == frozenset()
    assert claimable(inst, alloc, order, cuts, 1, 0) == frozenset()


def test_claimable_non_adjacent_pair_is_empty():
    inst = additive_instance(3, [(0, 1, {0: 1, 1: 1})])
    alloc, order, cuts = make_state(inst, [0, 1, 2])
    assert claimable(inst, alloc, order, cuts, 0, 2) == frozenset()


def test_claimable_rejects_torn_unit_bundle():
    inst = two_agent_parallel([5, 3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    alloc.set_bundle(1, frozenset({1}))  # half of the {3,3} part
    with pytest.raises(StateError):
        claimable(inst, alloc, order, cuts, 0, 1)


def test_claimable_rejects_third_party_holder():
    inst = additive_instance(
        3, [(0, 1, {0: 5, 1: 5}), (0, 1, {0: 3, 1: 3}), (1, 2, {1: 1, 2: 1})]
    )
    alloc, order, cuts = make_state(inst, [0, 1, 2])
    alloc.set_bundle(2, frozenset({0}))  # agent 2 holds a good of pair (0,1)
    with pytest.raises(StateError):
        claimable(inst, alloc, order, cuts, 0, 1)


def test_claimable_requires_determined_order():
    inst = two_agent_parallel([1])
    alloc = Allocation(2)
    order = PickOrder(2)  # nobody placed
    with pytest.raises(StateError):
        claimable(inst, alloc, order, CutTable(inst), 0, 1)


# -- free-unit labelling ---------------------------------------------------------


def test_free_units_cross_labels_when_pair_free():
    inst = two_agent_parallel([5, 3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    cut = cuts.cut(0, 1, order.later(0, 1))
    units = free_units(inst, alloc, order, cuts)
    assert units.primary[0] == cut.first
    assert units.secondary[0] == cut.second
    assert units.primary[1] == cut.second
    assert units.secondary[1] == cut.first
    # the two endpoints' labels cross
    assert units.primary[0] == units.secondary[1]


def test_free_units_holder_gets_empty_labels():
    inst = two_agent_parallel([5, 3, 3])
    alloc, order, cuts = make_state(inst, [0, 1])
    cut = cuts.cut(0, 1, order.later(0, 1))
    alloc.set_bundle(0, cut.first)
    units = free_units(inst, alloc, order, cuts)
    assert units.primary[0] == frozenset()
    assert units.secondary[0] == frozenset()
    assert units.primary[1] == cut.second
    assert units.secondary[1] == cut.second


def test_free_units_labels_are_whole_parts_or_empty():
    inst = two_agent_parallel([4, 2, 1])
    alloc, order, cuts = make_state(inst, [1, 0])
    cut = cuts.cut(0, 1, order.later(0, 1))
    units = free_units(inst, alloc, order, cuts)
    allowed = {cut.first, cut.second, frozenset()}
    for i in (0, 1):
        assert units.primary[i] in allowed
        assert units.secondary[i] in allowed


def _labels_by_definition(inst, alloc, order, cuts):
    """Per-agent label unions, straight from the per-pair rule of ``FreeUnits``."""
    primary = [set() for _ in range(inst.n)]
    secondary = [set() for _ in range(inst.n)]
    for a, b in inst.skeleton_edges():
        cut = cuts.cut(a, b, order.later(a, b))
        free_parts = [
            part for part in cut.parts() if not any(alloc.is_allocated(g) for g in part)
        ]
        for i, j in ((a, b), (b, a)):
            if alloc.bundle(i) & inst.pair_goods(i, j):
                continue  # she holds a unit bundle of the pair: empty labels
            if len(free_parts) == 2:
                # the lower-id endpoint's primary is the first part
                p, q = (cut.first, cut.second) if i < j else (cut.second, cut.first)
            elif len(free_parts) == 1:
                p = q = free_parts[0]
            else:
                continue  # everything taken by others: empty labels
            primary[i] |= p
            secondary[i] |= q
    return primary, secondary


def test_free_units_unions_follow_the_per_pair_rule_on_many_pairs():
    crossed = 0  # agents whose two unions differ while beside several pairs
    for topology in ("bipartite", "cycle_even", "tree"):
        for idx in range(6):
            inst = gen_instance(suite_spec(topology, idx))
            state = run_phase1(inst, validate=False)
            while True:
                units = free_units(inst, state.alloc, state.order, state.cuts)
                primary, secondary = _labels_by_definition(
                    inst, state.alloc, state.order, state.cuts
                )
                assert units.primary == primary
                assert units.secondary == secondary
                crossed += sum(
                    1
                    for i in range(inst.n)
                    if len(inst.neighbors(i)) > 1 and primary[i] != secondary[i]
                )
                if phase2_step(state) is None:
                    break
    assert crossed > 0


def test_pair_state_splits_the_pair_goods():
    inst = additive_instance(
        3,
        [(0, 1, {0: 5, 1: 5}), (0, 1, {0: 3, 1: 3}), (0, 1, {0: 2, 1: 2}), (1, 2, {})],
    )
    alloc, order, cuts = make_state(inst, [0, 1, 2])
    alloc.set_bundle(0, frozenset({0}))
    alloc.set_bundle(2, frozenset({1}))  # a third party holds good 1
    cut, goods, held_0, held_1, free = pair_state(inst, alloc, order, cuts, 0, 1)
    assert cut == cuts.cut(0, 1, 1)
    assert goods == frozenset({0, 1, 2})
    assert (held_0, held_1, free) == (frozenset({0}), frozenset(), frozenset({2}))
