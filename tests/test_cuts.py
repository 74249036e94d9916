import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import (
    AdditiveValuation,
    Allocation,
    MonotoneTableValuation,
    TransformedAdditiveValuation,
    StateError,
    check_properties,
    efx_cut,
    pair_state,
)
from trifree_efx import cuts
from trifree_efx.cuts import (
    CutTable,
    PickOrder,
    _additive_split_ok,
    _efx_cut_with_moves,
    _feasibility_witness,
    claimable,
    free_units,
    pair_fault,
)
from trifree_efx.generate import GenSpec, gen_instance, suite_spec
from trifree_efx.phase1 import run_phase1
from trifree_efx.phase2 import phase2_step

from helpers import additive_instance, scratch_check, two_agent_parallel


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


# weights 0..40 with ties and zeros made likely
split_weights = st.lists(
    st.one_of(st.integers(0, 40), st.sampled_from((0, 1, 7))), min_size=1, max_size=9
)


@given(split_weights, st.data())
@settings(max_examples=400)
def test_additive_split_check_matches_the_witness_search(weights, data):
    """The O(k) verdict equals the subset-wise witness search on an arbitrary
    two-part split, feasible or not, for additive and transformed cutters."""
    w = dict(enumerate(weights))
    steps = random.Random(data.draw(st.integers(0, 2**32))).choices(range(1, 5), k=sum(weights))
    transform = [0]
    for step in steps:
        transform.append(transform[-1] + step)
    sides = data.draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
    p1 = frozenset(g for g in w if sides[g])
    p2 = frozenset(w) - p1
    fast = _additive_split_ok(w, p1, p2)
    for valuation in (AdditiveValuation(0, w), TransformedAdditiveValuation(0, w, transform)):
        assert fast == (_feasibility_witness(valuation.value, p1, p2) is None)


def test_only_monotone_tables_take_the_local_search(monkeypatch):
    """An additive or transformed cutter's greedy split is decided by the
    O(k) check alone; a monotone table runs the local search and the
    subset-wise post-check, and so does an additive split failing the
    check."""
    calls = {"_rebalance": 0, "_feasibility_witness": 0}
    for name in calls:
        original = getattr(cuts, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cuts, name, counted)
    for valuation_class in ("additive", "transformed_additive"):
        inst = gen_instance(
            GenSpec(seed=3, n=2, m=9, topology="path", valuation_class=valuation_class,
                    max_parallel=9)
        )
        for cutter in (0, 1):
            (p1, p2), moves = _efx_cut_with_moves(inst, cutter, inst.pair_goods(0, 1))
            assert moves == 0 and p1 | p2 == inst.pair_goods(0, 1)
    assert calls == {"_rebalance": 0, "_feasibility_witness": 0}
    tables = gen_instance(
        GenSpec(seed=5, n=2, m=6, topology="path", valuation_class="monotone_table",
                max_parallel=6)
    )
    _efx_cut_with_moves(tables, 0, tables.pair_goods(0, 1))
    assert calls == {"_rebalance": 1, "_feasibility_witness": 1}
    # an infeasible initial split of additive weights falls back to the search
    inst = two_agent_parallel([5, 3, 3])
    monkeypatch.setattr(cuts, "_largest_first_split", lambda w, goods: (set(goods), set()))
    (p1, p2), moves = _efx_cut_with_moves(inst, 0, inst.pair_goods(0, 1))
    assert moves > 0 and is_feasible_split(inst.valuations[0].value, p1, p2)
    assert calls == {"_rebalance": 2, "_feasibility_witness": 2}


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


def test_cut_table_miss_costs_what_the_split_costs(monkeypatch):
    # one 16-good pair of monotone tables: a miss must not scan its subsets
    inst = gen_instance(
        GenSpec(
            seed=5,
            n=2,
            m=16,
            topology="path",
            valuation_class="monotone_table",
            max_parallel=16,
            v_max=1000,
        )
    )
    goods = inst.pair_goods(0, 1)
    assert len(goods) == 16
    for cutter in (0, 1):
        calls = count_value_calls(monkeypatch, inst.valuations[cutter])
        _efx_cut_with_moves(inst, cutter, goods)
        split_calls = len(calls)
        calls.clear()
        CutTable(inst).cut(0, 1, cutter)
        assert len(calls) == split_calls


def count_value_calls(monkeypatch, valuation):
    """Record every bundle ``valuation.value`` is asked about."""
    calls = []
    value = valuation.value

    def counted(goods):
        calls.append(goods)
        return value(goods)

    monkeypatch.setattr(valuation, "value", counted)
    return calls


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


def test_lowest_unplaced_stays_on_its_agent_until_she_is_placed():
    order = PickOrder(3)
    order.append_front(1)
    assert [order.lowest_unplaced() for _ in range(2)] == [0, 0]
    order.prepend_back(0)
    assert order.lowest_unplaced() == 2


@given(st.data())
@settings(max_examples=200)
def test_pick_order_precedes_matches_front_unplaced_back(data):
    n = data.draw(st.integers(1, 8))
    agents = data.draw(st.permutations(range(n)))
    to_front = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    order = PickOrder(n)
    front: list[int] = []
    back: list[int] = []  # in sigma order

    def slot(i):
        # (segment, position): the front, then the unplaced middle, then the back
        if i in front:
            return (0, front.index(i))
        if i in back:
            return (2, back.index(i))
        return (1, 0)

    for i, at_front in zip(agents, to_front):
        if at_front:
            order.append_front(i)
            front.append(i)
        else:
            order.prepend_back(i)
            back.insert(0, i)
        if order.unplaced:
            assert order.lowest_unplaced() == min(order.unplaced)
        else:
            with pytest.raises(StateError):
                order.lowest_unplaced()
        for a in range(n):
            for b in range(n):
                if slot(a)[0] == slot(b)[0] == 1:
                    assert not order.determined(a, b)
                    with pytest.raises(StateError):
                        order.precedes(a, b)
                else:
                    assert order.determined(a, b)
                    assert order.precedes(a, b) == (slot(a) < slot(b))
                    assert order.later(a, b) == (b if slot(a) < slot(b) else a)
    sigma = order.full_order()
    assert sigma == front + back
    for a in range(n):
        for b in range(n):
            assert order.precedes(a, b) == (sigma.index(a) < sigma.index(b))


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


def _three_agents_two_pairs():
    return additive_instance(
        3, [(0, 1, {0: 5, 1: 5}), (0, 1, {0: 3, 1: 3}), (1, 2, {1: 1, 2: 1})]
    )


@pytest.mark.parametrize(
    "make, bundles, fault",
    [
        # agent 1 holds half of the {3,3} part
        (lambda: two_agent_parallel([5, 3, 3]), [set(), {1}], (0, 1, "torn-unit-bundle", 1)),
        # each endpoint holds half of it: the lower id is named, from either side
        (lambda: two_agent_parallel([5, 3, 3]), [{1}, {2}], (0, 1, "torn-unit-bundle", 0)),
        # agent 2 holds a good of pair (0,1); a held-outside good outranks a torn part
        (_three_agents_two_pairs, [set(), set(), {0}], (0, 1, "held-outside-pair", 0)),
        (_three_agents_two_pairs, [{1}, set(), {0, 2}], (0, 1, "held-outside-pair", 0)),
        # whole unit bundles on the endpoints: sound
        (lambda: two_agent_parallel([5, 3, 3]), [{0}, {1, 2}], None),
    ],
    ids=["torn", "both-torn", "third-party", "third-party-and-torn", "sound"],
)
def test_claimable_and_property_2_report_the_same_pair_fault(make, bundles, fault):
    inst = make()
    alloc = Allocation.from_bundles(inst.n, bundles)
    order, cuts = PickOrder.complete(list(range(inst.n))), CutTable(inst)
    for a, b in ((0, 1), (1, 0)):
        assert pair_fault(a, b, pair_state(inst, alloc, order, cuts, a, b)) == fault
    report = check_properties(inst, alloc, order, cuts).only({2})
    assert report.failures == ({} if fault is None else {2: [fault]})
    for i, j in ((0, 1), (1, 0)):
        if fault is None:
            claimable(inst, alloc, order, cuts, i, j)
            continue
        with pytest.raises(StateError) as exc:
            claimable(inst, alloc, order, cuts, i, j)
        assert str(exc.value) == (
            "pair (%d,%d) is not whole unit bundles on its endpoints: %s %d" % fault
        )


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
            part for part in cut.parts() if alloc.free_among(part) == part
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
                if phase2_step(state, scan=scratch_check(state)) is None:
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
