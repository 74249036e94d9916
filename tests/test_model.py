import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import (
    AdditiveValuation,
    Allocation,
    Good,
    Instance,
    MonotoneTableValuation,
    TransformedAdditiveValuation,
    ValidationError,
)

from trifree_efx.generate import TOPOLOGIES, gen_adversarial_suite, gen_instance, suite_spec
from trifree_efx.verify import check_orientation

from helpers import additive_instance, two_agent_parallel


def star_instance(leaves=5, parallel=1, weight=1):
    rows = []
    for leaf in range(1, leaves + 1):
        for _ in range(parallel):
            rows.append((0, leaf, {0: weight, leaf: weight}))
    return additive_instance(leaves + 1, rows)


# -- value -------------------------------------------------------------------


def test_value_singleton_additive():
    inst = two_agent_parallel([5])
    assert inst.valuations[0].value(frozenset({0})) == 5


def test_value_empty_set_is_zero():
    inst = two_agent_parallel([5, 3])
    for agent in range(2):
        assert inst.valuations[agent].value(frozenset()) == 0


def test_value_drops_non_incident_goods():
    # agent 0 sees goods 0 and 1; good 2 lives between agents 1 and 2
    inst = additive_instance(
        3,
        [
            (0, 1, {0: 3, 1: 1}),
            (0, 1, {0: 4, 1: 1}),
            (1, 2, {1: 2, 2: 9}),
        ],
    )
    assert inst.valuations[0].value(frozenset({0, 1, 2})) == 7
    assert inst.valuations[0].value(frozenset({2})) == 0


# -- skeleton / triangle probes ----------------------------------------------


def test_skeleton_collapses_parallel_edges():
    inst = two_agent_parallel([1, 1, 1])
    assert inst.skeleton_edges() == [(0, 1)]


def test_skeleton_c4():
    inst = additive_instance(
        4,
        [
            (0, 1, {}),
            (1, 2, {}),
            (2, 3, {}),
            (0, 3, {}),
        ],
    )
    assert inst.skeleton_edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert inst.is_triangle_free()


def test_skeleton_empty():
    inst = Instance(3, [], [AdditiveValuation(i, {}) for i in range(3)])
    assert inst.skeleton_edges() == []
    assert inst.is_triangle_free()


def test_triangle_detected():
    inst = additive_instance(3, [(0, 1, {}), (1, 2, {}), (0, 2, {})])
    assert not inst.is_triangle_free()
    assert inst.find_triangle() == (0, 1, 2)


def test_star_with_parallel_edges_is_triangle_free():
    inst = star_instance(leaves=5, parallel=3)
    assert inst.is_triangle_free()


# -- incidence ----------------------------------------------------------------


def test_star_center_sees_all_goods():
    inst = star_instance(leaves=4, parallel=2)
    assert inst.incident_goods(0) == inst.all_goods


def test_pair_goods_non_adjacent_empty():
    inst = star_instance(leaves=3)
    assert inst.pair_goods(1, 2) == frozenset()


def test_pair_goods_symmetric():
    inst = two_agent_parallel([1, 1, 1])
    assert inst.pair_goods(0, 1) == frozenset({0, 1, 2})
    assert inst.pair_goods(1, 0) == inst.pair_goods(0, 1)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_neighbors_match_the_goods_definition(topology):
    # the pair map gives each agent's neighbours; check it against the
    # written-out rule: the other endpoints of the goods incident to her
    instances = [gen_instance(suite_spec(topology, idx)) for idx in range(20)]
    instances += [inst for _, inst in gen_adversarial_suite()]
    for inst in instances:
        for i in range(inst.n):
            expected = sorted({g.v if g.u == i else g.u for g in inst.goods if i in (g.u, g.v)})
            assert inst.neighbors(i) == tuple(expected)


# -- construction and validation ----------------------------------------------


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        Instance(2, [Good(0, 1, 1)], [AdditiveValuation(0, {}), AdditiveValuation(1, {0: 1})])


def test_good_ids_must_be_dense():
    with pytest.raises(ValidationError):
        Instance(
            2,
            [Good(1, 0, 1)],
            [AdditiveValuation(0, {1: 1}), AdditiveValuation(1, {1: 1})],
        )


def test_valuation_incidence_must_match():
    goods = [Good(0, 0, 1)]
    with pytest.raises(ValidationError):
        Instance(2, goods, [AdditiveValuation(0, {}), AdditiveValuation(1, {0: 1})])


def test_valuation_owner_must_match_position():
    goods = [Good(0, 0, 1)]
    with pytest.raises(ValidationError):
        Instance(2, goods, [AdditiveValuation(1, {0: 1}), AdditiveValuation(1, {0: 1})])


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        AdditiveValuation(0, {0: -1})


def test_transform_must_start_at_zero():
    with pytest.raises(ValidationError):
        TransformedAdditiveValuation(0, {0: 2}, [1, 2, 3])


def test_transform_must_increase():
    with pytest.raises(ValidationError):
        TransformedAdditiveValuation(0, {0: 2}, [0, 1, 1])


def test_transform_must_cover_weight_sum():
    with pytest.raises(ValidationError):
        TransformedAdditiveValuation(0, {0: 2, 1: 2}, [0, 1, 2])


def test_monotone_table_size_checked():
    with pytest.raises(ValidationError):
        MonotoneTableValuation(0, [0, 1], [0, 1, 2])


def test_monotone_table_empty_set_zero():
    with pytest.raises(ValidationError):
        MonotoneTableValuation(0, [0], [1, 2])


def test_monotone_table_monotonicity_checked():
    with pytest.raises(ValidationError):
        MonotoneTableValuation(0, [0, 1], [0, 5, 3, 4])


def test_monotone_table_degree_cap():
    with pytest.raises(ValidationError):
        MonotoneTableValuation(0, list(range(21)), [0] * (1 << 21))


# -- allocation ---------------------------------------------------------------


def test_allocation_disjointness_enforced_on_parse():
    with pytest.raises(ValidationError):
        Allocation.from_bundles(2, [{0}, {0}])


def test_allocation_set_bundle_moves_ownership():
    alloc = Allocation(2)
    alloc.set_bundle(0, frozenset({0, 1}))
    assert not alloc.free_among([1]) and 1 in alloc.bundle(0)
    alloc.set_bundle(0, frozenset({0}))
    assert alloc.free_among([1]) == {1}
    alloc.set_bundle(1, frozenset({1}))
    assert alloc.bundle(1) == frozenset({1})


def test_allocation_set_bundle_rejects_taken_goods():
    from trifree_efx import InternalSolverError

    alloc = Allocation(2)
    alloc.set_bundle(0, frozenset({0}))
    with pytest.raises(InternalSolverError):
        alloc.set_bundle(1, frozenset({0}))


def test_allocation_complete_and_orientation():
    inst = two_agent_parallel([1, 2])
    alloc = Allocation.from_bundles(2, [{0}, {1}])
    assert alloc.is_complete(inst)
    assert check_orientation(inst, alloc).ok


# -- valuation class laws -----------------------------------------------------


@st.composite
def monotone_tables(draw):
    d = draw(st.integers(1, 5))
    base = draw(st.lists(st.integers(0, 30), min_size=1 << d, max_size=1 << d))
    table = [0] * (1 << d)
    for mask in range(1, 1 << d):
        best = base[mask]
        for b in range(d):
            if mask >> b & 1:
                best = max(best, table[mask ^ (1 << b)])
        table[mask] = best
    return MonotoneTableValuation(0, list(range(d)), table)


@given(monotone_tables(), st.data())
@settings(max_examples=200)
def test_monotone_table_is_monotone_on_random_pairs(val, data):
    goods = sorted(val.incident)
    small = frozenset(data.draw(st.sets(st.sampled_from(goods))))
    grow = data.draw(st.sets(st.sampled_from(goods)))
    large = small | grow
    assert val.value(small) <= val.value(large)


@st.composite
def additive_like(draw):
    d = draw(st.integers(1, 6))
    weights = {g: draw(st.integers(0, 20)) for g in range(d)}
    if draw(st.booleans()):
        return AdditiveValuation(0, weights)
    total = sum(weights.values())
    transform = [0]
    for _ in range(total):
        transform.append(transform[-1] + draw(st.integers(1, 3)))
    return TransformedAdditiveValuation(0, weights, transform)


@given(additive_like(), st.data())
@settings(max_examples=300)
def test_cancelable_law(val, data):
    goods = sorted(val.incident)
    s = frozenset(data.draw(st.sets(st.sampled_from(goods))))
    t = frozenset(data.draw(st.sets(st.sampled_from(goods))))
    free = sorted(set(goods) - s - t)
    if not free:
        return
    g = data.draw(st.sampled_from(free))
    if val.value(s | {g}) > val.value(t | {g}):
        assert val.value(s) > val.value(t)


@given(additive_like(), st.data())
@settings(max_examples=300)
def test_value_equals_the_naive_incident_sum(val, data):
    """Both branches of the additive kernel (a bundle smaller than the
    degree walks the bundle, a larger one walks the weights) equal the sum
    of the incident goods' weights, with non-incident goods mixed in."""
    goods = sorted(val.incident)
    d = len(goods)
    inside = data.draw(st.lists(st.sampled_from(goods), unique=True, max_size=d - 1))
    outside = list(range(100, 100 + 2 * d))
    few = data.draw(st.integers(0, d - 1 - len(inside)))
    small = frozenset(inside + outside[:few])
    large = frozenset(inside + outside[: d - len(inside) + data.draw(st.integers(0, d))])
    assert len(small) < d <= len(large)
    for bundle in (small, large):
        raw = sum(val.weights[g] for g in bundle if g in val.incident)
        naive = raw if type(val) is AdditiveValuation else val.transform[raw]
        assert val.value(bundle) == naive


@given(additive_like(), st.data())
@settings(max_examples=200)
def test_value_locality(val, data):
    # evaluating any superset collapses to the incident part
    inside = frozenset(data.draw(st.sets(st.sampled_from(sorted(val.incident)))))
    outside = frozenset(data.draw(st.sets(st.integers(100, 120))))
    assert val.value(inside | outside) == val.value(inside)
