import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import (
    Allocation,
    check_efx,
    check_completeness,
    check_properties,
    envy_graph,
    run_phase1,
    run_phase2,
    solve_state,
)
from trifree_efx.cuts import CutTable, PickOrder
from trifree_efx.generate import TOPOLOGIES, gen_instance, suite_spec
from trifree_efx.model import VALUATION_CLASSES
from trifree_efx.oracle import scan_strong_envy
from trifree_efx.verify import CheckReport, check_orientation

from helpers import additive_instance, two_agent_parallel


# -- check_efx -----------------------------------------------------------------


def test_efx_empty_allocation_passes():
    inst = two_agent_parallel([5, 3, 3])
    assert check_efx(inst, Allocation(2)).ok


def test_efx_balanced_split_passes():
    inst = two_agent_parallel([5, 3, 3])
    alloc = Allocation.from_bundles(2, [{0}, {1, 2}])
    assert check_efx(inst, alloc).ok


def test_efx_unbalanced_split_fails_with_witness():
    inst = two_agent_parallel([5, 3, 3])
    alloc = Allocation.from_bundles(2, [{1}, {0, 2}])
    report = check_efx(inst, alloc)
    assert not report.ok
    # dropping the second 3 still leaves the 5, beating agent 0's own 3
    assert (0, 1, 2) in report.violations


def test_envy_graph_strong_flags():
    inst = two_agent_parallel([5, 3, 3])
    alloc = Allocation.from_bundles(2, [{1}, {0, 2}])
    graph = envy_graph(inst, alloc)
    assert [(e.src, e.dst, e.strong) for e in graph.edges] == [(0, 1, True)]


# -- orientation / completeness ---------------------------------------------------


def test_orientation_checks():
    inst = additive_instance(3, [(0, 1, {0: 1, 1: 1}), (1, 2, {1: 1, 2: 1})])
    assert check_orientation(inst, Allocation(3)).ok
    good_side = Allocation.from_bundles(3, [{0}, {1}, set()])
    assert check_orientation(inst, good_side).ok
    stray = Allocation.from_bundles(3, [{1}, set(), set()])  # good 1 not incident to 0
    report = check_orientation(inst, stray)
    assert report.violations == [(0, 1)]


def test_completeness_reports_missing_goods():
    inst = two_agent_parallel([1, 1])
    report = check_completeness(inst, Allocation.from_bundles(2, [{0}, set()]))
    assert report.violations == [(1,)]


# -- property (4): envy paths -------------------------------------------------------


def property4(inst, alloc):
    order = PickOrder.complete(range(inst.n))
    return check_properties(inst, alloc, order, CutTable(inst), which={4})


def test_envy_path_lengths():
    inst = additive_instance(
        3,
        [
            (0, 1, {0: 5, 1: 5}),
            (1, 2, {1: 5, 2: 5}),
        ],
    )
    assert property4(inst, Allocation(3)).ok
    # a star: 0 and 2 both envy 1, and nobody envies them
    star = Allocation.from_bundles(3, [set(), {0, 1}, set()])
    assert property4(inst, star).ok
    # chain: 0 envies 1 (has good 0), 1 envies 2 (has good 1, worth more)
    inst2 = additive_instance(
        3,
        [
            (0, 1, {0: 5, 1: 1}),
            (1, 2, {1: 9, 2: 9}),
        ],
    )
    chain = Allocation.from_bundles(3, [set(), {0}, {1}])
    assert property4(inst2, chain).failures == {4: [(0, 1, 2)]}


def test_mutual_envy_counts_as_length_two():
    # each agent holds the good the other one wants
    inst = additive_instance(
        2,
        [
            (0, 1, {0: 5, 1: 0}),
            (0, 1, {0: 0, 1: 5}),
        ],
    )
    alloc = Allocation.from_bundles(2, [{1}, {0}])
    assert property4(inst, alloc).failures == {4: [(1, 0, 1)]}


# -- single-envier structure --------------------------------------------------------


def check_envied_by_one(instance, alloc):
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


def test_envied_by_one_on_solver_outputs():
    for idx in range(80):
        inst = gen_instance(suite_spec("tree", idx))
        state = run_phase1(inst)
        assert check_envied_by_one(inst, state.alloc).ok


def test_envied_by_one_flags_stray_holdings():
    # agent 0 is envied by 1 but holds a good outside their shared pair
    inst = additive_instance(
        3,
        [
            (0, 1, {0: 5, 1: 5}),
            (0, 2, {0: 1, 2: 0}),
        ],
    )
    alloc = Allocation.from_bundles(3, [{0, 1}, set(), set()])
    report = check_envied_by_one(inst, alloc)
    assert not report.ok
    assert (0, 1, 1) in report.violations


def test_envied_by_one_empty_allocation_passes():
    inst = two_agent_parallel([1])
    assert check_envied_by_one(inst, Allocation(2)).ok


def test_envied_by_one_flags_double_envier():
    # both leaves envy the centre, which an EFX orientation can never allow
    inst = additive_instance(
        3,
        [
            (0, 1, {0: 3, 1: 3}),
            (0, 2, {0: 3, 2: 3}),
        ],
    )
    alloc = Allocation.from_bundles(3, [{0, 1}, set(), set()])
    report = check_envied_by_one(inst, alloc)
    assert not report.ok
    assert (0, (1, 2)) in report.violations


# -- numbered properties -------------------------------------------------------------


def test_properties_after_each_phase():
    for idx in range(40):
        inst = gen_instance(suite_spec("c4_girth", idx))
        state = run_phase1(inst)
        rep1 = check_properties(inst, state.alloc, state.order, state.cuts, {1, 2, 3, 4})
        assert rep1.ok, rep1.summary()
        run_phase2(state)
        rep2 = check_properties(inst, state.alloc, state.order, state.cuts)
        assert rep2.ok, rep2.summary()


def test_property2_flags_torn_unit_bundle():
    inst = two_agent_parallel([5, 3, 3])
    order = PickOrder.complete([0, 1])
    cuts = CutTable(inst)
    alloc = Allocation.from_bundles(2, [set(), {1}])  # half of the {3,3} part
    report = check_properties(inst, alloc, order, cuts, {2})
    assert not report.ok and 2 in report.failures


def test_property3_flags_valuable_free_bundle():
    inst = two_agent_parallel([5, 3, 3])
    order = PickOrder.complete([0, 1])
    cuts = CutTable(inst)
    alloc = Allocation(2)  # nothing allocated but both parts are worth > 0
    report = check_properties(inst, alloc, order, cuts, {3})
    assert not report.ok and 3 in report.failures


def test_property_report_serialisation():
    inst = two_agent_parallel([1])
    order = PickOrder.complete([0, 1])
    report = check_properties(inst, Allocation(2), order, CutTable(inst), {1, 4})
    data = report.to_dict()
    assert data["ok"] is True
    assert data["checked"] == [1, 4]


# -- the envy relation against its definition ------------------------------------


def envy_definition(inst, alloc):
    """The envy relation written out over every ordered pair of agents."""
    edges = []
    for i in range(inst.n):
        v = inst.valuations[i].value
        own = v(alloc.bundle(i))
        for j in range(inst.n):
            other = alloc.bundle(j)
            if j != i and v(other) > own:
                strong = any(v(other - {g}) > own for g in other)
                edges.append((i, j, strong))
    return edges


def edge_list(graph):
    return [(e.src, e.dst, e.strong) for e in graph.edges]


@given(
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(VALUATION_CLASSES),
    st.integers(0, 10_000),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_envy_graph_matches_definition_on_random_allocations(
    topology, valuation_class, index, data
):
    spec = suite_spec(
        topology, index, valuation_class=valuation_class, v_max=20, max_degree=10
    )
    inst = gen_instance(spec)
    assert all(len(inst.incident_goods(i)) <= 16 for i in range(inst.n))
    # each good goes to any agent (endpoint or not) or stays unallocated
    owners = data.draw(
        st.lists(st.integers(-1, inst.n - 1), min_size=inst.m, max_size=inst.m)
    )
    alloc = Allocation.from_bundles(
        inst.n, [[g for g, o in enumerate(owners) if o == i] for i in range(inst.n)]
    )
    edges = edge_list(envy_graph(inst, alloc))
    assert edges == envy_definition(inst, alloc)
    assert [(i, j) for i, j, strong in edges if strong] == scan_strong_envy(inst, alloc)


@pytest.mark.parametrize("topology, index", [("bipartite", 7), ("cycle_even", 4)])
def test_envy_graph_matches_definition_on_solver_output(topology, index):
    # the cycle's final allocation keeps three (non-strong) envy edges
    inst = gen_instance(suite_spec(topology, index))
    result, _ = solve_state(inst)
    graph = envy_graph(inst, result.allocation)
    assert edge_list(graph) == envy_definition(inst, result.allocation)
