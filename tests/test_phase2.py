from trifree_efx import (
    check_properties,
    envy_graph,
    phase2_step,
    run_phase1,
    run_phase2,
    structure_report,
    unallocated_incident,
)
from trifree_efx.phase1 import SolveMetrics
from trifree_efx.phase2 import Potential, _scan
from trifree_efx.generate import gen_adversarial_suite, gen_instance, suite_spec

from helpers import two_agent_parallel


def adversarial(name):
    for key, inst in gen_adversarial_suite():
        if key == name:
            return inst
    raise KeyError(name)


# -- leftover goods per agent -----------------------------------------------------


def test_unallocated_incident_cases():
    inst = two_agent_parallel([5, 3, 3])
    state = run_phase1(inst)
    # phase one allocated everything here
    assert unallocated_incident(state, 0) == frozenset()
    assert unallocated_incident(state, 1) == frozenset()


def test_unallocated_incident_full_and_partial():
    from trifree_efx.phase1 import SolverState

    inst = two_agent_parallel([5, 3, 3])
    state = SolverState.fresh(inst)
    assert unallocated_incident(state, 0) == inst.incident_goods(0)
    state.order.append_front(0)
    state.order.prepend_back(1)
    cut = state.cuts.cut(0, 1, 1)
    state.alloc.set_bundle(0, cut.first)
    assert unallocated_incident(state, 0) == cut.second


# -- single repair steps ------------------------------------------------------------


def test_fixed_point_returns_done_with_no_mutation():
    inst = two_agent_parallel([5, 3, 3])
    state = run_phase1(inst)
    run_phase2(state)
    before = state.alloc.bundles()
    assert phase2_step(state) is None
    assert state.alloc.bundles() == before


def test_rule_a_absorbs_free_sibling():
    # the star instance's first repair is the centre absorbing the free
    # sibling bundle next to an envied neighbour
    inst = adversarial("star_two_leaves")
    state = run_phase1(inst)
    record = phase2_step(state)
    assert record.branch == "A"
    assert record.agent == 0
    # she now holds a bundle in each of her two pairs
    assert state.alloc.bundle(0) & inst.pair_goods(0, 1)
    assert state.alloc.bundle(0) & inst.pair_goods(0, 2)


def test_rule_c_swap_makes_agent_non_envied():
    inst = adversarial("swap_repair")
    state = run_phase1(inst)
    graph = envy_graph(inst, state.alloc)
    assert graph.enviers_of(1) == [0]
    record = phase2_step(state)
    assert record.branch == "C"
    assert (record.agent, record.partner) == (1, 0)
    after = envy_graph(inst, state.alloc)
    assert 1 not in after.envied_agents()
    assert 0 not in after.envied_agents()


def test_rule_b_trades_held_bundles_for_leftovers():
    inst = adversarial("hub_trade")
    state = run_phase1(inst)
    hub = 1
    seen_b = False
    while True:
        loose_before = unallocated_incident(state, hub)
        record = phase2_step(state)
        if record is None:
            break
        if record.branch == "B":
            seen_b = True
            assert record.agent == hub
            # everything that was loose beside the hub is hers afterwards
            assert loose_before <= state.alloc.bundle(hub)
    assert seen_b


# -- the full repair loop --------------------------------------------------------------


def test_no_goods_means_zero_iterations():
    from trifree_efx import AdditiveValuation, Instance

    inst = Instance(3, [], [AdditiveValuation(i, {}) for i in range(3)])
    state = run_phase1(inst)
    metrics = SolveMetrics()
    run_phase2(state, metrics=metrics)
    assert metrics.phase2_iterations == 0


def test_fixed_point_means_zero_iterations():
    inst = two_agent_parallel([5, 3, 3])
    state = run_phase1(inst)
    metrics = SolveMetrics()
    run_phase2(state, metrics=metrics)
    assert metrics.phase2_iterations == 0


def test_potential_descends_lexicographically():
    inst = adversarial("hub_trade")
    state = run_phase1(inst)
    trail = [_scan(state).potential]
    while phase2_step(state) is not None:
        trail.append(_scan(state).potential)
    for before, after in zip(trail, trail[1:]):
        assert after < before
    assert trail[-1] <= trail[0]


def test_iteration_bound_over_random_instances():
    for topo in ("tree", "c4_girth", "bipartite"):
        for idx in range(80):
            inst = gen_instance(suite_spec(topo, idx))
            state = run_phase1(inst)
            metrics = SolveMetrics()
            run_phase2(state, metrics=metrics)
            assert metrics.phase2_iterations <= inst.n**3
            report = check_properties(inst, state.alloc, state.order, state.cuts)
            assert report.ok, report.summary()


def test_potential_tuple_ordering():
    assert Potential(1, 0, 0) < Potential(2, 0, 0)
    assert Potential(1, 0, 5) < Potential(1, 1, 0)
    assert Potential(1, 1, 0) < Potential(1, 1, 1)


# -- pair structure after repairs ---------------------------------------------------


def test_structure_classes_cover_all_four_cases():
    seen = set()
    for name, inst in gen_adversarial_suite():
        state = run_phase1(inst)
        run_phase2(state)
        for _, case in structure_report(state):
            seen.add(case)
    assert seen == {
        "both-non-envied",
        "both-envied",
        "envied-with-envier",
        "envied-beside-non-envier",
    }


def test_structure_report_on_random_instances():
    for idx in range(60):
        inst = gen_instance(suite_spec("cycle_even", idx))
        state = run_phase1(inst)
        run_phase2(state)
        structure_report(state)  # raises on any pattern violation
