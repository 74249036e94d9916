import pytest

from trifree_efx import (
    Allocation,
    SolveConfig,
    check_properties,
    envy_graph,
    pair_state,
    run_phase1,
    run_phase2,
    solve,
)
from trifree_efx import phase2
from trifree_efx.cuts import CutTable, PickOrder
from trifree_efx.errors import InternalSolverError
from trifree_efx.phase1 import SolveMetrics, SolverState
from trifree_efx.phase2 import Potential, _scan, phase2_step, unallocated_incident
from trifree_efx.generate import gen_adversarial_suite, gen_instance, suite_spec

from helpers import additive_instance, two_agent_parallel


def step_cap(inst):
    """The most repair steps ``run_phase2`` allows, as it computes them."""
    return max(1, inst.n**3)


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
    for _ in range(step_cap(inst) + 1):
        loose_before = unallocated_incident(state, hub)
        record = phase2_step(state)
        if record is None:
            break
        if record.branch == "B":
            seen_b = True
            assert record.agent == hub
            # everything that was loose beside the hub is hers afterwards
            assert loose_before <= state.alloc.bundle(hub)
    else:
        pytest.fail(f"stage two ran past its cap of {step_cap(inst)} steps")
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
    trail = [Potential.of(_scan(state))]
    for _ in range(step_cap(inst) + 1):
        if phase2_step(state) is None:
            break
        trail.append(Potential.of(_scan(state)))
    else:
        pytest.fail(f"stage two ran past its cap of {step_cap(inst)} steps")
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


def structure_report(state):
    """Classify every adjacent pair by envy status and assert its free-good
    pattern (assumes properties (1)-(5)).

    * both endpoints non-envied: nothing of the pair is free;
    * an envied agent and her envier: nothing free;
    * an envied agent and a non-envied non-envier: the free goods form
      exactly one unit bundle;
    * two envied agents: the whole pair is free.
    """
    instance, alloc = state.instance, state.alloc
    graph = envy_graph(instance, alloc)
    envied = set(graph.envied_agents())
    out = []
    for a, b in instance.skeleton_edges():
        cut, goods, _, _, free = pair_state(instance, alloc, state.order, state.cuts, a, b)
        if a not in envied and b not in envied:
            case = "both-non-envied"
            ok = not free
        elif a in envied and b in envied:
            case = "both-envied"
            ok = free == goods
        else:
            i = a if a in envied else b
            j = b if a in envied else a
            if j in graph.enviers_of(i):
                case = "envied-with-envier"
                ok = not free
            else:
                case = "envied-beside-non-envier"
                ok = free in cut.parts()
        assert ok, f"pair ({a},{b}) breaks the {case} free-good pattern: free={sorted(free)}"
        out.append(((a, b), case))
    return out


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
        structure_report(state)  # asserts every pair's pattern


# -- one free-bundle property failing at a time ---------------------------------------

# Each state below is a complete-order orientation satisfying (1)-(4) in
# which exactly one of (5)-(7) fails; every pair has two goods, so its unit
# bundles are single goods whoever cuts it.
ONLY_5 = (
    3,
    [
        (0, 1, {0: 5, 1: 1}),  # g0: held by 0
        (0, 1, {0: 5, 1: 1}),  # g1: free, agent 1's primary label
        (1, 2, {1: 10, 2: 10}),  # g2: held by 1
        (1, 2, {1: 10, 2: 10}),  # g3: held by 2
    ],
    [[0], [2], [3]],
)
ONLY_6 = (
    5,
    [
        (0, 1, {0: 2, 1: 1}),  # g0: held by 0
        (0, 1, {0: 3, 1: 1}),  # g1: free
        (0, 3, {0: 2, 3: 1}),  # g2: held by 0
        (0, 3, {0: 3, 3: 1}),  # g3: free; g1 + g3 beat agent 0's bundle
        (1, 2, {1: 10, 2: 5}),  # g4: held by 1, envied by 2
        (1, 2, {1: 1, 2: 1}),  # g5: held by 2
        (3, 4, {3: 10, 4: 5}),  # g6: held by 3, envied by 4
        (3, 4, {3: 1, 4: 1}),  # g7: held by 4
    ],
    [[0, 2], [4], [5], [6], [7]],
)
ONLY_7 = (
    3,
    [
        (0, 1, {0: 4, 1: 2}),  # g0: held by 0
        (0, 1, {0: 4, 1: 3}),  # g1: free, both of agent 1's labels
        (1, 2, {1: 5, 2: 6}),  # g2: held by 1, envied by 2
        (1, 2, {1: 3, 2: 2}),  # g3: held by 2; g3 + g1 beat agent 1's bundle
    ],
    [[0], [2], [3]],
)


def hand_state(n, rows, bundles) -> SolverState:
    instance = additive_instance(n, rows)
    state = SolverState(
        instance, Allocation(n), PickOrder.complete(list(range(n))), CutTable(instance)
    )
    for i, goods in enumerate(bundles):
        state.alloc.set_bundle(i, goods)
    return state


@pytest.mark.parametrize(
    "case, prop, branch, agent, partner",
    [(ONLY_5, 5, "A", 1, None), (ONLY_6, 6, "B", 0, None), (ONLY_7, 7, "C", 1, 2)],
    ids=["5", "6", "7"],
)
def test_one_failing_free_bundle_property_picks_its_rule(case, prop, branch, agent, partner):
    state = hand_state(*case)
    inst = state.instance
    report = check_properties(inst, state.alloc, state.order, state.cuts)
    assert report.failed_properties() == [prop]
    assert report.failures[prop][0][0] == agent
    record = phase2_step(state)
    assert (record.branch, record.agent, record.partner) == (branch, agent, partner)
    run_phase2(state)
    assert check_properties(inst, state.alloc, state.order, state.cuts).ok


# -- a broken orientation inside stage two ---------------------------------------------


@pytest.mark.parametrize("validate", [True, False])
def test_rule_giving_a_third_party_pair_goods_is_an_internal_error(monkeypatch, validate):
    # rule A hands the absorbed free bundle to an agent outside its pair;
    # the stage-two checks must report that as a broken guarantee, not as a
    # caller error
    def misplace(state, scan, i):
        goods = scan.units.primary[i]
        ends = {end for g in goods for end in (inst.goods[g].u, inst.goods[g].v)}
        outsider = min(k for k in range(inst.n) if k not in ends)
        state.alloc.set_bundle(outsider, state.alloc.bundle(outsider) | goods)

    inst = adversarial("star_two_leaves")
    monkeypatch.setattr(phase2, "_apply_rule_a", misplace)
    with pytest.raises(InternalSolverError) as err:
        solve(inst, SolveConfig(validate_steps=validate))
    if validate:
        assert "(2) x1" in str(err.value)
