import pytest

from trifree_efx import (
    AdditiveValuation,
    Instance,
    StateError,
    augment,
    check_invariants,
    check_properties,
    greedy_replay,
    run_phase1,
)
from trifree_efx.phase1 import SolveMetrics, SolverState
from trifree_efx.generate import gen_instance, suite_spec

from helpers import additive_instance, c4_instance, two_agent_parallel


# -- hand-traced augmentation rounds -------------------------------------------


def test_single_shared_good_trace():
    # one good between two agents, worth 1 to both: the front agent takes it,
    # the starter ends up with nothing
    inst = two_agent_parallel([1])
    state = run_phase1(inst)
    assert state.sigma() == [1, 0]
    assert state.alloc.bundle(1) == frozenset({0})
    assert state.alloc.bundle(0) == frozenset()


def test_five_three_three_trace():
    # the order-later agent cuts into ({5}, {3,3}); the front agent takes the
    # pair of threes (worth 6 to her), the cutter keeps the 5; nobody envies
    # strongly
    inst = two_agent_parallel([5, 3, 3])
    state = run_phase1(inst)
    assert state.sigma() == [1, 0]
    assert state.alloc.bundle(1) == frozenset({1, 2})
    assert state.alloc.bundle(0) == frozenset({0})


def test_single_agent_no_goods():
    inst = Instance(1, [], [AdditiveValuation(0, {})])
    state = run_phase1(inst)
    assert state.sigma() == [0]
    assert state.alloc.bundle(0) == frozenset()


def test_two_isolated_agents():
    # a starter with nothing of value to take resolves to herself, so each
    # isolated agent needs her own round and everyone ends empty-handed
    inst = Instance(2, [], [AdditiveValuation(0, {}), AdditiveValuation(1, {})])
    metrics = SolveMetrics()
    state = run_phase1(inst, metrics=metrics)
    assert metrics.augment_calls == 2
    assert metrics.empty_picks == 2
    assert all(state.alloc.bundle(i) == frozenset() for i in range(2))


def test_no_goods_properties_hold_vacuously():
    inst = Instance(3, [], [AdditiveValuation(i, {}) for i in range(3)])
    state = run_phase1(inst)
    assert sorted(state.sigma()) == [0, 1, 2]
    report = check_properties(inst, state.alloc, state.order, state.cuts, {1, 2, 3, 4})
    assert report.ok


def test_c4_output_satisfies_properties():
    inst = c4_instance({0: [5, 2], 1: [4, 4], 2: [(3, 7), (1, 1)], 3: [6]})
    state = run_phase1(inst)
    report = check_properties(inst, state.alloc, state.order, state.cuts, {1, 2, 3, 4})
    assert report.ok, report.summary()


def test_augment_requires_unplaced_agents():
    inst = two_agent_parallel([1])
    state = run_phase1(inst)
    with pytest.raises(StateError):
        augment(state)


def test_at_most_n_rounds_and_strict_progress():
    for idx in range(60):
        inst = gen_instance(suite_spec("bipartite", idx))
        metrics = SolveMetrics()
        state = SolverState.fresh(inst)
        rounds = 0
        while state.order.unplaced:
            before = len(state.order.unplaced)
            augment(state, metrics=metrics)
            assert len(state.order.unplaced) < before
            assert check_invariants(state) == []
            rounds += 1
        assert rounds <= inst.n


# -- invariant checker ------------------------------------------------------------


def test_initial_state_satisfies_all_invariants():
    inst = c4_instance({0: [3], 1: [2], 2: [4], 3: [1]})
    state = SolverState.fresh(inst)
    assert check_invariants(state) == []


def test_goods_touching_unplaced_agents_are_flagged():
    inst = additive_instance(
        3, [(0, 1, {0: 2, 1: 2}), (1, 2, {1: 2, 2: 2})]
    )
    state = SolverState.fresh(inst)
    state.order.append_front(1)
    # good 1 touches agent 2, which is still unplaced
    state.alloc.set_bundle(1, frozenset({1}))
    codes = {v.code for v in check_invariants(state)}
    assert 1 in codes


def test_unplaced_agent_with_goods_is_flagged():
    inst = two_agent_parallel([1])
    state = SolverState.fresh(inst)
    state.order.append_front(0)
    state.alloc.set_bundle(1, frozenset({0}))  # agent 1 is still unplaced
    codes = {v.code for v in check_invariants(state)}
    assert 2 in codes


def test_envy_between_back_agents_is_flagged():
    # both back agents share a pair; one of them holds the whole pair
    inst = two_agent_parallel([4, 4])
    state = SolverState.fresh(inst)
    state.order.prepend_back(0)
    state.order.prepend_back(1)
    state.alloc.set_bundle(0, frozenset({0, 1}))
    codes = {v.code for v in check_invariants(state)}
    assert 6 in codes  # 1 envies 0, both in the back


def test_strong_envy_is_flagged():
    inst = two_agent_parallel([5, 3, 3])
    state = SolverState.fresh(inst)
    state.order.append_front(0)
    state.order.prepend_back(1)
    state.alloc.set_bundle(1, frozenset({0, 1, 2}))
    codes = {v.code for v in check_invariants(state)}
    assert 4 in codes  # agent 0 strongly envies the full pile


# -- greedy replay ------------------------------------------------------------------


def test_greedy_replay_matches_construction():
    for topo in ("tree", "star", "cycle_even", "bipartite"):
        for idx in range(60):
            inst = gen_instance(suite_spec(topo, idx))
            state = run_phase1(inst, validate=False)
            assert greedy_replay(state) == state.alloc


def test_empty_picks_are_recorded():
    # two components: the starter of the second round has nothing to take
    inst = additive_instance(
        4, [(0, 1, {0: 1, 1: 1})]
    )
    metrics = SolveMetrics()
    run_phase1(inst, metrics=metrics)
    assert metrics.empty_picks >= 1
