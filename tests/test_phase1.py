import pytest

from trifree_efx import (
    AdditiveValuation,
    Instance,
    StateError,
    check_properties,
    run_phase1,
)
from trifree_efx import phase1
from trifree_efx.phase1 import (
    SolveMetrics,
    SolverState,
    _best_partner,
    augment,
    check_invariants,
    greedy_replay,
)
from trifree_efx.generate import TOPOLOGIES, GenSpec, gen_instance, suite_spec

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
    # a starter with nothing of value to take resolves to agent 0 (herself in
    # the first round), so each isolated agent needs her own round and
    # everyone ends empty-handed
    inst = Instance(2, [], [AdditiveValuation(0, {}), AdditiveValuation(1, {})])
    metrics = SolveMetrics()
    state = run_phase1(inst, metrics=metrics)
    assert metrics.augment_calls == 2
    assert metrics.empty_picks == 2
    assert all(state.alloc.bundle(i) == frozenset() for i in range(2))


def test_best_partner_tie_goes_to_agent_0_even_when_not_a_neighbour():
    # path 0-1-2 where agent 2 values her only good at 0: the search starts at
    # agent 0 with value 0 and moves only on a strictly higher value, so it
    # stays at agent 0, who is not her neighbour (not agent 2 herself)
    inst = additive_instance(3, [(0, 1, {0: 4, 1: 4}), (1, 2, {1: 3, 2: 0})])
    state = SolverState.fresh(inst)
    state.order.prepend_back(2)
    assert _best_partner(state, 2) == 0
    state.order.prepend_back(1)
    assert _best_partner(state, 1) == 0
    state.alloc.set_bundle(0, {0})  # agent 1 now only has good 1, worth 3, left
    assert _best_partner(state, 1) == 2


def _all_agents_argmax(state, i):
    """The written-out partner rule: the first agent whose claimable bundle
    agent ``i`` values most, over all agents (``i`` herself and
    non-neighbours offer nothing)."""
    value = state.instance.valuations[i].value
    values = [value(state.claimable(i, j)) for j in range(state.instance.n)]
    return values.index(max(values))


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_best_partner_matches_all_agents_argmax_mid_augment(monkeypatch, topology):
    # every partner search of stage one (and of its greedy replay) is checked
    # against the all-agents definition on the state it is asked about
    searches = []

    def checked(state, i):
        j = _best_partner(state, i)
        assert j == _all_agents_argmax(state, i), (i, j)
        searches.append(j in state.instance.neighbors(i))
        return j

    monkeypatch.setattr(phase1, "_best_partner", checked)
    for idx in range(15):
        run_phase1(gen_instance(suite_spec(topology, idx)))
    assert any(searches) and not all(searches)  # neighbours and agent-0 fallbacks


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


def test_a_round_starts_without_scanning_the_unplaced_set(monkeypatch):
    """Each round opens with the lowest-id unplaced agent, read from the
    order's forward-only cursor: ``min`` as stage one sees it is never
    called over the unplaced set, so the round starts cost O(n) in total."""
    scans = []

    def counted_min(*args, **kwargs):
        if args and args[0] is state.order.unplaced:
            scans.append(1)
        return min(*args, **kwargs)

    monkeypatch.setattr(phase1, "min", counted_min, raising=False)
    inst = gen_instance(GenSpec(seed=1, n=300, m=900, topology="tree"))
    state = SolverState.fresh(inst)
    metrics = SolveMetrics()
    run_phase1(inst, state=state, validate=False, metrics=metrics)
    assert metrics.augment_calls > 10
    assert scans == []


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
