import json
import random
from dataclasses import replace

import pytest

from trifree_efx import (
    AdditiveValuation,
    Instance,
    SolveConfig,
    StateError,
    check_properties,
    run_phase1,
    solve,
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
from trifree_efx.cuts import pair_fault, pair_state
from trifree_efx.generate import TOPOLOGIES, GenSpec, gen_instance, suite_spec
from trifree_efx.model import Allocation
from trifree_efx.verify import envy_graph, envy_pairs

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
    assert _best_partner(state, 2) == (0, frozenset())
    state.order.prepend_back(1)
    assert _best_partner(state, 1)[0] == 0
    state.alloc.set_bundle(0, {0})  # agent 1 now only has good 1, worth 3, left
    assert _best_partner(state, 1) == (2, frozenset({1}))


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
        j, bundle = _best_partner(state, i)
        assert j == _all_agents_argmax(state, i), (i, j)
        assert bundle == state.claimable(i, j), (i, j)
        searches.append(j in state.instance.neighbors(i))
        return j, bundle

    monkeypatch.setattr(phase1, "_best_partner", checked)
    for idx in range(15):
        run_phase1(gen_instance(suite_spec(topology, idx)))
    assert any(searches) and not all(searches)  # neighbours and agent-0 fallbacks


def test_no_goods_properties_hold_vacuously():
    inst = Instance(3, [], [AdditiveValuation(i, {}) for i in range(3)])
    state = run_phase1(inst)
    assert sorted(state.sigma()) == [0, 1, 2]
    report = check_properties(inst, state.alloc, state.order, state.cuts).only({1, 2, 3, 4})
    assert report.ok


def test_c4_output_satisfies_properties():
    inst = c4_instance({0: [5, 2], 1: [4, 4], 2: [(3, 7), (1, 1)], 3: [6]})
    state = run_phase1(inst)
    report = check_properties(inst, state.alloc, state.order, state.cuts).only({1, 2, 3, 4})
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
    rows = [(v.code, v.witness[0]) for v in check_invariants(state)]
    assert (7, 1) in rows  # property (1): agent 0 strongly envies the full pile


def seven_invariants(state):
    """The between-round invariants as seven separate checks, written out:
    ``(code, witness)`` rows, where (3) is the orientation, (4) strong envy
    of a placed agent, and (7) the properties (2) and (3) of the pairs
    touching placed agents, as ``(property, *row)``."""
    instance, alloc, order = state.instance, state.alloc, state.order
    unplaced = order.unplaced
    placed = [p for p in range(instance.n) if p not in unplaced]
    rows = []
    for p in placed:
        for g in sorted(alloc.bundle(p)):
            good = instance.goods[g]
            if good.u in unplaced or good.v in unplaced:
                rows.append((1, (p, g)))
    for u in sorted(unplaced):
        if alloc.bundle(u):
            rows.append((2, (u, min(alloc.bundle(u)))))
    for i in range(instance.n):
        stray = alloc.bundle(i) - instance.incident_goods(i)
        if stray:
            rows.append((3, (i, min(stray))))
    graph = envy_graph(instance, alloc)
    for i, j, _ in graph.strong:
        if i in placed:
            rows.append((4, (i, j)))
    for i, j in envy_pairs(graph.enviers):
        if i in order.front:
            rows.append((5, (i, j)))
        if i in order.back and j in order.back:
            rows.append((6, (i, j)))
    for a, b in instance.skeleton_edges():
        if a in unplaced and b in unplaced:
            continue
        pair = pair_state(instance, alloc, order, state.cuts, a, b)
        fault = pair_fault(a, b, pair)
        if fault is not None:
            rows.append((7, (2,) + fault))
        cut, free = pair[0], pair[4]
        for i, j in ((a, b), (b, a)):
            if i in unplaced:
                continue
            v = instance.valuations[i].value
            for part in cut.parts():
                if part and part <= free and v(part) > v(alloc.bundle(i)):
                    rows.append((7, (3, i, j, sorted(part))))
    return rows


def perturbed(state, rng):
    """Copies of ``state`` with one good misplaced: moved to a random agent,
    given to an unplaced agent, or given to an agent outside its pair."""
    instance = state.instance
    n = instance.n
    if not instance.m:
        return
    unplaced = sorted(state.order.unplaced)
    held = [g for bundle in state.alloc.bundles() for g in sorted(bundle)]
    for kind in ("random", "unplaced", "outside"):
        g = rng.randrange(instance.m)
        good = instance.goods[g]
        if kind == "random":
            if not held:
                continue
            g = held[rng.randrange(len(held))]
            to = rng.randrange(n)
        elif kind == "unplaced":
            if not unplaced:
                continue
            to = unplaced[rng.randrange(len(unplaced))]
        else:
            outside = [k for k in range(n) if k not in (good.u, good.v)]
            if not outside:
                continue
            to = outside[rng.randrange(len(outside))]
        alloc = Allocation.from_bundles(
            n, [bundle - {g} for bundle in state.alloc.bundles()]
        )
        alloc.set_bundle(to, alloc.bundle(to) | {g})
        yield kind, replace(state, alloc=alloc)


def test_check_invariants_matches_the_seven_written_out_invariants():
    """Folding invariants (3) and (4) into property (1) changes no verdict
    and no row of invariants (1), (2), (5) and (6), on every stage-one
    round of suite instances and on states with one misplaced good; a
    failure of (3) or (4) shows as a property-(1) row under code 7."""
    rng = random.Random(5)
    kinds = set()
    for topology in TOPOLOGIES:
        for index in range(20):
            inst = gen_instance(suite_spec(topology, index))
            state = SolverState.fresh(inst)
            while state.order.unplaced:
                augment(state)
                states = [("round", state), *perturbed(state, rng)]
                for kind, probe in states:
                    got = [(v.code, v.witness) for v in check_invariants(probe)]
                    want = seven_invariants(probe)
                    assert bool(got) == bool(want), (topology, index, kind)
                    for code in (1, 2, 5, 6):
                        assert [r for r in got if r[0] == code] == [
                            r for r in want if r[0] == code
                        ], (topology, index, kind, code)
                    if any(code in (3, 4) for code, _ in want):
                        assert any(c == 7 and w[0] == 1 for c, w in got)
                    kinds.add((kind, bool(want)))
    seen = {("round", False), ("random", True), ("unplaced", True), ("outside", True)}
    assert seen <= kinds


def test_an_envy_chain_is_a_code_7_row():
    # 0 envies 1 (good 0 is worth 5 to her), 1 envies 2 (good 1 is worth 9 to
    # her, good 0 only 1); the front agent 1 envying 2 also breaks (5)
    inst = additive_instance(3, [(0, 1, {0: 5, 1: 1}), (1, 2, {1: 9, 2: 9})])
    state = SolverState.fresh(inst)
    state.order.append_front(2)
    state.order.append_front(1)
    state.order.prepend_back(0)
    state.alloc.set_bundle(1, frozenset({0}))
    state.alloc.set_bundle(2, frozenset({1}))
    rows = [(v.code, v.witness) for v in check_invariants(state)]
    assert (7, (4, 0, 1, 2)) in rows
    assert (5, (1, 2)) in rows


# -- the trace ----------------------------------------------------------------------


def replay_stage_one(n, rows):
    """The order's front and back and the allocation that stage one's
    ``pick`` and ``round`` events describe."""
    front, back, bundles = [], [], [()] * n
    for row in rows:
        if row["event"] == "pick":
            bundles[row["agent"]] = row["goods"]
        else:
            front += row["front"]
            back[:0] = row["back"][::-1]  # each back placement goes before the last
    return front, back, Allocation.from_bundles(n, bundles)


def test_pick_and_round_events_replay_stage_one():
    for topology in TOPOLOGIES:
        for index in range(20):
            inst = gen_instance(suite_spec(topology, index))
            rows = []
            state = run_phase1(inst, trace=rows.append)
            assert {row["event"] for row in rows} <= {"pick", "round"}
            assert replay_stage_one(inst.n, rows) == (
                state.order.front,
                state.order.back,
                state.alloc,
            ), (topology, index)


def test_a_large_trace_stays_small():
    # a round event carries no bundles, so the trace grows with the picks
    # and steps, not with rounds times agents (41 MB when rounds carried
    # every bundle)
    inst = gen_instance(GenSpec(seed=1, n=2000, m=6000, topology="tree"))
    rows = []
    solve(inst, SolveConfig(validate_steps=False, trace=rows.append))
    assert sum(len(json.dumps(row)) + 1 for row in rows) < 2_000_000


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
