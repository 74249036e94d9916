"""A check scoped to what a round or step changed gives the whole verdict.

A validated solve checks each stage-one round and each stage-two step from
scratch over ``C``, the agents whose bundles it set, after the state before
it passed a check.  Here every round and step of the digest suite and of
the odd-cycle skeletons is checked both scoped and whole, and hypothesis
perturbs the bundles of ``C`` further (only those, so that premise still
holds): the verdicts must be equal, every row of a scoped failure must be a
row of the whole check, and a scoped free-bundle check must equal the whole
one over the agents it decides.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import Allocation, check_properties, gen_instance, run_phase1, run_phase2
from trifree_efx.cuts import CutTable, PickOrder
from trifree_efx import phase1, phase2
from trifree_efx.errors import InternalSolverError, StateError
from trifree_efx.phase1 import SolveMetrics, SolverState, augment
from trifree_efx.phase2 import LiveCheck, phase2_step
from trifree_efx.verify import STAGE_ONE_PROPERTIES

from helpers import additive_instance, scratch_check
from test_digest import pinned_specs
from test_phase2 import ODD_SKELETONS, VALUATION_CLASSES, odd_cycle_instance

SUITE = [("digest", spec) for spec in pinned_specs()] + [
    ("odd", (skeleton, valuation_class, seed))
    for skeleton in ODD_SKELETONS
    for valuation_class in VALUATION_CLASSES
    for seed in range(4)
]


def build(entry):
    kind, spec = entry
    return gen_instance(spec) if kind == "digest" else odd_cycle_instance(*spec)


def checked_states(instance):
    """``("round" or "step", state, agents)`` for each state a validated
    solve checks after a round or a step, with the agents the round placed
    or the step changed; the walk cannot go on once the caller has changed
    the state."""
    state = SolverState.fresh(instance)
    while state.order.unplaced:
        placed = augment(state)
        yield "round", state, placed
    live = LiveCheck(state, scratch_check(state))
    scan = live.check
    while (record := phase2_step(state, scan=scan)) is not None:
        scan = live.update(record.changed())
        yield "step", state, record.changed()


def assert_scoped_matches_whole(state, scope):
    """The scoped check of ``state`` over ``scope`` against the whole one."""
    args = (state.instance, state.alloc, state.order, state.cuts)
    whole = check_properties(*args)
    scoped = check_properties(*args, scope=scope)
    assert scoped.scope == frozenset(scope) and whole.scope is None
    assert scoped.checked == whole.checked
    # (5)-(7) are decided for C ∪ N(C) only; stage two repairs them elsewhere
    narrow = STAGE_ONE_PROPERTIES
    assert scoped.only(narrow).failed_properties() == whole.only(narrow).failed_properties()
    for prop, rows in scoped.failures.items():
        assert all(row in whole.failures[prop] for row in rows), (prop, rows)
    if scoped.free_bundles is not None:
        near = scoped.free_bundles
        assert phase2._near_view(whole.free_bundles, near) == near
    return scoped, whole


def test_every_round_and_step_is_checked_alike_scoped_and_whole():
    seen = {"round": 0, "step": 0}
    for entry in SUITE:
        for kind, state, scope in checked_states(build(entry)):
            scoped, _ = assert_scoped_matches_whole(state, scope)
            assert scoped.only(STAGE_ONE_PROPERTIES).ok, entry
            seen[kind] += 1
    assert min(seen.values()) > 100, seen


def test_a_check_scoped_to_every_agent_equals_the_whole_check():
    # the two setups of the one pass agree where they read the same state
    for entry in SUITE:
        state = run_phase1(build(entry), validate=False)
        for _ in range(2):
            args = (state.instance, state.alloc, state.order, state.cuts)
            whole = check_properties(*args)
            scoped = check_properties(*args, scope=range(state.instance.n))
            assert scoped.to_dict() == whole.to_dict(), entry
            assert scoped.graph == whole.graph, entry
            rows, reference = scoped.free_bundles, whole.free_bundles
            agents = range(state.instance.n)
            assert list(rows.loose) == list(agents)
            for name in ("own", "loose"):
                assert [getattr(rows, name)[i] for i in agents] == getattr(reference, name)
            for name in ("primary", "secondary"):
                assert [getattr(rows.units, name)[i] for i in agents] == getattr(
                    reference.units, name
                )
            for name in ("enviers", "pairs", "breaks_5", "breaks_6", "breaks_7"):
                assert getattr(rows, name) == getattr(reference, name), (entry, name)
            state = run_phase2(state, validate=False)


def test_a_chain_between_two_neighbours_of_the_scope_is_found():
    # path 0 - 1 - 2 - 3 scoped to {0, 3}: 0 envies 1 and 1 envies 2, so the
    # chain's middle pair (1, 2) leaves the envied end of an envy pair
    # touching the scope, toward a neighbour of the scope
    inst = additive_instance(
        4, [(0, 1, {0: 5, 1: 1}), (1, 2, {1: 5, 2: 1}), (2, 3, {2: 1, 3: 1})]
    )
    alloc = Allocation.from_bundles(4, [set(), {0}, {1}, {2}])
    args = (inst, alloc, PickOrder(4), CutTable(inst))
    assert check_properties(*args).failures[4] == [(0, 1, 2)]
    assert check_properties(*args, scope={0, 3}).failures[4] == [(0, 1, 2)]


def perturb(data, state, scope):
    """Hand the goods held by ``scope`` and the free goods out again, each to
    an agent of ``scope`` or to nobody; the other agents keep their
    bundles.  Each good goes to an endpoint only, unless ``anywhere``."""
    instance, alloc = state.instance, state.alloc
    scope = sorted(scope)
    pool = sorted(
        (set(range(instance.m)) - alloc.allocated_goods()).union(
            *(alloc.bundle(c) for c in scope)
        )
    )
    anywhere = data.draw(st.booleans())
    bundles = {c: set() for c in scope}
    for g in pool:
        good = instance.goods[g]
        takers = [c for c in scope if anywhere or c in (good.u, good.v)]
        taker = data.draw(st.sampled_from([None, *takers]))
        if taker is not None:
            bundles[taker].add(g)
    for c in scope:
        alloc.set_bundle(c, frozenset())
    for c in scope:
        alloc.set_bundle(c, bundles[c])


@given(st.sampled_from(SUITE), st.integers(0, 40), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_perturbed_scope_is_checked_alike_scoped_and_whole(entry, stop, data):
    states = checked_states(build(entry))
    _, state, scope = next(states)
    for _, state, scope in states:
        if stop == 0:
            break
        stop -= 1
    perturb(data, state, scope)
    assert_scoped_matches_whole(state, scope)


# -- what a scoped check may and may not be used for --------------------------------


def test_a_scoped_report_is_never_kept():
    inst = gen_instance(next(pinned_specs()))
    state = SolverState.fresh(inst)
    placed = augment(state)
    report = check_properties(inst, state.alloc, state.order, state.cuts, scope=placed)
    for candidate in (report, report.only({1, 2})):
        with pytest.raises(StateError, match="scoped"):
            state.keep_report(candidate)
    assert state.kept_report() is None


def test_the_first_round_of_a_handed_state_is_checked_whole(monkeypatch):
    # path 0 - 1 - 2 - 3: the first round places agents 0 and 1 only
    inst = additive_instance(
        4, [(0, 1, {0: 5, 1: 5}), (1, 2, {1: 1, 2: 1}), (2, 3, {2: 1, 3: 9})]
    )
    fresh = SolverState.fresh(inst)
    assert sorted(augment(fresh)) == [0, 1]
    log = []
    check = phase1.check_properties

    def logged(*args, **kwargs):
        log.append(kwargs.get("scope"))
        return check(*args, **kwargs)

    monkeypatch.setattr(phase1, "check_properties", logged)
    # a run on a fresh state of its own checks its first round scoped
    run_phase1(inst)
    assert log[0] is not None and log[-1] is None
    # a handed state is not known to pass: the unplaced agent 3 holds a good,
    # which only a whole check of the first round sees
    log.clear()
    handed = SolverState.fresh(inst)
    handed.alloc.set_bundle(3, {2})
    with pytest.raises(InternalSolverError, match=r"invariant \(2\) broken.*\(3, 2\)"):
        run_phase1(inst, state=handed)
    assert log == [None]


def test_a_failing_scoped_round_is_reported_as_the_whole_check_reports_it(monkeypatch):
    # a round that gives an agent it placed a good outside her pairs
    inst = additive_instance(
        4, [(0, 1, {0: 5, 1: 5}), (1, 2, {1: 1, 2: 1}), (2, 3, {2: 1, 3: 9})]
    )
    give = phase1.augment

    def and_take(state, **kwargs):
        placed = give(state, **kwargs)
        if 1 in placed:
            state.alloc.set_bundle(1, state.alloc.bundle(1) | {2})
        return placed

    monkeypatch.setattr(phase1, "augment", and_take)
    state = SolverState.fresh(inst)
    and_take(state)
    whole = "; ".join(str(v) for v in phase1.check_invariants(state))
    assert whole
    with pytest.raises(InternalSolverError) as raised:
        run_phase1(inst)
    assert str(raised.value) == whole


# -- SolveMetrics.to_dict --------------------------------------------------------


def test_metrics_to_dict_is_a_flat_copy():
    metrics = SolveMetrics(augment_calls=3, phase1_s=0.5)
    metrics.phase2_branches["B"] = 2
    out = metrics.to_dict()
    assert out == asdict(metrics)
    assert list(out) == list(asdict(metrics))
    assert out["phase2_branches"] is not metrics.phase2_branches
    out["phase2_branches"]["A"] = 7
    assert metrics.phase2_branches["A"] == 0
