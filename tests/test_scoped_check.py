"""A check scoped to what a round or step changed gives the whole verdict.

A validated solve checks each stage-one round and each stage-two step from
scratch over ``C``, the agents whose bundles it set, after the state before
it passed a check, rereading only what a change of ``C`` can move and
taking the rest from a ledger of earlier from-scratch reads.  Here every
round and step of the digest suite and of the odd-cycle skeletons is
checked both scoped, with the ledger of the state before it, and whole,
and hypothesis perturbs the bundles of ``C`` further (only those, so that
premise still holds): the verdicts must be equal, every row of a scoped
failure must be a row of the whole check, and a scoped free-bundle check
must equal the whole one over the agents it decides.  Every ledger entry a
validated solve leaves after a round or a step must equal a fresh read.
"""

import re
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings, strategies as st

from trifree_efx import (
    Allocation,
    SolveConfig,
    check_properties,
    gen_instance,
    run_phase1,
    run_phase2,
    solve,
)
from trifree_efx.cuts import CutTable, PickOrder
from trifree_efx.generate import GenSpec, suite_spec
from trifree_efx import phase1, phase2, verify
from trifree_efx.errors import InternalSolverError
from trifree_efx.phase1 import SolveMetrics, SolverState, augment
from trifree_efx.phase2 import LiveCheck, phase2_step
from trifree_efx.verify import STAGE_ONE_PROPERTIES, Ledger, viewer_envy, with_neighbours

from helpers import additive_instance, pair_labels, pair_state, scratch_check
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
    """``("round" or "step", state, agents, ledger)`` for each state a
    validated solve checks scoped after a round or a step, with the agents
    the round placed or the step changed and a ledger of the state before
    it; the last round, which a validated solve checks whole, is left out.
    A consumer that does not check the state scoped with that ledger leaves
    it to the walk, and the walk cannot go on once the consumer has changed
    the state."""
    state = SolverState.fresh(instance)
    args = (state.instance, state.alloc, state.order, state.cuts)
    ledger = Ledger.fresh(state.alloc, state.order)

    def checked(scope):
        if not ledger.current(state.alloc, state.order, frozenset()):
            check_properties(*args, scope=scope, ledger=ledger)

    while True:
        placed = augment(state)
        if not state.order.unplaced:
            break
        yield "round", state, placed, ledger
        checked(placed)
    ledger = Ledger.of(*args[:3], check_properties(*args))
    live = LiveCheck(state, scratch_check(state))
    scan = live.check
    while (record := phase2_step(state, scan=scan)) is not None:
        scan = live.update(record.changed())
        yield "step", state, record.changed(), ledger
        checked(record.changed())


def assert_scoped_matches_whole(state, scope, ledger):
    """The scoped check of ``state`` over ``scope`` with ``ledger`` against
    the whole one."""
    args = (state.instance, state.alloc, state.order, state.cuts)
    whole = check_properties(*args)
    scoped = check_properties(*args, scope=scope, ledger=ledger)
    assert scoped.scope == frozenset(scope) and whole.scope is None
    assert scoped.checked == whole.checked
    # (5)-(7) are decided for C ∪ N(C) only; stage two repairs them elsewhere
    narrow = STAGE_ONE_PROPERTIES
    assert scoped.only(narrow).failed_properties() == whole.only(narrow).failed_properties()
    for prop, rows in scoped.failures.items():
        assert all(row in whole.failures[prop] for row in rows), (prop, rows)
    if scoped.free_bundles is not None:
        near = scoped.free_bundles
        assert set(near.own) == with_neighbours(state.instance, scope)
        assert phase2._differ(whole.free_bundles, near) == []
    return scoped, whole


def test_every_round_and_step_is_checked_alike_scoped_and_whole():
    seen = {"round": 0, "step": 0}
    for entry in SUITE:
        for kind, state, scope, ledger in checked_states(build(entry)):
            scoped, _ = assert_scoped_matches_whole(state, scope, ledger)
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
            ledger = Ledger.of(*args[:3], whole)
            scoped = check_properties(*args, scope=range(state.instance.n), ledger=ledger)
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
    whole = check_properties(*args)
    assert whole.failures[4] == [(0, 1, 2)]
    # 1's envy toward 2 comes from the ledger
    ledger = Ledger.of(*args[:3], whole)
    assert check_properties(*args, scope={0, 3}, ledger=ledger).failures[4] == [(0, 1, 2)]


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
    # the walk stops at a state it yielded, before it changes it further
    count = sum(1 for _ in checked_states(build(entry)))
    assume(count > 0)
    for _, state, scope, ledger in checked_states(build(entry)):
        if stop == 0 or count == 1:
            break
        stop -= 1
        count -= 1
    perturb(data, state, scope)
    assert_scoped_matches_whole(state, scope, ledger)


# -- the ledger -------------------------------------------------------------------


def fresh_reads(state):
    """``(own, rows, pairs)`` read afresh from ``state``: each agent's value
    for her own bundle, each viewer's ``viewer_envy`` row over every other
    agent's bundle, and, on a complete order, each pair's ``pair_state``
    free goods and ``pair_labels`` (``None`` before)."""
    instance, alloc = state.instance, state.alloc
    own = [instance.valuations[i].value(alloc.bundle(i)) for i in range(instance.n)]
    rows = {}
    for i in range(instance.n):
        parts = {
            j: bundle & instance.incident_goods(i)
            for j, bundle in enumerate(alloc.bundles())
            if j != i and bundle & instance.incident_goods(i)
        }
        rows[i] = viewer_envy(instance, i, own[i], parts)
    pairs = None
    if not state.order.unplaced:
        pairs = {}
        for a, b in instance.skeleton_edges():
            pair = pair_state(instance, alloc, state.order, state.cuts, a, b)
            pairs[a, b] = (pair[4], *pair_labels(a, b, pair))
    return own, rows, pairs


def assert_ledger_is_fresh(state):
    ledger = state.ledger()
    assert ledger is not None
    own, rows, pairs = fresh_reads(state)
    assert ledger.own == own
    assert all(row and row == sorted(row) for row in ledger.enviers.values()), ledger.enviers
    kept = {i: [j for j in sorted(ledger.enviers) if i in ledger.enviers[j]] for i in rows}
    assert kept == rows
    assert ledger.pairs == pairs


def test_every_ledger_entry_equals_a_fresh_read(monkeypatch):
    # after every check of a validated round and step
    checks = {"scoped": 0, "whole": 0}
    transition = phase1.check_transition

    def and_compare(state, scope, failures, *, whole=False):
        report = transition(state, scope, failures, whole=whole)
        checks["whole" if report.scope is None else "scoped"] += 1
        if whole:  # the last transition of a stage seeds no ledger
            assert state.ledger() is None
        else:
            assert_ledger_is_fresh(state)
        return report

    for owner in (phase1, phase2):
        monkeypatch.setattr(owner, "check_transition", and_compare)
    for entry in SUITE:
        solve(build(entry))
    assert checks["scoped"] > 1000 and checks["whole"] > 400, checks


def test_a_report_is_copied_into_the_ledger_only_when_a_step_follows(monkeypatch):
    # the last round's and the last step's reads are read by no later check,
    # so a validated solve copies one report, stage two's opening one, and
    # only when stage two takes a step
    copies = []
    of = verify.Ledger.of.__func__

    def counted(cls, *args):
        copies.append(args[-1])
        return of(cls, *args)

    monkeypatch.setattr(verify.Ledger, "of", classmethod(counted))
    steps = set()
    for entry in SUITE:
        copies.clear()
        metrics = solve(build(entry)).metrics
        took_steps = metrics.phase2_iterations > 0
        assert len(copies) == took_steps
        steps.add(took_steps)
    assert steps == {False, True}


def test_a_ledger_copies_the_report_it_is_seeded_from():
    # the opening report's free-bundle check becomes the live check, which
    # changes it in place; the ledger seeded from that report keeps its reads
    inst = gen_instance(suite_spec("tree", 2))
    state = run_phase1(inst, validate=False)
    report = state.report()
    state.seed_ledger(report)
    ledger, check = state.ledger(), report.free_bundles
    assert ledger.own == check.own and ledger.own is not check.own
    assert ledger.pairs == check.pairs and ledger.pairs is not check.pairs
    assert ledger.enviers == check.enviers and ledger.enviers is not check.enviers
    assert all(ledger.enviers[j] is not row for j, row in check.enviers.items())


def test_a_bundle_set_outside_the_scope_sends_the_check_whole(monkeypatch):
    # the ledger reads the state as the last check saw it; a bundle set
    # since by anyone outside the scope, even to what it was, voids it
    inst = gen_instance(suite_spec("tree", 2))
    state = run_phase1(inst)
    log = []
    check = phase1.check_properties

    def logged(*args, **kwargs):
        log.append(kwargs.get("scope"))
        return check(*args, **kwargs)

    state.seed_ledger(state.report())  # as stage two does before its first step
    monkeypatch.setattr(phase1, "check_properties", logged)
    assert state.ledger() is not None
    phase1.check_transition(state, [0], lambda report: [])
    assert log == [frozenset({0})]
    state.alloc.set_bundle(1, state.alloc.bundle(1))
    assert state.ledger({0}) is None and state.ledger({1}) is not None
    log.clear()
    phase1.check_transition(state, [0], lambda report: [])
    assert log == [None]


DENSE = GenSpec(seed=1, n=50, m=1250, topology="bipartite", v_max=10**6, max_parallel=2)


def test_a_validated_step_rereads_only_the_pairs_of_its_agents(monkeypatch):
    # on a complete bipartite skeleton C ∪ N(C) is a whole side, whose pairs
    # are every pair; a scoped check reads only the pairs of C
    reads = []
    read_pairs = verify.read_pairs

    def counted(instance, alloc, order, cuts, pairs):
        reads[-1] += len(pairs)
        return read_pairs(instance, alloc, order, cuts, pairs)

    transition = phase1.check_transition
    checked = []

    def counting(state, scope, failures, *, whole=False):
        reads.append(0)
        report = transition(state, scope, failures, whole=whole)
        if report.scope is not None:
            degrees = sum(len(state.instance.neighbors(c)) for c in report.scope)
            checked.append((state.order.unplaced == set(), reads[-1], degrees))
        return report

    monkeypatch.setattr(verify, "read_pairs", counted)
    for owner in (phase1, phase2):
        monkeypatch.setattr(owner, "check_transition", counting)
    metrics = solve(gen_instance(DENSE)).metrics
    steps = [(count, degrees) for step, count, degrees in checked if step]
    assert len(steps) == metrics.phase2_iterations - 1 > 10
    assert all(count <= degrees for _, count, degrees in checked), checked


def test_a_validated_dense_solve_ends_as_an_unvalidated_one():
    inst = gen_instance(DENSE)
    validated = solve(inst)
    plain = solve(inst, SolveConfig(validate_steps=False))
    assert validated.allocation.bundles() == plain.allocation.bundles()
    assert validated.sigma == plain.sigma
    assert validated.metrics.phase2_iterations > 10
    assert validated.metrics.validate_s > 0 and plain.metrics.validate_s == 0


# -- what a scoped check may and may not be used for --------------------------------


@pytest.mark.parametrize("kind", ["round", "step"])
def test_a_scoped_finding_the_whole_check_does_not_share_is_an_error(monkeypatch, kind):
    # every scoped check of a stage-one round (incomplete order) or of a
    # stage-two step (complete order) reports a spurious property-(2) row;
    # the whole rerun passes, so the run stops at the first such check with
    # the one error naming the scope and the scoped finding
    inst = gen_instance(suite_spec("tree", 2))
    check = phase1.check_properties
    log = []

    def spurious(instance, alloc, order, cuts, **kwargs):
        report = check(instance, alloc, order, cuts, **kwargs)
        scope = kwargs.get("scope")
        log.append(scope)
        if scope is not None and (not order.unplaced) == (kind == "step"):
            report.extend(2, [("spurious",)])
        return report

    monkeypatch.setattr(phase1, "check_properties", spurious)
    with pytest.raises(InternalSolverError) as raised:
        solve(inst)
    scope, whole = log[-2:]
    assert scope is not None and whole is None
    finding = (
        re.escape(str(phase1.InvariantViolation(7, (2, "spurious"))))
        if kind == "round"
        else r"rule [ABC] on agent \d+ broke violated: \(2\) x1"
    )
    prefix = re.escape(f"the check scoped to agents {sorted(scope)} failed (")
    assert re.fullmatch(prefix + finding + r"\) where the whole check passed", str(raised.value))


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
