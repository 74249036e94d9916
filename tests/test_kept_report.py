"""Each solver state is checked from scratch once.

A stage opens with the last property report computed on the very state it
is handed, kept on the ``SolverState``; any ``set_bundle`` or placement
since then makes that report stale, and a fresh check runs instead.  A
validated run checks its rounds and steps scoped to the agents each one
changed, and only the last round and the last step whole; a scoped report
is never kept.
"""

import weakref
from dataclasses import replace

import pytest

from trifree_efx import (
    Allocation,
    SolveConfig,
    check_properties,
    gen_instance,
    run_phase1,
    run_phase2,
    run_phase3,
    solve,
    solve_state,
)
from trifree_efx import phase1, phase2, phase3, verify
from trifree_efx.errors import InternalSolverError
from trifree_efx.generate import TOPOLOGIES, GenSpec, gen_adversarial_suite, suite_spec
from trifree_efx.phase1 import SolveMetrics, SolverState, augment
from trifree_efx.verify import STAGE_ONE_PROPERTIES

from helpers import c4_instance


def instances():
    """The adversarial suite and four small instances of each topology."""
    out = [inst for _, inst in gen_adversarial_suite()]
    for topology in TOPOLOGIES:
        out.extend(gen_instance(suite_spec(topology, idx)) for idx in range(4))
    return out


def counted(monkeypatch, owners, name, part="scope"):
    """Count the calls of ``name`` as each module of ``owners`` sees it;
    each call is logged as its keyword argument ``part``, which restricts
    it to some agents (``None`` when whole)."""
    calls = []
    for owner in owners:
        original = getattr(owner, name)

        def wrapper(*args, _original=original, **kwargs):
            calls.append(kwargs.get(part))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def count_checks(monkeypatch):
    """The log of whole checks; scoped ones are left out."""
    return WholeOnly(counted(monkeypatch, (phase1, phase2, phase3), "check_properties"))


class WholeOnly:
    """The whole checks of a call log of :func:`counted`."""

    def __init__(self, log):
        self.log = log

    def __len__(self):
        return self.log.count(None)

    def clear(self):
        self.log.clear()


# -- how many from-scratch checks a solve runs ---------------------------------------


def test_a_validated_solve_checks_once_per_round_and_step(monkeypatch):
    # every round and every step is checked once; only the last round and
    # the last step are checked whole, the others scoped to what they changed
    log = counted(monkeypatch, (phase1, phase2, phase3), "check_properties")
    steps = []
    for inst in instances():
        log.clear()
        metrics = solve(inst).metrics
        took_steps = metrics.phase2_iterations > 0
        assert len(log) == metrics.augment_calls + metrics.phase2_iterations
        assert log.count(None) == 1 + took_steps
        scoped = [scope for scope in log if scope is not None]
        assert len(scoped) == metrics.augment_calls - 1 + max(0, metrics.phase2_iterations - 1)
        assert all(scoped)
        steps.append(metrics.phase2_iterations)
    assert 0 in steps and max(steps) > 0


def test_a_validated_tree_solve_checks_at_most_twice_whole(monkeypatch):
    checks = count_checks(monkeypatch)
    inst = gen_instance(GenSpec(seed=1, n=1000, m=3000, topology="tree"))
    metrics = solve(inst).metrics
    assert metrics.augment_calls > 100 and metrics.phase2_iterations > 100
    assert len(checks) <= 2


def test_an_unvalidated_solve_checks_once_without_steps_and_twice_with(monkeypatch):
    checks = count_checks(monkeypatch)
    seen = set()
    for inst in instances():
        checks.clear()
        metrics = solve(inst, SolveConfig(validate_steps=False)).metrics
        took_steps = metrics.phase2_iterations > 0
        assert len(checks) == 1 + took_steps
        seen.add(took_steps)
    assert seen == {False, True}


@pytest.mark.parametrize("validate", [True, False])
def test_without_dumps_the_final_check_builds_no_envy_graph(monkeypatch, validate):
    checks = count_checks(monkeypatch)
    graphs = WholeOnly(counted(monkeypatch, (verify,), "envy_graph", "owners"))
    efx = counted(monkeypatch, (phase3,), "check_efx")
    dumps = set()
    for inst in instances():
        checks.clear(), graphs.clear(), efx.clear()
        metrics = solve(inst, SolveConfig(validate_steps=validate)).metrics
        dumped = metrics.phase3_dumps > 0
        assert len(efx) == dumped
        assert len(graphs) == len(checks) + dumped
        dumps.add(dumped)
    assert dumps == {False, True}


# -- a stale report is never reused --------------------------------------------------


def test_a_set_bundle_makes_the_kept_report_stale():
    inst = c4_instance([[3, 1], [2, 2], [5], [1, 4]])
    state = run_phase1(inst, validate=True)
    report = state.kept_report()
    assert report is not None and report.free_bundles is not None
    assert state.kept_report() is report
    # setting a bundle to itself changes no good, but it is a change
    state.alloc.set_bundle(0, state.alloc.bundle(0))
    assert state.kept_report() is None
    # and the stale report is let go, not held while the next check is built
    gone = weakref.ref(report)
    del report
    assert gone() is None


def test_a_placement_makes_the_kept_report_stale():
    inst = c4_instance([[3, 1], [2, 2], [5], [1, 4]])
    state = SolverState.fresh(inst)
    state.keep_report(check_properties(inst, state.alloc, state.order, state.cuts))
    assert state.kept_report() is not None
    state.order.prepend_back(state.order.lowest_unplaced())
    assert state.kept_report() is None


def test_a_replaced_state_inherits_no_report():
    inst = c4_instance([[3, 1], [2, 2], [5], [1, 4]])
    state = run_phase1(inst, validate=True)
    assert state.kept_report() is not None
    assert replace(state).kept_report() is None
    # a new allocation with as many changes as the old one is still new
    other = Allocation(inst.n)
    for i in range(state.alloc.changes):
        other.set_bundle(i % inst.n, frozenset())
    copy = replace(state, alloc=other)
    copy.keep_report(check_properties(inst, other, state.order, state.cuts))
    assert replace(copy, alloc=state.alloc).kept_report() is None


def torn(state) -> None:
    """Move one held good to an agent outside its pair."""
    inst, alloc = state.instance, state.alloc
    holder, g = next((i, min(b)) for i, b in enumerate(alloc.bundles()) if b)
    good = inst.goods[g]
    outsider = next(k for k in range(inst.n) if k not in (good.u, good.v))
    alloc.set_bundle(holder, alloc.bundle(holder) - {g})
    alloc.set_bundle(outsider, alloc.bundle(outsider) | {g})


def test_stage_two_checks_a_changed_stage_one_output_afresh(monkeypatch):
    inst = c4_instance([[3, 1], [2, 2], [5], [1, 4]])
    state = run_phase1(inst, validate=True)
    assert state.kept_report().only(STAGE_ONE_PROPERTIES).ok
    torn(state)
    with pytest.raises(InternalSolverError, match=r"stage-one output: .*\(2\) x1"):
        run_phase2(state)
    # an unchanged bundle set again still forces a fresh check
    state = run_phase1(inst, validate=True)
    state.alloc.set_bundle(1, state.alloc.bundle(1))
    checks = count_checks(monkeypatch)
    run_phase2(state, validate=False)
    assert len(checks) == 1


def test_stage_three_checks_a_changed_stage_two_output_afresh():
    inst = c4_instance([[3, 1], [2, 2], [5], [1, 4]])
    for validate in (True, False):
        state = run_phase2(run_phase1(inst, validate=validate), validate=validate)
        # unvalidated, the steps leave no current report
        assert (state.kept_report() is not None) == validate
        torn(state)
        with pytest.raises(InternalSolverError, match="stage-two output: "):
            run_phase3(state, validate=validate)


# -- a reused report equals the check it stands for ------------------------------


@pytest.mark.parametrize("validate", [True, False])
def test_every_reused_report_equals_a_fresh_check(monkeypatch, validate):
    kept_report = SolverState.kept_report
    reused = []

    def recomputed(state):
        report = kept_report(state)
        if report is not None:
            fresh = check_properties(state.instance, state.alloc, state.order, state.cuts)
            assert report.to_dict() == fresh.to_dict()
            assert report.free_bundles == fresh.free_bundles
            assert report.graph == fresh.graph
            reused.append(1)
        return report

    monkeypatch.setattr(SolverState, "kept_report", recomputed)
    for inst in instances():
        result, _ = solve_state(inst, SolveConfig(validate_steps=validate))
        assert verify.check_efx(inst, result.allocation).ok
    assert reused


def test_a_round_setting_an_earlier_agents_bundle_is_an_internal_error(monkeypatch):
    # stage one's premise: a round sets only the bundles of agents it places
    inst = gen_instance(suite_spec("path", 4, n_max=8))
    state = SolverState.fresh(inst)
    augment(state, metrics=SolveMetrics())
    earlier = min(set(range(inst.n)) - state.order.unplaced)
    partner = phase1._best_partner

    def and_reset(state, i):
        state.alloc.set_bundle(earlier, state.alloc.bundle(earlier))
        return partner(state, i)

    monkeypatch.setattr(phase1, "_best_partner", and_reset)
    with pytest.raises(InternalSolverError, match=rf"agents \[{earlier}\] it did not place"):
        augment(state)
