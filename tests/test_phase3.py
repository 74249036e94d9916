import pytest

from trifree_efx import (
    NotTriangleFreeError,
    SolveConfig,
    check_efx,
    envy_graph,
    run_phase1,
    run_phase2,
    run_phase3,
    solve,
)
from trifree_efx.generate import (
    gen_adversarial_suite,
    gen_instance,
    gen_triangle_instance,
    suite_spec,
)
from trifree_efx.verify import check_orientation



def adversarial(name):
    return dict(gen_adversarial_suite())[name]


def test_no_envied_agents_means_no_dumps():
    inst = adversarial("c4_parallel3")
    result = solve(inst)
    assert result.metrics.envied_after_phase2 == 0
    assert result.metrics.phase3_dumps == 0
    assert result.allocation.is_complete(inst)
    assert check_orientation(inst, result.allocation).ok


def test_single_envied_bundle_goes_to_the_envier():
    inst = adversarial("swap_repair")
    state = run_phase1(inst)
    run_phase2(state)
    graph = envy_graph(inst, state.alloc)
    (envied,) = graph.envied_agents()
    (envier,) = graph.enviers_of(envied)
    free_before = state.alloc.unallocated_goods(inst)
    assert free_before
    alloc = run_phase3(state)
    assert free_before <= alloc.bundle(envier)
    assert alloc.is_complete(inst)


def test_adjacent_envied_agents_split_their_pair_between_enviers():
    inst = adversarial("adjacent_envied_dump")
    state = run_phase1(inst)
    run_phase2(state)
    graph = envy_graph(inst, state.alloc)
    envied = graph.envied_agents()
    assert envied == [1, 3]
    enviers = {i: graph.enviers_of(i)[0] for i in envied}
    assert enviers[1] != enviers[3]
    shared = inst.pair_goods(1, 3)
    assert state.alloc.unallocated_goods(inst) == shared
    alloc = run_phase3(state)
    assert alloc.is_complete(inst)
    # the shared pair was split across the two distinct enviers
    got_1 = alloc.bundle(enviers[1]) & shared
    got_3 = alloc.bundle(enviers[3]) & shared
    assert got_1 and got_3
    assert got_1 | got_3 == shared and not (got_1 & got_3)


def test_dump_can_cross_incidence():
    inst = adversarial("star_two_leaves")
    result = solve(inst)
    assert not check_orientation(inst, result.allocation).ok
    assert check_efx(inst, result.allocation).ok


def test_dumps_bounded_by_envied_count():
    for idx in range(120):
        inst = gen_instance(suite_spec("tree", idx))
        result = solve(inst)
        assert result.metrics.phase3_dumps == result.metrics.envied_after_phase2
        assert result.metrics.phase3_dumps <= max(inst.n - 1, 0)


# -- the full pipeline --------------------------------------------------------------


def test_solve_rejects_triangles_with_witness():
    inst = gen_triangle_instance(3)
    with pytest.raises(NotTriangleFreeError) as err:
        solve(inst)
    assert err.value.triangle == (0, 1, 2)


def test_solve_no_goods():
    from trifree_efx import AdditiveValuation, Instance

    inst = Instance(4, [], [AdditiveValuation(i, {}) for i in range(4)])
    result = solve(inst)
    assert result.allocation.is_complete(inst)
    assert check_efx(inst, result.allocation).ok


def test_solve_metrics_are_coherent():
    inst = adversarial("hub_trade")
    result = solve(inst)
    m = result.metrics
    assert m.augment_calls >= 1
    assert m.phase2_iterations == sum(m.phase2_branches.values())
    assert m.cuts_computed >= len(inst.skeleton_edges())
    assert m.pr_moves_total == 0  # every cutter is additive
    assert m.wall_time_s > 0
    assert sorted(result.sigma) == list(range(inst.n))


@pytest.mark.parametrize("validate", [True, False])
def test_stage_times_fit_inside_the_wall_time(validate):
    inst = adversarial("hub_trade")
    m = solve(inst, SolveConfig(validate_steps=validate)).metrics
    stages = (m.phase1_s, m.phase2_s, m.phase3_s)
    assert all(t >= 0 for t in stages)
    assert sum(stages) <= m.wall_time_s


def test_solve_without_step_validation_matches_validated_run():
    for idx in range(40):
        inst = gen_instance(suite_spec("c4_girth", idx))
        fast = solve(inst, SolveConfig(validate_steps=False))
        slow = solve(inst, SolveConfig(validate_steps=True))
        assert fast.allocation == slow.allocation
        assert fast.sigma == slow.sigma


def test_solve_random_instances_end_to_end():
    for topo in ("bipartite", "star", "path"):
        for idx in range(80):
            inst = gen_instance(suite_spec(topo, idx))
            result = solve(inst)
            assert result.allocation.is_complete(inst)
            assert check_efx(inst, result.allocation).ok


def test_trace_events_cover_all_phases():
    rows = []
    inst = adversarial("swap_repair")
    solve(inst, SolveConfig(trace=rows.append))
    phases = {row["phase"] for row in rows}
    assert phases == {1, 2, 3}
    assert all("event" in row for row in rows)


def test_solve_is_deterministic():
    inst = adversarial("hub_trade")
    first = solve(inst)
    second = solve(inst)
    assert first.allocation == second.allocation
    assert first.sigma == second.sigma


# -- generator-independent random instances ----------------------------------------


from hypothesis import given, settings, strategies as st


@st.composite
def random_forest_instances(draw):
    """Random multi-forest instances built from hypothesis primitives only."""
    from trifree_efx import AdditiveValuation, Good, Instance

    n = draw(st.integers(2, 7))
    # forests are triangle-free; attach each agent below some earlier one
    parents = [draw(st.one_of(st.none(), st.integers(0, i - 1))) for i in range(1, n)]
    edges = [(p, i + 1) for i, p in enumerate(parents) if p is not None]
    m = draw(st.integers(0, 12)) if edges else 0
    rows = []
    for _ in range(m):
        rows.append(draw(st.sampled_from(edges)))
    weights = [{} for _ in range(n)]
    goods = []
    for gid, (u, v) in enumerate(rows):
        goods.append(Good(gid, u, v))
        weights[u][gid] = draw(st.integers(0, 30))
        weights[v][gid] = draw(st.integers(0, 30))
    return Instance(n, goods, [AdditiveValuation(i, weights[i]) for i in range(n)])


@given(random_forest_instances())
@settings(max_examples=250, deadline=None)
def test_solve_on_hypothesis_instances(inst):
    result = solve(inst)
    assert result.allocation.is_complete(inst)
    assert check_efx(inst, result.allocation).ok


@st.composite
def random_bipartite_mixed_instances(draw):
    """Bipartite multigraphs (cycles allowed) with a mix of valuation classes."""
    from trifree_efx import (
        AdditiveValuation,
        Good,
        Instance,
        MonotoneTableValuation,
        TransformedAdditiveValuation,
    )

    left = draw(st.integers(1, 3))
    right = draw(st.integers(1, 3))
    n = left + right
    cross = [(a, left + b) for a in range(left) for b in range(right)]
    m = draw(st.integers(0, 8))
    rows = [draw(st.sampled_from(cross)) for _ in range(m)]
    goods = []
    weights = [{} for _ in range(n)]
    for gid, (u, v) in enumerate(rows):
        goods.append(Good(gid, u, v))
        weights[u][gid] = draw(st.integers(0, 12))
        weights[v][gid] = draw(st.integers(0, 12))
    valuations = []
    for i in range(n):
        incident = sorted(weights[i])
        kind = draw(st.sampled_from(["additive", "transformed", "table"]))
        if kind == "table" and len(incident) <= 5:
            d = len(incident)
            table = [0] * (1 << d)
            for mask in range(1, 1 << d):
                best = draw(st.integers(0, 12))
                for b in range(d):
                    if mask >> b & 1:
                        best = max(best, table[mask ^ (1 << b)])
                table[mask] = best
            valuations.append(MonotoneTableValuation(i, incident, table))
        elif kind == "transformed":
            total = sum(weights[i].values())
            transform = [0]
            for _ in range(total):
                transform.append(transform[-1] + draw(st.integers(1, 3)))
            valuations.append(TransformedAdditiveValuation(i, weights[i], transform))
        else:
            valuations.append(AdditiveValuation(i, weights[i]))
    return Instance(n, goods, valuations)


@given(random_bipartite_mixed_instances())
@settings(max_examples=200, deadline=None)
def test_solve_on_mixed_valuation_instances(inst):
    result = solve(inst)
    assert result.allocation.is_complete(inst)
    assert check_efx(inst, result.allocation).ok


def test_validated_dumps_read_only_the_dumped_agents_pairs(monkeypatch):
    # before each dump the dumped agent's label is read from her own pairs;
    # no whole-state labelling is built
    from trifree_efx import GenSpec, phase3

    whole, own = [], []
    monkeypatch.setattr(phase3, "free_units", lambda *a, **k: whole.append(a))
    original = phase3.own_labels

    def counted(instance, alloc, order, cuts, i):
        own.append(i)
        return original(instance, alloc, order, cuts, i)

    monkeypatch.setattr(phase3, "own_labels", counted)
    inst = gen_instance(GenSpec(seed=1, n=140, m=420, topology="tree"))
    metrics = solve(inst).metrics
    assert metrics.phase3_dumps > 0
    assert whole == [] and len(own) == metrics.phase3_dumps
