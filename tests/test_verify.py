import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import (
    Allocation,
    GenSpec,
    SolveConfig,
    check_efx,
    check_completeness,
    check_properties,
    envy_graph,
    run_phase1,
    run_phase2,
    solve,
    solve_state,
)
from trifree_efx import phase1, phase2, phase3, verify
from trifree_efx.cuts import CutTable, FreeUnits, PickOrder, free_units
from trifree_efx.generate import TOPOLOGIES, gen_instance, suite_spec
from trifree_efx.model import VALUATION_CLASSES
from trifree_efx.oracle import scan_strong_envy
from trifree_efx.verify import (
    STAGE_ONE_PROPERTIES,
    CheckReport,
    agent_free_bundle_breaks,
    check_orientation,
    envy_pairs,
    strong_envy_witness,
)

from helpers import additive_instance, pair_fault, pair_state, two_agent_parallel


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
    assert graph.enviers == {1: [0]}
    # dropping good 0 leaves 3, no more than agent 0's own 3; dropping 2 leaves 5
    assert graph.strong == [(0, 1, 2)]


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
    return check_properties(inst, alloc, order, CutTable(inst)).only({4})


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
    for i, enviers in sorted(graph.enviers.items()):
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
        rep1 = check_properties(inst, state.alloc, state.order, state.cuts)
        rep1 = rep1.only(STAGE_ONE_PROPERTIES)
        assert rep1.ok, rep1.summary()
        run_phase2(state)
        rep2 = check_properties(inst, state.alloc, state.order, state.cuts)
        assert rep2.ok, rep2.summary()


def test_property2_flags_torn_unit_bundle():
    inst = two_agent_parallel([5, 3, 3])
    order = PickOrder.complete([0, 1])
    cuts = CutTable(inst)
    alloc = Allocation.from_bundles(2, [set(), {1}])  # half of the {3,3} part
    report = check_properties(inst, alloc, order, cuts).only({2})
    assert not report.ok and 2 in report.failures


def test_property3_flags_valuable_free_bundle():
    inst = two_agent_parallel([5, 3, 3])
    order = PickOrder.complete([0, 1])
    cuts = CutTable(inst)
    alloc = Allocation(2)  # nothing allocated but both parts are worth > 0
    report = check_properties(inst, alloc, order, cuts).only({3})
    assert not report.ok and 3 in report.failures


def test_property_report_serialisation():
    inst = two_agent_parallel([1])
    order = PickOrder.complete([0, 1])
    report = check_properties(inst, Allocation(2), order, CutTable(inst)).only({1, 4})
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
    """``(i, j, strong)`` for every envy pair of ``graph``, in ``(i, j)`` order."""
    strong = {(i, j) for i, j, _ in graph.strong}
    return [(i, j, (i, j) in strong) for i, j in envy_pairs(graph.enviers)]


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
    graph = envy_graph(inst, alloc)
    edges = edge_list(graph)
    assert edges == envy_definition(inst, alloc)
    assert [(i, j) for i, j, strong in edges if strong] == scan_strong_envy(inst, alloc)
    bundle = alloc.bundle
    assert graph.strong == [
        (i, j, strong_envy_witness(inst, i, bundle(i), bundle(j)))
        for i, j, strong in edges
        if strong
    ]


@given(
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(VALUATION_CLASSES),
    st.integers(0, 10_000),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_the_whole_checks_envy_from_pair_reads_equals_the_goods_scan(
    topology, valuation_class, index, data
):
    # the whole check builds its envy relation from its pair reads and the
    # stray goods; it equals envy_graph's scan over every good, witnesses
    # included, on any allocation and any order, complete or not
    spec = suite_spec(topology, index, valuation_class=valuation_class, v_max=20, max_degree=10)
    inst = gen_instance(spec)
    owners = data.draw(
        st.lists(st.integers(-1, inst.n - 1), min_size=inst.m, max_size=inst.m)
    )
    alloc = Allocation.from_bundles(
        inst.n, [[g for g, o in enumerate(owners) if o == i] for i in range(inst.n)]
    )
    agents = data.draw(st.permutations(range(inst.n)))
    ends = data.draw(st.lists(st.booleans(), min_size=inst.n, max_size=inst.n))
    order = PickOrder(inst.n)
    for i, front in zip(agents[: data.draw(st.integers(0, inst.n))], ends):
        (order.append_front if front else order.prepend_back)(i)
    graph = check_properties(inst, alloc, order, CutTable(inst)).graph
    expected = envy_graph(inst, alloc)
    assert (graph.enviers, graph.strong) == (expected.enviers, expected.strong)


@pytest.mark.parametrize("topology, index", [("bipartite", 7), ("cycle_even", 4)])
def test_envy_graph_matches_definition_on_solver_output(topology, index):
    # the cycle's final allocation keeps three (non-strong) envy edges
    inst = gen_instance(suite_spec(topology, index))
    result, _ = solve_state(inst)
    graph = envy_graph(inst, result.allocation)
    assert edge_list(graph) == envy_definition(inst, result.allocation)


# -- the one-pass property check against the per-property definitions -----------


def reference_failures(inst, alloc, order, cuts):
    """The numbered properties checked one property at a time, as they were
    written before the check became one pass: the envy relation is written
    out over every ordered pair, (2) walks the pairs, (3) walks each agent's
    pairs again, and (5)-(7), decided exactly when the order is complete,
    take their labels from ``free_units`` and their free goods from the
    allocation's complement."""
    failures = {}

    def add(prop, rows):
        if rows:
            failures.setdefault(prop, []).extend(rows)

    scope = {i for i in range(inst.n) if i not in order.unplaced}
    edges = envy_definition(inst, alloc)
    bundle = alloc.bundle
    add(1, check_orientation(inst, alloc).violations)
    add(1, [
        (i, j, strong_envy_witness(inst, i, bundle(i), bundle(j)))
        for i, j, strong in edges
        if strong
    ])
    for a, b in inst.skeleton_edges():
        if (a in scope or b in scope) and order.determined(a, b):
            fault = pair_fault(a, b, pair_state(inst, alloc, order, cuts, a, b))
            add(2, [fault] if fault else [])
    for i in sorted(scope):
        v = inst.valuations[i].value
        own = v(alloc.bundle(i))
        for j in inst.neighbors(i):
            if order.determined(i, j):
                cut, _, _, _, free = pair_state(inst, alloc, order, cuts, i, j)
                add(3, [
                    (i, j, sorted(part))
                    for part in cut.parts()
                    if part and part <= free and v(part) > own
                ])
    into = {j: i for i, j, _ in edges}
    add(4, [(into[i], i, j) for i, j, _ in edges if i in into][:1])
    if order.unplaced:
        return failures, None
    units = free_units(inst, alloc, order, cuts)
    free = inst.all_goods - alloc.allocated_goods()
    enviers = {}
    for i, j, _ in edges:
        enviers.setdefault(j, []).append(i)
    for i in range(inst.n):
        loose = free & inst.incident_goods(i)
        b5, b6, b7 = agent_free_bundle_breaks(
            inst,
            alloc,
            i,
            inst.valuations[i].value(alloc.bundle(i)),
            enviers.get(i, []),
            units.primary[i],
            units.secondary[i],
            loose,
        )
        if b5:
            add(5, [(i, sorted(units.primary[i]))])
        if b6:
            add(6, [(i, sorted(loose))])
        add(7, b7)
    return failures, units


@st.composite
def checked_states(draw):
    """A state to check: complete or partial picking orders, and per pair
    whole unit bundles on its endpoints or goods strewn over any agent
    (third-party holdings and torn bundles).  Properties (2) and (3) are
    scoped by the agents the order has placed."""
    topology = draw(st.sampled_from(TOPOLOGIES))
    valuation_class = draw(st.sampled_from(VALUATION_CLASSES))
    spec = suite_spec(
        topology,
        draw(st.integers(0, 10_000)),
        valuation_class=valuation_class,
        v_max=20,
        max_degree=6,
    )
    inst = gen_instance(spec)
    n = inst.n
    perm = draw(st.permutations(range(n)))
    order = PickOrder(n)
    front = draw(st.integers(0, n))
    back = n - front if draw(st.booleans()) else draw(st.integers(0, n - front))
    for i in perm[:front]:
        order.append_front(i)
    for i in perm[front : front + back]:
        order.prepend_back(i)
    cuts = CutTable(inst)
    owners = {}
    for a, b in inst.skeleton_edges():
        mode = draw(st.integers(0, 4)) if order.determined(a, b) else 4
        if mode == 4:
            for g in sorted(inst.pair_goods(a, b)):
                owner = draw(st.integers(-1, n - 1))
                if owner >= 0:
                    owners[g] = owner
            continue
        # 0: all free; 1: a holds a part; 2: b holds a part; 3: both hold one
        parts = cuts.cut(a, b, order.later(a, b)).parts()
        part_a, part_b = parts if draw(st.booleans()) else parts[::-1]
        for holder, part, holds in ((a, part_a, mode in (1, 3)), (b, part_b, mode in (2, 3))):
            if holds:
                owners.update((g, holder) for g in part)
    alloc = Allocation.from_bundles(
        n, [[g for g, o in owners.items() if o == i] for i in range(n)]
    )
    return inst, alloc, order, cuts


@given(checked_states())
@settings(max_examples=400, deadline=None)
def test_one_pass_matches_the_per_property_checks(state):
    inst, alloc, order, cuts = state
    expected, units = reference_failures(inst, alloc, order, cuts)
    report = check_properties(inst, alloc, order, cuts)
    assert report.failures == expected
    if units is None:
        # (5)-(7) apply only once the order is complete
        assert report.checked == {1, 2, 3, 4}
        assert report.free_bundles is None
    else:
        assert report.checked == set(range(1, 8))
        assert report.free_bundles.units == FreeUnits(
            dict(enumerate(units.primary)), dict(enumerate(units.secondary))
        )


def counting(monkeypatch, owners, name):
    """Count the calls made through ``name`` in each module of ``owners``."""
    calls = []
    for owner in owners:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_check_reads_each_determined_pair_once(monkeypatch):
    inst = gen_instance(GenSpec(seed=1, n=1000, m=3000, topology="tree"))
    state = run_phase2(run_phase1(inst, validate=False), validate=False)
    reads = []
    read_pairs = verify.read_pairs

    def counted(instance, alloc, order, cuts, pairs):
        reads.append(list(pairs))
        return read_pairs(instance, alloc, order, cuts, pairs)

    monkeypatch.setattr(verify, "read_pairs", counted)
    assert check_properties(inst, state.alloc, state.order, state.cuts).ok
    assert reads == [inst.skeleton_edges()]
    # a partial order: only pairs that are determined and touch the scope
    order = PickOrder(inst.n)
    for i in state.sigma()[:300]:
        order.append_front(i)
    reads.clear()
    check_properties(inst, Allocation(inst.n), order, state.cuts)
    determined = [
        (a, b) for a, b in inst.skeleton_edges() if a in order.front or b in order.front
    ]
    assert reads == [determined] and determined


def test_an_unvalidated_solve_builds_three_envy_graphs(monkeypatch):
    # stage two's opening check and stage three's opening check each build
    # theirs from one whole kernel read, and the final complete-and-EFX check
    # scans the goods
    reads = counting(monkeypatch, [verify], "read_pairs")
    builds = counting(monkeypatch, [phase1, phase2, phase3, verify], "envy_graph")
    inst = gen_instance(GenSpec(seed=1, n=1000, m=3000, topology="tree"))
    metrics = solve(inst, SolveConfig(validate_steps=False)).metrics
    assert metrics.phase2_iterations > 100 and metrics.phase3_dumps > 0
    assert len(reads) + len(builds) == 3 and len(builds) == 1
