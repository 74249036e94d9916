from bisect import insort
from itertools import islice, product

import pytest

from trifree_efx import (
    Allocation,
    SolveConfig,
    check_properties,
    envy_graph,
    run_phase1,
    run_phase2,
    solve,
)
from trifree_efx import phase2, verify
from trifree_efx.cuts import CutTable, PickOrder
from trifree_efx.errors import InternalSolverError
from trifree_efx.phase1 import SolveMetrics, SolverState, Validator
from trifree_efx.phase2 import LiveCheck, Potential, phase2_step
from trifree_efx.verify import envy_pairs
from trifree_efx.generate import (
    TOPOLOGIES,
    GenSpec,
    SplitMix64,
    _valuation,
    gen_adversarial_suite,
    gen_instance,
    suite_spec,
)
from trifree_efx.model import Good, Instance
from trifree_efx.oracle import scan_strong_envy

from helpers import additive_instance, pair_state, scratch_check, two_agent_parallel


def step_cap(inst):
    """The most repair steps ``run_phase2`` allows, as it computes them."""
    return max(1, inst.n**3)


def adversarial(name):
    for key, inst in gen_adversarial_suite():
        if key == name:
            return inst
    raise KeyError(name)


# -- single repair steps ------------------------------------------------------------


def test_fixed_point_returns_done_with_no_mutation():
    inst = two_agent_parallel([5, 3, 3])
    state = run_phase1(inst)
    run_phase2(state)
    before = state.alloc.bundles()
    assert phase2_step(state, scan=scratch_check(state)) is None
    assert state.alloc.bundles() == before


def test_rule_a_absorbs_free_sibling():
    # the star instance's first repair is the centre absorbing the free
    # sibling bundle next to an envied neighbour
    inst = adversarial("star_two_leaves")
    state = run_phase1(inst)
    record = phase2_step(state, scan=scratch_check(state))
    assert record.branch == "A"
    assert record.agent == 0
    # she now holds a bundle in each of her two pairs
    assert state.alloc.bundle(0) & inst.pair_goods(0, 1)
    assert state.alloc.bundle(0) & inst.pair_goods(0, 2)


def test_rule_c_swap_makes_agent_non_envied():
    inst = adversarial("swap_repair")
    state = run_phase1(inst)
    graph = envy_graph(inst, state.alloc)
    assert graph.enviers[1] == [0]
    record = phase2_step(state, scan=scratch_check(state))
    assert record.branch == "C"
    assert (record.agent, record.partner) == (1, 0)
    after = envy_graph(inst, state.alloc)
    assert 1 not in after.enviers
    assert 0 not in after.enviers


def test_rule_b_trades_held_bundles_for_leftovers():
    inst = adversarial("hub_trade")
    state = run_phase1(inst)
    hub = 1
    seen_b = False
    for _ in range(step_cap(inst) + 1):
        loose_before = state.alloc.free_among(inst.incident_goods(hub))
        record = phase2_step(state, scan=scratch_check(state))
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
    trail = [Potential.of(scratch_check(state))]
    for _ in range(step_cap(inst) + 1):
        if phase2_step(state, scan=scratch_check(state)) is None:
            break
        trail.append(Potential.of(scratch_check(state)))
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
    envied = envy_graph(instance, alloc).enviers
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
            if j in envied[i]:
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
    record = phase2_step(state, scan=scratch_check(state))
    assert (record.branch, record.agent, record.partner) == (branch, agent, partner)
    run_phase2(state)
    assert check_properties(inst, state.alloc, state.order, state.cuts).ok


# -- a broken orientation inside stage two ---------------------------------------------


@pytest.mark.parametrize("validate", [True, False])
def test_rule_giving_a_third_party_pair_goods_is_an_internal_error(monkeypatch, validate):
    # rule A hands the absorbed free bundle to an agent outside its pair;
    # the stage-two checks must report that as a broken guarantee, not as a
    # caller error.  The step's premise check names the outsider before
    # the live check reads the state.
    def misplace(state, scan, i):
        goods = scan.units.primary[i]
        ends = {end for g in goods for end in (inst.goods[g].u, inst.goods[g].v)}
        outsider = min(k for k in range(inst.n) if k not in ends)
        state.alloc.set_bundle(outsider, state.alloc.bundle(outsider) | goods)

    inst = adversarial("star_two_leaves")
    monkeypatch.setattr(phase2, "_apply_rule_a", misplace)
    with pytest.raises(InternalSolverError, match=r"agents \[1\] outside the step"):
        solve(inst, SolveConfig(validate_steps=validate))


@pytest.mark.parametrize("validate", [True, False])
def test_rule_taking_a_third_party_pair_good_is_an_internal_error(monkeypatch, validate):
    # rule A's agent also takes a free good of a pair she is not on: only
    # her bundle is set, so the premise holds, and the from-scratch checks
    # report the torn pair, the validated step's at once, unvalidated
    # stage three's opening one
    absorb = phase2._apply_rule_a

    def overreach(state, scan, i):
        absorb(state, scan, i)
        strays = state.alloc.free_among(range(inst.m)) - inst.incident_goods(i)
        if strays:
            state.alloc.set_bundle(i, state.alloc.bundle(i) | {min(strays)})

    inst = adversarial("star_two_leaves")
    monkeypatch.setattr(phase2, "_apply_rule_a", overreach)
    with pytest.raises(InternalSolverError) as err:
        solve(inst, SolveConfig(validate_steps=validate))
    assert "(2) x1" in str(err.value)
    assert str(err.value).startswith("rule A" if validate else "stage-two output")


def test_a_rule_setting_a_bystanders_bundle_is_an_internal_error(monkeypatch):
    # re-setting a bystander's bundle to itself changes no good, but the
    # live check would not recheck around her: the step's premise check,
    # which runs in both modes, refuses it
    absorb = phase2._apply_rule_a

    def with_bystander(state, scan, i):
        absorb(state, scan, i)
        bystander = max(k for k in range(inst.n) if k != i)
        state.alloc.set_bundle(bystander, state.alloc.bundle(bystander))

    inst = adversarial("star_two_leaves")
    assert solve(inst, SolveConfig(validate_steps=False)).metrics.phase2_branches["A"]
    monkeypatch.setattr(phase2, "_apply_rule_a", with_bystander)
    with pytest.raises(InternalSolverError, match=r"agents \[3\] outside the step"):
        solve(inst, SolveConfig(validate_steps=False))


# -- the live free-bundle check ----------------------------------------------------

VALUATION_CLASSES = ("additive", "transformed_additive", "monotone_table")


def cycle(n):
    return [(k, (k + 1) % n) for k in range(n)]


def petersen():
    outer = cycle(5)
    spokes = [(k, k + 5) for k in range(5)]
    inner = [(5 + k, 5 + (k + 2) % 5) for k in range(5)]
    return 10, outer + spokes + inner


def c5_blowup(per_vertex):
    """C5 with each vertex replaced by ``per_vertex`` independent agents."""
    edges = [
        (v * per_vertex + s, w * per_vertex + t)
        for v, w in cycle(5)
        for s in range(per_vertex)
        for t in range(per_vertex)
    ]
    return 5 * per_vertex, edges


ODD_SKELETONS = {
    "C5": (5, cycle(5)),
    "C7": (7, cycle(7)),
    "Petersen": petersen(),
    "C5x2": c5_blowup(2),
}


def odd_cycle_instance(skeleton, valuation_class, seed):
    """A triangle-free instance with odd cycles: 1-3 parallel goods per
    skeleton edge, valuations drawn as the generator draws them."""
    n, edges = ODD_SKELETONS[skeleton]
    rng = SplitMix64(seed)
    goods = []
    for a, b in edges:
        for _ in range(1 + rng.below(3)):
            goods.append(Good(len(goods), a, b))
    incident = [sorted(g.id for g in goods if i in (g.u, g.v)) for i in range(n)]
    spec = GenSpec(
        seed=seed, n=n, m=len(goods), topology="path", valuation_class=valuation_class, v_max=20
    )
    instance = Instance(n, goods, [_valuation(spec, rng, i, incident[i]) for i in range(n)])
    assert instance.is_triangle_free()
    return instance


def live_check_instances():
    for topology in TOPOLOGIES:
        for valuation_class in VALUATION_CLASSES:
            for index in range(8):
                if valuation_class == "monotone_table":
                    spec = suite_spec(
                        topology,
                        index,
                        valuation_class=valuation_class,
                        v_max=20,
                        max_parallel=2,
                        max_degree=4,
                        n_max=8,
                        m_max=16,
                    )
                else:
                    spec = suite_spec(topology, index, valuation_class=valuation_class)
                yield f"{topology}/{valuation_class}/{index}", gen_instance(spec)
    for name, instance in gen_adversarial_suite():
        yield name, instance
    for skeleton in ODD_SKELETONS:
        for valuation_class in VALUATION_CLASSES:
            for seed in range(4):
                name = f"{skeleton}/{valuation_class}/{seed}"
                yield name, odd_cycle_instance(skeleton, valuation_class, seed)


def test_live_check_matches_reference_every_step():
    """At every stage-two state the live check equals the from-scratch one.

    The loop is ``run_phase2``'s: the same step cap, a strictly falling
    potential, and a final check of properties (1)-(7).  The odd-cycle
    solves are also checked by the oracle's strong-envy scan and for
    completeness.
    """
    fired = {"A": 0, "B": 0, "C": 0}
    for name, inst in live_check_instances():
        state = run_phase1(inst)
        scan = scratch_check(state)
        live = LiveCheck(state, scan)
        assert live.check == scan, name
        for _ in range(step_cap(inst) + 1):
            record = phase2_step(state, scan=scan)
            if record is None:
                break
            fired[record.branch] += 1
            scan = live.update(record.changed())
            reference = scratch_check(state)
            assert scan == reference, (name, record)
            assert Potential.of(scan) < record.potential_before, (name, record)
        else:
            pytest.fail(f"{name}: stage two ran past its cap of {step_cap(inst)} steps")
        report = check_properties(inst, state.alloc, state.order, state.cuts)
        assert report.ok, (name, report.summary())
        if name.startswith(tuple(ODD_SKELETONS)):
            result = solve(inst, SolveConfig(validate_steps=False))
            assert result.allocation.is_complete(inst), name
            assert scan_strong_envy(inst, result.allocation) == [], name
    assert all(fired.values()), fired


# C5 with the edge (0, 1) doubled and one good on each other edge; with one
# good per edge rule C never fires on C5
C5_DOUBLED_EDGE = [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def test_c5_with_a_doubled_edge_bounded_exhaustive_slice():
    """Every 180th additive valuation with weights 0..2 on C5 with a doubled
    edge, in lexicographic order of the 12 weights (each good's weight for
    its lower-listed endpoint, then for the other, goods in the order of
    ``C5_DOUBLED_EDGE``): 2,953 of the 3**12.  Every solve is validated, so
    the live check is compared with the from-scratch one at every step;
    every output is complete with no strong envy by the oracle's scan, and
    rule A, rule C and a stage-three dump each happen."""
    fired = {"A": 0, "B": 0, "C": 0}
    dumps = solved = 0
    for weights in islice(product(range(3), repeat=12), 0, None, 180):
        rows = [
            (u, v, {u: weights[2 * k], v: weights[2 * k + 1]})
            for k, (u, v) in enumerate(C5_DOUBLED_EDGE)
        ]
        inst = additive_instance(5, rows)
        result = solve(inst)
        assert result.allocation.is_complete(inst), weights
        assert scan_strong_envy(inst, result.allocation) == [], weights
        for branch, count in result.metrics.phase2_branches.items():
            fired[branch] += count
        dumps += result.metrics.phase3_dumps
        solved += 1
    assert solved == 2953
    assert fired["A"] > 0 and fired["C"] > 0 and dumps > 0, (fired, dumps)


# the odd-cycle solves that fire rule B, found by sweeping seeds 0-199 of
# every skeleton and valuation class (5 of 2,400 solves fire it), and two
# 9-good C5 solves: additive 465 fires rules A and B and dumps twice,
# transformed additive 457 fires rules B and C and dumps once
RULE_B_ODD_CYCLES = [
    ("C5", "additive", 465),
    ("C5", "transformed_additive", 457),
    ("C7", "transformed_additive", 181),
    ("C7", "monotone_table", 72),
    ("C7", "monotone_table", 172),
    ("C7", "monotone_table", 198),
    ("Petersen", "monotone_table", 94),
]


@pytest.mark.parametrize("skeleton, valuation_class, seed", RULE_B_ODD_CYCLES)
def test_rule_b_fires_on_odd_cycles(skeleton, valuation_class, seed):
    """Rule B on the paper's new ground: a validated solve of a triangle-free
    skeleton with odd cycles fires rule B and ends complete and EFX by the
    oracle's strong-envy scan."""
    inst = odd_cycle_instance(skeleton, valuation_class, seed)
    result = solve(inst)
    assert result.metrics.phase2_branches["B"] >= 1
    assert result.allocation.is_complete(inst)
    assert scan_strong_envy(inst, result.allocation) == []


def unit_bundle_moves(state, rng):
    """Random bundle changes that keep every pair whole unit bundles on its
    endpoints: an agent frees her part of a pair, takes a free part of a
    pair she holds nothing of, swaps parts with her neighbour, or both free
    their parts.  Yields the agents each move changed."""
    instance, alloc = state.instance, state.alloc
    pairs = instance.skeleton_edges()
    for _ in range(3 * len(pairs)):
        a, b = pairs[rng.below(len(pairs))]
        if rng.below(2):
            a, b = b, a
        cut, _, held_a, held_b, free = pair_state(instance, alloc, state.order, state.cuts, a, b)
        move = rng.below(4)
        if move == 0 and held_a:
            alloc.set_bundle(a, alloc.bundle(a) - held_a)
            yield (a,)
        elif move == 1 and not held_a and free:
            part = next(p for p in cut.parts() if p and p <= free)
            alloc.set_bundle(a, alloc.bundle(a) | part)
            yield (a,)
        elif move == 2 and held_a and held_b:
            alloc.set_bundle(a, alloc.bundle(a) - held_a)
            alloc.set_bundle(b, alloc.bundle(b) - held_b | held_a)
            alloc.set_bundle(a, alloc.bundle(a) | held_b)
            yield (a, b)
        elif move == 3 and held_a and held_b:
            alloc.set_bundle(a, alloc.bundle(a) - held_a)
            alloc.set_bundle(b, alloc.bundle(b) - held_b)
            yield (a, b)


def test_live_check_follows_any_unit_bundle_move():
    """The live check is exact for any change that keeps property (2), not
    only for the repair rules.  In a valid run no rule changes a neighbour's
    envy toward the changed agents (rules A and B act on non-envied agents
    and create no envy; rule C's envied agent has a single envier), so only
    moves like these exercise that part of the update."""
    rng = SplitMix64(2024)
    for name, inst in live_check_instances():
        state = run_phase1(inst)
        run_phase2(state, validate=False)
        live = LiveCheck(state, scratch_check(state))
        for changed in unit_bundle_moves(state, rng):
            assert live.update(changed) == scratch_check(state), (name, changed)


def test_live_updates_compute_no_strong_envy(monkeypatch):
    """The live check holds envy as its envier index only, so an update
    never asks whether an envy is strong, over repair steps and arbitrary
    unit-bundle moves that create and remove envy."""
    witnesses = []
    original = verify.strong_envy_witness

    def counted(*args, **kwargs):
        witnesses.append(1)
        return original(*args, **kwargs)

    rng = SplitMix64(11)
    envied_after_update = 0
    for name, inst in islice(live_check_instances(), 0, None, 4):
        state = run_phase1(inst)
        scan = scratch_check(state)
        live = LiveCheck(state, scan)
        monkeypatch.setattr(verify, "strong_envy_witness", counted)
        for _ in range(step_cap(inst)):
            record = phase2_step(state, scan=scan)
            if record is None:
                break
            scan = live.update(record.changed())
        for changed in unit_bundle_moves(state, rng):
            envied_after_update += bool(live.update(changed).enviers)
        monkeypatch.setattr(verify, "strong_envy_witness", original)
        assert live.check == scratch_check(state), name
    assert envied_after_update > 0
    assert witnesses == []


def corrupt_own(instance, check, c):
    check.own[c] += 1


def corrupt_loose(instance, check, c):
    check.loose[c] ^= {min(instance.incident_goods(c))}


def corrupt_pairs(instance, check, c):
    k = min(instance.neighbors(c))
    key = (min(c, k), max(c, k))
    free, labels_a, labels_b = check.pairs[key]
    check.pairs[key] = (free ^ {min(instance.pair_goods(c, k))}, labels_a, labels_b)


CORRUPTIONS = {"own": corrupt_own, "loose": corrupt_loose, "pairs": corrupt_pairs}


@pytest.mark.parametrize("field", sorted(CORRUPTIONS) + ["neighbour loose"])
def test_a_validated_step_compares_the_live_reads(monkeypatch, field):
    """The reads the live check keeps are compared fields: after the first
    update has decided the break lists, corrupting one changed agent's own
    value or free goods, one pair's read, or the free goods of a neighbour
    outside the step, leaves the break lists right, and the validated check
    of that very step reports the corrupted field."""
    neighbour = field.startswith("neighbour ")
    name = field.split()[-1]
    corrupt = CORRUPTIONS[name]
    update = LiveCheck.update
    first = []

    def corrupted(self, changed):
        check = update(self, changed)
        if not first:
            changed = set(changed)
            c = min(changed)
            if neighbour:
                c = min(set(self.state.instance.neighbors(c)) - changed)
            corrupt(self.state.instance, check, c)
            first.append(changed)
        return check

    steps = []
    step = phase2.phase2_step

    def recorded(state, **kwargs):
        record = step(state, **kwargs)
        steps.append(record)
        return record

    monkeypatch.setattr(LiveCheck, "update", corrupted)
    monkeypatch.setattr(phase2, "phase2_step", recorded)
    state = run_phase1(adversarial("hub_trade"))
    with pytest.raises(InternalSolverError) as raised:
        run_phase2(state, validate=True)
    record = steps[0]
    assert str(raised.value) == (
        f"after rule {record.branch} on agent {record.agent} the live free-bundle "
        f"check differs from the reference in ['{name}']"
    )


def test_a_rule_fires_only_on_a_break_a_from_scratch_check_sees(monkeypatch):
    """A scoped step check compares the live check only around the agents
    the step changed, so before each validated step the agent its rule
    fires on has her rows decided from scratch.  Here the first update also
    lists a sound agent outside C ∪ N(C) as the first to break (5); the
    rule would fire on her next, and a validated run stops before it
    does."""
    update = LiveCheck.update
    planted = []

    def and_plant(self, changed):
        check = update(self, changed)
        if not planted:
            near = set(changed).union(*(self.state.instance.neighbors(c) for c in changed))
            first = check.breaks_5[0] if check.breaks_5 else self.state.instance.n
            far = [i for i in range(first) if i not in near]
            if far:
                insort(check.breaks_5, far[0])
                planted.append(far[0])
        return check

    monkeypatch.setattr(LiveCheck, "update", and_plant)
    inst = gen_instance(GenSpec(seed=1, n=200, m=600, topology="tree"))
    state = run_phase1(inst, validate=False)
    with pytest.raises(InternalSolverError, match=r"before rule A on agent (\d+) .*\['breaks_5'\]") as raised:
        run_phase2(state, validate=True)
    assert f"agent {planted[0]} " in str(raised.value)


@pytest.mark.parametrize(
    "branch, agent, partner, envy_before, error",
    [
        ("A", 5, None, {(3, 4)}, r"rule A on agent 5 created envy \[\(5, 6\)\]"),
        ("C", 4, 3, {(3, 4), (5, 6), (0, 2)}, "rule C left agent 4 envied"),
        ("C", 0, 6, {(3, 4), (5, 6), (0, 2)}, "rule C made the envier 6 envied"),
        # three pairs but two envied agents, as many as after the step
        ("C", 0, 1, {(3, 4), (5, 6), (0, 6)}, "rule C did not shrink"),
        ("C", 0, 1, {(3, 4), (5, 6), (0, 2)}, None),
    ],
)
def test_rule_postconditions_read_the_envy_pairs_from_before_the_step(
    branch, agent, partner, envy_before, error
):
    """A validated step checks its rule against the ``(envier, envied)``
    pairs the live check had before it; the envied agents are the distinct
    second elements.  Here the state after the step has the envy pairs
    (3, 4) and (5, 6).  Only pairs whose envied agent is in C ∪ N(C) are
    read, the only ones a step that changed C can change: agent 5's
    neighbourhood holds (5, 6), and agent 0's and 1's hold 2, 4 and 6."""
    state = run_phase1(adversarial("hub_trade"))
    run_phase2(state)
    live = scratch_check(state)
    assert envy_pairs(live.enviers) == [(3, 4), (5, 6)]
    record = phase2.StepRecord(branch, agent, partner, Potential(0, 0, 0))
    validator = Validator(SolveMetrics())
    validator.envy_before = envy_before
    if error is None:
        validator.step(state, record, live, phase2._pick(live))
    else:
        with pytest.raises(InternalSolverError, match=error):
            validator.step(state, record, live, phase2._pick(live))


def test_stage_two_builds_each_full_check_at_most_once(monkeypatch):
    # the live check replaces the per-step envy graph and free-unit labels,
    # whatever the number of steps
    counts = {"envy_graph": 0, "free_units": 0}
    for name in counts:
        original = getattr(phase2, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(phase2, name, counted)
    inst = gen_instance(GenSpec(seed=1, n=1000, m=3000, topology="tree"))
    metrics = solve(inst, SolveConfig(validate_steps=False)).metrics
    assert metrics.phase2_iterations > 100
    assert counts["envy_graph"] <= 1 and counts["free_units"] <= 1, counts


def test_a_scoped_step_builds_no_whole_envy_graph(monkeypatch):
    # a step that leaves breaks is checked scoped to the agents it changed,
    # which reads only the pairs touching them and rereads only the envy
    # pairs touching them; the stage opens with the one whole check, whose
    # one kernel read covers every pair
    builds = []
    for owner in (phase2, verify):
        original = owner.envy_graph

        def counted(*args, _original=original, **kwargs):
            builds.append(kwargs.get("owners"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, "envy_graph", counted)
    reads = []
    read_pairs = verify.read_pairs

    def counted_read(instance, alloc, order, cuts, pairs):
        reads.append(len(pairs))
        return read_pairs(instance, alloc, order, cuts, pairs)

    monkeypatch.setattr(verify, "read_pairs", counted_read)
    rereads = []
    reread = verify.Ledger.reread_envy

    def counted_reread(self, instance, scope, graph):
        rereads.append(scope)
        return reread(self, instance, scope, graph)

    monkeypatch.setattr(verify.Ledger, "reread_envy", counted_reread)
    # the first 40 steps are enough; the 41st stops the stage
    class Enough(Exception):
        pass

    step = phase2.phase2_step

    def first_steps(state, **kwargs):
        if metrics.phase2_iterations == 40:
            raise Enough
        return step(state, **kwargs)

    monkeypatch.setattr(phase2, "phase2_step", first_steps)
    inst = gen_instance(GenSpec(seed=1, n=1000, m=3000, topology="tree"))
    state = run_phase1(inst, validate=False)
    metrics = SolveMetrics()
    with pytest.raises(Enough):
        run_phase2(state, validate=True, metrics=metrics)
    assert metrics.phase2_iterations == 40
    assert builds == [] and len(rereads) == 40 and all(rereads)
    degrees = [sum(len(inst.neighbors(c)) for c in scope) for scope in rereads]
    assert reads[0] == len(inst.skeleton_edges()) and len(reads) == 41
    assert all(count <= degree for count, degree in zip(reads[1:], degrees)), reads


def test_live_check_sorts_only_what_a_step_changed(monkeypatch):
    """A step rereads only the pairs touching C, in one kernel call, and
    decides (5)-(7) only for C and N(C): each update reads at most one pair
    per pair of C, the sum of C's degrees, and calls
    ``agent_free_bundle_breaks`` at most once per agent of C ∪ N(C)."""
    calls = {"read_pairs": 0, "pairs": 0, "agent_free_bundle_breaks": 0}
    read_pairs, breaks = phase2.read_pairs, phase2.agent_free_bundle_breaks

    def counted_read(instance, alloc, order, cuts, pairs):
        calls["read_pairs"] += 1
        calls["pairs"] += len(pairs)
        return read_pairs(instance, alloc, order, cuts, pairs)

    def counted_breaks(*args, **kwargs):
        calls["agent_free_bundle_breaks"] += 1
        return breaks(*args, **kwargs)

    monkeypatch.setattr(phase2, "read_pairs", counted_read)
    monkeypatch.setattr(phase2, "agent_free_bundle_breaks", counted_breaks)
    original_update = LiveCheck.update
    steps = []

    def update(self, changed):
        changed = set(changed)
        neighbors = self.state.instance.neighbors
        pairs = sum(len(neighbors(c)) for c in changed)
        rechecked = len(changed.union(*(neighbors(c) for c in changed)))
        for name in calls:
            calls[name] = 0
        check = original_update(self, changed)
        assert calls["read_pairs"] == 1, (changed, calls)
        assert calls["pairs"] <= pairs, (changed, calls)
        assert calls["agent_free_bundle_breaks"] <= rechecked, (changed, calls)
        steps.append(calls["agent_free_bundle_breaks"])
        return check

    inst = gen_instance(GenSpec(seed=1, n=1000, m=3000, topology="tree"))
    state = run_phase1(inst, validate=False)
    monkeypatch.setattr(LiveCheck, "update", update)
    run_phase2(state, validate=False)
    assert len(steps) > 100 and all(steps)


class SetCounted(dict):
    """A dict that records the key of every item assignment."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __setitem__(self, i, value):
        self.log.append(i)
        super().__setitem__(i, value)


def test_a_step_updates_every_agents_sets_in_place():
    """Each pair touching C is reread once and, when it changed, its old
    part of both endpoints' label and free-goods sets is swapped for its
    new one in place: on a star, where a step changes many of the centre's
    pairs, no agent's set is ever replaced by a new one."""
    inst = gen_instance(GenSpec(seed=1, n=25, m=48, topology="star", max_parallel=2))
    assert len(inst.neighbors(0)) >= 20
    state = run_phase1(inst, validate=False)
    scan = scratch_check(state)
    live = LiveCheck(state, scan)
    built = []
    check = live.check
    check.loose = SetCounted(check.loose, built)
    check.units.primary = SetCounted(check.units.primary, built)
    check.units.secondary = SetCounted(check.units.secondary, built)
    centre_steps = 0
    for _ in range(step_cap(inst)):
        record = phase2_step(state, scan=scan)
        if record is None:
            break
        scan = live.update(record.changed())
        assert scan == scratch_check(state)
        centre_steps += 0 in record.changed()
    assert centre_steps > 0
    assert built == []
