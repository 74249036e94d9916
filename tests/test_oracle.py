import tracemalloc
from itertools import product

import pytest

from trifree_efx import (
    AdditiveValuation,
    Allocation,
    Instance,
    SearchSpaceTooLargeError,
    ValidationError,
    check_efx,
    enumerate_efx_allocations,
    solve,
    verify_cut_exhaustive,
)
from trifree_efx.generate import SplitMix64, gen_instance, suite_spec
from trifree_efx.oracle import scan_strong_envy

from helpers import owner_tuple, two_agent_parallel


def brute_force_reference(inst):
    """Test-local re-derivation: every assignment, checked by the public
    definition-level checker."""
    out = []
    for owners in product(range(inst.n), repeat=inst.m):
        bundles = [
            frozenset(g for g, o in enumerate(owners) if o == i) for i in range(inst.n)
        ]
        alloc = Allocation.from_bundles(inst.n, bundles)
        if check_efx(inst, alloc).ok:
            out.append(owners)
    return out


def test_one_shared_good_has_two_efx_allocations():
    inst = two_agent_parallel([1])
    found = enumerate_efx_allocations(inst)
    assert len(found) == 2
    assert {owner_tuple(a, inst) for a in found} == {(0,), (1,)}


def test_no_goods_has_exactly_the_empty_allocation():
    inst = Instance(2, [], [AdditiveValuation(0, {}), AdditiveValuation(1, {})])
    found = enumerate_efx_allocations(inst)
    assert len(found) == 1
    assert found[0].bundles() == (frozenset(), frozenset())


def test_enumeration_matches_test_local_reference():
    for idx in range(40):
        inst = gen_instance(suite_spec("path", idx, n_max=3, m_max=5))
        got = [owner_tuple(a, inst) for a in enumerate_efx_allocations(inst)]
        assert got == brute_force_reference(inst)


def test_enumeration_order_is_mixed_radix_ascending():
    inst = two_agent_parallel([4, 2, 1])
    owners = [owner_tuple(a, inst) for a in enumerate_efx_allocations(inst)]
    assert owners == sorted(owners)


def test_limit_truncates_reproducibly():
    inst = two_agent_parallel([1, 1, 1, 1])
    full = enumerate_efx_allocations(inst)
    assert len(full) > 3
    prefix = enumerate_efx_allocations(inst, limit=3)
    assert [a.bundles() for a in prefix] == [a.bundles() for a in full[:3]]


@pytest.mark.parametrize("weights", [[], [1, 1]])
def test_limit_zero_returns_no_allocation(weights):
    inst = two_agent_parallel(weights)
    assert enumerate_efx_allocations(inst, limit=0) == []


def test_negative_limit_rejected():
    with pytest.raises(ValidationError):
        enumerate_efx_allocations(two_agent_parallel([1]), limit=-1)


def test_guard_rejects_large_spaces():
    inst = gen_instance(suite_spec("star", 1, n_max=10))
    with pytest.raises(SearchSpaceTooLargeError):
        enumerate_efx_allocations(inst, guard=1)


def test_solver_output_is_enumerated_for_tiny_instances():
    hits = 0
    for topo in ("tree", "star", "c4_girth"):
        for idx in range(30):
            inst = gen_instance(suite_spec(topo, idx, n_max=4, m_max=7))
            if inst.n > 4 or inst.m > 7:
                continue
            found = enumerate_efx_allocations(inst)
            assert found, "every triangle-free instance must admit a solution"
            owners = {owner_tuple(a, inst) for a in found}
            result = solve(inst)
            assert owner_tuple(result.allocation, inst) in owners
            hits += 1
    assert hits >= 40


def test_strong_envy_scan_agrees_with_checker():
    rng = SplitMix64(123)
    for idx in range(60):
        inst = gen_instance(suite_spec("cycle_even", idx, n_max=4, m_max=6))
        if inst.m == 0:
            continue
        for _ in range(4):
            owners = [rng.below(inst.n) for _ in range(inst.m)]
            alloc = Allocation.from_bundles(
                inst.n,
                [frozenset(g for g, o in enumerate(owners) if o == i) for i in range(inst.n)],
            )
            expected = {(i, j) for (i, j, _) in check_efx(inst, alloc).violations}
            assert set(scan_strong_envy(inst, alloc)) == expected


# -- exhaustive cut verification ---------------------------------------------------


def test_cut_verified_for_five_three_three():
    inst = two_agent_parallel([5, 3, 3])
    assert verify_cut_exhaustive(inst, 0, inst.pair_goods(0, 1))


def test_cut_verified_for_empty_set():
    inst = two_agent_parallel([1])
    assert verify_cut_exhaustive(inst, 0, frozenset())


def test_cut_verified_for_monotone_tables():
    for idx in range(25):
        inst = gen_instance(
            suite_spec(
                "path",
                idx,
                valuation_class="monotone_table",
                max_parallel=2,
                max_degree=3,
                n_max=4,
                m_max=6,
            )
        )
        for agent in range(inst.n):
            for j in inst.neighbors(agent):
                assert verify_cut_exhaustive(inst, agent, inst.pair_goods(agent, j))


def test_cut_verification_guard():
    inst = two_agent_parallel([1] * 23)
    with pytest.raises(SearchSpaceTooLargeError):
        verify_cut_exhaustive(inst, 0, inst.pair_goods(0, 1))


@pytest.mark.parametrize(
    "check",
    [
        lambda inst: scan_strong_envy(inst, Allocation(inst.n)),
        lambda inst: enumerate_efx_allocations(inst, limit=1),
    ],
    ids=["scan", "enumerate"],
)
def test_table_degree_guard_comes_before_the_table(check):
    # degree 21 is one past the cap: the agent's two 2^21-entry int64 tables
    # would take 32 MB, so a small allocation peak shows the guard came
    # first; 2^21 assignments pass the enumeration guard
    inst = two_agent_parallel([1] * 21)
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLargeError, match="agent 0 has degree 21"):
            check(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
