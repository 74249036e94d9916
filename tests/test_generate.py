import hashlib
import json

import pytest

from trifree_efx import InconsistentSpecError, check_efx, solve
from trifree_efx.generate import (
    GenSpec,
    SplitMix64,
    gen_adversarial_suite,
    gen_instance,
    gen_triangle_instance,
    suite_spec,
)
from trifree_efx.serialize import instance_to_json

TOPOLOGIES = ("bipartite", "c4_girth", "tree", "star", "path", "cycle_even")


# -- the documented random stream ----------------------------------------------


def test_splitmix64_known_answers():
    # published SplitMix64 reference outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_masking():
    assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


def test_below_is_modulo():
    rng1, rng2 = SplitMix64(42), SplitMix64(42)
    assert rng1.below(1000) == rng2.next_u64() % 1000


# -- instance generation -----------------------------------------------------------


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_generated_instances_are_valid_and_triangle_free(topology):
    for idx in range(40):
        spec = suite_spec(topology, idx)
        inst = gen_instance(spec)
        assert inst.is_triangle_free()
        assert inst.n == spec.n and inst.m == spec.m


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_same_seed_same_instance(topology):
    spec = suite_spec(topology, 11)
    a = instance_to_json(gen_instance(spec))
    b = instance_to_json(gen_instance(spec))
    assert json.dumps(a) == json.dumps(b)


# Hashes of ``json.dumps(instance_to_json(...))``, recorded before the goods
# placement stopped searching the open-edge list for a saturated edge.
PINNED_INSTANCES = [
    (
        GenSpec(seed=8, n=200, m=20000, topology="bipartite", v_max=10**6, max_parallel=2),
        "84a82ce377f4bbc10b111fc18b30b9fa4daa00958b523b1608613f47a7962409",
    ),
    (
        GenSpec(seed=1, n=50, m=1250, topology="bipartite", v_max=10**6, max_parallel=2),
        "84643f754d1b482f35fec8af672522261b6f3f13ebe11a7d5e2c8d2304ad62a5",
    ),
    (
        GenSpec(seed=3, n=60, m=50, topology="tree", max_parallel=2, max_degree=3),
        "1a3fb7726603e30536f9c7bd66608e04473d6260aff8933dfd1ed7c32c7116bd",
    ),
    (
        GenSpec(
            seed=5,
            n=8,
            m=14,
            topology="bipartite",
            valuation_class="monotone_table",
            v_max=20,
            max_parallel=2,
            max_degree=4,
        ),
        "ea5965bdb8d5e9fad5acfb6d53c81257e52678baabdc756725329ff2b4bc6de0",
    ),
]


@pytest.mark.parametrize(
    "spec, digest", PINNED_INSTANCES, ids=["criterion8", "dense50", "tree-deg3", "monotone"]
)
def test_generated_instance_text_is_pinned(spec, digest):
    text = json.dumps(instance_to_json(gen_instance(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_different_seeds_differ_somewhere():
    blobs = {
        json.dumps(instance_to_json(gen_instance(suite_spec("tree", idx))))
        for idx in range(12)
    }
    assert len(blobs) > 1


def test_star_skeleton_shape():
    inst = gen_instance(GenSpec(seed=5, n=6, m=8, topology="star"))
    assert all(0 in (g.u, g.v) for g in inst.goods)


def test_bipartite_skeleton_is_two_colourable():
    inst = gen_instance(GenSpec(seed=5, n=7, m=12, topology="bipartite"))
    colour = {}
    for i in range(inst.n):
        if i in colour:
            continue
        stack = [(i, 0)]
        while stack:
            v, c = stack.pop()
            if v in colour:
                assert colour[v] == c
                continue
            colour[v] = c
            for u in inst.neighbors(v):
                stack.append((u, 1 - c))


def test_cycle_even_requires_even_n():
    with pytest.raises(InconsistentSpecError):
        gen_instance(GenSpec(seed=1, n=5, m=4, topology="cycle_even"))


def test_c4_girth_requires_four_agents():
    with pytest.raises(InconsistentSpecError):
        gen_instance(GenSpec(seed=1, n=3, m=2, topology="c4_girth"))


def test_unknown_topology_rejected():
    with pytest.raises(InconsistentSpecError):
        gen_instance(GenSpec(seed=1, n=4, m=2, topology="pentagon"))


def test_capacity_overflow_rejected():
    with pytest.raises(InconsistentSpecError):
        gen_instance(GenSpec(seed=1, n=2, m=9, topology="path", max_parallel=4))


def test_max_parallel_respected():
    inst = gen_instance(GenSpec(seed=3, n=6, m=14, topology="path", max_parallel=3))
    counts = {}
    for g in inst.goods:
        key = (g.u, g.v) if g.u < g.v else (g.v, g.u)
        counts[key] = counts.get(key, 0) + 1
    assert max(counts.values()) <= 3


def test_max_degree_respected():
    inst = gen_instance(
        GenSpec(
            seed=3,
            n=8,
            m=8,
            topology="tree",
            valuation_class="monotone_table",
            max_parallel=2,
            max_degree=4,
        )
    )
    for i in range(inst.n):
        assert len(inst.incident_goods(i)) <= 4


@pytest.mark.parametrize("max_degree", [0, -5])
def test_degree_cap_below_one_rejected(max_degree):
    with pytest.raises(InconsistentSpecError):
        gen_instance(GenSpec(seed=3, n=3, m=1, topology="path", max_degree=max_degree))
    with pytest.raises(InconsistentSpecError):
        suite_spec("tree", 1, max_degree=max_degree)


def test_weight_bounds_respected():
    inst = gen_instance(GenSpec(seed=9, n=5, m=10, topology="tree", v_max=7))
    for val in inst.valuations:
        assert all(0 <= w <= 7 for w in val.weights.values())


def test_transformed_instances_generate_and_solve():
    inst = gen_instance(
        GenSpec(seed=4, n=5, m=8, topology="tree", valuation_class="transformed_additive", v_max=9)
    )
    result = solve(inst)
    assert check_efx(inst, result.allocation).ok


def test_triangle_instance_has_a_triangle():
    for seed in range(20):
        inst = gen_triangle_instance(seed, n=4)
        assert inst.find_triangle() is not None


def test_suite_spec_respects_bounds():
    for topo in TOPOLOGIES:
        for idx in range(50):
            spec = suite_spec(topo, idx)
            assert 1 <= spec.n <= 10
            assert 0 <= spec.m <= 30
            assert spec.v_max == 50 and spec.max_parallel == 4


def test_adversarial_suite_is_valid():
    names = [name for name, _ in gen_adversarial_suite()]
    assert names == [
        "star_two_leaves",
        "hub_trade",
        "swap_repair",
        "adjacent_envied_dump",
        "c4_parallel3",
    ]
    for _, inst in gen_adversarial_suite():
        assert inst.is_triangle_free()
        result = solve(inst)
        assert result.allocation.is_complete(inst)
        assert check_efx(inst, result.allocation).ok


def test_adversarial_suite_exercises_every_repair_rule():
    fired = {"A": 0, "B": 0, "C": 0}
    for _, inst in gen_adversarial_suite():
        branches = solve(inst).metrics.phase2_branches
        for key in fired:
            fired[key] += branches[key]
    assert all(count > 0 for count in fired.values())
