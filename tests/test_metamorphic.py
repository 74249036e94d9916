"""Metamorphic solves: instances changed in ways that keep every EFX answer.

Relabelling the agents or the goods renames every allocation, and a
strictly increasing transform of one agent's additive weight sum keeps
every comparison she makes, so each variant of a solvable instance is
solvable too.  The solver breaks ties by ascending id, so a relabelled
variant may end in a different allocation; each validated solve of a
variant must still be complete with no strong envy by the oracle's scan.
The solver only ever compares two values of one agent, so the transformed
variant must end in the very allocation and picking order of the original.

The instances are the pinned digest suite's additive cells and every
odd-cycle instance of the live-check tests.  The oracle tabulates every
subset of an agent's incident goods, so it scans only the instances whose
largest degree is at most ``ORACLE_DEGREE_CAP``; the others (star centres
and dense bipartite agents of degree 15 to 24) keep the solver's own final
complete-and-EFX check, which raises on a failure.
"""

from trifree_efx import (
    AdditiveValuation,
    Instance,
    MonotoneTableValuation,
    SolveConfig,
    TransformedAdditiveValuation,
    solve,
)
from trifree_efx.generate import SplitMix64, gen_instance
from trifree_efx.model import Good
from trifree_efx.oracle import scan_strong_envy

from test_digest import pinned_specs
from test_phase2 import ODD_SKELETONS, VALUATION_CLASSES, odd_cycle_instance

ORACLE_DEGREE_CAP = 14


def metamorphic_instances():
    for spec in pinned_specs():
        if spec.valuation_class == "additive":
            yield f"{spec.topology}/{spec.seed}", gen_instance(spec)
    for skeleton in ODD_SKELETONS:
        for valuation_class in VALUATION_CLASSES:
            for seed in range(4):
                name = f"{skeleton}/{valuation_class}/{seed}"
                yield name, odd_cycle_instance(skeleton, valuation_class, seed)


def permutation(size, rng):
    """A uniformly drawn permutation of ``range(size)`` (Fisher-Yates)."""
    perm = list(range(size))
    for k in range(size - 1, 0, -1):
        j = rng.below(k + 1)
        perm[k], perm[j] = perm[j], perm[k]
    return perm


def relabelled(instance, agents, goods):
    """``instance`` with agent ``i`` renamed ``agents[i]`` and good ``g``
    renamed ``goods[g]``; every valuation keeps its class and its values."""
    new_goods = [None] * instance.m
    for g in instance.goods:
        new_goods[goods[g.id]] = Good(goods[g.id], agents[g.u], agents[g.v])
    valuations = [None] * instance.n
    for i, val in enumerate(instance.valuations):
        owner = agents[i]
        if isinstance(val, MonotoneTableValuation):
            order = sorted(goods[g] for g in val.good_order)
            back = {goods[g]: g for g in val.good_order}
            table = [
                val.value({back[order[k]] for k in range(len(order)) if mask >> k & 1})
                for mask in range(1 << len(order))
            ]
            valuations[owner] = MonotoneTableValuation(owner, order, table)
        else:
            weights = {goods[g]: w for g, w in val.weights.items()}
            if isinstance(val, TransformedAdditiveValuation):
                valuations[owner] = TransformedAdditiveValuation(owner, weights, val.transform)
            else:
                valuations[owner] = AdditiveValuation(owner, weights)
    return Instance(instance.n, new_goods, valuations)


def transformed(instance, rng):
    """``instance`` with one additive agent's valuation replaced by her
    weight sum under a drawn strictly increasing transform; ``None`` when
    no agent is additive."""
    additive = [i for i, val in enumerate(instance.valuations) if type(val) is AdditiveValuation]
    if not additive:
        return None
    agent = additive[rng.below(len(additive))]
    weights = instance.valuations[agent].weights
    transform = [0]
    for _ in range(sum(weights.values())):
        transform.append(transform[-1] + 1 + rng.below(5))
    valuations = list(instance.valuations)
    valuations[agent] = TransformedAdditiveValuation(agent, weights, transform)
    return Instance(instance.n, instance.goods, valuations)


def variants(instance, rng):
    yield "agents", relabelled(
        instance, permutation(instance.n, rng), list(range(instance.m))
    )
    yield "goods", relabelled(
        instance, list(range(instance.n)), permutation(instance.m, rng)
    )
    changed = transformed(instance, rng)
    if changed is not None:
        yield "transform", changed


def answer(result):
    return [sorted(bundle) for bundle in result.allocation.bundles()], result.sigma


def test_relabelled_and_transformed_instances_solve_to_efx():
    rng = SplitMix64(15)
    scanned = solved = 0
    for name, instance in metamorphic_instances():
        degree = max((len(instance.incident_goods(i)) for i in range(instance.n)), default=0)
        for kind, variant in variants(instance, rng):
            result = solve(variant, SolveConfig(validate_steps=True))
            assert result.allocation.is_complete(variant), (name, kind)
            solved += 1
            if degree <= ORACLE_DEGREE_CAP:
                assert scan_strong_envy(variant, result.allocation) == [], (name, kind)
                scanned += 1
            if kind == "transform":
                assert answer(result) == answer(solve(instance)), name
    assert solved > 450 and scanned > 0.9 * solved, (solved, scanned)
