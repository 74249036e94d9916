"""The benchmark's workloads: how each one turns a seed into solver inputs.

A workload's inputs are ``count`` instance JSON texts, the form the ``solve``
command reads.  ``inputs(seed)`` is the whole set-up step and is what
``setup_s`` times.  The end-to-end run cycles through the list for as long
as it measures, so each instance is solved several times; the traced run and
the behaviour digest cover the list once, so their counts repeat exactly for
a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from trifree_efx.generate import (
    TOPOLOGIES,
    GenSpec,
    gen_instance,
    gen_triangle_instance,
    suite_spec,
)
from trifree_efx.serialize import instance_to_json

VALUATION_CLASSES = ("additive", "transformed_additive", "monotone_table")
TRIANGLE_EVERY = 250


def _text(instance) -> str:
    return json.dumps(instance_to_json(instance))


def _spec_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


# Complete bipartite K(n/2, n/2) with two goods per pair, the shape of
# acceptance criterion 8 (n=200) scaled to n=50 so that one solve takes a
# fraction of a second and every instance is solved several times per run.
def make_dense(seed: int, count: int) -> list[str]:
    return [
        _text(
            gen_instance(
                GenSpec(
                    seed=_spec_seed(seed, k),
                    n=50,
                    m=1250,
                    topology="bipartite",
                    v_max=10**6,
                    max_parallel=2,
                )
            )
        )
        for k in range(count)
    ]


# n * m stays above the solver's 50,000-cell threshold for its numpy envy
# path, as on larger sparse instances (a cycle cannot be smaller than 130).
# A cycle needs about 0.8n stage-two repairs against about 0.45n on a tree,
# so even at these sizes a cycle takes about 1.4x as long as a tree, and the
# latency median of the three trees and three cycles is the mean of the
# slowest tree and the fastest cycle.
SPARSE_SHAPES = (("tree", 140), ("cycle_even", 130))


def make_sparse(seed: int, count: int) -> list[str]:
    texts = []
    for k in range(count):
        topology, n = SPARSE_SHAPES[k % len(SPARSE_SHAPES)]
        spec = GenSpec(seed=_spec_seed(seed, k), n=n, m=3 * n, topology=topology)
        texts.append(_text(gen_instance(spec)))
    return texts


def small_instance(seed: int, index: int):
    """The ``index``-th instance of the small mixed suite for ``seed``."""
    if index % TRIANGLE_EVERY == TRIANGLE_EVERY - 1:
        return gen_triangle_instance(_spec_seed(seed, index), n=3 + index % 4)
    topology = TOPOLOGIES[index % len(TOPOLOGIES)]
    valuation_class = VALUATION_CLASSES[index // len(TOPOLOGIES) % 3]
    if valuation_class == "monotone_table":
        spec = suite_spec(
            topology,
            index,
            base_seed=seed,
            valuation_class=valuation_class,
            v_max=20,
            max_parallel=2,
            max_degree=4,
            n_max=8,
            m_max=16,
        )
    else:
        spec = suite_spec(topology, index, base_seed=seed, valuation_class=valuation_class)
    return gen_instance(spec)


def make_small(seed: int, count: int) -> list[str]:
    return [_text(small_instance(seed, k)) for k in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], list[str]]
    count: int
    validate_steps: bool

    def inputs(self, seed: int) -> list[str]:
        return self.make(seed, self.count)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_bipartite", make_dense, 6, False),
        Workload("sparse_tree", make_sparse, 6, False),
        Workload("small_mixed_validated", make_small, 250, True),
    )
}
