"""Seeded instance generators for harnesses and benchmarks.

Randomness comes from a self-contained SplitMix64 stream so that a given
seed produces the bit-identical instance on every platform and in every
implementation of this format:

* state update: ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
* output mix:   ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64)
* bounded draw: ``below(k) = next_u64() % k``

Draws happen in a fixed, documented order (skeleton, then good placement in
good-id order, then valuations in agent order), so the stream fully
determines the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .errors import InconsistentSpecError
from .model import (
    AdditiveValuation,
    Good,
    Instance,
    MonotoneTableValuation,
    TransformedAdditiveValuation,
    Valuation,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

TOPOLOGIES = ("bipartite", "c4_girth", "tree", "star", "path", "cycle_even")


class SplitMix64:
    """Deterministic 64-bit stream; the module docstring pins the constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        for k in range(len(items) - 1, 0, -1):
            j = self.below(k + 1)
            items[k], items[j] = items[j], items[k]


@dataclass(frozen=True)
class GenSpec:
    seed: int
    n: int
    m: int
    topology: str
    valuation_class: str = "additive"
    v_max: int = 50
    max_parallel: int = 4
    max_degree: Optional[int] = None

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "n": self.n,
            "m": self.m,
            "topology": self.topology,
            "valuation_class": self.valuation_class,
            "v_max": self.v_max,
            "max_parallel": self.max_parallel,
        }
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        return out


def _check_spec(spec: GenSpec) -> None:
    for name in ("seed", "n", "m", "v_max", "max_parallel", "max_degree"):
        value = getattr(spec, name)
        # bool is a subclass of int, but true is no size
        if type(value) is not int and not (name == "max_degree" and value is None):
            raise InconsistentSpecError(f"{name} must be an integer, not {value!r}")
    if spec.topology not in TOPOLOGIES:
        raise InconsistentSpecError(f"unknown topology {spec.topology!r}")
    if spec.n < 1 or spec.m < 0 or spec.v_max < 0 or spec.max_parallel < 1:
        raise InconsistentSpecError("sizes must be positive (m, v_max may be 0)")
    _check_degree_cap(spec.max_degree)
    if spec.topology in ("star", "path", "bipartite") and spec.n < 2 and spec.m > 0:
        raise InconsistentSpecError(f"{spec.topology} with goods needs n >= 2")
    if spec.topology == "cycle_even" and (spec.n < 4 or spec.n % 2):
        raise InconsistentSpecError("cycle_even needs an even agent count >= 4")
    if spec.topology == "c4_girth" and spec.n < 4:
        raise InconsistentSpecError("c4_girth needs n >= 4")
    if spec.valuation_class not in ("additive", "transformed_additive", "monotone_table"):
        raise InconsistentSpecError(f"unknown valuation class {spec.valuation_class!r}")


def _check_degree_cap(max_degree: Optional[int]) -> None:
    # a cap below 1 would only bite after the first good is placed
    if max_degree is not None and max_degree < 1:
        raise InconsistentSpecError(f"max_degree must be at least 1, got {max_degree}")


def _skeleton(spec: GenSpec, rng: SplitMix64) -> list[tuple[int, int]]:
    n = spec.n
    if spec.topology == "star":
        return [(0, i) for i in range(1, n)]
    if spec.topology == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if spec.topology == "cycle_even":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if spec.topology == "tree":
        return [(rng.below(i), i) for i in range(1, n)]
    if spec.topology == "bipartite":
        need = math.ceil(spec.m / spec.max_parallel)
        sizes = [
            l for l in range(1, n) if l * (n - l) >= need
        ]
        if not sizes and spec.m > 0:
            raise InconsistentSpecError(
                f"no bipartition of {n} agents can host {spec.m} goods "
                f"at multiplicity {spec.max_parallel}"
            )
        left = sizes[rng.below(len(sizes))] if sizes else max(1, n - 1)
        cands = [(a, b) for a in range(left) for b in range(left, n)]
        rng.shuffle(cands)
        k = need + rng.below(len(cands) - need + 1) if cands else 0
        return [tuple(sorted(e)) for e in cands[:k]]
    if spec.topology == "c4_girth":
        edges = {(0, 1), (1, 2), (2, 3), (0, 3)}
        neigh = {i: set() for i in range(n)}
        for a, b in edges:
            neigh[a].add(b)
            neigh[b].add(a)
        for _ in range(2 * n):
            a = rng.below(n)
            b = rng.below(n)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            if (a, b) in edges or (neigh[a] & neigh[b]):
                continue  # keep the skeleton triangle-free
            edges.add((a, b))
            neigh[a].add(b)
            neigh[b].add(a)
        return sorted(edges)
    raise AssertionError(spec.topology)


def _place_goods(spec: GenSpec, rng: SplitMix64, edges: list[tuple[int, int]]) -> list[Good]:
    # the open list keeps skeleton order; removals preserve it, so drawing
    # the k-th open edge is equivalent to rebuilding the eligible list.
    # Skeleton edges are unique, so a saturated edge is deleted at its
    # drawn index instead of searched for.
    open_edges = list(edges)
    multiplicity = {e: 0 for e in edges}
    degree = [0] * spec.n
    goods = []
    for gid in range(spec.m):
        if not open_edges:
            raise InconsistentSpecError(
                f"cannot place good {gid}: no edge has capacity left"
            )
        k = rng.below(len(open_edges))
        a, b = edge = open_edges[k]
        multiplicity[edge] += 1
        degree[a] += 1
        degree[b] += 1
        goods.append(Good(gid, a, b))
        if multiplicity[edge] >= spec.max_parallel:
            del open_edges[k]
        if spec.max_degree is not None:
            saturated = {x for x in (a, b) if degree[x] >= spec.max_degree}
            if saturated:
                open_edges = [
                    e for e in open_edges if not (set(e) & saturated)
                ]
    return goods


def _valuation(spec: GenSpec, rng: SplitMix64, agent: int, incident: list[int]) -> Valuation:
    if spec.valuation_class in ("additive", "transformed_additive"):
        weights = {g: rng.below(spec.v_max + 1) for g in incident}
        if spec.valuation_class == "additive":
            return AdditiveValuation(agent, weights)
        transform = [0]
        for _ in range(sum(weights.values())):
            transform.append(transform[-1] + 1 + rng.below(3))
        return TransformedAdditiveValuation(agent, weights, transform)
    d = len(incident)
    base = [0] * (1 << d)
    for mask in range(1, 1 << d):
        base[mask] = rng.below(spec.v_max + 1)
    table = [0] * (1 << d)
    for mask in range(1, 1 << d):
        best = base[mask]
        for b in range(d):
            if mask >> b & 1:
                best = max(best, table[mask ^ (1 << b)])
        table[mask] = best
    return MonotoneTableValuation(agent, incident, table)


def gen_instance(spec: GenSpec) -> Instance:
    """Deterministically generate one triangle-free instance from a spec."""
    _check_spec(spec)
    if spec.valuation_class == "monotone_table":
        cap = spec.max_degree if spec.max_degree is not None else 20
        if cap > 20:
            raise InconsistentSpecError("monotone tables cap the degree at 20")
        spec = replace(spec, max_degree=cap)
    rng = SplitMix64(spec.seed)
    edges = _skeleton(spec, rng)
    goods = _place_goods(spec, rng, edges)
    incident: list[list[int]] = [[] for _ in range(spec.n)]
    for g in goods:
        incident[g.u].append(g.id)
        incident[g.v].append(g.id)
    valuations = [
        _valuation(spec, rng, i, sorted(incident[i])) for i in range(spec.n)
    ]
    instance = Instance(spec.n, goods, valuations)
    assert instance.is_triangle_free(), "generator produced a triangle"
    return instance


def gen_triangle_instance(seed: int, n: int = 3, v_max: int = 20) -> Instance:
    """A deliberately triangle-containing instance for the rejection guard."""
    if n < 3:
        raise InconsistentSpecError("a triangle needs at least 3 agents")
    rng = SplitMix64(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    for _ in range(n):
        a, b = rng.below(n), rng.below(n)
        if a != b and tuple(sorted((a, b))) not in edges:
            edges.append(tuple(sorted((a, b))))
    goods = [Good(i, a, b) for i, (a, b) in enumerate(edges)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for g in goods:
        incident[g.u].append(g.id)
        incident[g.v].append(g.id)
    valuations = [
        AdditiveValuation(i, {g: rng.below(v_max + 1) for g in sorted(incident[i])})
        for i in range(n)
    ]
    return Instance(n, goods, valuations)


def _additive_instance(n: int, rows: list[tuple[int, int, dict[int, int]]]) -> Instance:
    """Build an instance from (u, v, {agent: weight}) rows, one per good, id = position."""
    goods = [Good(gid, u, v) for gid, (u, v, _) in enumerate(rows)]
    weights: list[dict[int, int]] = [{} for _ in range(n)]
    for gid, (u, v, per_agent) in enumerate(rows):
        for agent in (u, v):
            weights[agent][gid] = per_agent.get(agent, 0)
    return Instance(n, goods, [AdditiveValuation(i, weights[i]) for i in range(n)])


def gen_adversarial_suite() -> list[tuple[str, Instance]]:
    """Fixed handcrafted instances aimed at the solver's corner cases.

    * ``star_two_leaves``: a non-envied agent ends up envying two of her
      neighbours while a fourth agent sits beside both; the dump stage hands
      that fourth agent's pairs across non-incident boundaries.
    * ``hub_trade``: a hub absorbs worthless primary bundles (rule A), then
      trades them plus nothing for the valuable free siblings (rule B).
    * ``swap_repair``: an envied agent prefers her envier's bundle plus a
      free bundle, forcing the unit-bundle swap (rule C).
    * ``adjacent_envied_dump``: two adjacent envied agents survive the
      repair loop; the dump splits their shared pair between two distinct
      enviers.
    * ``c4_parallel3``: a four-cycle with every pair carrying three parallel
      goods.
    """
    suite: list[tuple[str, Instance]] = []

    suite.append(
        (
            "star_two_leaves",
            _additive_instance(
                4,
                [
                    (0, 1, {0: 6, 1: 10}),
                    (0, 1, {0: 1, 1: 0}),
                    (0, 2, {0: 6, 2: 10}),
                    (0, 2, {0: 1, 2: 0}),
                    (1, 3, {1: 1, 3: 3}),
                    (1, 3, {1: 1, 3: 3}),
                    (2, 3, {2: 1, 3: 2}),
                    (2, 3, {2: 1, 3: 2}),
                ],
            ),
        )
    )

    suite.append(
        (
            "hub_trade",
            _additive_instance(
                7,
                [
                    (0, 1, {0: 1, 1: 0}),
                    (1, 2, {1: 5, 2: 0}),
                    (1, 4, {1: 0, 4: 5}),
                    (1, 4, {1: 4, 4: 1}),
                    (3, 4, {3: 9, 4: 10}),
                    (3, 4, {3: 7, 4: 0}),
                    (1, 6, {1: 0, 6: 5}),
                    (1, 6, {1: 4, 6: 1}),
                    (5, 6, {5: 9, 6: 10}),
                    (5, 6, {5: 7, 6: 0}),
                ],
            ),
        )
    )

    suite.append(
        (
            "swap_repair",
            _additive_instance(
                4,
                [
                    (0, 1, {0: 6, 1: 6}),
                    (0, 1, {0: 5, 1: 5}),
                    (1, 3, {1: 4, 3: 5}),
                    (1, 3, {1: 0, 3: 4}),
                    (2, 3, {2: 9, 3: 10}),
                    (2, 3, {2: 7, 3: 0}),
                ],
            ),
        )
    )

    suite.append(
        (
            "adjacent_envied_dump",
            _additive_instance(
                4,
                [
                    (0, 1, {0: 6, 1: 6}),
                    (0, 1, {0: 5, 1: 5}),
                    (1, 3, {1: 0, 3: 1}),
                    (1, 3, {1: 0, 3: 1}),
                    (2, 3, {2: 9, 3: 10}),
                    (2, 3, {2: 7, 3: 0}),
                ],
            ),
        )
    )

    rng = SplitMix64(0xC4_3)
    rows = []
    for u, v in ((0, 1), (1, 2), (2, 3), (0, 3)):
        for _ in range(3):
            rows.append((u, v, {u: rng.below(21), v: rng.below(21)}))
    suite.append(("c4_parallel3", _additive_instance(4, rows)))
    return suite


def suite_spec(
    topology: str,
    index: int,
    *,
    base_seed: int = 20_740,
    n_max: int = 10,
    m_max: int = 30,
    v_max: int = 50,
    max_parallel: int = 4,
    valuation_class: str = "additive",
    n_cap: Optional[int] = None,
    m_cap: Optional[int] = None,
    max_degree: Optional[int] = None,
) -> GenSpec:
    """Derive the ``index``-th spec of a topology's suite, sizes included.

    Sizes are drawn from the same deterministic stream as the instance
    content, respecting each topology's constraints (parity, capacity).
    """
    _check_degree_cap(max_degree)
    seed = (base_seed * 0x100000001B3 + index) & _MASK64
    rng = SplitMix64(seed ^ 0xD6E8FEB86659FD93)
    n_hi = min(n_max, n_cap) if n_cap else n_max
    m_hi = min(m_max, m_cap) if m_cap else m_max
    if topology == "cycle_even":
        choices = [k for k in range(4, n_hi + 1) if k % 2 == 0] or [4]
        n = choices[rng.below(len(choices))]
        capacity = n * max_parallel
    elif topology == "c4_girth":
        n = 4 + rng.below(max(n_hi - 3, 1))
        capacity = 4 * max_parallel  # only the guaranteed base cycle counts
    elif topology == "tree":
        n = 2 + rng.below(max(n_hi - 1, 1))
        capacity = (n - 1) * max_parallel
    elif topology in ("star", "path"):
        n = 2 + rng.below(max(n_hi - 1, 1))
        capacity = (n - 1) * max_parallel
    elif topology == "bipartite":
        n = 2 + rng.below(max(n_hi - 1, 1))
        capacity = (n // 2) * ((n + 1) // 2) * max_parallel
    else:
        raise InconsistentSpecError(f"unknown topology {topology!r}")
    if max_degree is not None:
        capacity = min(capacity, (n * max_degree) // 2)
    m = rng.below(min(m_hi, capacity) + 1)
    spec = GenSpec(
        seed=seed,
        n=n,
        m=m,
        topology=topology,
        valuation_class=valuation_class,
        v_max=v_max,
        max_parallel=max_parallel,
        max_degree=max_degree,
    )
    if max_degree is not None:
        # a degree cap interacts with the drawn skeleton; shrink m until the
        # placement fits (deterministic, a pure function of the GenSpec)
        while spec.m > 0:
            try:
                gen_instance(spec)
                break
            except InconsistentSpecError:
                spec = replace(spec, m=spec.m - 1)
    return spec
