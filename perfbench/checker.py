"""Independent check of one solver output against its instance JSON.

This deliberately does not call ``verify.check_efx`` or any other checker
the solver uses on itself.  It reads the instance as generated (the JSON the
program was given) and the output as printed (the JSON the program wrote):

* additive and transformed-additive agents use a closed form.  Agent i
  strongly envies j iff ``raw_i(B_j) - min_{g in B_j} w_i(g) > raw_i(B_i)``,
  where a good not incident to i weighs 0; a strictly increasing transform
  keeps that order, so raw weight sums decide it for both classes;
* monotone-table agents go through ``oracle.scan_strong_envy``, the
  brute-force subset-table scan;
* completeness: n bundles that partition the goods, and a picking order that
  is a permutation of the agents;
* an instance whose skeleton has a triangle must be refused with a witness of
  three distinct, pairwise adjacent agents; any other instance must be solved.

``check`` returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from trifree_efx.model import Allocation
from trifree_efx.oracle import scan_strong_envy
from trifree_efx.serialize import instance_from_json


def _adjacency(data: dict) -> list[set[int]]:
    neigh: list[set[int]] = [set() for _ in range(data["n"])]
    for good in data["goods"]:
        neigh[good["u"]].add(good["v"])
        neigh[good["v"]].add(good["u"])
    return neigh


def _has_triangle(neigh: list[set[int]]) -> bool:
    return any(neigh[a] & neigh[b] for a in range(len(neigh)) for b in neigh[a])


def _partition_problems(data: dict, bundles) -> list[str]:
    n, m = data["n"], len(data["goods"])
    if not isinstance(bundles, list) or len(bundles) != n:
        return [f"expected {n} bundles"]
    owner: dict[int, int] = {}
    problems = []
    for i, bundle in enumerate(bundles):
        for g in bundle:
            if not isinstance(g, int) or not 0 <= g < m:
                problems.append(f"bundle {i} holds unknown good {g!r}")
            elif g in owner:
                problems.append(f"good {g} is in bundles {owner[g]} and {i}")
            else:
                owner[g] = i
    missing = m - len(owner)
    if missing:
        problems.append(f"{missing} goods unallocated")
    return problems


def _additive_strong_envy(data: dict, bundles: list[list[int]], agents) -> list[str]:
    problems = []
    owner = {g: j for j, bundle in enumerate(bundles) for g in bundle}
    for i in agents:
        entry = data["valuations"][i]
        w = {int(g): x for g, x in entry["weights"].items()}
        own = sum(w.get(g, 0) for g in bundles[i])
        candidates = {owner[g] for g in w if g in owner} - {i}
        for j in sorted(candidates):
            weights = [w.get(g, 0) for g in bundles[j]]
            if sum(weights) - min(weights) > own:
                problems.append(f"agent {i} strongly envies agent {j}")
    return problems


def check(data: dict, output: dict) -> list[str]:
    """Problems with ``output`` as the answer to the instance ``data``."""
    neigh = _adjacency(data)
    if "triangle" in output:
        if not _has_triangle(neigh):
            return ["a triangle-free instance was refused"]
        a, b, c = output["triangle"]
        if len({a, b, c}) != 3 or not (b in neigh[a] and c in neigh[a] and c in neigh[b]):
            return [f"witness {output['triangle']} is not a triangle"]
        return []
    if _has_triangle(neigh):
        return ["an instance with a triangle was solved"]
    bundles = output.get("bundles")
    problems = _partition_problems(data, bundles)
    if sorted(output.get("sigma") or ()) != list(range(data["n"])):
        problems.append("sigma is not a permutation of the agents")
    if problems:
        return problems
    by_class: dict[str, list[int]] = {}
    for entry in data["valuations"]:
        by_class.setdefault(entry["class"], []).append(entry["agent"])
    additive = by_class.get("additive", []) + by_class.get("transformed_additive", [])
    problems += _additive_strong_envy(data, bundles, additive)
    tables = set(by_class.get("monotone_table", ()))
    if tables:
        instance = instance_from_json(data)
        alloc = Allocation.from_bundles(data["n"], bundles)
        problems += [
            f"agent {i} strongly envies agent {j}"
            for i, j in scan_strong_envy(instance, alloc)
            if i in tables
        ]
    return problems
