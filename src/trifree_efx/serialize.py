"""Wire formats: instance and allocation JSON, and DOT export.

Instance JSON::

    {"n": 3,
     "goods": [{"id": 0, "u": 0, "v": 1}, ...],
     "valuations": [
        {"agent": 0, "class": "additive", "weights": {"0": 5}},
        {"agent": 1, "class": "transformed_additive",
         "weights": {"0": 5}, "transform": [0, 2, 4, 7, 8, 9]},
        {"agent": 2, "class": "monotone_table", "table": {"0": 0, "1": 4}},
     ]}

All values are integers.  ``weights`` is keyed by good id and may omit
incident goods (they default to weight 0).  ``table`` is keyed by the bitmask
over the agent's incident goods in ascending good-id order and must cover
every subset.  Allocation JSON is ``{"bundles": [[goodId, ...], ...]}`` with
ascending ids inside each bundle; solver output additionally carries
``sigma`` (the picking order) and ``metrics``.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import ValidationError
from .model import (
    AdditiveValuation,
    Allocation,
    Good,
    Instance,
    MonotoneTableValuation,
    TransformedAdditiveValuation,
    check_agent_count,
    check_table_degree,
)
from .verify import envy_graph


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _as_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def instance_to_json(instance: Instance) -> dict:
    valuations = []
    for val in instance.valuations:
        entry: dict = {"agent": val.owner, "class": val.class_name}
        if isinstance(val, TransformedAdditiveValuation):
            entry["weights"] = {str(g): val.weights[g] for g in sorted(val.weights)}
            entry["transform"] = list(val.transform)
        elif isinstance(val, AdditiveValuation):
            entry["weights"] = {str(g): val.weights[g] for g in sorted(val.weights)}
        elif isinstance(val, MonotoneTableValuation):
            entry["table"] = {str(k): v for k, v in enumerate(val.table)}
        else:
            raise ValidationError(f"cannot serialise valuation {type(val).__name__}")
        valuations.append(entry)
    return {
        "n": instance.n,
        "goods": [{"id": g.id, "u": g.u, "v": g.v} for g in instance.goods],
        "valuations": valuations,
    }


def instance_from_json(data: dict) -> Instance:
    _require(isinstance(data, dict), "instance payload must be an object")
    for key in ("n", "goods", "valuations"):
        _require(key in data, f"instance payload is missing {key!r}")
    n = _as_int(data["n"], "n")
    _require(isinstance(data["goods"], list), "goods must be a list")
    goods = []
    for pos, entry in enumerate(data["goods"]):
        _require(isinstance(entry, dict), f"good {pos} must be an object")
        goods.append(
            Good(
                _as_int(entry.get("id"), f"good {pos} id"),
                _as_int(entry.get("u"), f"good {pos} endpoint u"),
                _as_int(entry.get("v"), f"good {pos} endpoint v"),
            )
        )
    _require(isinstance(data["valuations"], list), "valuations must be a list")
    check_agent_count(n, len(data["valuations"]))  # before the size-n dict
    incident: dict[int, list[int]] = {i: [] for i in range(n)}
    for g in goods:
        if 0 <= g.u < n and 0 <= g.v < n:
            incident[g.u].append(g.id)
            incident[g.v].append(g.id)
    valuations = []
    for pos, entry in enumerate(data["valuations"]):
        _require(isinstance(entry, dict), f"valuation {pos} must be an object")
        agent = _as_int(entry.get("agent"), f"valuation {pos} agent")
        _require(0 <= agent < n, f"valuation {pos}: agent {agent} out of range")
        cls = entry.get("class")
        mine = sorted(incident.get(agent, []))
        if cls in ("additive", "transformed_additive"):
            raw = entry.get("weights", {})
            _require(isinstance(raw, dict), f"agent {agent}: weights must be an object")
            weights = {}
            for key, w in raw.items():
                try:
                    gid = int(key)
                except (TypeError, ValueError):
                    raise ValidationError(f"agent {agent}: bad weight key {key!r}")
                _require(
                    gid in mine,
                    f"agent {agent}: weight for non-incident good {gid}",
                )
                weights[gid] = _as_int(w, f"agent {agent} weight of good {gid}")
            for gid in mine:
                weights.setdefault(gid, 0)
            if cls == "additive":
                valuations.append(AdditiveValuation(agent, weights))
            else:
                transform = entry.get("transform")
                _require(
                    isinstance(transform, list),
                    f"agent {agent}: transformed_additive needs a transform list",
                )
                valuations.append(
                    TransformedAdditiveValuation(
                        agent,
                        weights,
                        [_as_int(t, f"agent {agent} transform entry") for t in transform],
                    )
                )
        elif cls == "monotone_table":
            raw = entry.get("table")
            _require(isinstance(raw, dict), f"agent {agent}: table must be an object")
            check_table_degree(agent, len(mine))  # before the 2^degree list exists
            size = 1 << len(mine)
            table = [None] * size
            for key, v in raw.items():
                try:
                    mask = int(key)
                except (TypeError, ValueError):
                    raise ValidationError(f"agent {agent}: bad table key {key!r}")
                _require(
                    0 <= mask < size,
                    f"agent {agent}: table key {mask} outside 0..{size - 1}",
                )
                table[mask] = _as_int(v, f"agent {agent} table entry {mask}")
            missing = [k for k, v in enumerate(table) if v is None]
            _require(
                not missing,
                f"agent {agent}: table is missing subsets {missing[:5]}",
            )
            valuations.append(MonotoneTableValuation(agent, mine, table))
        else:
            raise ValidationError(f"agent {agent}: unknown valuation class {cls!r}")
    return Instance(n, goods, valuations)


def allocation_to_json(alloc: Allocation) -> dict:
    return {"bundles": [sorted(b) for b in alloc.bundles()]}


def allocation_from_json(data: dict, instance: Instance) -> tuple[Allocation, Optional[list[int]]]:
    """Parse an allocation (and the picking order, when present)."""
    _require(isinstance(data, dict), "allocation payload must be an object")
    _require("bundles" in data, "allocation payload is missing 'bundles'")
    bundles = data["bundles"]
    _require(isinstance(bundles, list), "'bundles' must be a list")
    _require(
        len(bundles) == instance.n,
        f"expected {instance.n} bundles, got {len(bundles)}",
    )
    seen: dict[int, int] = {}
    for i, entry in enumerate(bundles):
        _require(isinstance(entry, list), f"bundle {i} must be a list")
        for g in entry:
            gid = _as_int(g, f"bundle {i} entry")
            _require(0 <= gid < instance.m, f"bundle {i}: unknown good {gid}")
            _require(
                gid not in seen,
                f"good {gid} appears in bundles {seen.get(gid)} and {i}",
            )
            seen[gid] = i
    alloc = Allocation.from_bundles(instance.n, [frozenset(b) for b in bundles])
    sigma = data.get("sigma")
    if sigma is not None:
        _require(isinstance(sigma, list), "'sigma' must be a list")
        sigma = [_as_int(s, "sigma entry") for s in sigma]
        _require(
            sorted(sigma) == list(range(instance.n)),
            "'sigma' must be a permutation of the agents",
        )
    return alloc, sigma


def envy_graph_dot(instance: Instance, alloc: Allocation) -> str:
    """DOT digraph of the envy relation, nodes and edges in ascending order."""
    graph = envy_graph(instance, alloc)
    lines = ["digraph envy {"]
    for i in range(instance.n):
        lines.append(f"  {i};")
    for edge in graph.edges:  # in (src, dst) order
        if edge.strong:
            lines.append(f'  {edge.src} -> {edge.dst} [label="strong"];')
        else:
            lines.append(f"  {edge.src} -> {edge.dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8 text, or nested deeper than the parser's recursion limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is a ``ValidationError``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def dump_json(payload: dict, path: Optional[str]) -> str:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if path is not None:
        write_text(path, text)
    return text
