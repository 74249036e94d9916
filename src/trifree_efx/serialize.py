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
from .verify import envy_graph, envy_pairs


def _require(cond: bool, message: str, *args) -> None:
    """Raise ``message.format(*args)`` unless ``cond``: a valid payload
    builds no message text (so does :func:`_as_int`'s ``what``)."""
    if not cond:
        raise ValidationError(message.format(*args))


def _as_int(x, what: str, *args) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{what.format(*args)} must be an integer, got {x!r}")
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
        _require(key in data, "instance payload is missing {!r}", key)
    n = _as_int(data["n"], "n")
    _require(isinstance(data["goods"], list), "goods must be a list")
    goods = []
    for pos, entry in enumerate(data["goods"]):
        _require(isinstance(entry, dict), "good {} must be an object", pos)
        goods.append(
            Good(
                _as_int(entry.get("id"), "good {} id", pos),
                _as_int(entry.get("u"), "good {} endpoint u", pos),
                _as_int(entry.get("v"), "good {} endpoint v", pos),
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
        _require(isinstance(entry, dict), "valuation {} must be an object", pos)
        agent = _as_int(entry.get("agent"), "valuation {} agent", pos)
        _require(0 <= agent < n, "valuation {}: agent {} out of range", pos, agent)
        cls = entry.get("class")
        mine = sorted(incident.get(agent, []))
        incident_to_agent = set(mine)
        if cls in ("additive", "transformed_additive"):
            raw = entry.get("weights", {})
            _require(isinstance(raw, dict), "agent {}: weights must be an object", agent)
            weights = {}
            for key, w in raw.items():
                try:
                    gid = int(key)
                except (TypeError, ValueError):
                    raise ValidationError(f"agent {agent}: bad weight key {key!r}")
                _require(
                    gid in incident_to_agent,
                    "agent {}: weight for non-incident good {}",
                    agent,
                    gid,
                )
                weights[gid] = _as_int(w, "agent {} weight of good {}", agent, gid)
            for gid in mine:
                weights.setdefault(gid, 0)
            if cls == "additive":
                valuations.append(AdditiveValuation(agent, weights))
            else:
                transform = entry.get("transform")
                _require(
                    isinstance(transform, list),
                    "agent {}: transformed_additive needs a transform list",
                    agent,
                )
                valuations.append(
                    TransformedAdditiveValuation(
                        agent,
                        weights,
                        [_as_int(t, "agent {} transform entry", agent) for t in transform],
                    )
                )
        elif cls == "monotone_table":
            raw = entry.get("table")
            _require(isinstance(raw, dict), "agent {}: table must be an object", agent)
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
                    "agent {}: table key {} outside 0..{}",
                    agent,
                    mask,
                    size - 1,
                )
                table[mask] = _as_int(v, "agent {} table entry {}", agent, mask)
            missing = [k for k, v in enumerate(table) if v is None]
            _require(not missing, "agent {}: table is missing subsets {}", agent, missing[:5])
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
        len(bundles) == instance.n, "expected {} bundles, got {}", instance.n, len(bundles)
    )
    seen: dict[int, int] = {}
    for i, entry in enumerate(bundles):
        _require(isinstance(entry, list), "bundle {} must be a list", i)
        for g in entry:
            gid = _as_int(g, "bundle {} entry", i)
            _require(0 <= gid < instance.m, "bundle {}: unknown good {}", i, gid)
            _require(
                gid not in seen, "good {} appears in bundles {} and {}", gid, seen.get(gid), i
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
    strong = {(i, j) for i, j, _ in graph.strong}
    lines = ["digraph envy {"]
    for i in range(instance.n):
        lines.append(f"  {i};")
    for i, j in envy_pairs(graph.enviers):
        label = ' [label="strong"]' if (i, j) in strong else ""
        lines.append(f"  {i} -> {j}{label};")
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
