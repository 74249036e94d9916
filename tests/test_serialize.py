import json
import tracemalloc

import pytest

from trifree_efx import (
    Allocation,
    ValidationError,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
)
from trifree_efx.generate import GenSpec, gen_instance
from trifree_efx.serialize import envy_graph_dot
from trifree_efx.model import Good, Instance

from helpers import additive_instance, two_agent_parallel


# -- round trips -------------------------------------------------------------


@pytest.mark.parametrize(
    "valuation_class", ["additive", "transformed_additive", "monotone_table"]
)
def test_instance_round_trip(valuation_class):
    spec = GenSpec(
        seed=6,
        n=5,
        m=6,
        topology="tree",
        valuation_class=valuation_class,
        v_max=9,
        max_parallel=2,
        max_degree=4 if valuation_class == "monotone_table" else None,
    )
    inst = gen_instance(spec)
    payload = instance_to_json(inst)
    again = instance_from_json(json.loads(json.dumps(payload)))
    assert instance_to_json(again) == payload


def test_allocation_round_trip():
    inst = two_agent_parallel([3, 2, 1])
    alloc = Allocation.from_bundles(2, [{0, 2}, {1}])
    payload = allocation_to_json(alloc)
    again, sigma = allocation_from_json(json.loads(json.dumps(payload)), inst)
    assert again == alloc
    assert sigma is None
    assert payload["bundles"] == [[0, 2], [1]]


def test_allocation_with_sigma_round_trip():
    inst = two_agent_parallel([3])
    payload = {"bundles": [[0], []], "sigma": [1, 0]}
    alloc, sigma = allocation_from_json(payload, inst)
    assert sigma == [1, 0]


# -- parse validation -------------------------------------------------------------


def test_missing_weights_default_to_zero():
    payload = {
        "n": 2,
        "goods": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 0, "v": 1}],
        "valuations": [
            {"agent": 0, "class": "additive", "weights": {"0": 4}},
            {"agent": 1, "class": "additive", "weights": {}},
        ],
    }
    inst = instance_from_json(payload)
    assert inst.valuations[0].value(frozenset({0, 1})) == 4
    assert inst.valuations[1].value(frozenset({0, 1})) == 0


def test_non_incident_weight_rejected():
    payload = {
        "n": 3,
        "goods": [{"id": 0, "u": 0, "v": 1}],
        "valuations": [
            {"agent": 0, "class": "additive", "weights": {"0": 1}},
            {"agent": 1, "class": "additive", "weights": {"0": 1}},
            {"agent": 2, "class": "additive", "weights": {"0": 1}},
        ],
    }
    with pytest.raises(ValidationError):
        instance_from_json(payload)


def test_float_weights_rejected():
    payload = {
        "n": 2,
        "goods": [{"id": 0, "u": 0, "v": 1}],
        "valuations": [
            {"agent": 0, "class": "additive", "weights": {"0": 1.5}},
            {"agent": 1, "class": "additive", "weights": {"0": 1}},
        ],
    }
    with pytest.raises(ValidationError):
        instance_from_json(payload)


def test_incomplete_table_rejected():
    payload = {
        "n": 2,
        "goods": [{"id": 0, "u": 0, "v": 1}],
        "valuations": [
            {"agent": 0, "class": "monotone_table", "table": {"0": 0}},
            {"agent": 1, "class": "additive", "weights": {"0": 1}},
        ],
    }
    with pytest.raises(ValidationError):
        instance_from_json(payload)


def test_table_degree_cap_checked_before_the_table_is_built():
    # degree 21 is one past the cap; the 2^21-entry list alone would take
    # about 16 MB, so a small allocation peak shows the cap came first
    payload = {
        "n": 2,
        "goods": [{"id": g, "u": 0, "v": 1} for g in range(21)],
        "valuations": [
            {"agent": 0, "class": "monotone_table", "table": {"0": 0}},
            {"agent": 1, "class": "additive", "weights": {}},
        ],
    }
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="degree 21 exceeds the monotone-table cap of 20"):
            instance_from_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize(
    "build",
    [
        lambda n: instance_from_json({"n": n, "goods": [], "valuations": []}),
        lambda n: Instance(n, [], []),
    ],
    ids=["json", "constructor"],
)
def test_valuation_count_checked_before_anything_of_size_n(build):
    # the incidence structures of 200,000 agents take tens of MB, so a small
    # allocation peak shows the count was checked first
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="need one valuation per agent: got 0 for 200000"):
            build(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_overlapping_bundles_rejected():
    inst = two_agent_parallel([1, 1])
    with pytest.raises(ValidationError):
        allocation_from_json({"bundles": [[0], [0]]}, inst)


def test_unknown_good_in_bundle_rejected():
    inst = two_agent_parallel([1])
    with pytest.raises(ValidationError):
        allocation_from_json({"bundles": [[7], []]}, inst)


def test_table_bitmask_respects_ascending_good_ids():
    # agent 0 is incident to goods 0 and 2: bit 0 is good 0, bit 1 is good 2
    goods = [Good(0, 0, 1), Good(1, 1, 2), Good(2, 0, 2)]
    payload = {
        "n": 3,
        "goods": [{"id": g.id, "u": g.u, "v": g.v} for g in goods],
        "valuations": [
            {
                "agent": 0,
                "class": "monotone_table",
                "table": {"0": 0, "1": 5, "2": 7, "3": 12},
            },
            {"agent": 1, "class": "additive", "weights": {"0": 1, "1": 1}},
            {"agent": 2, "class": "additive", "weights": {"1": 1, "2": 1}},
        ],
    }
    inst = instance_from_json(payload)
    assert inst.valuations[0].value(frozenset({0})) == 5
    assert inst.valuations[0].value(frozenset({2})) == 7
    assert inst.valuations[0].value(frozenset({0, 2})) == 12


# -- DOT export ---------------------------------------------------------------------


def test_dot_isolated_nodes_when_no_envy():
    inst = two_agent_parallel([1])
    dot = envy_graph_dot(inst, Allocation.from_bundles(2, [{0}, set()]))
    assert dot.splitlines()[0] == "digraph envy {"
    assert "  0;" in dot and "  1;" in dot
    assert "->" not in dot or "0 ->" not in dot.replace("1 -> 0", "")


def test_dot_mutual_envy_antiparallel_edges():
    inst = additive_instance(
        2,
        [
            (0, 1, {0: 5, 1: 0}),
            (0, 1, {0: 0, 1: 5}),
        ],
    )
    alloc = Allocation.from_bundles(2, [{1}, {0}])
    dot = envy_graph_dot(inst, alloc)
    assert "  0 -> 1;" in dot
    assert "  1 -> 0;" in dot


def test_dot_marks_strong_envy():
    inst = two_agent_parallel([5, 3, 3])
    alloc = Allocation.from_bundles(2, [{1}, {0, 2}])
    dot = envy_graph_dot(inst, alloc)
    assert '  0 -> 1 [label="strong"];' in dot
