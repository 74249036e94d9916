import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from trifree_efx import (
    Allocation,
    ValidationError,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
)
from trifree_efx.generate import GenSpec, gen_instance
from trifree_efx.phase3 import solve
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


def test_loading_is_not_quadratic_in_an_agents_degree():
    # each weight key is checked against the agent's incident goods: a scan
    # of her sorted list per key took 13 s on a 2-vCPU host, a set 0.3 s
    centre = 40_000
    leaves = 200
    payload = {
        "n": leaves + 1,
        "goods": [{"id": g, "u": 0, "v": 1 + g % leaves} for g in range(centre)],
        "valuations": [
            {"agent": 0, "class": "additive", "weights": {str(g): 1 for g in range(centre)}}
        ]
        + [{"agent": i, "class": "additive", "weights": {}} for i in range(1, leaves + 1)],
    }
    started = time.perf_counter()
    inst = instance_from_json(payload)
    assert time.perf_counter() - started < 5.0
    assert inst.valuations[0].value(frozenset(range(centre))) == centre


def message_payload():
    """Path 0 - 1 - 2: agent 0 transformed additive, agent 1 a table over
    her goods 0 and 1, agent 2 additive."""
    return {
        "n": 3,
        "goods": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 1, "v": 2}],
        "valuations": [
            {
                "agent": 0,
                "class": "transformed_additive",
                "weights": {"0": 2},
                "transform": [0, 1, 3],
            },
            {"agent": 1, "class": "monotone_table", "table": {"0": 0, "1": 1, "2": 1, "3": 2}},
            {"agent": 2, "class": "additive", "weights": {"1": 2}},
        ],
    }


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("goods", 1, "id"), "x", "good 1 id must be an integer, got 'x'"),
        (("goods", 1, "u"), None, "good 1 endpoint u must be an integer, got None"),
        (("goods", 0, "v"), 1.0, "good 0 endpoint v must be an integer, got 1.0"),
        (
            ("valuations", 2, "weights", "1"),
            2.5,
            "agent 2 weight of good 1 must be an integer, got 2.5",
        ),
        (("valuations", 0, "weights", "1"), 4, "agent 0: weight for non-incident good 1"),
        (
            ("valuations", 0, "transform", 1),
            True,
            "agent 0 transform entry must be an integer, got True",
        ),
        (("valuations", 1, "table", "9"), 3, "agent 1: table key 9 outside 0..3"),
        (
            ("valuations", 1, "table", "2"),
            "1",
            "agent 1 table entry 2 must be an integer, got '1'",
        ),
    ],
)
def test_a_bad_loader_field_is_named_as_before(path, value, message):
    payload = message_payload()
    instance_from_json(payload)
    *parents, last = path
    entry = payload
    for key in parents:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(ValidationError) as raised:
        instance_from_json(payload)
    assert str(raised.value) == message


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


# -- fuzzed loaders ---------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def fields(payload, path=()):
    """The path of every field below ``payload``: dict keys and list indices."""
    items = payload.items() if isinstance(payload, dict) else enumerate(payload)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from fields(value, path + (key,))


def mutated(payload, path, value):
    """A copy of ``payload`` with the field at ``path`` set to ``value``, or
    removed when ``value`` is the string ``"<delete>"`` and the field is a
    dict key."""
    copy = json.loads(json.dumps(payload))
    *parents, last = path
    target = copy
    for key in parents:
        target = target[key]
    if value == "<delete>" and isinstance(target, dict):
        del target[last]
    else:
        target[last] = value
    return copy


def fuzz_instance(valuation_class):
    spec = GenSpec(
        seed=11,
        n=4,
        m=5,
        topology="tree",
        valuation_class=valuation_class,
        v_max=6,
        max_parallel=2,
        max_degree=3,
    )
    return instance_to_json(gen_instance(spec))


FUZZ_INSTANCES = {c: fuzz_instance(c) for c in ("additive", "transformed_additive", "monotone_table")}
FUZZ_FIELDS = {c: list(fields(payload)) for c, payload in FUZZ_INSTANCES.items()}


@pytest.mark.parametrize("valuation_class", sorted(FUZZ_INSTANCES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_instance_field_raises_only_validation_errors(valuation_class, data):
    path = data.draw(st.sampled_from(FUZZ_FIELDS[valuation_class]))
    value = data.draw(JSON_VALUES | st.just("<delete>"))
    payload = mutated(FUZZ_INSTANCES[valuation_class], path, value)
    try:
        instance_from_json(payload)
    except ValidationError:
        pass


FUZZ_SOLVED = gen_instance(GenSpec(seed=12, n=6, m=9, topology="cycle_even"))
FUZZ_ALLOCATION = dict(
    allocation_to_json(solve(FUZZ_SOLVED).allocation),
    sigma=list(range(FUZZ_SOLVED.n)),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_allocation_field_raises_only_validation_errors(data):
    path = data.draw(st.sampled_from(list(fields(FUZZ_ALLOCATION))))
    value = data.draw(JSON_VALUES | st.just("<delete>"))
    try:
        allocation_from_json(mutated(FUZZ_ALLOCATION, path, value), FUZZ_SOLVED)
    except ValidationError:
        pass
