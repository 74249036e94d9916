"""Tests of the benchmark itself: the output checker, the tracer, the config.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import random
from pathlib import Path

import pytest

import bench
import checker
import tracer as tracing
from layers import LAYERS
from trifree_efx import NotTriangleFreeError, SolveConfig, cuts, phase1, phase3, solve
from trifree_efx.serialize import instance_to_json
from workloads import WORKLOADS, Workload, make_small, small_instance

ROOT = Path(__file__).resolve().parent.parent


def _solved(seed, index):
    instance = small_instance(seed, index)
    result = solve(instance)
    data = json.loads(json.dumps(instance_to_json(instance)))
    output = {
        "bundles": [sorted(b) for b in result.allocation.bundles()],
        "sigma": result.sigma,
    }
    return instance, data, output


def _strongly_envies(instance, bundles, i, j):
    """Definition: some single good leaves ``j``'s bundle still envied by i."""
    value = instance.valuations[i].value
    own = value(frozenset(bundles[i]))
    other = frozenset(bundles[j])
    return any(value(other - {g}) > own for g in other)


def _envy_creating_move(instance, bundles):
    """A single good moved between bundles so that strong envy appears."""
    for src, bundle in enumerate(bundles):
        for g in bundle:
            for dst in range(instance.n):
                if dst == src:
                    continue
                moved = [list(b) for b in bundles]
                moved[src].remove(g)
                moved[dst].append(g)
                if any(
                    _strongly_envies(instance, moved, i, j)
                    for i in range(instance.n)
                    for j in range(instance.n)
                    if i != j
                ):
                    return moved
    return None


# indices 0, 6 and 12 of the small suite are bipartite instances with
# additive, transformed-additive and monotone-table valuations
@pytest.mark.parametrize("index", [0, 6, 12, 13, 14])
def test_checker_accepts_solver_output_and_flags_one_moved_good(index):
    instance, data, output = _solved(3, index)
    assert checker.check(data, output) == []
    moved = _envy_creating_move(instance, output["bundles"])
    assert moved is not None, "the instance admits no envy-creating move"
    problems = checker.check(data, dict(output, bundles=moved))
    assert any("strongly envies" in p for p in problems)


@pytest.mark.parametrize("index", range(0, 36, 5))
def test_checker_strong_envy_matches_the_definition(index):
    instance = small_instance(7, index)
    data = instance_to_json(instance)
    rng = random.Random(index)
    for _ in range(20):
        bundles = [[] for _ in range(instance.n)]
        for g in range(instance.m):
            bundles[rng.randrange(instance.n)].append(g)
        output = {"bundles": bundles, "sigma": list(range(instance.n))}
        expected = {
            f"agent {i} strongly envies agent {j}"
            for i in range(instance.n)
            for j in range(instance.n)
            if i != j and _strongly_envies(instance, bundles, i, j)
        }
        assert set(checker.check(data, output)) == expected


def test_checker_flags_missing_and_duplicated_goods():
    _, data, output = _solved(3, 0)
    bundles = [list(b) for b in output["bundles"]]
    holder = next(i for i, b in enumerate(bundles) if b)
    dropped = [list(b) for b in bundles]
    dropped[holder].pop()
    assert any("unallocated" in p for p in checker.check(data, dict(output, bundles=dropped)))
    doubled = [list(b) for b in bundles]
    doubled[(holder + 1) % len(bundles)].append(bundles[holder][0])
    assert any("bundles" in p for p in checker.check(data, dict(output, bundles=doubled)))
    assert checker.check(data, dict(output, sigma=output["sigma"][:-1]))


def test_checker_demands_a_real_triangle_witness():
    instance = small_instance(3, 249)
    data = instance_to_json(instance)
    with pytest.raises(NotTriangleFreeError) as err:
        solve(instance)
    assert checker.check(data, {"triangle": list(err.value.triangle)}) == []
    a, b, _ = err.value.triangle
    assert checker.check(data, {"triangle": [a, b, b]})
    assert checker.check(data, {"bundles": [[] for _ in range(instance.n)], "sigma": []})
    _, free_data, _ = _solved(3, 0)
    assert checker.check(free_data, {"triangle": [0, 1, 2]})


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    spans = tracing.Tracer(clock=lambda: next(ticks))
    with spans.span("outer"):
        with spans.span("inner"):
            spans.leaf("hot", 0.5)
    assert spans.total["inner"] == 3.0
    assert spans.self_time["inner"] == 2.5
    assert spans.total["outer"] == 10.0
    assert spans.self_time["outer"] == 7.0
    inner, outer = spans.rows
    assert inner[1] == "inner" and inner[4] == outer[0] and outer[4] is None


def test_wrappers_count_without_changing_the_answer_and_are_removed():
    instance = small_instance(5, 0)
    plain = solve(instance, SolveConfig())
    originals = (phase1.claimable, phase3.run_phase2, cuts.CutTable.cut)
    spans = tracing.Tracer()
    with tracing.installed(spans):
        traced = solve(instance, SolveConfig())
    assert (phase1.claimable, phase3.run_phase2, cuts.CutTable.cut) == originals
    assert traced.allocation == plain.allocation and traced.sigma == plain.sigma
    values = tracing.layer_metrics(spans)
    assert values["phase1.augment_calls"] == plain.metrics.augment_calls
    assert values["phase2.iterations"] == plain.metrics.phase2_iterations
    assert values["cuts.cut_misses"] == plain.metrics.cuts_computed
    assert values["phase1.claimable_calls"] > 0


def test_benchmark_json_matches_layers_and_workloads():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYERS
    ]
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert all(
        workload in WORKLOADS
        for *_, moves, steady in LAYERS
        for workload in [m.split("@")[1] for m in moves] + list(steady)
    )


def test_end_to_end_run_flags_a_repeat_that_changes_its_answer(monkeypatch):
    workload = Workload("tiny", make_small, 3, True)
    attempted, failed, metrics, info = bench.run_end_to_end(workload, 1, 0.2)
    assert failed == 0 and attempted > 3 and info["digest"]
    assert set(metrics) == {"setup_s", "solve_goods_per_s", "latency_ms_p50", "peak_rss_mb"}

    calls = []

    def flipping_solve(instance, config):
        result = solve(instance, config)
        calls.append(1)
        if len(calls) > 3:
            result.sigma.reverse()  # still a valid picking order
        return result

    monkeypatch.setattr(bench, "solve", flipping_solve)
    attempted, failed, _, info = bench.run_end_to_end(workload, 1, 0.2)
    assert failed == attempted - 3
    assert "output differs from its first solve" in info["errors"][0]
