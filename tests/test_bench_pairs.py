"""The benchmark-record writer's summary, on canned ``perfbench/run.py`` lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def lines(workload, goods_per_s, latency_ms, rss, failed=0):
    """The information and result lines one run prints."""
    info = {"workload": workload, "seed": 1, "trace": 0, "digest": "d", "fail_ratio": 0.0}
    metrics = {
        "setup_s": (0.1, "s"),
        "solve_goods_per_s": (goods_per_s, "goods/s"),
        "latency_ms_p50": (latency_ms, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return json.dumps(info) + "\n" + json.dumps(result) + "\n"


def canned_runs():
    # change beats the parent on throughput in 4 of 5 pairs, never on memory
    parent = [100, 110, 90, 105, 95]
    change = [130, 120, 80, 140, 125]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value in (("parent", p), ("change", c)):
            info, result = bench_pairs.parse_output(
                lines("sparse_tree", value, 1000 / value, 36.0 if side == "parent" else 36.5)
            )
            runs.append(
                {"series": "s", "pair": pair, "side": side, "ran_first": "parent",
                 "info": info, "result": result}
            )
    return runs


def test_summary_of_canned_pairs():
    summary = bench_pairs.summarize(canned_runs(), BENCHMARK)["s"]
    goods = summary["solve_goods_per_s"]
    assert goods["parent"] == {"n": 5, "median": 100, "q1": 95, "q3": 105, "min": 90, "max": 110}
    assert goods["change"]["median"] == 125
    assert goods["change_over_parent_median"] == pytest.approx(1.25)
    assert goods["change_wins"] == 4 and goods["pairs"] == 5
    assert goods["parent_iqr"] == 10
    assert goods["median_gap_exceeds_parent_iqr"] is True
    assert goods["worse_by"] == pytest.approx(-0.25) and goods["within_bound"] is True
    # lower is better for latency: the same four pairs are wins
    assert summary["latency_ms_p50"]["change_wins"] == 4
    rss = summary["peak_rss_mb"]
    assert rss["change_wins"] == 0
    assert rss["worse_by"] == pytest.approx(0.5 / 36) and rss["within_bound"] is True
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["attempted"] == {"parent": 50, "change": 50}


def test_unpaired_runs_are_left_out_of_the_summary():
    runs = canned_runs()[:-1]  # the last pair lost its change run
    summary = bench_pairs.summarize(runs, BENCHMARK)["s"]
    assert summary["solve_goods_per_s"]["pairs"] == 4


def test_noise_floor_and_plan():
    runs = canned_runs()
    floor = bench_pairs.noise_floor([runs[0], runs[2]], BENCHMARK)
    assert [row["solve_goods_per_s"] for row in floor["sparse_tree"]] == [100, 110]
    steps = bench_pairs.plan(40)
    pairs = [s for s in steps if s["kind"] == "runs" and s["series"] == "sparse1"]
    assert len(pairs) == 20
    # alternating: odd pairs run the parent first, even pairs the change
    assert [s["side"] for s in pairs[:4]] == ["parent", "change", "change", "parent"]
    assert sum(s["kind"] == "floor_runs" for s in steps) == 6
    assert sum(s["kind"] == "traced_runs" for s in steps) == 6


def test_output_without_two_lines_is_refused():
    with pytest.raises(RuntimeError):
        bench_pairs.parse_output("only one line\n")
