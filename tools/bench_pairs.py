#!/usr/bin/env python3
"""Write a ``BENCH_<n>.json`` benchmark record: alternating parent/change pairs.

Run from the repository root, with the change committed:

    python3 tools/bench_pairs.py --parent HEAD~1 --number 10 \\
        --workload dense_bipartite --claim "dense_bipartite solve_goods_per_s ..."

Both commits are cloned from the local repository into ``--work`` (one
directory per side), so each side runs ``perfbench/run.py`` on its own
committed files, as a fresh checkout would.  The runs, in order:

* for each series of :func:`series`, ``pairs`` alternating pairs of
  end-to-end runs (``--trace 0 --seconds <seconds>``); odd pairs run the
  parent first, even pairs the change.  Every workload of ``BENCHMARK.json``
  gets 10 pairs on seed 1, as many as the claimed one (``--workload``), so
  that the pair-to-pair spread of a workload no gain is claimed on cannot
  pass for a regression; the claimed workload also gets 3 on the hold-out
  seed;
* two parent-only runs per workload on seed 1, the noise floor a change is
  judged against;
* ``TRACED_RUNS`` traced runs (``--trace 1``) per side and workload on
  seed 1, the two sides taking turns.  The behaviour digest and the
  per-layer counts must repeat exactly across a side's runs, and the record
  gives the median of every other per-layer metric: one traced run cannot
  tell a layer's time from noise.

Each run lasts ``BENCHMARK.json``'s ``run_seconds``.  Every run's
information and result lines are kept, and the record is rewritten after
each run, so an interrupted record keeps every finished run on disk.  The
summary gives, per series and end-to-end metric, each side's median,
quartiles and range, the change-over-parent median ratio, the pairs the
change won, and whether the median gap exceeds the parent's quartile
spread.  The script exits with status 1 when a side's traced runs do not
repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOLDOUT_SEED = 90001  # the seed perfbench/run.py reports as its hold-out
PAIRS, HOLDOUT_PAIRS = 10, 3
FLOOR_RUNS = 2
TRACED_RUNS = 3
TRACE_SECONDS = 5


def series(claimed: str, benchmark: dict) -> list[tuple[str, str, int, int]]:
    """``(series, workload, seed, pairs)`` of a record claiming a gain on
    the workload ``claimed``: it first on seed 1 and on the hold-out seed,
    then every other workload of ``benchmark`` on seed 1, each with as many
    seed-1 pairs as ``claimed``."""
    workloads = [w["name"] for w in benchmark["workloads"]]
    if claimed not in workloads:
        raise ValueError(f"unknown workload {claimed!r}; choose from {workloads}")
    return [
        (f"{claimed}_seed1", claimed, 1, PAIRS),
        (f"{claimed}_holdout", claimed, HOLDOUT_SEED, HOLDOUT_PAIRS),
    ] + [(f"{w}_seed1", w, 1, PAIRS) for w in workloads if w != claimed]


def end_to_end_metrics(benchmark: dict) -> dict[str, dict]:
    """``BENCHMARK.json``'s end-to-end metrics by name."""
    return {m["name"]: m for m in benchmark["end_to_end"]}


def stats(values: list[float]) -> dict:
    """Median, inclusive quartiles and range of ``values``."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }


def metric_value(run: dict, name: str) -> float:
    return run["result"]["metrics"][name]["value"]


def compare(pairs: list[tuple[dict, dict]], metric: dict) -> dict:
    """One end-to-end metric over ``(parent run, change run)`` pairs."""
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [metric_value(p, name) for p, _ in pairs]
    change = [metric_value(c, name) for _, c in pairs]
    p, c = stats(parent), stats(change)
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(parent, change))
    worse_by = 1 - ratio if higher else ratio - 1
    iqr = p["q3"] - p["q1"]
    return {
        "parent": p,
        "change": c,
        "change_over_parent_median": ratio,
        "change_wins": wins,
        "pairs": len(pairs),
        "parent_iqr": iqr,
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > iqr,
        "bound": metric["bound"],
        "worse_by": worse_by,
        "within_bound": worse_by <= metric["bound"],
    }


def summarize(runs: list[dict], benchmark: dict) -> dict:
    """The per-series summary of ``runs`` (entries of the record's ``runs``)."""
    metrics = end_to_end_metrics(benchmark)
    by_series: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        by_series.setdefault(run["series"], {}).setdefault(run["pair"], {})[run["side"]] = run
    out = {}
    for series in sorted(by_series):
        pairs = [
            (sides["parent"], sides["change"])
            for _, sides in sorted(by_series[series].items())
            if {"parent", "change"} <= set(sides)
        ]
        if not pairs:
            continue
        entry = {name: compare(pairs, metric) for name, metric in metrics.items()}
        for key in ("failed", "attempted"):
            entry[key] = {
                side: sum(pair[k]["result"][key] for pair in pairs)
                for k, side in enumerate(("parent", "change"))
            }
        out[series] = entry
    return out


def noise_floor(floor_runs: list[dict], benchmark: dict) -> dict:
    """Each workload's parent-only end-to-end values, run by run."""
    out: dict[str, list[dict]] = {}
    for run in floor_runs:
        workload = run["info"]["workload"]
        out.setdefault(workload, []).append(
            {name: metric_value(run, name) for name in end_to_end_metrics(benchmark)}
        )
    return dict(sorted(out.items()))


def traced_summary(runs: list[dict]) -> dict:
    """One side's traced runs of one workload: the behaviour digest and the
    per-layer counts, whether both repeat exactly across the runs, the
    failures of each run, and the median of every other per-layer metric."""
    metrics = [run["result"]["metrics"] for run in runs]
    digests = [run["info"].get("digest") for run in runs]
    counts = [
        {k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in metrics
    ]
    return {
        "runs": len(runs),
        "digest": digests[0],
        "counts": counts[0],
        "repeats": digests.count(digests[0]) == len(runs)
        and counts.count(counts[0]) == len(runs),
        "failed": [run["result"]["failed"] for run in runs],
        "medians": {
            k: statistics.median(m[k]["value"] for m in metrics)
            for k, v in metrics[0].items()
            if v["unit"] != "count"
        },
    }


def build_record(state: dict, benchmark: dict) -> dict:
    """The whole ``BENCH_<n>.json`` record from the runs made so far."""
    by_side: dict[str, dict[str, list[dict]]] = {}
    for run in state["traced_runs"]:
        by_side.setdefault(run["info"]["workload"], {}).setdefault(run["side"], []).append(run)
    traced = {
        workload: {side: traced_summary(runs) for side, runs in sides.items()}
        for workload, sides in by_side.items()
    }
    return {
        **state["header"],
        "summary": summarize(state["runs"], benchmark),
        "noise_floor_parent_only": noise_floor(state["floor_runs"], benchmark),
        "traced_seed1": dict(sorted(traced.items())),
        "runs": state["runs"],
        "noise_floor_runs": state["floor_runs"],
        "traced_runs": state["traced_runs"],
    }


def parse_output(stdout: str) -> tuple[dict, dict]:
    """The information and result lines of one ``perfbench/run.py`` run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"perfbench/run.py printed {len(lines)} lines, expected 2")
    return json.loads(lines[-2]), json.loads(lines[-1])


def checkout(commit: str, where: Path) -> Path:
    """A clone of the local repository at ``commit``, made once."""
    if not where.exists():
        subprocess.run(["git", "clone", "--quiet", str(ROOT), str(where)], check=True)
        subprocess.run(
            ["git", "-C", str(where), "checkout", "--quiet", "--detach", commit], check=True
        )
    return where


def run_bench(side_dir: Path, step: dict) -> tuple[dict, dict]:
    """Run one ``plan`` step with the checkout in ``side_dir``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", step["workload"]]
    for flag in ("seed", "seconds", "trace"):
        cmd += [f"--{flag}", str(step[flag])]
    done = subprocess.run(cmd, cwd=side_dir, env=env, capture_output=True, text=True, check=True)
    return parse_output(done.stdout)


def plan(seconds: float, runs: list[tuple[str, str, int, int]]) -> list[dict]:
    """Every run of a full record over the series ``runs``, in the order
    they are made."""
    steps = []
    for series, workload, seed, pairs in runs:
        for pair in range(1, pairs + 1):
            first, second = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in (first, second):
                steps.append(dict(
                    kind="runs", series=series, pair=pair, side=side, ran_first=first,
                    workload=workload, seed=seed, seconds=seconds, trace=0,
                ))
    workloads = sorted({workload for _, workload, _, _ in runs})
    for workload in workloads:
        for k in range(1, FLOOR_RUNS + 1):
            steps.append(dict(
                kind="floor_runs", series=f"floor_{workload}_{k}_parent", side="parent",
                workload=workload, seed=1, seconds=seconds, trace=0,
            ))
    for workload in workloads:
        for k in range(1, TRACED_RUNS + 1):
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                steps.append(dict(
                    kind="traced_runs", series=f"traced_{workload}_{k}_{side}", side=side,
                    workload=workload, seed=1, seconds=TRACE_SECONDS, trace=1,
                ))
    return steps


def git_rev(ref: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", ref], check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Write a BENCH_<n>.json benchmark record.")
    p.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    p.add_argument("--change", default="HEAD", help="the change commit (default HEAD)")
    p.add_argument("--number", required=True, help="the record is written to BENCH_<number>.json")
    p.add_argument("--workload", required=True, help="the workload the claim is about")
    p.add_argument("--claim", default="", help="the gain the change claims, in words")
    p.add_argument("--work", default=None, help="where the two clones go")
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        runs = series(args.workload, benchmark)
    except ValueError as exc:
        p.error(str(exc))
    out = ROOT / f"BENCH_{args.number}.json"
    parent, change = git_rev(args.parent), git_rev(args.change)
    seconds = benchmark["run_seconds"]
    state = {
        "header": {
            "what": (
                f"perfbench/run.py end-to-end runs (--seconds {seconds:g} --trace 0) of "
                "the parent commit and of the change, alternating which side runs "
                "first, plus parent-only runs as the noise floor and "
                f"{TRACED_RUNS} traced seed-1 runs per side and workload (--seconds "
                f"{TRACE_SECONDS} --trace 1); written by tools/bench_pairs.py."
            ),
            "parent_commit": parent,
            "change_commit": change,
            "run_seconds": seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "claim": args.claim,
            "claimed_workload": args.workload,
            "series": {
                name: f"{workload}, seed {seed}, {pairs} pairs"
                for name, workload, seed, pairs in runs
            },
        },
        "runs": [],
        "floor_runs": [],
        "traced_runs": [],
    }
    work = Path(args.work) if args.work else ROOT / ".bench_build"
    sides = {
        "parent": checkout(parent, work / f"parent-{parent[:12]}"),
        "change": checkout(change, work / f"change-{change[:12]}"),
    }
    for step in plan(seconds, runs):
        info, result = run_bench(sides[step["side"]], step)
        entry = {k: step[k] for k in ("series", "pair", "side", "ran_first") if k in step}
        state[step["kind"]].append({**entry, "info": info, "result": result})
        state["header"].setdefault("cpu", info["environment"].get("cpu"))
        out.write_text(json.dumps(build_record(state, benchmark), indent=1) + "\n")
        print(f"{step['kind']} {step['series']} {step.get('pair', '')} {step['side']}: "
              f"{json.dumps({k: v['value'] for k, v in result['metrics'].items()})[:200]}",
              flush=True)
    unrepeated = [
        f"{workload} {side}"
        for workload, sides in build_record(state, benchmark)["traced_seed1"].items()
        for side, entry in sides.items()
        if not entry["repeats"]
    ]
    if unrepeated:
        print(f"traced runs did not repeat their digest and counts: {unrepeated}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
