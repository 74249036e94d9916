"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test also asserts, so a plain pytest run fails loudly on any regression.

Criteria summary:
 1. six topology suites x 1000 seeds solve to complete EFX allocations;
 2. properties (1)-(4) hold after stage one and (1)-(7) after stage two;
 3. every augmentation round shrinks the unplaced set with invariants
    intact, and the repair potential descends within the n^3 bound;
 4. the dump loop runs at most once per envied agent (at most n-1 times);
 5. on all small instances the exhaustive oracle confirms existence and
    membership of the solver output;
 6. every cut passes the definition check; additive cuts need zero repair
    moves (logged if ever violated);
 7. monotone-table suites solve completely with bounded cut repair moves;
 8. an n=200, m=20000 bipartite instance solves inside 60 s and 2 GB;
 9. triangle-containing inputs exit with code 2 and a three-agent witness.
"""

import resource
import time

import pytest

from trifree_efx import (
    AdditiveValuation,
    SolveConfig,
    check_efx,
    check_properties,
    enumerate_efx_allocations,
    envy_graph,
    run_phase2,
    run_phase3,
    solve,
)
from trifree_efx.cli import main as cli_main
from trifree_efx.generate import GenSpec, gen_instance, gen_triangle_instance, suite_spec
from trifree_efx.oracle import _definition_ok
from trifree_efx.phase1 import SolveMetrics, SolverState, augment, check_invariants
from trifree_efx.serialize import dump_json, instance_to_json

from helpers import owner_tuple

TOPOLOGIES = ("bipartite", "c4_girth", "tree", "star", "path", "cycle_even")
SEEDS_PER_TOPOLOGY = 1000
SMALL_PER_TOPOLOGY = 40
MONOTONE_COUNT = 200


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPTURE_MANAGER is not None:
        # bypass pytest's fd capture so the line always reaches the log
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def drive_solver(inst):
    """Run the three stages by hand, recording everything the criteria need."""
    record = {
        "rounds": 0,
        "round_progress_ok": True,
        "invariants_ok": True,
        "p14_ok": False,
        "p17_ok": False,
        "phase2_iterations": 0,
        "potential_descends": True,
        "envied_after_phase2": 0,
        "dumps": 0,
        "complete": False,
        "efx": False,
        "cut_definition_ok": True,
        "additive_cut_moves": 0,
        "n": inst.n,
    }
    state = SolverState.fresh(inst)
    metrics = SolveMetrics()
    while state.order.unplaced:
        before = len(state.order.unplaced)
        augment(state, metrics=metrics)
        if len(state.order.unplaced) >= before:
            record["round_progress_ok"] = False
        if check_invariants(state):
            record["invariants_ok"] = False
        record["rounds"] += 1
    record["p14_ok"] = check_properties(
        inst, state.alloc, state.order, state.cuts
    ).only({1, 2, 3, 4}).ok

    potentials = []
    run_phase2(
        state,
        validate=True,
        metrics=metrics,
        trace=lambda row: potentials.append(tuple(row["potential"])),
    )
    record["phase2_iterations"] = metrics.phase2_iterations
    record["potential_descends"] = all(
        b < a for a, b in zip(potentials, potentials[1:])
    )
    record["p17_ok"] = check_properties(
        inst, state.alloc, state.order, state.cuts
    ).ok
    record["envied_after_phase2"] = len(envy_graph(inst, state.alloc).enviers)

    alloc = run_phase3(state, validate=True, metrics=metrics)
    record["dumps"] = metrics.phase3_dumps
    record["complete"] = alloc.is_complete(inst)
    record["efx"] = check_efx(inst, alloc).ok

    for stat in state.cuts.stats:
        cut = state.cuts.cut(*stat.pair, stat.cutter)
        value = inst.valuations[stat.cutter].value
        if not _definition_ok(value, cut.first, cut.second):
            record["cut_definition_ok"] = False
        if isinstance(inst.valuations[stat.cutter], AdditiveValuation):
            record["additive_cut_moves"] += stat.moves
    return record, alloc


@pytest.fixture(scope="module")
def main_suite():
    records = []
    small_pool = []
    started = time.perf_counter()
    for topology in TOPOLOGIES:
        for idx in range(SEEDS_PER_TOPOLOGY):
            inst = gen_instance(suite_spec(topology, idx))
            record, alloc = drive_solver(inst)
            records.append(record)
            if inst.n <= 4 and inst.m <= 7:
                small_pool.append((inst, alloc))
    elapsed = time.perf_counter() - started
    return {"records": records, "elapsed": elapsed, "small_pool": small_pool}


def test_criterion_1_end_to_end_existence(main_suite):
    records = main_suite["records"]
    solved = sum(1 for r in records if r["complete"] and r["efx"])
    elapsed = main_suite["elapsed"]
    ok = solved == len(records) and elapsed < 60.0
    report(
        1,
        ok,
        f"{solved}/{len(records)} instances solved to complete EFX allocations "
        f"in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_phase_boundary_properties(main_suite):
    records = main_suite["records"]
    p14 = sum(1 for r in records if r["p14_ok"])
    p17 = sum(1 for r in records if r["p17_ok"])
    ok = p14 == len(records) and p17 == len(records)
    report(
        2,
        ok,
        f"properties (1)-(4) after stage one on {p14}/{len(records)}, "
        f"(1)-(7) after stage two on {p17}/{len(records)}",
    )


def test_criterion_3_invariant_descent(main_suite):
    records = main_suite["records"]
    rounds_ok = sum(1 for r in records if r["round_progress_ok"] and r["invariants_ok"])
    descent_ok = sum(
        1
        for r in records
        if r["potential_descends"] and r["phase2_iterations"] <= r["n"] ** 3
    )
    ok = rounds_ok == len(records) and descent_ok == len(records)
    report(
        3,
        ok,
        f"augmentation progress+invariants on {rounds_ok}/{len(records)}, "
        f"potential descent within n^3 on {descent_ok}/{len(records)}",
    )


def test_criterion_4_dump_bound(main_suite):
    records = main_suite["records"]
    bounded = sum(
        1
        for r in records
        if r["dumps"] <= r["envied_after_phase2"] <= max(r["n"] - 1, 0)
    )
    ok = bounded == len(records)
    report(4, ok, f"dump rounds within the envied-agent bound on {bounded}/{len(records)}")


def test_criterion_5_oracle_cross_check(main_suite):
    small = list(main_suite["small_pool"])
    seen = {id(inst) for inst, _ in small}
    for topology in TOPOLOGIES:
        for idx in range(SMALL_PER_TOPOLOGY):
            inst = gen_instance(suite_spec(topology, idx, n_max=4, m_max=7))
            if inst.n > 4 or inst.m > 7:
                continue
            _, alloc = drive_solver(inst)
            small.append((inst, alloc))
    started = time.perf_counter()
    nonempty = member = 0
    for inst, alloc in small:
        found = enumerate_efx_allocations(inst)
        if found:
            nonempty += 1
        owners = {owner_tuple(a, inst) for a in found}
        if owner_tuple(alloc, inst) in owners:
            member += 1
    elapsed = time.perf_counter() - started
    ok = (
        len(small) >= 200
        and nonempty == len(small)
        and member == len(small)
        and elapsed < 120.0
    )
    report(
        5,
        ok,
        f"oracle nonempty and membership on {member}/{len(small)} small instances "
        f"(>= 200 required) in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_cut_correctness(main_suite):
    records = main_suite["records"]
    defn_ok = sum(1 for r in records if r["cut_definition_ok"])
    moved = sum(r["additive_cut_moves"] for r in records)
    # on a sample of small instances, additionally run the exhaustive
    # verification of every fixed cut (definition check + existence scan)
    from trifree_efx import solve_state, verify_cut_exhaustive

    exhaustive_ok = exhaustive_total = 0
    for inst, _ in main_suite["small_pool"]:
        if inst.m == 0:
            continue
        _, state = solve_state(inst)
        for stat in state.cuts.stats:
            exhaustive_total += 1
            if verify_cut_exhaustive(
                inst, stat.cutter, inst.pair_goods(*stat.pair)
            ):
                exhaustive_ok += 1
    ok = defn_ok == len(records) and exhaustive_ok == exhaustive_total
    detail = (
        f"cut definition checks on {defn_ok}/{len(records)} runs; exhaustive "
        f"verification on {exhaustive_ok}/{exhaustive_total} sampled cuts"
    )
    if moved == 0:
        detail += "; additive greedy split needed 0 repair moves everywhere"
    else:
        detail += f"; NOTE: additive cuts needed {moved} repair moves (claim downgraded)"
    report(6, ok, detail)


def test_criterion_7_monotone_tables():
    solved = bounded = total = 0
    for topology in ("path", "tree", "cycle_even", "star"):
        for idx in range(MONOTONE_COUNT // 4):
            spec = suite_spec(
                topology,
                idx,
                valuation_class="monotone_table",
                v_max=20,
                max_parallel=2,
                max_degree=4,
                n_max=8,
                m_max=16,
            )
            inst = gen_instance(spec)
            total += 1
            result, state = _solve_with_state(inst)
            if result.allocation.is_complete(inst) and check_efx(inst, result.allocation).ok:
                solved += 1
            if all(
                stat.moves <= _move_bound(inst, stat) for stat in state.cuts.stats
            ):
                bounded += 1
    ok = total == MONOTONE_COUNT and solved == total and bounded == total
    report(
        7,
        ok,
        f"monotone-table suites: {solved}/{total} complete EFX, "
        f"cut moves within size x distinct-values on {bounded}/{total}",
    )


def _move_bound(inst, stat):
    """Criterion 7's bound on one cut's repair moves: the pair's size times
    the number of distinct values its cutter gives the pair's subsets."""
    goods = sorted(inst.pair_goods(*stat.pair))
    value = inst.valuations[stat.cutter].value
    distinct = {
        value(frozenset(g for k, g in enumerate(goods) if mask >> k & 1))
        for mask in range(1 << len(goods))
    }
    return len(goods) * len(distinct)


def _solve_with_state(inst):
    from trifree_efx import solve_state

    return solve_state(inst)


def test_criterion_8_scaling_smoke():
    spec = GenSpec(
        seed=8, n=200, m=20000, topology="bipartite", v_max=10**6, max_parallel=2
    )
    inst = gen_instance(spec)
    started = time.perf_counter()
    result = solve(inst, SolveConfig(validate_steps=False))
    elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (
        result.allocation.is_complete(inst)
        and check_efx(inst, result.allocation).ok
        and elapsed < 60.0
        and peak_mb < 2048
    )
    report(
        8,
        ok,
        f"n=200, m=20000 bipartite solved in {elapsed:.1f}s (< 60s), "
        f"peak RSS {peak_mb:.0f} MB (< 2048 MB)",
    )


def test_criterion_9_triangle_guard(tmp_path, capsys):
    rejected = witnessed = 0
    total = 100
    for seed in range(total):
        inst = gen_triangle_instance(seed, n=3 + seed % 4)
        path = tmp_path / f"triangle_{seed}.json"
        dump_json(instance_to_json(inst), str(path))
        code = cli_main(["solve", str(path)])
        err = capsys.readouterr().err
        if code == 2:
            rejected += 1
        if "triangle on agents" in err:
            witnessed += 1
    ok = rejected == total and witnessed == total
    report(
        9,
        ok,
        f"{rejected}/{total} triangle inputs exited 2, "
        f"{witnessed}/{total} named a witness",
    )
