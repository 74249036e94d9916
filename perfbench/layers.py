"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every entry is ``(name, unit, better, moves, steady)``.  ``moves`` lists the
``metric@workload`` pairs a change to this layer is expected to move;
``steady`` lists the workloads whose end-to-end numbers it should leave
alone.  Later changes cite these names when they state, before any code is
written, which numbers they expect to move.  ``BENCHMARK.json`` lists the
same names, units and directions under ``per_layer``; a test keeps the two
in step.

Times are seconds summed over the traced instance set and counts are totals
over that set, so counts repeat exactly for a given seed.  Inclusive times
nest: ``verify.check_properties_s`` contains the ``verify.check_efx_s`` and
``verify.envy_graph_s`` spent inside it.  ``*.self_s`` is a stage's span
time minus the time its child spans cover.
"""

DENSE = "dense_bipartite"
SPARSE = "sparse_tree"
SMALL = "small_mixed_validated"

SMALL_P50 = ("latency_ms_p50@" + SMALL,)
# latency_ms_p99 is printed in the info line of an end-to-end run, not in
# BENCHMARK.json, and has fewer than ten samples beyond it (see bench.py).
SMALL_P99 = ("latency_ms_p99@" + SMALL,)
DENSE_RATE = ("solve_goods_per_s@" + DENSE,)
SPARSE_RATE = ("solve_goods_per_s@" + SPARSE,)

LAYERS = (
    ("model.find_triangle_s", "s", "lower", SMALL_P50, ()),
    ("serialize.load_s", "s", "lower", SMALL_P50, ()),
    ("serialize.dump_s", "s", "lower", SMALL_P50, ()),
    ("phase1.run_s", "s", "lower", SPARSE_RATE, ()),
    ("phase1.self_s", "s", "lower", SPARSE_RATE, ()),
    ("phase1.augment_calls", "count", "lower", SPARSE_RATE, ()),
    ("phase1.claimable_calls", "count", "lower", SPARSE_RATE, (DENSE,)),
    ("phase1.claimable_s", "s", "lower", SPARSE_RATE, (DENSE,)),
    ("phase1.claimable_nonempty_ratio", "ratio", "higher", SPARSE_RATE, (DENSE,)),
    ("cuts.cut_calls", "count", "lower", SMALL_P99 + DENSE_RATE, ()),
    ("cuts.cut_misses", "count", "lower", SMALL_P99 + DENSE_RATE, ()),
    ("cuts.cut_miss_s", "s", "lower", SMALL_P99 + DENSE_RATE, ()),
    ("cuts.pr_moves", "count", "lower", SMALL_P99 + DENSE_RATE, ()),
    ("cuts.free_units_calls", "count", "lower", DENSE_RATE, ()),
    ("cuts.free_units_s", "s", "lower", DENSE_RATE, ()),
    ("phase2.run_s", "s", "lower", DENSE_RATE + SPARSE_RATE, ()),
    ("phase2.self_s", "s", "lower", DENSE_RATE + SPARSE_RATE, ()),
    ("phase2.iterations", "count", "lower", DENSE_RATE + SPARSE_RATE, ()),
    ("phase2.rule_a", "count", "lower", DENSE_RATE + SPARSE_RATE, ()),
    ("phase2.rule_b", "count", "lower", DENSE_RATE + SPARSE_RATE, ()),
    ("phase2.rule_c", "count", "lower", DENSE_RATE + SPARSE_RATE, ()),
    ("verify.envy_graph_calls", "count", "lower", SPARSE_RATE, (DENSE,)),
    ("verify.envy_graph_s", "s", "lower", SPARSE_RATE, (DENSE,)),
    ("verify.check_properties_calls", "count", "lower", SMALL_P50, ()),
    ("verify.check_properties_s", "s", "lower", SMALL_P50, ()),
    ("verify.check_efx_s", "s", "lower", SMALL_P50, ()),
    ("verify.user_check_s", "s", "lower", SMALL_P50, ()),
    ("phase3.run_s", "s", "lower", SPARSE_RATE, ()),
    ("phase3.dumps", "count", "lower", SPARSE_RATE, ()),
    ("trace.overhead_ratio", "ratio", "lower", (), ()),
    ("trace.stage_coverage", "ratio", "higher", (), ()),
)

# Per-step validation runs only on small_mixed_validated; the other two
# workloads solve with validate_steps=False, so these read exactly 0 there.
# They are printed with the other layers but kept out of BENCHMARK.json,
# whose per-layer times are measured on every workload.
VALIDATION_ONLY = (
    ("phase1.check_invariants_s", "s", "lower", SMALL_P50, (DENSE, SPARSE)),
    ("phase1.greedy_replay_s", "s", "lower", SMALL_P50, (DENSE, SPARSE)),
)
