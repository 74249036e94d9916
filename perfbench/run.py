#!/usr/bin/env python3
"""Benchmark of the trifree-efx solver.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_tree --seed 1 --seconds 30 --trace 0

The solver is imported from ``src/`` of the same checkout; nothing is
installed.  Each run builds one workload's instance JSON texts from
``--seed`` and drives them through the ``solve`` command's path in a closed
loop with one caller.  Every output is checked by ``checker.py``, which
shares no code with the solver's own EFX checker.

``--trace 0`` cycles through the workload's instances for ``--seconds``
with no wrappers installed and prints the end-to-end metrics of
``BENCHMARK.json`` (defined in ``bench.py``).  ``--trace 1`` runs the
instance list once plain and once with the layer wrappers of ``tracer.py``,
prints the per-layer metrics of ``layers.py`` and writes the spans to
``perfbench/out/``.

The next-to-last line of standard output is an information record
(environment, behaviour digest, sample counts, failure ratio); the last line
is the result ``{"correct", "attempted", "failed", "metrics"}``.  Exit code
2 means the benchmark could not start (no solver sources, unknown workload).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the trifree-efx solver.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "trifree_efx" / "__init__.py").is_file():
        print(f"error: no solver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        attempted, failed, metrics, info = bench.run_traced(workload, args.seed)
    else:
        attempted, failed, metrics, info = bench.run_end_to_end(
            workload, args.seed, args.seconds
        )
    header = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    print(json.dumps({**header, "environment": bench.environment(), **info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
