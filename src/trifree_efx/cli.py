"""Command-line surface.

Subcommands: ``solve``, ``verify``, ``envy-graph``, ``oracle``, ``gen`` and
``bench``.  Exit codes: 0 success, 1 parse/validation error, 2 rejected
because the skeleton has a triangle, 3 a requested check failed, 4 a solver
guarantee broke (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from typing import Optional, Sequence

from .cuts import CutTable, PickOrder, pair_state
from .errors import (
    InconsistentSpecError,
    InternalSolverError,
    NotTriangleFreeError,
    SearchSpaceTooLargeError,
    TriFreeError,
    ValidationError,
)
from .generate import GenSpec, gen_instance
from .model import Instance
from .oracle import enumerate_efx_allocations
from .phase3 import SolveConfig, solve, solve_state
from .serialize import (
    allocation_from_json,
    allocation_to_json,
    dump_json,
    envy_graph_dot,
    instance_from_json,
    instance_to_json,
    load_json,
    write_text,
)
from .verify import check_completeness, check_efx, check_properties

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TRIANGLE = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4


def _read_instance(path: str) -> Instance:
    return instance_from_json(load_json(path))


def cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    trace_rows: list[dict] = []
    config = SolveConfig(
        validate_steps=not args.no_validate_steps,
        trace=trace_rows.append if args.trace else None,
    )
    try:
        result, state = solve_state(instance, config)
    except NotTriangleFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRIANGLE
    payload = allocation_to_json(result.allocation)
    payload["sigma"] = result.sigma
    payload["metrics"] = result.metrics.to_dict()
    text = dump_json(payload, args.out)
    if args.out is None:
        sys.stdout.write(text)
    if args.trace:
        write_text(args.trace, "".join(json.dumps(row) + "\n" for row in trace_rows))
    if args.metrics_out:
        dump_json(result.metrics.to_dict(), args.metrics_out)
    if args.dump_config:
        rows = []
        for a, b in instance.skeleton_edges():
            cut = pair_state(instance, state.alloc, state.order, state.cuts, a, b)[0]
            rows.append(
                {
                    "pair": [a, b],
                    "cutter": cut.cutter,
                    "first": sorted(cut.first),
                    "second": sorted(cut.second),
                }
            )
        dump_json({"configurations": rows}, args.dump_config)
    return EXIT_OK


def _parse_properties(text: str) -> set[int]:
    chosen: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if "-" in chunk:
                lo, hi = (int(end) for end in chunk.split("-", 1))
            else:
                lo = hi = int(chunk)
        except ValueError:
            raise ValidationError(
                f"properties must be numbers or ranges like 1-4, got {chunk!r}"
            ) from None
        if lo > hi:
            raise ValidationError(f"properties range {chunk!r} is empty")
        chosen.update(range(lo, hi + 1))
    if not chosen:
        raise ValidationError(f"properties must name at least one property, got {text!r}")
    if not chosen <= set(range(1, 8)):
        raise ValidationError(f"properties must be within 1..7, got {sorted(chosen)}")
    return chosen


def _parse_sigma(text: str, n: int) -> list[int]:
    try:
        sigma = [int(x) for x in text.split(",")]
    except ValueError:
        sigma = None
    if sigma is None or sorted(sigma) != list(range(n)):
        raise ValidationError(
            f"--sigma must list each of the {n} agents 0..{n - 1} exactly once, "
            f"got {text!r}"
        )
    return sigma


def cmd_verify(args) -> int:
    instance = _read_instance(args.instance)
    alloc, sigma = allocation_from_json(load_json(args.allocation), instance)
    if args.sigma is not None:
        sigma = _parse_sigma(args.sigma, instance.n)
    report: dict = {"checks": []}
    failed = False

    efx = check_efx(instance, alloc)
    report["checks"].append(efx.to_dict())
    failed |= not efx.ok

    if args.require_complete:
        complete = check_completeness(instance, alloc)
        report["checks"].append(complete.to_dict())
        failed |= not complete.ok

    if args.properties is not None:
        chosen = _parse_properties(args.properties)
        if sigma is None:
            print(
                "error: property checks need the picking order; pass --sigma or "
                "an allocation file carrying 'sigma'",
                file=sys.stderr,
            )
            return EXIT_INVALID
        order = PickOrder.complete(sigma)
        props = check_properties(instance, alloc, order, CutTable(instance), chosen)
        report["checks"].append(props.to_dict())
        failed |= not props.ok

    text = dump_json(report, args.report_out)
    sys.stdout.write(text)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_envy_graph(args) -> int:
    instance = _read_instance(args.instance)
    alloc, _ = allocation_from_json(load_json(args.allocation), instance)
    dot = envy_graph_dot(instance, alloc)
    if args.out:
        write_text(args.out, dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_oracle(args) -> int:
    instance = _read_instance(args.instance)
    try:
        found = enumerate_efx_allocations(
            instance, limit=args.limit, guard=args.guard
        )
    except SearchSpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = {
        "count": len(found),
        "allocations": [allocation_to_json(a)["bundles"] for a in found],
    }
    text = dump_json(payload, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        n=args.n,
        m=args.m,
        topology=args.topology,
        valuation_class=args.valuation_class,
        v_max=args.v_max,
        max_parallel=args.max_parallel,
        max_degree=args.max_degree,
    )
    instance = gen_instance(spec)
    text = dump_json(instance_to_json(instance), args.out)
    if args.out is None:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    suite = load_json(args.suite)
    if not isinstance(suite, list):
        raise ValidationError("a bench suite is a JSON list of generator specs")
    spec_keys = {f.name for f in dataclasses.fields(GenSpec)}
    rows = []
    for idx, raw in enumerate(suite):
        if not isinstance(raw, dict):
            raise ValidationError(f"bench entry {idx} must be a JSON object")
        missing = [key for key in ("n", "m", "topology") if key not in raw]
        if missing:
            raise ValidationError(f"bench entry {idx} lacks {', '.join(missing)}")
        unknown = sorted(set(raw) - spec_keys)
        if unknown:
            raise ValidationError(f"bench entry {idx} has unknown keys {', '.join(unknown)}")
        spec = GenSpec(**{"seed": idx, **raw})
        try:
            instance = gen_instance(spec)
        except InconsistentSpecError as exc:
            raise ValidationError(f"bench entry {idx} is inconsistent: {exc}") from None
        started = time.perf_counter()
        result = solve(instance, SolveConfig(validate_steps=not args.no_validate_steps))
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "id": idx,
                "n": instance.n,
                "m": instance.m,
                "topology": spec.topology,
                "augment_calls": result.metrics.augment_calls,
                "phase2_iterations": result.metrics.phase2_iterations,
                "phase3_dumps": result.metrics.phase3_dumps,
                "pr_moves": result.metrics.pr_moves_total,
                "wall_s": f"{elapsed:.6f}",
            }
        )
    fields = [
        "id",
        "n",
        "m",
        "topology",
        "augment_calls",
        "phase2_iterations",
        "phase3_dumps",
        "pr_moves",
        "wall_s",
    ]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields)
    writer.writeheader()
    for row in sorted(rows, key=lambda r: r["id"]):
        writer.writerow(row)
    if args.out:
        write_text(args.out, out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifree-efx",
        description="Complete EFX allocations on triangle-free multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--out", help="write allocation JSON here instead of stdout")
    p.add_argument("--trace", help="write per-step trace JSON lines here")
    p.add_argument("--dump-config", help="write the fixed pair splits here")
    p.add_argument("--metrics-out", help="write solver metrics JSON here")
    p.add_argument(
        "--no-validate-steps",
        action="store_true",
        help="skip per-step invariant re-checks (stage and final checks remain)",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check an allocation against an instance")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument(
        "--properties",
        help="comma list / ranges of numbered properties to check, e.g. 1-4 or 1,2,5",
    )
    p.add_argument(
        "--sigma",
        help="picking order as a comma list, for --properties; checked whenever given",
    )
    p.add_argument("--require-complete", action="store_true")
    p.add_argument("--report-out", help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("envy-graph", help="export the envy graph as DOT")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--out")
    p.set_defaults(func=cmd_envy_graph)

    p = sub.add_parser("oracle", help="enumerate all complete EFX allocations")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--guard", type=int, default=10_000_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--valuation-class", default="additive")
    p.add_argument("--v-max", type=int, default=50)
    p.add_argument("--max-parallel", type=int, default=4)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a suite of generated instances")
    p.add_argument("suite", help="JSON list of generator specs")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--no-validate-steps", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotTriangleFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRIANGLE
    except (ValidationError, InconsistentSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalSolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TriFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
