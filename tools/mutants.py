#!/usr/bin/env python3
"""Run the committed mutation set: text mutants of the solver's checks.

Run from the repository root:

    python3 tools/mutants.py                       # every mutant
    python3 tools/mutants.py chain_skipped ...     # the named ones

Each mutant in ``MUTANTS`` replaces one piece of text in one file under
``src/``.  The mutants are applied one at a time, each to a copy of
``src/``, ``tests/`` and ``pyproject.toml`` in a new temporary directory
(the checkout is never touched), and the tests listed for a mutant run
there (those of them that exist) in one pytest process that stops at the
first failure and is killed after ``TIMEOUT_S`` seconds.  A mutant is *killed* when a test fails,
*survives* when they all pass, and *times out* when the run does not end in
time (a mutant can make the solver loop for ever).  One line is printed per
mutant, then the counts; the exit status is 1 when a mutant survives or its
old text or tests are missing.  Each run takes from a few seconds to about
half a minute, one at a time.

Only the tests listed for a mutant run, and the whole set of tests that
can kill it is larger: a survivor means that the listed tests miss it.
``tests/test_mutants.py`` checks in tier 1 that each mutant's old text
occurs exactly once in its file, so a change that rewrites the code a
mutant targets has to update the table here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root
    what: str


VERIFY = "src/trifree_efx/verify.py"
PHASE1 = "src/trifree_efx/phase1.py"
PHASE2 = "src/trifree_efx/phase2.py"
CUTS = "src/trifree_efx/cuts.py"

MUTANTS = (
    Mutant(
        "p3_one_endpoint",
        VERIFY,
        "for i, j in ends:",
        "for i, j in ends[:1]:",
        ("tests/test_verify.py", "tests/test_scoped_check.py"),
        "property (3) is checked for one endpoint of each pair only",
    ),
    Mutant(
        "witness_dropped",
        VERIFY,
        "if witness is not None:",
        "if witness is not None and i != 0:",
        ("tests/test_verify.py", "tests/test_scoped_check.py"),
        "agent 0's strong-envy witnesses are dropped from the envy graph",
    ),
    Mutant(
        "front_envy_skipped",
        PHASE1,
        "out.append(InvariantViolation(5, (i, j)))",
        "pass",
        ("tests/test_phase1.py",),
        "stage one's invariant (5), front agents envy nobody, is not reported",
    ),
    Mutant(
        "chain_skipped",
        VERIFY,
        "        candidates = edges\n",
        "        candidates = []\n",
        ("tests/test_verify.py", "tests/test_phase1.py"),
        "the whole check reports no envy chain, property (4)",
    ),
    Mutant(
        "scoped_chain_skipped",
        VERIFY,
        "candidates = [(i, j) for i, j in edges if i in scope or j in scope]",
        "candidates = []",
        ("tests/test_scoped_check.py",),
        "the scoped check reports no envy chain, property (4)",
    ),
    Mutant(
        "scoped_chain_ends_dropped",
        VERIFY,
        "ends = {j for _, j in candidates}",
        "ends = set()",
        ("tests/test_scoped_check.py",),
        "the scoped check's property (4) misses chains leaving an envied end "
        "of an envy pair touching the scope",
    ),
    Mutant(
        "scoped_chain_near_envy_dropped",
        VERIFY,
        "        candidates += [(i, j) for i, j in edges if i in ends]\n",
        "",
        ("tests/test_scoped_check.py",),
        "the scoped check's property (4) misses an envied end's envy toward "
        "the scope's neighbours",
    ),
    Mutant(
        "pair_fault_skipped",
        VERIFY,
        "faults.append(fault)",
        "pass",
        ("tests/test_verify.py", "tests/test_cuts.py"),
        "no pair fault, property (2), is reported",
    ),
    Mutant(
        "round_premise_removed",
        PHASE1,
        "stray = alloc.set_since(changes0).difference(front, back)",
        "stray = set()",
        ("tests/test_kept_report.py",),
        "a round may set the bundle of an agent it did not place",
    ),
    Mutant(
        "step_premise_removed",
        PHASE2,
        "stray = state.alloc.set_since(changes0).difference(record.changed())",
        "stray = set()",
        ("tests/test_phase2.py",),
        "a step may set the bundle of an agent outside the step",
    ),
    Mutant(
        "inner_pair_refresh_skipped",
        PHASE2,
        "                    self._refresh_pair(c, k)\n",
        "                    pass\n",
        ("tests/test_phase2.py",),
        "the live check does not reread a pair with both endpoints changed",
    ),
    Mutant(
        "outer_pair_refresh_skipped",
        PHASE2,
        "if self._refresh_pair(c, k):",
        "if k != max(instance.neighbors(c)) and self._refresh_pair(c, k):",
        ("tests/test_phase2.py",),
        "the live check does not reread the pair toward a changed agent's "
        "highest neighbour",
    ),
    Mutant(
        "live_envy_unsorted",
        PHASE2,
        "insort(enviers.setdefault(j, []), i)",
        "enviers.setdefault(j, []).append(i)",
        ("tests/test_phase2.py",),
        "the live check appends a new envier instead of keeping the row sorted",
    ),
    Mutant(
        "live_loose_not_swapped",
        PHASE2,
        "                (check.loose, old[0], new[0]),\n",
        "",
        ("tests/test_phase2.py",),
        "the live check keeps the old free goods of a reread pair",
    ),
    Mutant(
        "cursor_skips_agent",
        CUTS,
        "self._lowest = low",
        "self._lowest = low + 1",
        ("tests/test_cuts.py", "tests/test_phase1.py"),
        "the lowest-unplaced cursor moves past the agent it returns",
    ),
    Mutant(
        "p6_not_strict",
        VERIFY,
        "v(loose) > own, []",
        "v(loose) >= own, []",
        ("tests/test_phase2.py", "tests/test_verify.py"),
        "property (6) is broken by free goods worth only as much as the bundle",
    ),
    Mutant(
        "scope_without_neighbours",
        VERIFY,
        "near = with_neighbours(instance, scope)",
        "near = frozenset(scope)",
        ("tests/test_scoped_check.py",),
        "the scoped check decides envy and (5)-(7) for the changed agents only",
    ),
    Mutant(
        "scoped_live_reads_ignored",
        PHASE2,
        "view = live if report.scope is None else _near_view(live, reference)",
        "view = live if report.scope is None else reference",
        ("tests/test_phase2.py",),
        "a scoped step check does not compare the live check's reads",
    ),
    Mutant(
        "rule_agent_unchecked",
        PHASE2,
        "if compared is not None and i not in compared:",
        "if False:",
        ("tests/test_phase2.py",),
        "a rule fires on a live break no from-scratch check has seen",
    ),
    Mutant(
        "handed_state_scoped",
        PHASE1,
        "whole=not checked or not state.order.unplaced,",
        "whole=not state.order.unplaced,",
        ("tests/test_scoped_check.py",),
        "the first round of a state handed to stage one is checked scoped",
    ),
    Mutant(
        "scoped_failure_accepted",
        PHASE1,
        "        if not found:\n",
        "        if True:\n",
        ("tests/test_scoped_check.py",),
        "a scoped check's findings are accepted without the whole rerun",
    ),
    Mutant(
        "scoped_failure_unseen",
        PHASE1,
        "    if not whole:\n        raise InternalSolverError(",
        "    if False:\n        raise InternalSolverError(",
        ("tests/test_scoped_check.py",),
        "a scoped finding the whole check does not share is dropped silently",
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    path = root / mutant.path
    return path.read_text(encoding="utf-8").count(mutant.old) if path.is_file() else 0


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``timed out`` or why the mutant cannot run."""
    if occurrences(mutant) != 1:
        return f"not applicable: its old text occurs {occurrences(mutant)} times"
    tests = [t for t in mutant.tests if (ROOT / t.split("::")[0]).exists()]
    if not tests:
        return f"not applicable: none of {list(mutant.tests)} exists"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        target = work / mutant.path
        target.write_text(
            target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8"
        )
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(
                cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"not applicable: pytest exited {done.returncode}: {done.stdout[-300:]}"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants {unknown}; choose from {sorted(known)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] if names else list(MUTANTS)
    counts: dict[str, int] = {}
    for mutant in chosen:
        outcome = run(mutant)
        kind = outcome.split(":")[0]
        counts[kind] = counts.get(kind, 0) + 1
        print(f"{mutant.name}: {outcome}  ({mutant.what})", flush=True)
    print(", ".join(f"{count} {kind}" for kind, count in sorted(counts.items())))
    return 1 if set(counts) - {"killed", "timed out"} else 0


if __name__ == "__main__":
    sys.exit(main())
