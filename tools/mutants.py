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
        "        for i, j in ((a, b), (b, a)):\n            if i in unplaced:",
        "        for i, j in ((a, b),):\n            if i in unplaced:",
        ("tests/test_verify.py", "tests/test_scoped_check.py"),
        "property (3) is checked for one endpoint of each pair only",
    ),
    Mutant(
        "witness_dropped",
        VERIFY,
        "if witness is not None:\n                strong.append((i, j, witness))",
        "if witness is not None and i != 0:\n                strong.append((i, j, witness))",
        ("tests/test_verify.py", "tests/test_scoped_check.py"),
        "agent 0's strong-envy witnesses are dropped from the envy graph",
    ),
    Mutant(
        "front_envy_skipped",
        PHASE1,
        "if in_front(i) or (in_back(i) and in_back(j))",
        "if in_back(i) and in_back(j)",
        ("tests/test_phase1.py",),
        "stage one's invariant (5), front agents envy nobody, is not reported",
    ),
    Mutant(
        "chain_skipped",
        VERIFY,
        "report.extend(4, _first_chain(graph.enviers, middles))",
        "report.extend(4, _first_chain(graph.enviers, []))",
        ("tests/test_verify.py", "tests/test_phase1.py"),
        "the whole check reports no envy chain, property (4)",
    ),
    Mutant(
        "scoped_chain_skipped",
        VERIFY,
        "report.extend(4, _first_chain(ledger.enviers, _chain_middles(instance, ledger, middles)))",
        "report.extend(4, [])",
        ("tests/test_scoped_check.py",),
        "the scoped check reports no envy chain, property (4)",
    ),
    Mutant(
        "scoped_chain_ends_dropped",
        VERIFY,
        "for j in {j for _, j in edges}:",
        "for j in set():",
        ("tests/test_scoped_check.py",),
        "the scoped check's property (4) misses chains leaving an envied end "
        "of an envy pair touching the scope",
    ),
    Mutant(
        "scoped_chain_near_envy_dropped",
        VERIFY,
        "if j in enviers.get(k, ())]",
        "if j in graph.enviers.get(k, ())]",
        ("tests/test_scoped_check.py",),
        "the scoped check's property (4) misses an envied end's envy toward "
        "agents outside the scope, which only the ledger holds",
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
        "if k not in changed or c < k:  # a pair inside C is read once",
        "if k not in changed:",
        ("tests/test_phase2.py",),
        "the live check does not reread a pair with both endpoints changed",
    ),
    Mutant(
        "outer_pair_refresh_skipped",
        PHASE2,
        "if k not in changed or c < k:  # a pair inside C is read once",
        "if k != max(instance.neighbors(c)) and (k not in changed or c < k):",
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
        "                part = loose[agent]\n                part -= old_free\n"
        "                part |= new_free\n",
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
        "ledger.check(instance, alloc, with_neighbours(instance, scope), read)",
        "ledger.check(instance, alloc, scope, read)",
        ("tests/test_scoped_check.py", "tests/test_phase2.py"),
        "the scoped check decides (5)-(7) for the changed agents only",
    ),
    Mutant(
        "scoped_live_rows_ignored",
        PHASE2,
        "    for i, own in reference.own.items():",
        "    for i, own in ():",
        ("tests/test_phase2.py",),
        "a scoped step check does not compare the live check's per-agent rows",
    ),
    Mutant(
        "rule_agent_unchecked",
        PHASE2,
        "    differ = _differ(scan, reference)\n    if differ:",
        "    differ = _differ(scan, reference)\n    if False:",
        ("tests/test_phase2.py",),
        "a rule fires on a live break the ledger's rows do not have",
    ),
    Mutant(
        "handed_state_scoped",
        PHASE1,
        "        state = SolverState.fresh(instance)\n        if validate:\n"
        "            state.seed_ledger()\n",
        "        state = SolverState.fresh(instance)\n    if validate:\n"
        "        state.seed_ledger()\n",
        ("tests/test_scoped_check.py",),
        "a state handed to stage one gets the ledger of a fresh state, so its "
        "first round is checked scoped",
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
        "    if ledger is not None:\n        raise InternalSolverError(",
        "    if False:\n        raise InternalSolverError(",
        ("tests/test_scoped_check.py",),
        "a scoped finding the whole check does not share is dropped silently",
    ),
    Mutant(
        "ledger_pair_not_refreshed",
        VERIFY,
        "        if complete:\n            pairs[a, b] = pair[5:]",
        "        if complete and (scope is None or a in scope):\n            pairs[a, b] = pair[5:]",
        ("tests/test_scoped_check.py",),
        "a scoped check leaves the ledger's read of a pair whose higher "
        "endpoint is in the scope as it was before the step",
    ),
    Mutant(
        "ledger_own_stale",
        VERIFY,
        "            own[c] = instance.valuations[c].value(alloc.bundle(c))",
        "            pass",
        ("tests/test_scoped_check.py",),
        "a scoped check keeps the ledger's own values of the scope from before the step",
    ),
    Mutant(
        "ledger_aliases_live_check",
        VERIFY,
        "            own, pairs = list(check.own), dict(check.pairs)\n"
        "        enviers = {j: list(row) for j, row in report.graph.enviers.items()}",
        "            own, pairs = check.own, check.pairs\n        enviers = report.graph.enviers",
        ("tests/test_phase2.py",),
        "the ledger is seeded with the very containers of the opening report, "
        "which stage two's live check updates, so a scoped check's reads "
        "overwrite the live check's slips",
    ),
    Mutant(
        "ledger_stamp_ignored",
        VERIFY,
        "and alloc.set_since(self.changes) <= scope",
        "and True",
        ("tests/test_scoped_check.py",),
        "a ledger counts as current after bundles outside the scope were set",
    ),
    Mutant(
        "scoped_outgoing_envy_dropped",
        VERIFY,
        "                    seen.setdefault(c, {})[k] = part",
        "                    pass",
        ("tests/test_scoped_check.py",),
        "a scoped check does not reread the envy of the scope toward its "
        "neighbours outside it",
    ),
    Mutant(
        "whole_envy_strays_dropped",
        VERIFY,
        "    for j, g in strays:",
        "    for j, g in ():",
        ("tests/test_verify.py",),
        "the whole check's envy parts leave out the stray goods, so an agent "
        "does not see a good held outside its pair",
    ),
    Mutant(
        "kernel_torn_high_skipped",
        CUTS,
        "            elif held_hi and held_hi != first and held_hi != second:",
        "            elif False:",
        ("tests/test_cuts.py", "tests/test_verify.py"),
        "the pair read does not check the higher endpoint's part for a torn "
        "unit bundle",
    ),
    Mutant(
        "kernel_labels_not_crossed",
        CUTS,
        "            low, high = (first, second), (second, first)",
        "            low, high = (first, second), (first, second)",
        ("tests/test_cuts.py", "tests/test_verify.py"),
        "a pair with both unit bundles free gives the higher endpoint the "
        "lower one's labels instead of crossing them",
    ),
    Mutant(
        "kernel_third_party_free",
        CUTS,
        "free = rest if allocated.isdisjoint(rest) else",
        "free = rest if True else",
        ("tests/test_cuts.py", "tests/test_verify.py"),
        "the pair read counts pair goods a third agent holds as free, so it "
        "reports no held-outside-pair fault",
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
