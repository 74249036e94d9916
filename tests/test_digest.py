"""Behaviour digest: the solver's answers on a pinned suite, hashed.

The solver is deterministic, so a refactor that keeps its behaviour keeps
this digest.  A change that alters the answers on purpose updates
``PINNED_DIGEST`` and says why in CHANGES.md.

The suite is 20 ``suite_spec`` instances per topology and valuation class
(360 instances), each solved with per-step validation on and off; the two
runs must agree.  One digest covers the bundles and picking order of every
solve.  A second covers the stage-two repair steps (rule, agent, partner),
which the final answers alone do not pin: on this suite, repairing the
highest-id rule-A candidate first instead of the lowest ends in the same
allocations.
"""

import hashlib
import json

from trifree_efx import SolveConfig, solve
from trifree_efx.generate import TOPOLOGIES, gen_instance, suite_spec

PER_CELL = 20
VALUATION_CLASSES = ("additive", "transformed_additive", "monotone_table")
PINNED_DIGEST = "444f5c448804cf127b568cfc9d3cab06b467b0d0d04d9b7e5ec156818a3ded88"
PINNED_STEPS_DIGEST = "edaba0789668620fa9a27af845ef3f46592faf3c0823fa517b84034a3ea54144"


def pinned_specs():
    for topology in TOPOLOGIES:
        for valuation_class in VALUATION_CLASSES:
            for index in range(PER_CELL):
                if valuation_class == "monotone_table":
                    # small degrees keep the 2^degree tables cheap
                    yield suite_spec(
                        topology,
                        index,
                        valuation_class=valuation_class,
                        v_max=20,
                        max_parallel=2,
                        max_degree=4,
                        n_max=8,
                        m_max=16,
                    )
                else:
                    yield suite_spec(topology, index, valuation_class=valuation_class)


def suite_digests() -> tuple[str, str]:
    """Hex digests of the answers and of the stage-two steps."""
    answers_hash, steps_hash = hashlib.sha256(), hashlib.sha256()
    for spec in pinned_specs():
        instance = gen_instance(spec)
        runs = []
        for validate in (True, False):
            rows: list[dict] = []
            result = solve(instance, SolveConfig(validate_steps=validate, trace=rows.append))
            answer = [[sorted(b) for b in result.allocation.bundles()], result.sigma]
            steps = [
                [row["branch"], row["agent"], row["partner"]]
                for row in rows
                if row["phase"] == 2
            ]
            runs.append((answer, steps))
        assert runs[0] == runs[1], spec
        answers_hash.update(json.dumps(runs[0][0]).encode() + b"\n")
        steps_hash.update(json.dumps(runs[0][1]).encode() + b"\n")
    return answers_hash.hexdigest(), steps_hash.hexdigest()


def test_pinned_suite_digests_are_unchanged():
    assert suite_digests() == (PINNED_DIGEST, PINNED_STEPS_DIGEST)
