"""Spans and counts at the solver's layer boundaries, recorded from outside.

The traced run wraps the module-level names the solver's own callers look
up (stage entry points, pair cuts, the envy relation, the checkers) and
restores them afterwards; the untimed end-to-end runs never install the
wrappers.  Spans are kept in memory as ``(id, name, start, end, parent,
instance)`` rows and written out when the run ends.

Two call sites are too hot for one row per call: ``claimable`` (about n^2
calls per stage-one run) and ``CutTable.cut`` (one call per pair per stage-two
scan).  They are still timed and counted, and their time is charged to the
enclosing span, so every self time stays exact.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

from trifree_efx import cuts, model, phase1, phase2, phase3, verify


class Tracer:
    """Span stack with per-name totals; ``clock`` is replaceable for tests."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.instance = None
        self.rows: list[tuple] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child_s, id or None]
        self._next_id = 0

    def push(self, name: str, record: bool = True) -> list:
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, child_s, span_id = frame
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.rows.append(
                (span_id, name, start, end, self._parent_id(), self.instance)
            )

    def leaf(self, name: str, duration: float) -> None:
        """Charge a call timed by its wrapper, which holds no child spans."""
        self.total[name] += duration
        self.self_time[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.push(name)
        try:
            yield
        finally:
            self.pop(frame)

    def write(self, path, header: dict) -> None:
        origin = min((row[2] for row in self.rows), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, fields=list(SPAN_FIELDS))) + "\n")
            for span_id, name, start, end, parent, instance in self.rows:
                fh.write(
                    json.dumps(
                        [span_id, name, start - origin, end - origin, parent, instance]
                    )
                    + "\n"
                )


SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "instance")


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        frame = tracer.push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop(frame)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _claimable(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        frame = tracer.push("phase1.claimable", record=False)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
        if out:
            tracer.calls["phase1.claimable_nonempty"] += 1
        return out

    return wrapper


def _phase2_step(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        record = fn(*args, **kwargs)
        if record is not None:
            tracer.calls["phase2.rule_" + record.branch.lower()] += 1
        return record

    return wrapper


def _cut(tracer: Tracer, fn):
    clock = tracer.clock

    def wrapper(table, *args, **kwargs):
        before = len(table.stats)
        start = clock()
        out = fn(table, *args, **kwargs)
        duration = clock() - start
        tracer.calls["cuts.cut_calls"] += 1
        if len(table.stats) != before:
            tracer.leaf("cuts.cut_miss", duration)
            tracer.calls["cuts.pr_moves"] += table.stats[-1].moves
        return out

    return wrapper


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every name the solver's callers use."""
    out = []

    def spanned(owners, attr, name):
        for owner in owners:
            out.append((owner, attr, _spanned(tracer, name, getattr(owner, attr))))

    spanned([phase3], "run_phase1", "phase1.run")
    spanned([phase3], "run_phase2", "phase2.run")
    spanned([phase3], "run_phase3", "phase3.run")
    spanned([model.Instance], "find_triangle", "model.find_triangle")
    spanned([phase1], "check_invariants", "phase1.check_invariants")
    spanned([phase1], "greedy_replay", "phase1.greedy_replay")
    spanned([phase2, phase3, verify], "free_units", "cuts.free_units")
    spanned([phase1, phase2, phase3, verify], "envy_graph", "verify.envy_graph")
    spanned([phase1, phase2], "check_properties", "verify.check_properties")
    spanned([phase3, verify], "check_efx", "verify.check_efx")
    out.append((phase1, "augment", _counted(tracer, "phase1.augment", phase1.augment)))
    out.append((phase1, "claimable", _claimable(tracer, phase1.claimable)))
    out.append((phase2, "phase2_step", _phase2_step(tracer, phase2.phase2_step)))
    out.append((cuts.CutTable, "cut", _cut(tracer, cuts.CutTable.cut)))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the solver's layer boundaries for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every layer value of :mod:`layers`, except the two trace ratios."""
    total, calls = tracer.total, tracer.calls
    claimable = calls["phase1.claimable"]
    nonempty = calls["phase1.claimable_nonempty"]
    return {
        "model.find_triangle_s": total["model.find_triangle"],
        "serialize.load_s": total["serialize.load"],
        "serialize.dump_s": total["serialize.dump"],
        "phase1.run_s": total["phase1.run"],
        "phase1.self_s": tracer.self_time["phase1.run"],
        "phase1.augment_calls": calls["phase1.augment"],
        "phase1.claimable_calls": claimable,
        "phase1.claimable_s": total["phase1.claimable"],
        "phase1.claimable_nonempty_ratio": nonempty / claimable if claimable else 0.0,
        "phase1.check_invariants_s": total["phase1.check_invariants"],
        "phase1.greedy_replay_s": total["phase1.greedy_replay"],
        "cuts.cut_calls": calls["cuts.cut_calls"],
        "cuts.cut_misses": calls["cuts.cut_miss"],
        "cuts.cut_miss_s": total["cuts.cut_miss"],
        "cuts.pr_moves": calls["cuts.pr_moves"],
        "cuts.free_units_calls": calls["cuts.free_units"],
        "cuts.free_units_s": total["cuts.free_units"],
        "phase2.run_s": total["phase2.run"],
        "phase2.self_s": tracer.self_time["phase2.run"],
        "phase2.iterations": calls["phase2.rule_a"]
        + calls["phase2.rule_b"]
        + calls["phase2.rule_c"],
        "phase2.rule_a": calls["phase2.rule_a"],
        "phase2.rule_b": calls["phase2.rule_b"],
        "phase2.rule_c": calls["phase2.rule_c"],
        "verify.envy_graph_calls": calls["verify.envy_graph"],
        "verify.envy_graph_s": total["verify.envy_graph"],
        "verify.check_properties_calls": calls["verify.check_properties"],
        "verify.check_properties_s": total["verify.check_properties"],
        "verify.check_efx_s": total["verify.check_efx"],
        "verify.user_check_s": total["verify.user_check"],
        "phase3.run_s": total["phase3.run"],
        "phase3.dumps": calls["phase3.dumps"],
    }


def stage_coverage(tracer: Tracer) -> float:
    """Share of traced solve time inside the triangle guard and the stages."""
    total = tracer.total
    covered = sum(
        total[name]
        for name in ("model.find_triangle", "phase1.run", "phase2.run", "phase3.run")
    )
    return covered / total["solve"] if total["solve"] else 0.0
