"""Brute-force ground truth at desk scale.

Everything here is exhaustive and written independently of the solver: the
no-strong-envy test is re-derived from subset value tables rather than
calling the solver's checker, so the two code paths can vouch for each
other.  Sizes are guarded; these routines exist to certify small cases, not
to scale.  NumPy is imported by the routines that use it, not on import:
the package and its CLI import this module, and NumPy would double their
start-up time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from . import cuts as _cuts
from .errors import SearchSpaceTooLargeError, ValidationError
from .model import MONOTONE_TABLE_DEGREE_CAP, Allocation, Bundle, Instance

if TYPE_CHECKING:
    import numpy as np

ENUMERATION_GUARD = 10_000_000
_CHUNK = 1 << 15


class _AgentTable:
    """Subset values of one agent's incident goods, indexed by bitmask
    (ascending good id = ascending bit).  An agent of degree above
    ``MONOTONE_TABLE_DEGREE_CAP`` is refused before anything is tabulated."""

    def __init__(self, instance: Instance, agent: int):
        self.goods = sorted(instance.incident_goods(agent))
        d = len(self.goods)
        if d > MONOTONE_TABLE_DEGREE_CAP:
            raise SearchSpaceTooLargeError(
                f"agent {agent} has degree {d}: its 2^{d} subset table exceeds "
                f"the cap of 2^{MONOTONE_TABLE_DEGREE_CAP}"
            )
        import numpy as np
        self.bit = {g: k for k, g in enumerate(self.goods)}
        value = instance.valuations[agent].value
        vals = np.empty(1 << d, dtype=np.int64)
        for mask in range(1 << d):
            subset = frozenset(self.goods[k] for k in range(d) if mask >> k & 1)
            vals[mask] = value(subset)
        drop = np.full(1 << d, -1, dtype=np.int64)  # -1: nothing to remove
        for b in range(d):
            idx = np.arange(1 << d)
            with_bit = idx[(idx >> b & 1) == 1]
            drop[with_bit] = np.maximum(drop[with_bit], vals[with_bit ^ (1 << b)])
        self.values = vals
        self.maxdrop = drop

    def mask_of(self, goods: Bundle) -> int:
        mask = 0
        for g in goods:
            k = self.bit.get(g)
            if k is not None:
                mask |= 1 << k
        return mask


def _tables(instance: Instance) -> list[_AgentTable]:
    return [_AgentTable(instance, i) for i in range(instance.n)]


def scan_strong_envy(instance: Instance, alloc: Allocation) -> list[tuple[int, int]]:
    """All ordered pairs (i, j) where i strongly envies j, via value tables."""
    tables = _tables(instance)
    out = []
    for i in range(instance.n):
        t = tables[i]
        own = t.values[t.mask_of(alloc.bundle(i))]
        for j in range(instance.n):
            if j == i:
                continue
            other = alloc.bundle(j)
            mask = t.mask_of(other)
            if len(other) > int(mask).bit_count():
                # some good of the bundle is invisible to i; dropping it
                # keeps the full visible value
                threshold = t.values[mask]
            else:
                threshold = t.maxdrop[mask]
            if threshold > own:
                out.append((i, j))
    return out


def _assignment_chunks(n: int, m: int, total: int) -> Iterator[np.ndarray]:
    """Assignments as (chunk, m) digit arrays, good 0 most significant."""
    import numpy as np
    weights = np.array([n ** (m - 1 - g) for g in range(m)], dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield (idx[:, None] // weights[None, :]) % n


def enumerate_efx_allocations(
    instance: Instance,
    limit: Optional[int] = None,
    guard: int = ENUMERATION_GUARD,
) -> list[Allocation]:
    """All complete allocations without strong envy, in assignment order.

    Assignments run through a mixed-radix counter over the goods (good 0 is
    the most significant digit), so truncation by ``limit`` is reproducible.
    At most ``limit`` allocations are returned; a negative ``limit`` is
    rejected.
    """
    if limit is not None and limit < 0:
        raise ValidationError(f"limit must be non-negative, got {limit}")
    n, m = instance.n, instance.m
    total = n**m
    if total > guard:
        raise SearchSpaceTooLargeError(
            f"{n}^{m} = {total} assignments exceed the guard of {guard}"
        )
    if limit == 0:
        return []
    if m == 0:
        return [Allocation(n)]
    import numpy as np
    tables = _tables(instance)
    found: list[Allocation] = []
    for digits in _assignment_chunks(n, m, total):
        rows = digits.shape[0]
        ok = np.ones(rows, dtype=bool)
        sizes = np.empty((rows, n), dtype=np.int64)
        for j in range(n):
            sizes[:, j] = (digits == j).sum(axis=1)
        for i in range(n):
            t = tables[i]
            own_mask = np.zeros(rows, dtype=np.int64)
            for b, g in enumerate(t.goods):
                own_mask |= (digits[:, g] == i).astype(np.int64) << b
            own_val = t.values[own_mask]
            for j in range(n):
                if j == i:
                    continue
                mask = np.zeros(rows, dtype=np.int64)
                for b, g in enumerate(t.goods):
                    mask |= (digits[:, g] == j).astype(np.int64) << b
                visible = np.bitwise_count(mask.astype(np.uint64)).astype(np.int64)
                has_hidden = sizes[:, j] > visible
                threshold = np.where(has_hidden, t.values[mask], t.maxdrop[mask])
                ok &= ~(threshold > own_val)
            if not ok.any():
                break
        for row in np.flatnonzero(ok):
            bundles: list[set[int]] = [set() for _ in range(n)]
            for g in range(m):
                bundles[int(digits[row, g])].add(g)
            found.append(Allocation.from_bundles(n, bundles))
            if limit is not None and len(found) >= limit:
                return found
    return found


def _definition_ok(value, p1: Bundle, p2: Bundle) -> bool:
    for own, other in ((p1, p2), (p2, p1)):
        v_own = value(own)
        for g in other:
            if value(other - {g}) > v_own:
                return False
    return True


def verify_cut_exhaustive(instance: Instance, cutter: int, goods: Bundle) -> bool:
    """Check the cut routine's output on ``goods`` against the definition and
    confirm by full scan that some feasible two-way split exists at all."""
    if len(goods) > 22:
        raise SearchSpaceTooLargeError(
            f"{len(goods)} goods means {2 ** len(goods)} two-way splits"
        )
    value = instance.valuations[cutter].value
    p1, p2 = _cuts.efx_cut(instance, cutter, goods)
    if (p1 | p2) != goods or (p1 & p2):
        return False
    if not _definition_ok(value, p1, p2):
        return False
    order = sorted(goods)
    d = len(order)
    for mask in range(1 << max(d - 1, 0)):  # fix the top good in part 2
        part1 = frozenset(order[k] for k in range(d) if mask >> k & 1)
        if _definition_ok(value, part1, goods - part1):
            return True
    return False
