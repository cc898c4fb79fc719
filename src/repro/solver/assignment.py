"""Exact batched optimum of small assignment problems by enumeration.

Both MILP domains ask for the optimum of an instance that assigns ``n``
items (jobs, balls) to ``m`` interchangeable machines or bins: the
minimum makespan (sched) and the minimum bin count (binpack). Machines
and bins are unlabelled, so it suffices to search the *canonical*
assignments — restricted-growth strings, where item ``i`` goes to a
machine already used by items ``0..i-1`` or to the next unused one. There
are ``sum_{k<=m} S(n, k)`` of them (Stirling numbers of the second kind):
4 for 3 jobs on 2 machines, Bell(4) = 15 for 4 balls, 1,094 for 8 jobs on
3 machines.

Every (point x assignment) pair is scored at once with numpy. Loads are
accumulated item by item in item order, so every float sum is bitwise the
one :meth:`~repro.domains.sched.instance.Schedule.machine_loads` or
:func:`~repro.domains.binpack.heuristics.first_fit` computes for the same
assignment. The candidates are in lexicographic order and the *first*
minimum wins, so the returned optimum is the lexicographically smallest
canonical one — a documented tie-break, where a MILP returns an arbitrary
labelling.

Two module constants bound the work: :data:`MAX_ASSIGNMENTS` caps the
candidate count (callers fall back to their MILP above it, and
:func:`canonical_assignments` returns ``None`` there), and
:data:`CELL_BUDGET` chunks the (points x assignments x machines) load
array so peak memory stays flat whatever the batch size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Largest canonical-assignment count enumerated (Bell(8) = 4,140 is over).
MAX_ASSIGNMENTS = 4096

#: Load cells (points x assignments x machines x dims) per numpy chunk.
CELL_BUDGET = 1 << 20


def count_canonical(num_items: int, num_bins: int) -> int:
    """Restricted-growth strings of length ``num_items`` with ``<= num_bins``
    distinct values: ``sum_{k <= num_bins} S(num_items, k)``."""
    # stirling[k] = S(i, k) for the current item count i.
    stirling = [1] + [0] * num_bins
    for _ in range(num_items):
        for k in range(num_bins, 0, -1):
            stirling[k] = k * stirling[k] + stirling[k - 1]
        stirling[0] = 0
    return sum(stirling)


@lru_cache(maxsize=None)
def canonical_assignments(num_items: int, num_bins: int) -> np.ndarray | None:
    """All canonical assignments in lexicographic order, or ``None`` when
    there are more than :data:`MAX_ASSIGNMENTS`.

    Row ``a`` is one assignment: entry ``i`` is the machine or bin of item
    ``i``; the bins used are exactly ``0..max(row)``. The array is cached
    per shape and read-only.
    """
    if count_canonical(num_items, num_bins) > MAX_ASSIGNMENTS:
        return None
    rows = np.zeros((1, 1), dtype=np.intp)
    top = np.zeros(1, dtype=np.intp)  # highest bin used per row
    for _ in range(1, num_items):
        # Children of each row: every used bin, then the next new one.
        children = np.minimum(top + 1, num_bins - 1) + 1
        parent = np.repeat(np.arange(len(rows)), children)
        label = np.arange(len(parent)) - np.repeat(
            np.cumsum(children) - children, children
        )
        rows = np.column_stack([rows[parent], label])
        top = np.maximum(top[parent], label)
    rows.setflags(write=False)
    return rows


def _scores(points, assignments, num_bins, score):
    """``score(loads)`` over chunks of ``points`` (shape (B, n, d)).

    ``loads`` has shape (chunk, A, num_bins, d) and is accumulated item by
    item; ``score`` maps it to one value per (point, assignment).
    """
    batch, num_items, dims = points.shape
    count = len(assignments)
    cols = np.arange(count)
    chunk = max(1, CELL_BUDGET // (count * num_bins * dims))
    out = np.empty((batch, count))
    for start in range(0, batch, chunk):
        part = points[start : start + chunk]
        loads = np.zeros((len(part), count, num_bins, dims))
        for i in range(num_items):
            loads[:, cols, assignments[:, i], :] += part[:, None, i, :]
        out[start : start + chunk] = score(loads)
    return out


def min_makespan(
    durations: np.ndarray, num_machines: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Minimum makespan of each row of ``durations`` (shape (B, n)).

    Returns ``(assignments, makespans)`` — the lexicographically smallest
    canonical optimal assignment per point, shape (B, n), and its makespan
    — or ``None`` above the enumeration cap.
    """
    durations = np.atleast_2d(np.asarray(durations, dtype=float))
    candidates = canonical_assignments(durations.shape[1], num_machines)
    if candidates is None:
        return None
    spans = _scores(
        durations[:, :, None],
        candidates,
        num_machines,
        lambda loads: loads[..., 0].max(axis=2),
    )
    best = np.argmin(spans, axis=1)
    return candidates[best], spans[np.arange(len(spans)), best]


def min_bins(
    sizes: np.ndarray, capacity: np.ndarray, num_bins: int, tol: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Minimum bin count of each instance in ``sizes`` (shape (B, n, d)).

    A packing is feasible when every bin load passes First Fit's own fit
    test, ``load <= capacity + tol`` in every dimension, so First Fit's
    packing is always a candidate and the optimum never exceeds it.
    Returns ``(assignments, bins)`` — the lexicographically smallest
    canonical optimal packing per point and its bin count, or all ``-1``
    where no packing into ``num_bins`` bins fits — or ``None`` above the
    enumeration cap.
    """
    sizes = np.asarray(sizes, dtype=float)
    candidates = canonical_assignments(sizes.shape[1], num_bins)
    if candidates is None:
        return None
    limit = np.asarray(capacity, dtype=float) + tol
    used = (candidates.max(axis=1) + 1).astype(float)

    def bins_if_fits(loads):
        return np.where((loads <= limit).all(axis=(2, 3)), used, np.inf)

    bins = _scores(sizes, candidates, num_bins, bins_if_fits)
    best = np.argmin(bins, axis=1)
    feasible = np.isfinite(bins[np.arange(len(bins)), best])
    assignments = np.where(feasible[:, None], candidates[best], -1)
    return assignments, np.where(feasible, used[best], -1).astype(int)
