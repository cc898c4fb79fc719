"""Optimal bin packing (the VBP benchmark).

Minimize the number of used bins subject to every ball being placed and
per-bin capacity in every dimension. :func:`optimal_packing` and
:func:`optimal_bin_counts` are the pipeline's optimum: canonical-assignment
enumeration (:mod:`repro.solver.assignment`) with First Fit's own fit test
under the enumeration cap, and the assignment MILP of
:func:`solve_optimal_packing` (SciPy/HiGHS) above it. The MILP stays
public as the reference path.
"""

from __future__ import annotations

import numpy as np

from repro.domains.binpack.heuristics import ORACLE_FIT_TOL
from repro.domains.binpack.instance import PackingResult, VbpInstance
from repro.exceptions import AnalyzerError
from repro.solver import Model, SolveStatus, VarType, quicksum
from repro.solver.assignment import min_bins


def solve_optimal_packing(
    instance: VbpInstance, backend: str = "scipy"
) -> PackingResult:
    """The minimum-bin packing (raises when even that is infeasible)."""
    n, m = instance.num_balls, instance.num_bins
    sizes = instance.size_array
    capacity = instance.capacity_array

    model = Model("optimal_vbp", sense="min")
    assign = {
        (i, j): model.add_var(f"x[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    used = [
        model.add_var(f"z[{j}]", vartype=VarType.BINARY) for j in range(m)
    ]
    for i in range(n):
        model.add_constraint(
            quicksum(assign[i, j] for j in range(m)) == 1, name=f"place[{i}]"
        )
    for j in range(m):
        for dim in range(instance.num_dims):
            model.add_constraint(
                quicksum(
                    float(sizes[i, dim]) * assign[i, j] for i in range(n)
                )
                <= float(capacity[dim]),
                name=f"cap[{j}|{dim}]",
            )
        for i in range(n):
            model.add_constraint(
                assign[i, j] <= used[j], name=f"open[{i}|{j}]"
            )
    # Symmetry breaking: bins are interchangeable, use them in order.
    for j in range(m - 1):
        model.add_constraint(used[j] >= used[j + 1], name=f"sym[{j}]")
    model.set_objective(quicksum(used))

    solution = model.solve(backend=backend)
    if solution.status is not SolveStatus.OPTIMAL:
        raise AnalyzerError(
            f"optimal packing failed: {solution.status.value} "
            f"(instance may need more bins)"
        )
    assignment = [-1] * n
    for (i, j), var in assign.items():
        if solution.values[var] > 0.5:
            assignment[i] = j
    return PackingResult(assignment, feasible=True, algorithm="optimal")


def _enumerated(sizes: np.ndarray, instance: VbpInstance):
    """:func:`min_bins` of ``sizes`` (shape (B, n, d)) in ``instance``'s
    bins with First Fit's fit test; ``None`` above the enumeration cap."""
    found = min_bins(
        sizes, instance.capacity_array, instance.num_bins, ORACLE_FIT_TOL
    )
    if found is not None and np.any(found[1] < 0):
        raise AnalyzerError(
            "optimal packing failed: infeasible (instance may need more bins)"
        )
    return found


def optimal_packing(instance: VbpInstance) -> PackingResult:
    """A minimum-bin packing: the lexicographically smallest canonical one
    under the enumeration cap, the MILP's above it."""
    found = _enumerated(instance.size_array[None], instance)
    if found is None:
        return solve_optimal_packing(instance)
    return PackingResult(found[0][0].tolist(), feasible=True, algorithm="optimal")


def optimal_bin_counts(sizes: np.ndarray, template: VbpInstance) -> np.ndarray:
    """Minimum bin count of each row of ``sizes`` (one-dimensional balls,
    shape (B, n)) in ``template``'s bins."""
    sizes = np.atleast_2d(np.asarray(sizes, dtype=float))
    found = _enumerated(sizes[:, :, None], template)
    if found is not None:
        return found[1]
    return np.array(
        [solve_optimal_packing(template.with_sizes(x)).bins_used for x in sizes]
    )


def optimal_bin_count(instance: VbpInstance, backend: str = "scipy") -> int:
    return solve_optimal_packing(instance, backend=backend).bins_used


def lower_bound(instance: VbpInstance) -> int:
    """Volume-based lower bound on the optimal bin count (per dimension)."""
    totals = instance.size_array.sum(axis=0)
    per_dim = np.ceil(totals / instance.capacity_array - 1e-9)
    return int(max(1, per_dim.max()))
