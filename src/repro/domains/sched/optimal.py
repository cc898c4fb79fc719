"""Optimal makespan scheduling.

:func:`optimal_schedule` and :func:`optimal_makespans` are the pipeline's
optimum: canonical-assignment enumeration (:mod:`repro.solver.assignment`)
under its cap, the MILP of :func:`solve_optimal_schedule` above it. The
MILP stays public as the reference path.
"""

from __future__ import annotations

import numpy as np

from repro.domains.sched.instance import SchedInstance, Schedule
from repro.exceptions import AnalyzerError
from repro.solver import Model, SolveStatus, VarType, quicksum
from repro.solver.assignment import min_makespan


def solve_optimal_schedule(
    instance: SchedInstance, backend: str = "scipy"
) -> Schedule:
    """Minimize the makespan over all job -> machine assignments."""
    n, m = instance.num_jobs, instance.num_machines
    model = Model("optimal_sched", sense="min")
    assign = {
        (i, j): model.add_var(f"x[{i}|{j}]", vartype=VarType.BINARY)
        for i in range(n)
        for j in range(m)
    }
    total = float(sum(instance.durations))
    makespan = model.add_var("makespan", lb=0.0, ub=total)
    for i in range(n):
        model.add_constraint(
            quicksum(assign[i, j] for j in range(m)) == 1, name=f"place[{i}]"
        )
    for j in range(m):
        load = quicksum(
            float(instance.durations[i]) * assign[i, j] for i in range(n)
        )
        model.add_constraint(load <= makespan, name=f"span[{j}]")
    model.set_objective(makespan)
    solution = model.solve(backend=backend)
    if solution.status is not SolveStatus.OPTIMAL:
        raise AnalyzerError(
            f"optimal scheduling failed: {solution.status.value}"
        )
    assignment = [-1] * n
    for (i, j), var in assign.items():
        if solution.values[var] > 0.5:
            assignment[i] = j
    return Schedule(assignment, algorithm="optimal")


def optimal_makespan(instance: SchedInstance, backend: str = "scipy") -> float:
    schedule = solve_optimal_schedule(instance, backend=backend)
    return schedule.makespan(instance)


def optimal_schedule(instance: SchedInstance) -> Schedule:
    """An optimal schedule: the lexicographically smallest canonical one
    under the enumeration cap, the MILP's above it."""
    found = min_makespan(instance.duration_array, instance.num_machines)
    if found is None:
        return solve_optimal_schedule(instance)
    return Schedule(found[0][0].tolist(), algorithm="optimal")


def optimal_makespans(durations: np.ndarray, num_machines: int) -> np.ndarray:
    """Optimal makespan of each row of ``durations`` (shape (B, n))."""
    durations = np.atleast_2d(np.asarray(durations, dtype=float))
    found = min_makespan(durations, num_machines)
    if found is not None:
        return found[1]
    template = SchedInstance((0.0,) * durations.shape[1], num_machines)
    return np.array(
        [optimal_makespan(template.with_durations(x)) for x in durations]
    )
