"""Makespan scheduling (the paper's "conceptually similar to VBP" note)."""

from repro.domains.sched.dsl_model import (
    build_sched_graph,
    sched_flows_for_schedule,
)
from repro.domains.sched.heuristics import (
    list_scheduling,
    list_scheduling_batch,
    longest_processing_time,
)
from repro.domains.sched.instance import SchedInstance, Schedule
from repro.domains.sched.optimal import (
    optimal_makespan,
    optimal_makespans,
    optimal_schedule,
    solve_optimal_schedule,
)
from repro.domains.sched.problem import list_scheduling_problem

__all__ = [
    "SchedInstance",
    "Schedule",
    "build_sched_graph",
    "list_scheduling",
    "list_scheduling_batch",
    "list_scheduling_problem",
    "longest_processing_time",
    "optimal_makespan",
    "optimal_makespans",
    "optimal_schedule",
    "sched_flows_for_schedule",
    "solve_optimal_schedule",
]
