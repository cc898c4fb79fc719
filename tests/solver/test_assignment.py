"""Differential tests for the canonical-assignment optimum.

The enumeration in :mod:`repro.solver.assignment` serves every sched and
binpack optimum under its cap. It is checked against two references:

* an exhaustive loop over all ``m ** n`` labelled assignments, scored with
  the domains' own scalar load arithmetic — equal bit for bit on any input;
* the HiGHS MILP, which stays the path above the cap. HiGHS stops within
  an absolute gap of 1e-6 and its own feasibility and integrality
  tolerances, so on arbitrary floats it may return a near-tied
  assignment a few 1e-6 worse; on a grid of multiples of 1/64 (every
  load sum exact, distinct optima 1/64 apart) it must agree exactly.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.domains.binpack.optimal as binpack_optimal
import repro.domains.sched.optimal as sched_optimal
from repro.domains.binpack import (
    PackingResult,
    VbpInstance,
    fig2_sizes,
    first_fit,
    first_fit_problem,
    optimal_bin_count,
    optimal_packing,
    solve_optimal_packing,
)
from repro.domains.binpack.heuristics import ORACLE_FIT_TOL
from repro.domains.sched import (
    SchedInstance,
    Schedule,
    list_scheduling,
    list_scheduling_batch,
    list_scheduling_problem,
    optimal_schedule,
    solve_optimal_schedule,
)
from repro.exceptions import AnalyzerError
from repro.solver import Model
from repro.solver.assignment import (
    MAX_ASSIGNMENTS,
    canonical_assignments,
    count_canonical,
    min_bins,
    min_makespan,
)

FLOATS = st.floats(min_value=0.0, max_value=1.0)
GRID = st.integers(min_value=0, max_value=64).map(lambda k: k / 64.0)
BALL_GRID = st.integers(min_value=1, max_value=64).map(lambda k: k / 64.0)


def brute_makespan(instance: SchedInstance) -> float:
    return min(
        Schedule(list(labels)).makespan(instance)
        for labels in itertools.product(
            range(instance.num_machines), repeat=instance.num_jobs
        )
    )


def brute_bins(instance: VbpInstance, tol: float) -> int:
    best = None
    limit = instance.capacity_array + tol
    for labels in itertools.product(
        range(instance.num_bins), repeat=instance.num_balls
    ):
        packing = PackingResult(list(labels))
        if np.all(packing.loads(instance) <= limit):
            if best is None or packing.bins_used < best:
                best = packing.bins_used
    return best


class TestCanonicalAssignments:
    @pytest.mark.parametrize(
        "items, bins, count",
        [(3, 2, 4), (4, 4, 15), (8, 3, 1094), (7, 7, 877), (8, 8, 4140)],
    )
    def test_counts(self, items, bins, count):
        assert count_canonical(items, bins) == count

    @pytest.mark.parametrize("items, bins", [(1, 1), (4, 2), (5, 5), (6, 3)])
    def test_restricted_growth_lexicographic_and_complete(self, items, bins):
        rows = canonical_assignments(items, bins)
        assert len(rows) == count_canonical(items, bins)
        as_tuples = [tuple(r) for r in rows.tolist()]
        assert as_tuples == sorted(set(as_tuples))
        for row in rows:
            assert row[0] == 0 and row.max() < bins
            assert all(row[i] <= row[:i].max() + 1 for i in range(1, items))
        # Every labelled assignment relabels to exactly one row.
        canonical = set()
        for labels in itertools.product(range(bins), repeat=items):
            order = {}
            canonical.add(tuple(order.setdefault(b, len(order)) for b in labels))
        assert canonical == set(as_tuples)

    def test_cap(self):
        assert count_canonical(8, 8) > MAX_ASSIGNMENTS
        assert canonical_assignments(8, 8) is None
        assert min_makespan(np.ones((2, 8)), 8) is None
        assert min_bins(np.ones((2, 8, 1)), [1.0], 8, 0.0) is None

    def test_read_only_cache(self):
        rows = canonical_assignments(4, 2)
        assert rows is canonical_assignments(4, 2)
        with pytest.raises(ValueError):
            rows[0, 0] = 1

    def test_chunking_does_not_change_results(self, monkeypatch):
        durations = np.random.default_rng(0).uniform(size=(37, 6))
        whole = min_makespan(durations, 3)
        monkeypatch.setattr("repro.solver.assignment.CELL_BUDGET", 1)
        chunked = min_makespan(durations, 3)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])


class TestSchedOptimum:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(FLOATS, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
    )
    def test_makespan_equals_exhaustive_search(self, durations, machines):
        instance = SchedInstance(tuple(durations), machines)
        schedule = optimal_schedule(instance)
        assert schedule.validate(instance)
        assert schedule.makespan(instance) == brute_makespan(instance)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(FLOATS, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
    )
    def test_makespan_within_milp_gap(self, durations, machines):
        instance = SchedInstance(tuple(durations), machines)
        ours = optimal_schedule(instance).makespan(instance)
        milp = solve_optimal_schedule(instance).makespan(instance)
        assert ours <= milp <= ours + 1e-5

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(GRID, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
    )
    def test_makespan_equals_milp_on_grid(self, durations, machines):
        instance = SchedInstance(tuple(durations), machines)
        ours = optimal_schedule(instance).makespan(instance)
        assert ours == solve_optimal_schedule(instance).makespan(instance)

    def test_tie_break_is_lexicographically_smallest(self):
        instance = SchedInstance((1.0, 1.0, 1.0, 1.0), 2)
        assert optimal_schedule(instance).assignment == [0, 0, 1, 1]

    def test_batch_values_match_scalar_schedules(self):
        durations = np.random.default_rng(1).uniform(size=(50, 5))
        assignments, spans = min_makespan(durations, 2)
        for x, labels, span in zip(durations, assignments, spans):
            instance = SchedInstance(tuple(x), 2)
            assert Schedule(labels.tolist()).makespan(instance) == span
            assert optimal_schedule(instance).assignment == labels.tolist()


class TestListSchedulingBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(FLOATS, min_size=4, max_size=4), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_equals_scalar_list_scheduling(self, rows, machines):
        durations = np.array(rows)
        assignments, spans = list_scheduling_batch(durations, machines)
        for x, labels, span in zip(durations, assignments, spans):
            instance = SchedInstance(tuple(x), machines)
            schedule = list_scheduling(instance)
            assert labels.tolist() == schedule.assignment
            assert span == schedule.makespan(instance)

    def test_ties_go_to_lowest_machine(self):
        assignments, _ = list_scheduling_batch(np.zeros((1, 3)), 3)
        assert assignments.tolist() == [[0, 0, 0]]


class TestBinpackOptimum:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(FLOATS, min_size=1, max_size=5))
    def test_bins_equal_exhaustive_search(self, sizes):
        instance = VbpInstance.one_dimensional(sizes)
        packing = optimal_packing(instance)
        assert packing.validate(instance, tol=ORACLE_FIT_TOL)
        assert packing.bins_used == brute_bins(instance, ORACLE_FIT_TOL)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(BALL_GRID, min_size=1, max_size=6))
    def test_bins_equal_milp(self, sizes):
        instance = VbpInstance.one_dimensional(sizes)
        packing = optimal_packing(instance)
        assert packing.validate(instance)
        assert packing.bins_used == solve_optimal_packing(instance).bins_used

    def test_multi_dimensional(self):
        instance = VbpInstance(
            sizes=((0.6, 0.1), (0.5, 0.5), (0.3, 0.6), (0.1, 0.3)),
            capacity=(1.0, 1.0),
            num_bins=4,
        )
        packing = optimal_packing(instance)
        assert packing.validate(instance)
        assert packing.bins_used == solve_optimal_packing(instance).bins_used

    def test_too_few_bins_is_infeasible(self):
        instance = VbpInstance.one_dimensional([0.7, 0.7, 0.7], num_bins=2)
        assert min_bins(instance.size_array[None], [1.0], 2, 0.0)[1][0] == -1
        with pytest.raises(AnalyzerError, match="infeasible"):
            optimal_packing(instance)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=0.95),
                st.floats(min_value=-2e-6, max_value=2e-6),
            ),
            min_size=1,
            max_size=3,
        ),
        st.randoms(use_true_random=False),
    )
    def test_opt_never_exceeds_ff_at_capacity_boundary(self, pairs, rnd):
        """Sizes whose pair sums sit within 2e-6 of the bin capacity: OPT's
        search space holds First Fit's own packing, so OPT <= FF."""
        sizes = [v for s, d in pairs for v in (s, min(1.0, 1.0 - s + d))]
        rnd.shuffle(sizes)
        instance = VbpInstance.one_dimensional(sizes)
        ff = first_fit(instance, tol=ORACLE_FIT_TOL)
        assert optimal_packing(instance).bins_used <= ff.bins_used
        problem = first_fit_problem(num_balls=len(sizes))
        x = np.array(sizes)
        assert problem.evaluate(x).gap >= 0.0
        assert problem.evaluate_batch(x[None]).gaps[0] >= 0.0


class TestCapBoundary:
    def test_eight_balls_take_the_milp_path(self, monkeypatch):
        calls = []
        milp = binpack_optimal.solve_optimal_packing

        def spy(instance, *args, **kwargs):
            calls.append(instance.num_balls)
            return milp(instance, *args, **kwargs)

        monkeypatch.setattr(binpack_optimal, "solve_optimal_packing", spy)
        x = np.full(7, 0.4)
        first_fit_problem(num_balls=7).evaluate(x)
        assert calls == []
        problem = first_fit_problem(num_balls=8)
        x = np.full(8, 0.4)
        assert problem.evaluate(x).benchmark_value == -4.0
        assert problem.evaluate_batch(x[None]).benchmark_values[0] == -4.0
        assert calls == [8, 8]

    def test_fig2_still_gives_eight_bins(self):
        instance = VbpInstance.one_dimensional(fig2_sizes(), num_bins=12)
        assert optimal_packing(instance).bins_used == 8
        assert optimal_bin_count(instance) == 8

    def test_sched_above_cap_matches_milp(self, monkeypatch):
        calls = []
        milp = sched_optimal.solve_optimal_schedule

        def spy(instance, *args, **kwargs):
            calls.append(instance.num_jobs)
            return milp(instance, *args, **kwargs)

        monkeypatch.setattr(sched_optimal, "solve_optimal_schedule", spy)
        problem = list_scheduling_problem(num_jobs=8, num_machines=8)
        x = np.linspace(0.1, 0.8, 8)
        sample = problem.evaluate(x)
        batch = problem.evaluate_batch(x[None])
        assert calls == [8, 8]
        assert sample.benchmark_value == batch.benchmark_values[0] == -0.8


class TestNoMilpUnderCap:
    def test_sched_and_binpack_optima_never_solve_a_model(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a MILP was solved under the cap")

        monkeypatch.setattr(Model, "solve", refuse)
        rng = np.random.default_rng(2)
        for problem in (
            list_scheduling_problem(num_jobs=8, num_machines=3),
            first_fit_problem(num_balls=7),
        ):
            points = rng.uniform(size=(5, problem.dim))
            problem.evaluate_batch(points)
            for x in points:
                problem.evaluate(x)
                problem.benchmark_flows(x)
            problem.gaps(points)
