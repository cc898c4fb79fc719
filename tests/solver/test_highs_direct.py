"""The direct HiGHS LP path against ``linprog``, its reference.

``solve_scipy`` hands LPs straight to SciPy's bundled HiGHS bindings with
the model and options ``linprog(method="highs")`` would pass, so every
answer must match ``linprog``'s bit for bit: status, vertex, objective and
simplex iteration count. Heatmaps, whose flows are whichever degenerate
optimal vertex HiGHS returns, must not move at all. The path keeps one
HiGHS instance per thread and must stay silent on fd 1 and fd 2.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from _linprog_reference import reference_solve_lp, reference_solve_scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._linprog_util import _check_result

import repro.solver.scipy_backend as scipy_backend
from repro.domains.te import fig1a_demand_pinning_problem
from repro.explain import build_heatmap
from repro.solver import INF, Model, SolveStatus, quicksum
from repro.subspace.region import Box

COEFF = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
BOUND = st.integers(min_value=-5, max_value=5)
KIND = st.sampled_from(["free", "lower", "upper", "box", "fixed"])
RELATION = st.sampled_from(["<=", ">=", "=="])


def _bounds(kind: str, low: int, width: int) -> tuple[float, float]:
    return {
        "free": (-INF, INF),
        "lower": (low, INF),
        "upper": (-INF, low),
        "box": (low, low + width),
        "fixed": (low, low),
    }[kind]


@st.composite
def random_lp(draw) -> Model:
    """Small LPs over every row relation and variable-bound shape.

    Free and one-sided variables make unbounded models likely, and
    equality rows over fixed variables make infeasible ones likely.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=6))
    model = Model(sense=draw(st.sampled_from(["min", "max"])))
    xs = [
        model.add_var(
            f"x{i}", *_bounds(draw(KIND), draw(BOUND), draw(st.integers(1, 6)))
        )
        for i in range(n)
    ]
    for _ in range(m):
        row = draw(st.lists(COEFF, min_size=n, max_size=n))
        if not any(row):
            continue
        expr = quicksum(c * x for c, x in zip(row, xs))
        rhs = draw(BOUND)
        relation = draw(RELATION)
        if relation == "<=":
            model.add_constraint(expr <= rhs)
        elif relation == ">=":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    objective = draw(st.lists(COEFF, min_size=n, max_size=n))
    model.set_objective(quicksum(c * x for c, x in zip(objective, xs)))
    return model


def _vertex(model: Model, solution) -> np.ndarray | None:
    if not solution.values:
        return None
    return np.array([solution.values[var] for var in model.variables])


def assert_same_answer(model: Model, ours, ref) -> None:
    assert ours.status is ref.status
    ours_x, ref_x = _vertex(model, ours), _vertex(model, ref)
    assert (ours_x is None) == (ref_x is None)
    if ref_x is not None:
        assert ours_x.tobytes() == ref_x.tobytes()
    assert ours.objective == ref.objective
    assert ours.stats.iterations == ref.stats.iterations
    assert ours.stats.backend == ref.stats.backend == "scipy"


def _solve_both(model: Model):
    mf = model.to_matrix_form()
    return scipy_backend._solve_lp(mf), reference_solve_lp(mf)


class TestAgainstLinprog:
    @settings(max_examples=300, deadline=None)
    @given(random_lp())
    def test_random_lps_match_bit_for_bit(self, model):
        assert_same_answer(model, *_solve_both(model))

    def test_no_rows(self):
        model = Model(sense="max")
        x = model.add_var("x", lb=-1.0, ub=2.5)
        y = model.add_var("y", lb=-INF, ub=3.0)
        model.set_objective(2 * x + y)
        ours, ref = _solve_both(model)
        assert ours.status is SolveStatus.OPTIMAL
        assert ours.objective == 8.0
        assert_same_answer(model, ours, ref)

    def test_infeasible(self):
        model = Model()
        x = model.add_var("x", lb=0.0, ub=1.0)
        y = model.add_var("y", lb=0.0, ub=1.0)
        model.add_constraint(x + y >= 3)
        model.set_objective(x - y)
        ours, ref = _solve_both(model)
        assert ours.status is SolveStatus.INFEASIBLE
        assert_same_answer(model, ours, ref)

    def test_unbounded(self):
        model = Model(sense="max")
        x = model.add_var("x", lb=0.0)
        y = model.add_var("y", lb=-INF)
        model.add_constraint(x - y <= 1)
        model.add_constraint(0 * x <= 1)  # an all-zero row
        model.set_objective(x + y)
        ours, ref = _solve_both(model)
        assert ours.status is SolveStatus.UNBOUNDED
        assert_same_answer(model, ours, ref)

    def test_fixed_and_equality(self):
        model = _fixed_and_equality_model()
        ours, ref = _solve_both(model)
        assert ours.status is SolveStatus.OPTIMAL
        assert_same_answer(model, ours, ref)

    def test_empty_model_raises_like_linprog(self):
        model = Model()
        with pytest.raises(ValueError):
            reference_solve_lp(model.to_matrix_form())
        with pytest.raises(ValueError):
            scipy_backend._solve_lp(model.to_matrix_form())


def _fixed_and_equality_model() -> Model:
    model = Model()
    x = model.add_var("x", lb=2.0, ub=2.0)
    y = model.add_var("y", lb=-INF, ub=INF)
    z = model.add_var("z", lb=0.0, ub=10.0)
    model.add_constraint(x + y + z == 7)
    model.add_constraint(y - z >= -1)
    model.set_objective(y + 2 * z)
    return model


class _ShiftedVertex:
    """A HiGHS instance whose optimal vertex comes back moved by ``shift``."""

    def __init__(self, highs, shift: float):
        self._highs, self._shift = highs, shift

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getSolution(self):
        solution = self._highs.getSolution()
        solution.col_value = [v + self._shift for v in solution.col_value]
        return solution


@pytest.mark.parametrize("shift", [0.0, 1e-6, 3e-4, 4e-4, 1e-2, float("nan")])
def test_vertex_check_matches_linprog(monkeypatch, shift):
    """An "optimal" vertex off its bounds is an error, as ``linprog`` says."""
    model = _fixed_and_equality_model()
    mf = model.to_matrix_form()
    x = _vertex(model, reference_solve_lp(mf))
    linprog_status, _ = _check_result(
        x + shift,
        float(mf.c @ x),
        0,
        mf.b_ub - mf.a_ub @ x,
        mf.b_eq - mf.a_eq @ x,
        np.column_stack([mf.lb, mf.ub]),
        1e-9,
        "",
        None,
    )
    highs = scipy_backend._lp_highs()
    monkeypatch.setattr(
        scipy_backend, "_lp_highs", lambda: _ShiftedVertex(highs, shift)
    )
    ours = scipy_backend._solve_lp(mf)
    expected = SolveStatus.OPTIMAL if linprog_status == 0 else SolveStatus.ERROR
    assert ours.status is expected
    assert (ours.status is SolveStatus.OPTIMAL) == (abs(shift) < 3.1e-4)


def _heatmap_dict(problem, box, seed: int, samples: int) -> dict:
    heatmap = build_heatmap(problem, box, samples, np.random.default_rng(seed))
    return {
        "num_samples": heatmap.num_samples,
        "scores": {str(k): s.to_dict() for k, s in sorted(heatmap.scores.items())},
    }


@pytest.mark.parametrize(
    "fig4a, box",
    [
        (False, Box((40.0, 85.0, 85.0), (50.0, 100.0, 100.0))),
        (True, None),
    ],
    ids=["fig1a-adversarial-box", "fig4a-input-box"],
)
def test_te_heatmaps_match_linprog(monkeypatch, fig4a, box):
    problem = fig1a_demand_pinning_problem(fig4a=fig4a)
    box = problem.input_box if box is None else box
    direct = _heatmap_dict(problem, box, seed=3, samples=40)
    monkeypatch.setattr(scipy_backend, "solve_scipy", reference_solve_scipy)
    assert _heatmap_dict(problem, box, seed=3, samples=40) == direct


def _run_in_fresh_thread(fn):
    """Run ``fn`` on a new thread, so it also builds that thread's HiGHS."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


class TestRobustness:
    def test_lp_solve_and_heatmap_are_silent(self, capfd):
        model = Model(sense="max")
        x = model.add_var("x", lb=0.0, ub=4.0)
        y = model.add_var("y", lb=0.0, ub=4.0)
        model.add_constraint(x + 2 * y <= 6)
        model.set_objective(x + y)
        problem = fig1a_demand_pinning_problem()
        capfd.readouterr()

        solution = _run_in_fresh_thread(lambda: model.solve(backend="scipy"))
        _run_in_fresh_thread(
            lambda: build_heatmap(
                problem, problem.input_box, 10, np.random.default_rng(0)
            )
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert capfd.readouterr() == ("", "")

    def test_threads_solving_at_once_get_reference_answers(self):
        """More threads than cores, switching often, each on its own LP."""
        workers = 4
        models = []
        for k in range(workers):
            model = Model(sense="max")
            xs = model.add_vars(4, "x", lb=0.0, ub=5.0 + k)
            model.add_constraint(quicksum(xs) <= 7 + k)
            model.add_constraint(xs[0] - xs[1] + 2 * xs[2] >= 1 - k)
            model.add_constraint(xs[1] + xs[3] == 3)
            model.set_objective(quicksum((i + 1 + k) * x for i, x in enumerate(xs)))
            models.append(model)
        refs = [reference_solve_lp(m.to_matrix_form()) for m in models]
        barrier = threading.Barrier(workers)
        results: dict[int, list] = {}
        instances: dict[int, object] = {}

        def work(k: int) -> None:
            barrier.wait(timeout=60)
            instances[k] = scipy_backend._lp_highs()
            results[k] = [models[k].solve(backend="scipy") for _ in range(100)]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(highs) for highs in instances.values()}) == workers
        for k in range(workers):
            assert len(results[k]) == 100
            for solution in results[k]:
                assert_same_answer(models[k], solution, refs[k])
