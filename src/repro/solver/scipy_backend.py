"""SciPy-bundled HiGHS backend: every production LP and MILP solve.

``backend="scipy"`` is the default of every production path (TE flows,
MetaOpt encodings, the per-point MILP fallback) and the independent oracle
the test suite cross-checks the from-scratch simplex/branch-and-bound
against.

LPs go straight to SciPy's bundled HiGHS bindings
(``scipy.optimize._highspy._core``): the same model, options and status
rules ``scipy.optimize.linprog(method="highs")`` would pass and apply, so
HiGHS returns the same vertex bit for bit, without the wrapper's per-call
input cleaning and option validation (DESIGN.md §17). MILPs keep going
through ``scipy.optimize.milp``.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
from scipy import optimize, sparse
from scipy.optimize._highspy import _core as highs_core

from repro.solver.model import MatrixForm, Model
from repro.solver.solution import Solution, SolveStats, SolveStatus

#: ``linprog``'s reading of a HiGHS model status other than optimal; any
#: status missing here is an error.
_FAILED_STATUS = {
    highs_core.HighsModelStatus.kTimeLimit: SolveStatus.ITERATION_LIMIT,
    highs_core.HighsModelStatus.kIterationLimit: SolveStatus.ITERATION_LIMIT,
    highs_core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    highs_core.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
    highs_core.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}

#: Bound or row violation of a rounded MILP incumbent above which its
#: continuous part is re-solved (:func:`_polish`).
_MILP_POLISH_TOL = 1e-9

#: Bound or row violation above which ``linprog``'s ``_check_result``
#: rejects an "optimal" vertex: ``sqrt(1e-9) * 10``.
_RESIDUAL_TOL = float(np.sqrt(1e-9) * 10)

_local = threading.local()


def _lp_highs() -> highs_core._Highs:
    """This thread's HiGHS instance, holding ``linprog``'s LP options."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        options = highs_core.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = highs_core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = (
            highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        highs = highs_core._Highs()
        highs.passOptions(options)
        _local.highs = highs
    return highs


def _highs_lp(mf: MatrixForm, a: np.ndarray, rhs: np.ndarray) -> highs_core.HighsLp:
    """``lhs <= a @ x <= rhs`` in ``linprog``'s layout.

    ``a`` stacks the ``<=`` rows over the equality rows. The matrix is
    column-wise CSC with rows ascending inside each column, as
    ``csc_array`` builds it from the dense stack. ``linprog`` replaces
    infinities with ``kHighsInf``, which is infinity itself, so the bounds
    pass unchanged.
    """
    n, m = mf.c.size, rhs.size
    cols, rows = np.nonzero(a.T)
    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    counts = np.bincount(cols, minlength=n)
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(counts)))
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a[rows, cols]
    lp.col_cost_ = mf.c
    lp.col_lower_ = mf.lb
    lp.col_upper_ = mf.ub
    lp.row_lower_ = np.concatenate((np.full(mf.b_ub.size, -np.inf), mf.b_eq))
    lp.row_upper_ = rhs
    return lp


def _solve_lp(mf: MatrixForm) -> Solution:
    """Solve the LP ``mf`` exactly as ``linprog(method="highs")`` would."""
    a = np.vstack((mf.a_ub, mf.a_eq))
    rhs = np.concatenate((mf.b_ub, mf.b_eq))
    if not (mf.c.size and np.isfinite(mf.c).all() and np.isfinite(a).all()):
        raise ValueError("an LP needs >= 1 variable and finite costs and rows")
    if not np.isfinite(rhs).all():
        raise ValueError("LP right-hand sides must be finite")

    highs = _lp_highs()
    highs.clearSolver()
    stats = SolveStats(backend="scipy")
    if highs.passModel(_highs_lp(mf, a, rhs)) == highs_core.HighsStatus.kError:
        # linprog reads a model HiGHS refuses (kModelError) as infeasible.
        return Solution(status=SolveStatus.INFEASIBLE, stats=stats)
    if highs.run() == highs_core.HighsStatus.kError:
        status = _FAILED_STATUS.get(highs.getModelStatus(), SolveStatus.ERROR)
        return Solution(status=status, stats=stats)
    info = highs.getInfo()
    stats.iterations = info.simplex_iteration_count or info.ipm_iteration_count
    model_status = highs.getModelStatus()
    if model_status != highs_core.HighsModelStatus.kOptimal:
        status = _FAILED_STATUS.get(model_status, SolveStatus.ERROR)
        return Solution(status=status, stats=stats)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    residual = rhs - np.array(solution.row_value)
    m_ub = mf.b_ub.size
    if (
        np.isnan(x).any()
        or np.isnan(info.objective_function_value)
        or np.isnan(residual).any()
        or (x < mf.lb - _RESIDUAL_TOL).any()
        or (x > mf.ub + _RESIDUAL_TOL).any()
        or (residual[:m_ub] < -_RESIDUAL_TOL).any()
        or (np.abs(residual[m_ub:]) > _RESIDUAL_TOL).any()
    ):
        return Solution(status=SolveStatus.ERROR, stats=stats)
    values = {var: float(x[i]) for i, var in enumerate(mf.variables)}
    objective = mf.objective_sign * (float(mf.c @ x) + mf.c0)
    return Solution(
        status=SolveStatus.OPTIMAL, objective=objective, values=values, stats=stats
    )


def _status_from_milp(status_code: int) -> SolveStatus:
    return {
        0: SolveStatus.OPTIMAL,
        1: SolveStatus.ITERATION_LIMIT,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
        4: SolveStatus.NODE_LIMIT,
    }.get(status_code, SolveStatus.ERROR)


def _solve_milp(mf: MatrixForm, time_limit: float | None) -> Solution:
    """Solve the MILP ``mf`` with ``scipy.optimize.milp``."""
    bounds = optimize.Bounds(mf.lb, mf.ub)
    constraints = []
    if mf.a_ub.shape[0]:
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(mf.a_ub), -np.inf, mf.b_ub)
        )
    if mf.a_eq.shape[0]:
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(mf.a_eq), mf.b_eq, mf.b_eq)
        )
    # HiGHS's default mip_rel_gap (1e-4) lets it stop at incumbents
    # measurably worse than optimal (a 1e-5 absolute gap on a unit-scale
    # makespan passes the default tolerance); the gap oracle needs the
    # true optimum, so require (near-)exact convergence.
    options = {"mip_rel_gap": 1e-9}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = optimize.milp(
        c=mf.c,
        constraints=constraints,
        bounds=bounds,
        integrality=mf.integrality,
        options=options,
    )
    if result.status in (2, 4):
        # HiGHS's MILP presolve occasionally declares feasible models
        # infeasible (observed on VBP assignment models with chained
        # symmetry-breaking rows; scipy 1.17 / HiGHS status 8), or gives
        # up on tiny ones with a solve error (status 4). A false verdict
        # crashes the gap oracle, so confirm it once with presolve off —
        # genuinely infeasible models are rare here and the re-solve is
        # cheap.
        result = optimize.milp(
            c=mf.c,
            constraints=constraints,
            bounds=bounds,
            integrality=mf.integrality,
            options={**options, "presolve": False},
        )
    status = _status_from_milp(result.status)
    stats = SolveStats(
        nodes=int(getattr(result, "mip_node_count", 0) or 0),
        backend="scipy",
    )
    if result.x is None:
        return Solution(status=status, stats=stats)
    x = np.asarray(result.x, dtype=float)
    int_idx = np.where(mf.integrality == 1)[0]
    x[int_idx] = np.round(x[int_idx])
    if int_idx.size and _violation(mf, x) > _MILP_POLISH_TOL:
        x = _polish(mf, x, int_idx)
    values = {var: float(x[i]) for i, var in enumerate(mf.variables)}
    objective = mf.objective_sign * (float(mf.c @ x) + mf.c0)
    return Solution(status=status, objective=objective, values=values, stats=stats)


def _violation(mf: MatrixForm, x: np.ndarray) -> float:
    """Largest row or bound violation of the point ``x`` in ``mf``."""
    return float(
        max(
            np.max(mf.a_ub @ x - mf.b_ub, initial=0.0),
            np.max(np.abs(mf.a_eq @ x - mf.b_eq), initial=0.0),
            np.max(mf.lb - x, initial=0.0),
            np.max(x - mf.ub, initial=0.0),
        )
    )


def _polish(mf: MatrixForm, x: np.ndarray, int_idx: np.ndarray) -> np.ndarray:
    """The optimal continuous completion of ``x``'s integer part.

    HiGHS accepts MILP incumbents within its 1e-6 feasibility tolerance, so
    once the integer variables are rounded the continuous ones can sit off
    their vertex by that much (seen as objectives of ``-0.999999`` for
    ``-1``). Fixing the integers and solving the remaining LP restores the
    exact vertex; if that LP fails, the rounded point ``x`` is kept.
    """
    lb, ub = mf.lb.copy(), mf.ub.copy()
    lb[int_idx] = ub[int_idx] = x[int_idx]
    fixed = replace(mf, lb=lb, ub=ub, integrality=np.zeros_like(mf.integrality))
    solution = _solve_lp(fixed)
    if solution.status is not SolveStatus.OPTIMAL:
        return x
    return np.array([solution.values[var] for var in mf.variables])


def solve_scipy(model: Model, time_limit: float | None = None) -> Solution:
    """Solve ``model`` with HiGHS; ``time_limit`` applies to MILPs only."""
    mf = model.to_matrix_form()
    if model.is_mip:
        return _solve_milp(mf, time_limit)
    return _solve_lp(mf)
