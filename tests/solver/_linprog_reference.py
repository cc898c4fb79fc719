"""Reference LP path: ``scipy.optimize.linprog(method="highs")``.

The LP backend calls SciPy's bundled HiGHS bindings directly and must
return what ``linprog`` returns for the same model, bit for bit. This is
the ``linprog`` call it replaced, kept here as the differential reference.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.solver.model import MatrixForm, Model
from repro.solver.scipy_backend import _solve_milp
from repro.solver.solution import Solution, SolveStats, SolveStatus

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def reference_solve_lp(mf: MatrixForm) -> Solution:
    """Solve the LP ``mf`` through ``linprog``."""
    result = optimize.linprog(
        c=mf.c,
        A_ub=mf.a_ub if mf.a_ub.shape[0] else None,
        b_ub=mf.b_ub if mf.b_ub.shape[0] else None,
        A_eq=mf.a_eq if mf.a_eq.shape[0] else None,
        b_eq=mf.b_eq if mf.b_eq.shape[0] else None,
        bounds=np.column_stack([mf.lb, mf.ub]),
        method="highs",
    )
    status = _LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
    stats = SolveStats(iterations=int(result.nit or 0), backend="scipy")
    if result.x is None:
        return Solution(status=status, stats=stats)
    x = np.asarray(result.x, dtype=float)
    values = {var: float(x[i]) for i, var in enumerate(mf.variables)}
    objective = mf.objective_sign * (float(mf.c @ x) + mf.c0)
    return Solution(status=status, objective=objective, values=values, stats=stats)


def reference_solve_scipy(model: Model, time_limit: float | None = None) -> Solution:
    """``solve_scipy`` with its LP branch routed through ``linprog``."""
    mf = model.to_matrix_form()
    if model.is_mip:
        return _solve_milp(mf, time_limit)
    return reference_solve_lp(mf)
