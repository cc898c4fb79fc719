"""From-scratch LP/MILP solver substrate.

The paper's prototype drives Gurobi through MetaOpt; this package replaces
that proprietary layer with a complete, self-contained stack:

* :mod:`repro.solver.expr` — variables, linear expressions, constraints;
* :mod:`repro.solver.model` — the model container and backend dispatch;
* :mod:`repro.solver.simplex` — two-phase primal simplex (dense tableau);
* :mod:`repro.solver.branch_and_bound` — best-first MILP search;
* :mod:`repro.solver.presolve` — redundancy elimination with recovery maps
  (the engine behind the paper's compiled-DSL speedup claim);
* :mod:`repro.solver.scipy_backend` — HiGHS via SciPy, the default of
  every production solve and the cross-check oracle;
* :mod:`repro.solver.template` — parametric LP templates with basis
  warm-starting (the batched gap-oracle engine's solve substrate).
"""

from repro.solver.expr import (
    Constraint,
    LinExpr,
    Relation,
    Variable,
    VarType,
    quicksum,
)
from repro.solver.knobs import sf_presolve_default, slab_engine
from repro.solver.model import INF, Model
from repro.solver.presolve import PresolveResult, presolve, solve_with_presolve
from repro.solver.sf_presolve import PresolvedForm, presolve_standard_form
from repro.solver.slab import SlabResult, solve_slab
from repro.solver.solution import Solution, SolveStats, SolveStatus
from repro.solver.template import LpTemplate, TemplateSlabResult

__all__ = [
    "Constraint",
    "INF",
    "LinExpr",
    "LpTemplate",
    "Model",
    "PresolveResult",
    "PresolvedForm",
    "Relation",
    "SlabResult",
    "Solution",
    "SolveStats",
    "SolveStatus",
    "TemplateSlabResult",
    "Variable",
    "VarType",
    "presolve",
    "presolve_standard_form",
    "quicksum",
    "sf_presolve_default",
    "slab_engine",
    "solve_slab",
    "solve_with_presolve",
]
