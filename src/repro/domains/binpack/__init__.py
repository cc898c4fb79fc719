"""Vector bin packing with First Fit (the paper's §2/Fig. 1c example)."""

from repro.domains.binpack.analyzer_model import (
    build_ff_encoding,
    first_fit_problem,
)
from repro.domains.binpack.dsl_model import (
    build_vbp_graph,
    vbp_flows_for_result,
)
from repro.domains.binpack.heuristics import (
    HEURISTICS,
    best_fit,
    first_fit,
    first_fit_decreasing,
)
from repro.domains.binpack.instance import (
    PackingResult,
    VbpInstance,
    fig2_sizes,
    vbp4_adversarial_sizes,
)
from repro.domains.binpack.optimal import (
    lower_bound,
    optimal_bin_count,
    optimal_bin_counts,
    optimal_packing,
    solve_optimal_packing,
)

__all__ = [
    "HEURISTICS",
    "PackingResult",
    "VbpInstance",
    "best_fit",
    "build_ff_encoding",
    "build_vbp_graph",
    "fig2_sizes",
    "first_fit",
    "first_fit_decreasing",
    "first_fit_problem",
    "lower_bound",
    "optimal_bin_count",
    "optimal_bin_counts",
    "optimal_packing",
    "solve_optimal_packing",
    "vbp4_adversarial_sizes",
    "vbp_flows_for_result",
]
