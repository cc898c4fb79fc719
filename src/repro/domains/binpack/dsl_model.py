"""First Fit in the XPlain DSL (paper Fig. 4b).

Graph structure exactly as the figure draws it:

* one SOURCE with **pick** behavior per ball — supply is the ball size
  (the adversarial input), and pick semantics mean the whole ball goes to
  exactly one bin;
* one SPLIT node per bin with limited outgoing capacity — the edge to the
  "Occupancy" SINK carries at most the bin capacity.

One-dimensional instances only (the paper's figures use 1-D balls); the
multi-dimensional heuristics still work through the simulation path.
"""

from __future__ import annotations


from repro.domains.binpack.instance import PackingResult, VbpInstance
from repro.dsl import FlowGraph, InputSpec, NodeKind

OCCUPANCY = "occupancy"


def ball_node(i: int) -> str:
    return f"ball[{i}]"


def bin_node(j: int) -> str:
    return f"bin[{j}]"


def build_vbp_graph(
    num_balls: int,
    num_bins: int,
    capacity: float = 1.0,
    max_ball: float = 1.0,
    name: str = "vbp",
) -> FlowGraph:
    """The Fig. 4b problem structure for ``num_balls`` x ``num_bins``."""
    graph = FlowGraph(name)
    graph.add_node(OCCUPANCY, NodeKind.SINK, metadata={"role": "occupancy"})
    for j in range(num_bins):
        graph.add_node(
            bin_node(j),
            NodeKind.SPLIT,
            metadata={"role": "bin", "group": "BINS", "index": j},
        )
        graph.add_edge(bin_node(j), OCCUPANCY, capacity=capacity)
    for i in range(num_balls):
        graph.add_node(
            ball_node(i),
            NodeKind.SOURCE,
            NodeKind.PICK,
            supply=InputSpec(0.0, max_ball),
            metadata={"role": "ball", "group": "BALLS", "index": i},
        )
        for j in range(num_bins):
            graph.add_edge(
                ball_node(i),
                bin_node(j),
                metadata={"role": "assign", "ball": i, "bin": j},
            )
    graph.set_objective(OCCUPANCY, sense="max")
    graph.validate()
    return graph


def vbp_flows_for_result(
    graph: FlowGraph,
    instance: VbpInstance,
    result: PackingResult,
) -> dict[tuple[str, str], float]:
    """Map a packing onto the Fig. 4b graph's edges (explainer input)."""
    sizes = instance.scalar_sizes()
    flows: dict[tuple[str, str], float] = {e.key: 0.0 for e in graph.edges}
    for i, bin_index in enumerate(result.assignment):
        if bin_index < 0:
            continue
        flows[(ball_node(i), bin_node(bin_index))] = float(sizes[i])
        flows[(bin_node(bin_index), OCCUPANCY)] += float(sizes[i])
    return flows
