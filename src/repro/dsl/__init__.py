"""The XPlain network-flow DSL (paper §5.1 and Appendix A).

Users describe the *problem*, the *heuristic*, and the *benchmark* as flow
graphs over behavior-typed nodes. The compiler package lowers these graphs
to LP/MILP models; the explainer scores their edges; the generalizer reads
their metadata.
"""

from repro.dsl.builder import FlowGraphBuilder
from repro.dsl.concretize import GroupTracker, ParamSpec, ProblemTemplate
from repro.dsl.graph import FlowGraph
from repro.dsl.linq import Query, query
from repro.dsl.nodes import Edge, InputSpec, Node, NodeKind, make_node

__all__ = [
    "Edge",
    "FlowGraph",
    "FlowGraphBuilder",
    "GroupTracker",
    "InputSpec",
    "Node",
    "NodeKind",
    "ParamSpec",
    "ProblemTemplate",
    "Query",
    "make_node",
    "query",
]
