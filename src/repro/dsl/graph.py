"""The flow-graph IR of the DSL.

A :class:`FlowGraph` is the concrete artifact users build (directly, through
the fluent builder, or by instantiating a template). The compiler lowers it
to an optimization model; the explainer walks it to score edges; the
generalizer reads its metadata.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.dsl.nodes import Edge, InputSpec, Node, NodeKind, make_node
from repro.exceptions import GraphValidationError


class FlowGraph:
    """A directed graph of behavior-typed nodes with flow edges."""

    def __init__(self, name: str = "flow") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str], Edge] = {}
        self._out: dict[str, list[Edge]] = {}
        self._in: dict[str, list[Edge]] = {}
        #: Node whose total inflow is the optimization objective.
        self.objective_node: str | None = None
        #: 'max' (throughput-style) or 'min' (cost-style) on the sink inflow.
        self.objective_sense: str = "max"
        #: Default big-M the compiler uses for PICK nodes with uncapacitated
        #: outgoing edges.
        self.default_big_m: float = 1.0e4

    # -- construction ----------------------------------------------------------
    def add_node(
        self,
        name: str,
        *kinds: NodeKind | str,
        multiplier: float = 1.0,
        supply: float | InputSpec | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> Node:
        if name in self._nodes:
            raise GraphValidationError(f"duplicate node name {name!r}")
        node = make_node(
            name,
            *kinds,
            multiplier=multiplier,
            supply=supply,
            metadata=metadata,
        )
        self._nodes[name] = node
        self._out[name] = []
        self._in[name] = []
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        capacity: float | None = None,
        fixed_rate: float | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> Edge:
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise GraphValidationError(f"unknown node {endpoint!r}")
        if (src, dst) in self._edges:
            raise GraphValidationError(f"duplicate edge {src}->{dst}")
        edge = Edge(
            src=src,
            dst=dst,
            capacity=capacity,
            fixed_rate=fixed_rate,
            metadata=dict(metadata or {}),
        )
        self._edges[(src, dst)] = edge
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    def set_objective(self, node_name: str, sense: str = "max") -> None:
        """Designate a SINK node as the objective (Appendix A.1)."""
        node = self.node(node_name)
        if not node.is_sink:
            raise GraphValidationError(
                f"objective node {node_name!r} must be a SINK"
            )
        if sense not in ("max", "min"):
            raise GraphValidationError(f"bad objective sense {sense!r}")
        self.objective_node = node_name
        self.objective_sense = sense

    # -- queries ------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphValidationError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise GraphValidationError(f"unknown edge {src}->{dst}") from None

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, name: str) -> list[Edge]:
        return list(self._out[name])

    def in_edges(self, name: str) -> list[Edge]:
        return list(self._in[name])

    def sources(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.is_source]

    def sinks(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.is_sink]

    def input_sources(self) -> list[Node]:
        """SOURCE nodes whose supply is an adversarial input (ordered)."""
        return [n for n in self._nodes.values() if n.is_input]

    def input_names(self) -> list[str]:
        return [n.name for n in self.input_sources()]

    def nodes_in_group(self, group: str) -> list[Node]:
        return [n for n in self._nodes.values() if n.group() == group]

    def nodes_where(self, predicate: Callable[[Node], bool]) -> list[Node]:
        return [n for n in self._nodes.values() if predicate(n)]

    def edges_where(self, predicate: Callable[[Edge], bool]) -> list[Edge]:
        return [e for e in self._edges.values() if predicate(e)]

    # -- validation ------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural rule of the node behaviors.

        Raises :class:`GraphValidationError` on the first violation; the
        compiler calls this before lowering.
        """
        for node in self._nodes.values():
            n_in = len(self._in[node.name])
            n_out = len(self._out[node.name])
            if node.is_sink:
                if n_out:
                    raise GraphValidationError(
                        f"sink {node.name!r} has outgoing edges"
                    )
                if n_in == 0:
                    raise GraphValidationError(
                        f"sink {node.name!r} has no incoming edges"
                    )
            if node.is_source and n_in:
                raise GraphValidationError(
                    f"source {node.name!r} has incoming edges"
                )
            kind = node.routing_kind
            if kind is NodeKind.MULTIPLY:
                if n_in != 1 or n_out != 1:
                    raise GraphValidationError(
                        f"multiply node {node.name!r} must have exactly one "
                        f"incoming and one outgoing edge (has {n_in}/{n_out})"
                    )
            if kind is NodeKind.PICK and n_out == 0:
                raise GraphValidationError(
                    f"pick node {node.name!r} has no outgoing edges to pick from"
                )
            if node.is_source and n_out == 0:
                raise GraphValidationError(
                    f"source {node.name!r} has no outgoing edges"
                )
            if not node.is_source and not node.is_sink and n_in == 0 and n_out == 0:
                raise GraphValidationError(f"node {node.name!r} is isolated")
        if self.objective_node is not None and self.objective_node not in self._nodes:
            raise GraphValidationError(
                f"objective node {self.objective_node!r} does not exist"
            )

    # -- misc --------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "FlowGraph":
        """Structural deep copy (metadata dicts are copied shallowly)."""
        dup = FlowGraph(name or self.name)
        for node in self._nodes.values():
            dup.add_node(
                node.name,
                *node.kinds,
                multiplier=node.multiplier,
                supply=node.supply,
                metadata=dict(node.metadata),
            )
        for edge in self._edges.values():
            dup.add_edge(
                edge.src,
                edge.dst,
                capacity=edge.capacity,
                fixed_rate=edge.fixed_rate,
                metadata=dict(edge.metadata),
            )
        dup.objective_node = self.objective_node
        dup.objective_sense = self.objective_sense
        dup.default_big_m = self.default_big_m
        return dup

    def describe(self) -> str:
        """Multi-line human-readable dump (used by examples and docs)."""
        lines = [f"FlowGraph {self.name!r}: {self.num_nodes} nodes, {self.num_edges} edges"]
        for node in self._nodes.values():
            kinds = "+".join(sorted(k.value for k in node.kinds))
            supply = ""
            if isinstance(node.supply, InputSpec):
                supply = f" supply=input[{node.supply.lb:g},{node.supply.ub:g}]"
            elif node.supply is not None:
                supply = f" supply={node.supply:g}"
            lines.append(f"  node {node.name} ({kinds}){supply}")
            for edge in self._out[node.name]:
                extras = []
                if edge.capacity is not None:
                    extras.append(f"cap={edge.capacity:g}")
                if edge.fixed_rate is not None:
                    extras.append(f"rate={edge.fixed_rate:g}")
                suffix = f" [{', '.join(extras)}]" if extras else ""
                lines.append(f"    -> {edge.dst}{suffix}")
        if self.objective_node:
            lines.append(
                f"  objective: {self.objective_sense} inflow({self.objective_node})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"FlowGraph({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
