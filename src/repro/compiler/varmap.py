"""Edge <-> variable mapping kept alongside compiled models.

The paper's footnote about Gurobi's presolve ("it changes the variable
names, making it hard to connect them back to the original problem") is the
reason this map exists: every compiled model carries an explicit, stable
mapping from DSL edges and inputs to solver variables so the explainer can
always read flows back in DSL terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.solver.expr import Variable
from repro.solver.solution import Solution

EdgeKey = tuple[str, str]


@dataclass
class VarMap:
    """Mapping between a flow graph's elements and solver variables."""

    #: edge (src, dst) -> flow variable
    edge_vars: dict[EdgeKey, Variable] = field(default_factory=dict)
    #: input source node name -> supply variable
    input_vars: dict[str, Variable] = field(default_factory=dict)
    #: free-supply source node name -> supply variable
    free_supply_vars: dict[str, Variable] = field(default_factory=dict)
    #: (pick node name, out-edge key) -> selection binary
    pick_binaries: dict[tuple[str, EdgeKey], Variable] = field(default_factory=dict)

    def flow_var(self, src: str, dst: str) -> Variable:
        return self.edge_vars[(src, dst)]

    def input_var(self, source_name: str) -> Variable:
        return self.input_vars[source_name]

    def flows(self, solution: Solution) -> dict[EdgeKey, float]:
        """All edge flows under a solution, keyed by (src, dst)."""
        return {
            key: solution.values[var] for key, var in self.edge_vars.items()
        }

    def input_values(self, solution: Solution) -> dict[str, float]:
        """Adversarial-input values under a solution."""
        return {
            name: solution.values[var] for name, var in self.input_vars.items()
        }

    def picks(self, solution: Solution, tol: float = 0.5) -> dict[str, EdgeKey]:
        """For each PICK node, the out-edge its binary selected."""
        chosen: dict[str, EdgeKey] = {}
        for (node, edge_key), var in self.pick_binaries.items():
            if solution.values[var] > tol:
                chosen[node] = edge_key
        return chosen

    def merge(self, other: "VarMap") -> "VarMap":
        """Union of two maps (for models juxtaposing two graphs)."""
        merged = VarMap(
            edge_vars=dict(self.edge_vars),
            input_vars=dict(self.input_vars),
            free_supply_vars=dict(self.free_supply_vars),
            pick_binaries=dict(self.pick_binaries),
        )
        merged.edge_vars.update(other.edge_vars)
        merged.input_vars.update(other.input_vars)
        merged.free_supply_vars.update(other.free_supply_vars)
        merged.pick_binaries.update(other.pick_binaries)
        return merged
