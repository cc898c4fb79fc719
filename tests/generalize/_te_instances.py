"""Random-topology DP instances for the instance-generator tests.

Unlike ``line_te_instance_generator`` (the Type-3 benchmark's generator),
random topologies drive no paper claim, so this generator lives next to
the test that exercises it.
"""

from __future__ import annotations

import numpy as np

from repro.domains.te.analyzer_model import demand_pinning_problem
from repro.domains.te.demands import all_pairs_demand_set
from repro.domains.te.topology import Topology
from repro.generalize.instances import GeneratedInstance, InstanceGenerator


def te_instance_generator(
    num_nodes_range: tuple[int, int] = (4, 7),
    edge_probability: float = 0.25,
    capacity_range: tuple[float, float] = (40.0, 120.0),
    threshold_fraction_range: tuple[float, float] = (0.3, 0.7),
    num_paths: int = 2,
    max_demands: int = 8,
) -> InstanceGenerator:
    """Random DP instances over random topologies.

    Instance features exposed to the generalizer:

    * ``mean_shortest_path_len`` — the paper's Type-3 hypothesis is that
      the gap grows with the pinned demands' shortest-path length;
    * ``min_capacity`` / ``mean_capacity`` — "or the capacity of the links
      along these paths is lower";
    * ``threshold_fraction``, ``num_demands``, ``num_links``.
    """

    def generate(rng: np.random.Generator) -> GeneratedInstance:
        num_nodes = int(rng.integers(num_nodes_range[0], num_nodes_range[1] + 1))
        topology = Topology.random(
            num_nodes,
            edge_probability,
            capacity_range,
            rng,
            name=f"rand{num_nodes}",
        )
        demand_set = all_pairs_demand_set(topology, num_paths=num_paths)
        if demand_set.size > max_demands:
            keep = rng.choice(demand_set.size, size=max_demands, replace=False)
            demand_set.demands = [demand_set.demands[i] for i in sorted(keep)]
        min_cap = topology.min_capacity()
        threshold_fraction = float(rng.uniform(*threshold_fraction_range))
        threshold = threshold_fraction * min_cap
        d_max = 2.0 * min_cap
        problem = demand_pinning_problem(demand_set, threshold, d_max)
        path_lens = [d.shortest_path.length for d in demand_set.demands]
        capacities = [link.capacity for link in topology.links]
        features = {
            "mean_shortest_path_len": float(np.mean(path_lens)),
            "max_shortest_path_len": float(np.max(path_lens)),
            "min_capacity": float(min_cap),
            "mean_capacity": float(np.mean(capacities)),
            "threshold_fraction": threshold_fraction,
            "num_demands": float(demand_set.size),
            "num_links": float(topology.num_links),
        }
        return GeneratedInstance(problem=problem, features=features)

    return generate
