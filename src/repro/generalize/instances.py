"""The instance generator (§5.4).

"To discover patterns, we need to consider a diverse set of instances...
We build an instance generator that uses the problem description in the DSL
to create such instances and feeds them into the pipeline."

Generators produce :class:`~repro.analyzer.interface.AnalyzedProblem`
instances with varying structure (topologies, demand sets, ball/bin
counts), each tagged with *instance-level features* the Type-3 generalizer
correlates with the observed gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.analyzer.interface import AnalyzedProblem
from repro.domains.binpack.analyzer_model import first_fit_problem
from repro.domains.te.analyzer_model import demand_pinning_problem
from repro.domains.te.demands import build_demand_set
from repro.domains.te.topology import Topology


@dataclass
class GeneratedInstance:
    """One generated problem plus its instance-level feature values."""

    problem: AnalyzedProblem
    features: dict[str, float] = field(default_factory=dict)


InstanceGenerator = Callable[[np.random.Generator], GeneratedInstance]


def line_te_instance_generator(
    length_range: tuple[int, int] = (3, 8),
    capacity: float = 100.0,
    threshold: float = 50.0,
) -> InstanceGenerator:
    """DP instances on line-with-detour topologies of growing path length.

    Purpose-built for the paper's Type-3 claim: "the heuristic's
    performance is worse when the length of the shortest path of the
    pinned demands is longer". Each instance has one pinnable end-to-end
    demand whose shortest path grows with the line length, plus per-hop
    crossing demands the pin interferes with.
    """

    def generate(rng: np.random.Generator) -> GeneratedInstance:
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        topology = Topology(f"line{length}")
        labels = [str(i) for i in range(1, length + 1)]
        for a, b in zip(labels, labels[1:]):
            topology.add_link(a, b, capacity)
        # Detour around the whole line so the end-to-end demand has an
        # alternative path. The detour must be strictly *longer* than the
        # line (in hops) so the line stays the shortest path DP pins to.
        detour_nodes = [f"detour{i}" for i in range(length)]
        chain = [labels[0], *detour_nodes, labels[-1]]
        for a, b in zip(chain, chain[1:]):
            topology.add_link(a, b, capacity)
        pairs = [(labels[0], labels[-1])]
        pairs += [(a, b) for a, b in zip(labels, labels[1:])]
        demand_set = build_demand_set(topology, pairs, num_paths=2)
        problem = demand_pinning_problem(
            demand_set, threshold, d_max=2.0 * threshold
        )
        features = {
            "pinned_shortest_path_len": float(length - 1),
            "num_demands": float(demand_set.size),
            "capacity": capacity,
        }
        return GeneratedInstance(problem=problem, features=features)

    return generate


def vbp_instance_generator(
    num_balls_range: tuple[int, int] = (3, 6),
    bin_deficit_range: tuple[int, int] = (0, 1),
    capacity: float = 1.0,
) -> InstanceGenerator:
    """Random FF instances with varying ball counts and bin headroom."""

    def generate(rng: np.random.Generator) -> GeneratedInstance:
        num_balls = int(
            rng.integers(num_balls_range[0], num_balls_range[1] + 1)
        )
        deficit = int(
            rng.integers(bin_deficit_range[0], bin_deficit_range[1] + 1)
        )
        num_bins = max(2, num_balls - deficit)
        problem = first_fit_problem(
            num_balls, num_bins, capacity=capacity, max_ball=capacity
        )
        features = {
            "num_balls": float(num_balls),
            "num_bins": float(num_bins),
            "bin_headroom": float(num_bins - num_balls),
        }
        return GeneratedInstance(problem=problem, features=features)

    return generate


def generate_instances(
    generator: InstanceGenerator,
    count: int,
    rng: np.random.Generator,
) -> Iterator[GeneratedInstance]:
    for _ in range(count):
        yield generator(rng)
