"""The Type-3 generalizer and instance generator (§5.4)."""

from repro.generalize.enumerate_ import (
    EnumerativeGeneralizer,
    GeneralizerResult,
    Observations,
    observe_across_instances,
    observe_with_analyzer,
    observe_within_instance,
)
from repro.generalize.grammar import (
    CheckedPredicate,
    Clause,
    Decreasing,
    Increasing,
    ThresholdShift,
    default_grammar,
)
from repro.generalize.instances import (
    GeneratedInstance,
    generate_instances,
    line_te_instance_generator,
    vbp_instance_generator,
)
from repro.generalize.validate import (
    MonotoneEvidence,
    ThresholdEvidence,
    benjamini_hochberg,
    monotone_test,
    threshold_test,
)

__all__ = [
    "CheckedPredicate",
    "Clause",
    "Decreasing",
    "EnumerativeGeneralizer",
    "GeneralizerResult",
    "GeneratedInstance",
    "Increasing",
    "MonotoneEvidence",
    "Observations",
    "ThresholdEvidence",
    "ThresholdShift",
    "benjamini_hochberg",
    "default_grammar",
    "generate_instances",
    "line_te_instance_generator",
    "monotone_test",
    "observe_across_instances",
    "observe_with_analyzer",
    "observe_within_instance",
    "threshold_test",
    "vbp_instance_generator",
]
