"""Layer spans for the traced benchmark run.

The tracer wraps public callables at the module or class attributes the
XPlain pipeline resolves them through (``repro.core.pipeline.build_heatmap``,
``repro.subspace.generator.expand_around``, ``Model.solve``, ...). Every call
records a span: name, start, end, parent span and a few attributes. Spans
stay in memory until :meth:`Tracer.dump` writes them out.

Nothing in ``src/`` is edited: wrapping happens only inside the traced
workload process, and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


class Tracer:
    """Single-threaded span recorder with attribute-level call wrapping.

    A span is a dict: ``id``, ``name``, ``start``, ``end``, ``parent``
    (the enclosing span's id or None) and ``attrs``.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    def wrap(self, target: str, name, attrs=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` in spans.

        ``name`` is a span name or a callable ``(args) -> name``;
        ``attrs`` optionally maps the call's ``args`` to span attributes.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # A class attribute is read from the class itself, so the wrapper
        # replaces exactly the function the class defines.
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(
                name(args) if callable(name) else name,
                **(attrs(args) if attrs is not None else {}),
            )
            try:
                return original(*args, **kwargs)
            finally:
                self.close(span)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _points(args) -> dict:
    return {"points": len(args[1])}


def _units(args) -> dict:
    units = args[1]
    return {"units": len(units), "points": sum(len(u.points) for u in units)}


#: ``Model.solve`` spans, split by whether the model has integer variables
SOLVER_SPANS = ("solver.milp", "solver.lp_model")


def _solve_name(args) -> str:
    return SOLVER_SPANS[0] if args[0].is_mip else SOLVER_SPANS[1]


#: (target, span name, attribute extractor): the layer boundaries
LAYER_TARGETS = (
    (
        "repro.analyzer.blackbox:BlackBoxAnalyzer.find_adversarial",
        "analyzer.find_adversarial",
        None,
    ),
    (
        "repro.analyzer.bilevel:MetaOptAnalyzer.find_adversarial",
        "analyzer.find_adversarial",
        None,
    ),
    (
        "repro.subspace.generator:AdversarialSubspaceGenerator.run",
        "subspace.generate",
        None,
    ),
    ("repro.subspace.generator:expand_around", "subspace.expand", None),
    (
        "repro.subspace.generator:wilcoxon_signed_rank",
        "subspace.significance",
        None,
    ),
    ("repro.subspace.tree:RegressionTree.fit", "subspace.tree_fit", None),
    (
        "repro.oracle.engine:OracleEngine.evaluate_many",
        "oracle.evaluate",
        _points,
    ),
    (
        "repro.parallel.executor:SerialExecutor.map_units",
        "parallel.map_units",
        _units,
    ),
    (
        "repro.parallel.executor:ProcessExecutor.map_units",
        "parallel.map_units",
        _units,
    ),
    ("repro.solver.model:Model.solve", _solve_name, None),
    ("repro.core.pipeline:build_heatmap", "explain.heatmap", None),
    ("repro.core.pipeline:explain_heatmap", "explain.narrative", None),
    ("repro.core.pipeline:summarize_heatmap", "explain.narrative", None),
    ("repro.core.pipeline:observe_within_instance", "generalize.observe", None),
    (
        "repro.generalize.enumerate_:EnumerativeGeneralizer.search",
        "generalize.search",
        None,
    ),
)


def install(tracer: Tracer) -> None:
    for target, name, attrs in LAYER_TARGETS:
        tracer.wrap(target, name, attrs)


# ----------------------------------------------------------------------
def summarize(spans: list[dict]) -> dict:
    """Per-name totals of the outermost spans, self times and counts.

    A span's self time is its duration minus the time its direct children
    cover (children of one single-threaded parent never overlap). A
    name's total counts only spans with no same-named ancestor, so a
    recursive call is not counted twice.
    """
    by_id = {span["id"]: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            duration = span["end"] - span["start"]
            parent = span["parent"]
            child_time[parent] = child_time.get(parent, 0.0) + duration
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(
            span["name"], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time.get(span["id"], 0.0)
        if not _has_ancestor(span, span["name"], by_id):
            entry["total_s"] += duration
    return out


def _has_ancestor(span: dict, name: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor["name"] == name:
            return True
        parent = ancestor["parent"]
    return False


def under(spans: list[dict], names, ancestor: str) -> list[dict]:
    """Spans with a name in ``names`` that run inside a span ``ancestor``."""
    by_id = {span["id"]: span for span in spans}
    return [
        span
        for span in spans
        if span["name"] in names and _has_ancestor(span, ancestor, by_id)
    ]
