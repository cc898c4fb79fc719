"""One workload process of the end-to-end benchmark.

Reads a workload plan (the job kinds of one pass: domain, build arguments
and analysis config, JSON) on stdin, imports ``repro``, discovers the
plugin registry and builds one problem of each kind. ``setup`` mode stops
there and prints the set-up times.

``analyze`` mode then runs passes of ``XPlain(problem, config).run()``, one
analysis of every kind per pass, each on a freshly built problem and at
the pass's own seed (``plan["seed_base"] + pass``). With ``--seconds`` it
runs passes while the next one still fits in that window (at least
:data:`MIN_PASSES`) and reports ``analysis_s``, the sum over kinds of the
median analysis time. With ``--trace-passes N`` it runs passes 0..N-1,
each analysis once plain and once with layer spans, and reports the
per-layer metrics. Every report is checked against a freshly built,
uncached problem. The result is one JSON line on stdout.

Run from the repository root with ``PYTHONPATH=src``; ``run.py`` does so.
"""

import time

# Set-up time starts here, before the first ``import repro``.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

#: absolute tolerance of the seed re-evaluation and the gap >= 0 check
GAP_TOL = 1e-6
#: region sample points re-evaluated per subspace for the gap >= 0 check
CHECK_SAMPLES = 8
#: timed passes a windowed run makes even when the window is spent
MIN_PASSES = 3


def build_config(payload: dict, seed: int):
    from repro.core.config import XPlainConfig
    from repro.subspace.generator import GeneratorConfig
    from repro.subspace.slices import ExpansionConfig

    payload = dict(payload)
    generator = dict(payload.pop("generator", {}))
    expansion = ExpansionConfig(**generator.pop("expansion", {}))
    return XPlainConfig(
        generator=GeneratorConfig(expansion=expansion, seed=seed, **generator),
        seed=seed,
        **payload,
    )


def check_report(report, fresh, alpha: float) -> tuple[list[str], int]:
    """Claims of one report that the exact scalar oracle does not back.

    ``fresh`` is a newly built problem whose ``evaluate`` is the domain's
    scalar oracle, outside any engine cache. Each subspace's box must
    contain its seed (the generator guarantees this, §5.2). The refined
    region is grown around the recentered anchor, not the seed, and
    often excludes it; those misses are returned as a count, not failures.
    """
    failures = []
    seeds_outside_region = 0
    generator = report.generator_report
    groups = (("subspace", generator.subspaces), ("rejected", generator.rejected))
    for kind, subspaces in groups:
        for i, subspace in enumerate(subspaces):
            where = f"{kind} {i}"
            seed = subspace.seed
            sample = fresh.evaluate(seed.x)
            if abs(sample.gap - seed.validated_gap) > GAP_TOL:
                failures.append(
                    f"{where}: seed gap {seed.validated_gap!r} re-evaluates "
                    f"to {sample.gap!r}"
                )
            if not subspace.region.box.contains(seed.x, tol=GAP_TOL):
                failures.append(f"{where}: box does not contain its seed")
            elif not subspace.region.contains(seed.x, tol=GAP_TOL):
                seeds_outside_region += 1
            if kind == "subspace" and not subspace.significance.p_value < alpha:
                failures.append(
                    f"{where}: significant with p={subspace.significance.p_value!r}"
                    f" >= alpha={alpha!r}"
                )
            points = [seed.x, *subspace.samples.points[:CHECK_SAMPLES]]
            for x in points:
                sample = fresh.evaluate(x)
                if sample.heuristic_feasible and sample.gap < -GAP_TOL:
                    failures.append(f"{where}: gap {sample.gap!r} < 0 at {list(x)}")
    return failures, seeds_outside_region


def report_digest(name, problem, report, config) -> str:
    """Digest of the report's ``deterministic_view`` (timings stripped)."""
    from repro.parallel.campaign import deterministic_view, unit_report

    view = deterministic_view(
        unit_report(name, problem.spec, config.seed, problem, report, config=config)
    )
    text = json.dumps(view, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: the exact work counters a report carries (they repeat run to run)
COUNTERS = (
    "oracle.points",
    "oracle.cache_hits",
    "oracle.fresh_points",
    "oracle.native_points",
    "oracle.scalar_points",
    "solver.warm_solves",
    "solver.cold_solves",
    "solver.lp_iterations",
    "search.ledger_spent",
    "analyzer.calls",
    "subspace.found",
    "subspace.rejected",
)


def report_counters(report) -> dict:
    """One report's :data:`COUNTERS`."""
    generator = report.generator_report
    stats = generator.oracle_stats
    trace = generator.search_trace
    return {
        "oracle.points": stats.points,
        "oracle.cache_hits": stats.cache_hits,
        "oracle.fresh_points": stats.cache_misses,
        "oracle.native_points": stats.native_batched,
        "oracle.scalar_points": stats.scalar_fallback,
        "solver.warm_solves": stats.warm_solves,
        "solver.cold_solves": stats.cold_solves,
        "solver.lp_iterations": stats.lp_iterations,
        "search.ledger_spent": trace.total_spent if trace is not None else 0,
        "analyzer.calls": generator.analyzer_calls,
        "subspace.found": len(generator.subspaces),
        "subspace.rejected": len(generator.rejected),
    }


def layer_metrics(spans: list[dict], counters: dict, domains: list[str]) -> dict:
    """Distil the traced spans and report counters into per-layer metrics."""
    from tracer import SOLVER_SPANS, summarize, under

    layers = summarize(spans)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    batches = [s for s in spans if s["name"] == "oracle.evaluate"]
    batch_points = sum(s["attrs"]["points"] for s in batches)
    unit_spans = [s for s in spans if s["name"] == "parallel.map_units"]
    units = sum(s["attrs"]["units"] for s in unit_spans)
    unit_points = sum(s["attrs"]["points"] for s in unit_spans)
    evaluated = counters["oracle.native_points"] + counters["oracle.scalar_points"]
    heatmap_solves = under(spans, SOLVER_SPANS, "explain.heatmap")
    # The report counters cover the generation stage only; so does this.
    generation_busy = sum(
        s["end"] - s["start"]
        for s in under(spans, ("oracle.evaluate",), "subspace.generate")
    )
    out = dict(counters)
    out.update(
        {
            "analyzer.find_adversarial_s": total("analyzer.find_adversarial"),
            "analyzer.find_adversarial_self_s": self_time("analyzer.find_adversarial"),
            "subspace.generate_s": total("subspace.generate"),
            "subspace.generate_self_s": self_time("subspace.generate"),
            "subspace.expand_s": total("subspace.expand"),
            "subspace.expand_self_s": self_time("subspace.expand"),
            "subspace.tree_fit_s": total("subspace.tree_fit"),
            "subspace.significance_s": total("subspace.significance"),
            "oracle.busy_s": total("oracle.evaluate"),
            "oracle.busy_self_s": self_time("oracle.evaluate"),
            "oracle.batches": len(batches),
            "oracle.points_per_batch": batch_points / max(len(batches), 1),
            "oracle.single_point_batches": sum(
                1 for s in batches if s["attrs"]["points"] == 1
            ),
            "oracle.cache_hit_rate": counters["oracle.cache_hits"]
            / max(counters["oracle.points"], 1),
            "oracle.native_share": counters["oracle.native_points"] / max(evaluated, 1),
            "oracle.fresh_pts_per_s": counters["oracle.fresh_points"]
            / max(generation_busy, 1e-9),
            "solver.milp_calls": calls("solver.milp"),
            "solver.milp_s": total("solver.milp"),
            "solver.lp_model_calls": calls("solver.lp_model"),
            "solver.lp_model_s": total("solver.lp_model"),
            "explain.heatmap_s": total("explain.heatmap"),
            "explain.heatmap_self_s": self_time("explain.heatmap"),
            "explain.flow_solves": len(heatmap_solves),
            "explain.narrative_s": total("explain.narrative"),
            "generalize.observe_s": total("generalize.observe"),
            "generalize.observe_self_s": self_time("generalize.observe"),
            "generalize.search_s": total("generalize.search"),
            "parallel.map_units_s": total("parallel.map_units"),
            "parallel.map_units_self_s": self_time("parallel.map_units"),
            "parallel.units": units,
            "parallel.points_per_unit": unit_points / max(units, 1),
            "trace.unattributed_s": self_time("pipeline"),
            "trace.spans": len(spans),
        }
    )
    for domain in domains:
        out[f"pipeline.{domain}_s"] = sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == "pipeline" and s["attrs"]["domain"] == domain
        )
    return out


class Runner:
    """Runs and checks single analyses of the plan's kinds."""

    def __init__(self, plugins, plan: dict) -> None:
        self.plugins = plugins
        self.plan = plan
        self.analyses: list[dict] = []
        self.counters = dict.fromkeys((*COUNTERS, "check.seed_outside_region"), 0)

    def analyze(self, kind: dict, k: int, tracer=None) -> dict:
        """One analysis of ``kind`` at pass ``k``, timed, then checked."""
        from repro.core.pipeline import XPlain

        # Free the previous analysis's reference cycles first, so that every
        # analysis starts on the same heap and the peak RSS is that of one.
        gc.collect()
        seed = self.plan["seed_base"] + k
        plugin = self.plugins.get(kind["domain"])
        problem = plugin.build(**kind["kwargs"])
        config = build_config(kind["config"], seed)
        span = None
        if tracer is not None:
            from tracer import install

            install(tracer)
            span = tracer.open("pipeline", domain=kind["domain"])
        started = time.perf_counter()
        try:
            report = XPlain(problem, config).run()
        except Exception as exc:  # noqa: BLE001 - counted as failed, not fatal
            report = exc
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.close(span)
            tracer.restore()  # the check below must leave no spans

        entry = {
            "name": kind["name"],
            "domain": kind["domain"],
            "pass": k,
            "seed": seed,
            "traced": tracer is not None,
            "seconds": seconds,
        }
        if isinstance(report, Exception):
            entry["failures"] = [f"raised {type(report).__name__}: {report}"]
        else:
            fresh = plugin.build(**kind["kwargs"])
            entry["failures"], misses = check_report(
                report, fresh, config.generator.alpha
            )
            entry["seeds_outside_region"] = misses
            entry["digest"] = report_digest(kind["name"], problem, report, config)
            if tracer is not None:
                self.counters["check.seed_outside_region"] += misses
                for key, value in report_counters(report).items():
                    self.counters[key] += value
        self.analyses.append(entry)
        return entry


def run_window(runner: Runner, kinds: list[dict], seconds: float) -> dict:
    """Passes while the next one fits in ``seconds``; per-kind medians."""
    times: dict[str, list[float]] = {kind["name"]: [] for kind in kinds}
    started = time.perf_counter()
    k = 0
    while True:
        pass_started = time.perf_counter()
        for kind in kinds:
            times[kind["name"]].append(runner.analyze(kind, k)["seconds"])
        k += 1
        now = time.perf_counter()
        if k >= MIN_PASSES and now - started + (now - pass_started) > seconds:
            break
    kind_s = {name: statistics.median(t) for name, t in times.items()}
    return {"passes": k, "analysis_s": sum(kind_s.values()), "kind_s": kind_s}


def run_traced(runner: Runner, kinds: list[dict], passes: int, tracer) -> dict:
    """Passes 0..``passes``-1, each analysis plain and then traced."""
    plain = traced = 0.0
    for k in range(passes):
        for kind in kinds:
            plain += runner.analyze(kind, k)["seconds"]
            traced += runner.analyze(kind, k, tracer)["seconds"]
    return {"passes": passes, "plain_s": plain, "traced_s": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "analyze"), required=True)
    parser.add_argument("--seconds", type=float, help="measurement window")
    parser.add_argument("--trace-passes", type=int, help="traced passes")
    parser.add_argument("--trace-out", help="traced run: write spans to this file")
    args = parser.parse_args(argv)
    plan = json.load(sys.stdin)

    import repro  # noqa: F401  (the first import of the program)
    from repro.domains.registry import registry

    plugins = registry()
    imported = time.perf_counter()
    kinds = plan["kinds"]
    for kind in kinds:
        plugins.get(kind["domain"]).build(**kind["kwargs"])
    built = time.perf_counter()
    result = {
        "import_s": imported - _STARTED,
        "build_s": built - imported,
        "setup_s": built - _STARTED,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    runner = Runner(plugins, plan)
    if args.trace_passes:
        from tracer import Tracer

        tracer = Tracer()
        result.update(run_traced(runner, kinds, args.trace_passes, tracer))
        tracer.dump(args.trace_out)
        result["layers"] = layer_metrics(
            tracer.spans, runner.counters, plugins.names()
        )
    else:
        result.update(run_window(runner, kinds, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["analyses"] = runner.analyses
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
