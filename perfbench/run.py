"""End-to-end benchmark of full XPlain analyses.

Usage, from the repository root::

    python3 perfbench/run.py --workload milp-exact --seed 0 --seconds 35 --trace 0

A run makes a workload plan from ``--seed`` (the job kinds of one pass:
problems and configs; pass ``k`` analyses at seed ``1000 * seed + k``) and
hands it to fresh ``worker.py`` interpreters. The load is a closed loop:
one analysis at a time from one process, serial executor. Untraced, one
worker runs passes while the next one still fits in ``--seconds``;
``analysis_s`` is the sum over the workload's kinds of the median analysis
time, so it is the time of one pass. Set-up-only interpreters bring
``setup_s`` to :data:`SETUP_SAMPLES` samples. Traced, the first
:data:`TRACE_PASSES` passes run each analysis plain and with layer spans,
and the per-layer metrics of ``BENCHMARK.json`` are printed; the spans go
to ``.bench_out/``.

Every report is checked against the exact scalar oracle (see
``worker.check_report``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: set-up samples per untraced run (fresh interpreters)
SETUP_SAMPLES = 3
#: passes a traced run makes
TRACE_PASSES = 2
#: wall-clock limit of one whole run, child processes included
RUN_LIMIT_S = 170.0

# Sizes are pinned so that a change of program defaults cannot silently
# change a workload. They are below the interactive defaults so that one
# run holds several analyses of each kind: an analysis's cost depends on
# its seed (sched's hill climb sometimes ends early; binpack costs more
# when its subspace passes the significance test), and medians over many
# seeds keep that out of the run-to-run spread.

#: MILP-oracle analyses: the smoke pipeline (``SMOKE_CAMPAIGN_DEFAULTS``
#: when the benchmark was defined) with a shorter hill climb, fewer tree
#: samples and a shorter slice expansion
MILP = {
    "explainer_samples": 40,
    "generalizer_samples": 40,
    "blackbox_budget": 40,
    "generator": {
        "max_subspaces": 1,
        "tree_extra_samples": 40,
        "significance_pairs": 12,
        "expansion": {"max_expansions": 6, "samples_per_slice": 10},
    },
}
#: TE: the interactive defaults of ``XPlainConfig`` with 120 explainer
#: samples instead of 300 (1,920 heatmap flow LPs per analysis)
EXPLAIN = {
    "explainer_samples": 120,
    "generalizer_samples": 200,
    "generator": {
        "max_subspaces": 8,
        "tree_extra_samples": 256,
        "significance_pairs": 40,
    },
}
#: caching: the interactive defaults with 4 subspaces and a smaller
#: explainer and generalizer
BLACKBOX = {
    "explainer_samples": 150,
    "generalizer_samples": 100,
    "blackbox_budget": 400,
    "generator": {
        "max_subspaces": 4,
        "tree_extra_samples": 256,
        "significance_pairs": 40,
    },
}


def kind(name: str, domain: str, kwargs: dict, config: dict, **extra) -> dict:
    return {
        "name": name,
        "domain": domain,
        "kwargs": kwargs,
        "config": dict(config, **extra),
    }


#: workload name -> the job kinds of one pass; the why of each is in
#: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    "milp-exact": [
        kind("sched-smoke", "sched", {"num_jobs": 3, "num_machines": 2}, MILP,
             analyzer="blackbox", blackbox_strategy="hillclimb"),
        kind("binpack-smoke", "binpack", {"num_balls": 4, "num_bins": 3}, MILP,
             analyzer="metaopt"),
    ],
    "lp-explain": [
        kind("te-fig1a", "te", {"threshold": 50.0, "d_max": 100.0}, EXPLAIN,
             analyzer="metaopt"),
    ],
    "blackbox-trace": [
        kind("caching-lru", "caching",
             {"num_items": 4, "capacity": 2, "trace_len": 12, "policy": "lru"},
             BLACKBOX, analyzer="blackbox", blackbox_strategy="hillclimb"),
    ],
}


class BenchError(RuntimeError):
    """The benchmark itself could not complete a run."""


# ----------------------------------------------------------------------
def _reap_group(pgid: int) -> None:
    """Kill what is left of a worker's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_worker(
    plan: dict, mode: str, deadline: float, extra=(), flags=()
) -> tuple[dict, str]:
    """One fresh worker interpreter; returns its JSON result and stderr."""
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), "--mode", mode, *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(
            json.dumps(plan), timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise BenchError(
            f"worker ({mode}) overran the run limit of {RUN_LIMIT_S:.0f}s"
        ) from None
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(
            f"worker ({mode}) exited with {proc.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1]), err


def _is_scipy_stats(module: str) -> bool:
    return module == "scipy.stats" or module.startswith("scipy.stats.")


def scipy_stats_import_s(importtime_log: str) -> float:
    """Cumulative import seconds of ``scipy.stats`` from ``-X importtime``.

    SciPy loads ``scipy.stats`` lazily, so the log may lack a line for the
    package itself: the ``scipy.stats*`` entries that no other
    ``scipy.stats*`` entry encloses are summed. The log is post-order, so
    an entry's enclosing imports are the later, shallower entries.
    """
    entries = []
    for line in importtime_log.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if match:
            entries.append((int(match[1]), len(match[2]), match[3]))
    total_us = 0
    for i, (cumulative, depth, module) in enumerate(entries):
        if not _is_scipy_stats(module):
            continue
        enclosed = False
        for _, later_depth, later_module in entries[i + 1:]:
            if later_depth < depth:
                depth = later_depth
                enclosed = enclosed or _is_scipy_stats(later_module)
        if not enclosed:
            total_us += cumulative
    return total_us / 1e6


# ----------------------------------------------------------------------
def measure(plan: dict, seconds: int, deadline: float) -> tuple[dict, dict]:
    """Untraced run: one windowed worker plus set-up probes."""
    rep = run_worker(plan, "analyze", deadline, extra=("--seconds", str(seconds)))[0]
    setups = [rep["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(plan, "setup", deadline)[0]["setup_s"])
    metrics = {
        "analysis_s": rep["analysis_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    return rep, metrics


def measure_traced(plan: dict, trace_path: Path, deadline: float) -> tuple[dict, dict]:
    """Traced run: plain and traced passes, and start-up probes."""
    extra = ("--trace-passes", str(TRACE_PASSES), "--trace-out", str(trace_path))
    rep = run_worker(plan, "analyze", deadline, extra=extra)[0]
    setups = [rep] + [run_worker(plan, "setup", deadline)[0] for _ in range(2)]
    _, log = run_worker(plan, "setup", deadline, flags=("-X", "importtime"))
    metrics = dict(rep["layers"])
    metrics.update(
        {
            "startup.import_s": statistics.median(s["import_s"] for s in setups),
            "startup.build_s": statistics.median(s["build_s"] for s in setups),
            "startup.scipy_stats_import_s": scipy_stats_import_s(log),
            "trace.overhead_s": rep["traced_s"] - rep["plain_s"],
        }
    )
    return rep, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    plan = {
        "workload": args.workload,
        "seed_base": 1000 * args.seed,
        "kinds": WORKLOADS[args.workload],
    }
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            rep, metrics = measure_traced(plan, trace_path, deadline)
        else:
            rep, metrics = measure(plan, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    analyses = rep["analyses"]
    failed = sum(1 for entry in analyses if entry["failures"])
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{rep['passes']} pass(es), "
        f"{len(analyses)} analyses"
    )
    for entry in analyses:
        print(
            f"  pass {entry['pass']:<3} {entry['name']:<14} seed {entry['seed']:<7}"
            f"{' traced' if entry['traced'] else '       '} "
            f"{entry['seconds']:8.3f} s  report {entry.get('digest', '-')}  "
            f"{'FAILED' if entry['failures'] else 'ok'}"
        )
    for entry in analyses:
        for failure in entry["failures"]:
            print(f"  check failed: {entry['name']} seed {entry['seed']}: {failure}")
    pairs: dict[tuple, set] = {}
    for entry in analyses:
        pairs.setdefault((entry["name"], entry["seed"]), set()).add(entry.get("digest"))
    if any(len(digests) > 1 for digests in pairs.values()):
        print("  note: plain and traced reports of the same seed differ")
    outside = sum(entry.get("seeds_outside_region", 0) for entry in analyses)
    if outside:
        print(
            f"  note: {outside} subspace seed(s) lie in their box but outside "
            "the refined region"
        )
    for name, seconds in rep.get("kind_s", {}).items():
        print(f"  median {name}: {seconds:.3f} s")
    if args.trace:
        metrics_path = OUT / f"layers-{args.workload}-seed{args.seed}.json"
        metrics_path.write_text(json.dumps(metrics, indent=1, sort_keys=True))
        print(f"  spans: {trace_path}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not produced: {missing}", file=sys.stderr)
        return 1
    result = {}
    for metric in declared:
        value = metrics[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<36} {value:14.6g} {metric['unit']}")
    attempted = len(analyses)
    print(
        f"{'failed_share':<36} {failed / attempted:14.6g} share "
        f"({failed} of {attempted})"
    )
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
