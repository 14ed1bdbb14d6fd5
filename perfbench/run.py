"""Benchmark of the gwtwist engine: one workload per invocation.

    python3 perfbench/run.py --workload quintic-deep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it measures set-up and
job times with no wrappers installed and prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes, prints the
per-layer metrics and writes the spans to ``.perfbench/``.  Every job's
output is checked against golden values (``golden.json``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds the run's context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import golden
import workloads
from layers import summarize

# The seconds one reference loop is taken to last when set-up time is
# expressed in seconds; about what it measures on the 2-vCPU host the
# benchmark was tuned on.
NOMINAL_REFERENCE_S = 0.005


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(workloads.PACKAGE.glob("*.py"))
    )


def end_to_end(args, tally, context: dict) -> dict:
    engine, first_setup_s, first_reference_s = workloads.timed_setup(args.workload, tally)
    durations, references, setup_times, setup_references = workloads.timed_loop(
        engine, args.workload, args.seed, args.seconds, tally
    )
    setup_times.insert(0, first_setup_s)
    setup_references.insert(0, first_reference_s)
    workloads.crosscheck(engine, args.workload, args.seed, tally)
    if not durations:
        return {}
    mean_job_s = sum(durations) / len(durations)
    # Wall-clock times follow the share of a run that a shared CPU spends in
    # a slow phase, so they are reported as context.  The gated job metric is
    # each job's time in units of the reference loop timed around it; the
    # gated set-up time is each set-up's time in those units, given in
    # seconds at NOMINAL_REFERENCE_S per loop.
    context.update(
        jobs=len(durations),
        job_s_p50=statistics.median(durations),
        job_s_p90=_p90(durations),
        jobs_per_s=1 / mean_job_s,
        reference_s_mean=statistics.fmean(references),
        setup_wall_s=statistics.median(setup_times),
        setups=len(setup_times),
    )
    setup_cost = statistics.median(s / r for s, r in zip(setup_times, setup_references))
    values = {
        "setup_s": (setup_cost * NOMINAL_REFERENCE_S, "s"),
        "job_cost": (statistics.fmean(d / r for d, r in zip(durations, references)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_layer(args, tally, context: dict) -> dict:
    engine, _ = workloads.setup(args.workload, tally)
    rounds, overheads, spans = workloads.traced_rounds(
        engine, args.workload, args.seed, args.seconds, tally
    )
    if not rounds:
        return {}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"], "rounds": spans}, fh)
    context.update(rounds=len(rounds), spans_file=str(path.relative_to(workloads.ROOT)))
    return summarize(rounds, overheads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        str(p.relative_to(workloads.ROOT))
        for p in [workloads.PACKAGE / "__init__.py", *workloads.GEOMETRY_FILES.values()]
        if not p.is_file()
    ]
    if missing:
        print(f"not a gwtwist checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    tally = workloads.Tally(golden.load())
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "src_gwtwist_lines": _src_lines(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    started = time.perf_counter()
    metrics = (per_layer if args.trace else end_to_end)(args, tally, context)
    context.update(
        wall_s=time.perf_counter() - started,
        failed_frac=tally.failed / tally.attempted if tally.attempted else 1.0,
        errors=tally.errors,
    )
    print(json.dumps({"context": context}))
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
