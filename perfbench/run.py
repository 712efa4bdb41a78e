#!/usr/bin/env python3
"""Benchmark of the pgg-bribery CLI, library and figure script.

    python3 perfbench/run.py --workload atlas --seed 42 --seconds 60 --trace 0

Runs one workload (``atlas`` or ``oracle``, see
``workloads.py``) in this process, repeating its whole job list until
``--seconds`` are used, and checks every job's output.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
repetitions; the per-layer figures come from the traced ones, and their
wall-time difference is the tracing overhead.

Everything the run writes goes to ``.perfbench_out/`` in the checkout:
job outputs, a result record with the machine description, and the
spans of the last traced repetition.

    python3 perfbench/run.py --record-golden

re-records ``golden.json``, the output digests at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # the metric names and units printed
# Fresh-interpreter set-ups measured per repetition, spread over the gaps
# between jobs: the machine's speed changes in steps lasting seconds, and
# samples taken in one block would all see the same step.
SETUP_RUNS_PER_REP = 4

TOP_SPAN = {"script": "scripts.reproduce_figures", "walk": "bench.walk"}

# A fresh interpreter imports the CLI and parses and builds the workload's models.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import pgg_bribery.cli
from pgg_bribery.config import parse_config
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        parse_config(handle.read()).build_model()
"""


@dataclass
class Rep:
    """One pass over the workload's job list."""

    walls: list[float]  # per job
    cpus: list[float]  # per job
    problems: dict[str, list[str]]  # job id -> problems, failed jobs only
    props: dict[str, dict]  # job id -> workload properties
    rss_after_jobs_mb: float  # peak RSS so far, before this repetition's checks


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_rep(program, workload, seed: int, golden: dict | None, tracer=None, after_job=None) -> Rep:
    """Run and check every job once; ``after_job(index)`` is called, untimed, after each."""
    job_dirs = {job.id: workload.out_dir / job.id for job in workload.jobs}
    for path in job_dirs.values():
        wl.reset_dir(path)
    outcomes, walls, cpus = [], [], []
    for index, job in enumerate(workload.jobs):
        cpu_before = _cpu_seconds()
        start = time.perf_counter()
        if tracer is None:
            outcomes.append(wl.execute(program, job, job_dirs[job.id]))
        else:
            with tracer.span(TOP_SPAN.get(job.kind, "cli.main"), job.id):
                outcomes.append(wl.execute(program, job, job_dirs[job.id]))
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu_before)
        if after_job is not None:
            after_job(index)
    rss_after_jobs_mb = _peak_rss_mb()
    problems, props = {}, {}
    for job, outcome in zip(workload.jobs, outcomes):
        job_problems, props[job.id] = wl.check(job, job_dirs[job.id], outcome, seed, golden)
        if job_problems:
            problems[job.id] = job_problems
    return Rep(walls, cpus, problems, props, rss_after_jobs_mb)


def _repeat(run_once, seconds: float) -> list:
    """Call ``run_once`` at least once, and again while the next call fits."""
    results, start = [], time.perf_counter()
    while True:
        results.append(run_once())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def measure_setup(program, workload, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(program.src), *workload.configs],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/pgg_bribery/*.py"), *ROOT.glob("scripts/*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(workload, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        wl.WORKERS_ENV: workload.workers,
        "workload": workload.name,
        "seed": seed,
    }


def property_counts(props: dict[str, dict]) -> dict[str, float]:
    """Per-layer counts read from the checked outputs of one repetition."""
    grids = [p for p in props.values() if "bistable" in p]
    cells = sum(p["rows"] for p in grids)
    return {
        "sweeps.bistable_share": sum(p["bistable"] for p in grids) / cells if cells else 0.0,
        "sweeps.knife_edge_cells": sum(p["knife_edge"] for p in grids),
        "verify.checks_failed": sum(p.get("checks_failed", 0) for p in props.values()),
        "output.csv_bytes": sum(p.get("csv_bytes", 0) for p in props.values()),
    }


def traced_rep(program, workload, seed: int, golden: dict | None) -> tuple[Rep, spans.Tracer]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = run_rep(program, workload, seed, golden, tracer)
    finally:
        tracer.uninstall()
    tracer.replay_serial()
    return rep, tracer


def _median_metrics(rows: list[dict]) -> dict[str, float]:
    """Median of each metric over the rows; a count that repeats stays exact."""
    values = {name: [row[name] for row in rows] for name in rows[0]}
    return {
        name: column[0] if len(set(column)) == 1 else statistics.median(column)
        for name, column in values.items()
    }


def _set_workers(workers: str | None) -> None:
    if workers is None:
        os.environ.pop(wl.WORKERS_ENV, None)
    else:
        os.environ[wl.WORKERS_ENV] = workers


def record_golden(program) -> int:
    golden = {}
    for name, build in wl.WORKLOADS.items():
        out_dir = OUT / "golden" / name
        wl.reset_dir(out_dir)
        workload = build(wl.DEFAULT_SEED, out_dir)
        _set_workers(workload.workers)
        for job in workload.jobs:
            job_dir = out_dir / job.id
            wl.reset_dir(job_dir)
            outcome = wl.execute(program, job, job_dir)
            problems, _ = wl.check(job, job_dir, outcome, wl.DEFAULT_SEED, None)
            if problems:
                print(f"error: {job.id}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            golden[job.id] = wl.digests(job_dir, outcome)
            print(f"recorded {job.id}: {len(golden[job.id])} digests")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pgg-bribery benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = wl.Program(ROOT)
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(program)

    out_dir = OUT / args.workload
    wl.reset_dir(out_dir)
    workload = wl.WORKLOADS[args.workload](args.seed, out_dir)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    machine = machine_record(workload, args.seed)
    _set_workers(workload.workers)

    setups = []
    if args.trace:
        last_tracer = []

        def plain_then_traced():
            plain = run_rep(program, workload, args.seed, golden)
            traced, tracer = traced_rep(program, workload, args.seed, golden)
            last_tracer[:] = [tracer]  # only the last repetition's spans are kept
            return plain, traced, {**spans.layer_metrics(tracer.spans), **property_counts(traced.props)}

        triples = _repeat(plain_then_traced, args.seconds)
        plain, traced, layer_rows = (list(column) for column in zip(*triples))
        reps = plain + traced
        values = _median_metrics(layer_rows)
        values["trace.overhead_s"] = (
            statistics.median(sum(r.walls) for r in traced) - statistics.median(sum(r.walls) for r in plain)
        )
        last_tracer[0].write(out_dir / "spans.csv")
    else:
        n_jobs = len(workload.jobs)

        def measure_setups(index):
            # SETUP_RUNS_PER_REP per repetition, as evenly spaced over its jobs as they allow
            runs = (index + 1) * SETUP_RUNS_PER_REP // n_jobs - index * SETUP_RUNS_PER_REP // n_jobs
            setups.extend(measure_setup(program, workload, runs))

        reps = _repeat(lambda: run_rep(program, workload, args.seed, golden, after_job=measure_setups), args.seconds)
        # The machine's speed drifts in spells of seconds, so the figure is
        # the mean over all repetitions: every spell the run saw is weighed
        # by its length, none is dropped.
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(sum(r.walls) for r in reps),
            "cpu_s": statistics.fmean(sum(r.cpus) for r in reps),
            "peak_rss_mb": _peak_rss_mb(),
        }

    for job in workload.jobs:
        seen = [rep.props[job.id] for rep in reps if job.id not in rep.problems]
        if any(props != seen[0] for props in seen):
            print(f"error: properties of {job.id} differ between repetitions: {seen}", file=sys.stderr)
            return 3

    attempted = len(reps) * len(workload.jobs)
    failed = sum(len(rep.problems) for rep in reps)
    for rep in reps:
        for job_id, problems in rep.problems.items():
            print(f"FAIL {job_id}: {'; '.join(problems)}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    record = {
        "machine": machine,
        "properties": reps[0].props,
        "job_walls_s": {job.id: [r.walls[i] for r in reps] for i, job in enumerate(workload.jobs)},
        "job_cpus_s": {job.id: [r.cpus[i] for r in reps] for i, job in enumerate(workload.jobs)},
        # equals peak_rss_mb when the program's jobs set the peak, not the checks
        "peak_rss_mb_after_first_jobs": reps[0].rss_after_jobs_mb,
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(machine)}")
    print(f"properties: {json.dumps(reps[0].props, sort_keys=True)}")
    print(f"repetitions: {len(reps)}, wall per repetition: {', '.join(f'{sum(r.walls):.3f}' for r in reps)} s")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted} jobs failed)")
    print(f"peak RSS after the first repetition's jobs: {reps[0].rss_after_jobs_mb} MB")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
