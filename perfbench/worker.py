"""Benchmark worker: one fresh process per run, started by run.py.

    worker.py prepare <dir>          write the operator files the inputs name
    worker.py run <dir> --seconds S --trace 0|1 [--spans FILE]

`run` changes into <dir>, where run.py wrote the scenario YAML files and
`manifest.json`, and runs passes over the ops, one op after another,
through `geomqm.scenario.run_scenario` (the code path under `geomqm run`)
until S seconds have gone.  The first pass warms caches and is not
timed; every pass starts after a full garbage collection.  Each op's
outputs, warm-up included, are checked after the pass, outside the timed
region.  The last line on stdout is a JSON summary.

With --trace 1, untraced and traced passes alternate; the traced pass
with the median wall time gives the per-layer figures, and its wall time
minus the untraced median is the tracing overhead.

The caller pins BLAS/OpenMP threads in this process's environment, so
they are fixed before numpy is first imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

ROTATE_S = 1.0  # seconds on one CPU before the worker moves to the next


def run_pass(manifest):
    """Run every op once; returns (wall seconds, attempted, failed, messages)."""
    import geomqm.scenario

    errors = {}
    started = time.perf_counter()
    for entry in manifest:
        try:
            geomqm.scenario.run_scenario(entry["config"], Path("out") / entry["name"])
        except Exception:  # an op that raises is a failed op, not a crash
            errors[entry["name"]] = traceback.format_exc(limit=3)
    wall = time.perf_counter() - started

    failures = []
    failed_ops = set(errors)
    reports = {}
    for entry in manifest:
        name = entry["name"]
        if name in errors:
            failures.append(f"{name}: raised\n{errors[name]}")
            continue
        try:
            with open(Path("out") / name / "report.json", encoding="utf-8") as fh:
                reports[name] = json.load(fh)
            problems = workloads.check_op(entry, Path("out") / name, reports)
        except Exception:
            problems = [f"output check raised\n{traceback.format_exc(limit=3)}"]
        if problems:
            failed_ops.add(name)
        failures.extend(f"{name}: {p}" for p in problems)
    return wall, len(manifest), len(failed_ops), failures


def _run(args):
    os.chdir(args.dir)
    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    import geomqm.scenario  # noqa: F401  (import cost is setup_s, not wall_s)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    stop_rotation = rotate_cpus()
    try:
        walls, traced_walls, summaries, attempted, failed, failures = _passes(
            manifest, args.seconds, tracer)
    finally:
        stop_rotation()
    out = {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        out["traced_walls"] = traced_walls
        out["trace"] = _trace_metrics(summaries, walls, traced_walls)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(out))


def rotate_cpus(period=ROTATE_S):
    """Move the calling thread to the next CPU it may use every `period`
    seconds, from a helper thread; returns a function that stops the
    helper, waits for it and restores the thread's CPU set.

    On a shared host each CPU's speed drifts on its own over minutes, and
    a single-threaded worker tends to stay on one CPU for a whole run, so
    its run takes that CPU's phase.  Visiting every CPU in turn makes a
    run's passes average over them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return lambda: None
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        i = 0
        while not stop.wait(period):
            i += 1
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})

    helper = threading.Thread(target=rotate, name="rotate-cpus", daemon=True)
    helper.start()

    def stop_rotation():
        stop.set()
        helper.join()
        os.sched_setaffinity(tid, cpus)

    return stop_rotation


def _passes(manifest, seconds, tracer):
    """Run passes, closed loop, for about `seconds`; see the module text."""
    walls, traced_walls, summaries = [], [], []
    attempted = failed = 0
    failures = []
    deadline = time.perf_counter() + seconds
    warm = False
    while True:
        gc.collect()  # every pass starts from a collected heap, outside its timing
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, n, bad, msgs = run_pass(manifest)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            summaries.append(tracer.summary(wall))
        else:
            wall, n, bad, msgs = run_pass(manifest)
            if warm:
                walls.append(wall)
            warm = True  # the first pass warms caches; it is checked, not timed
        attempted += n
        failed += bad
        failures.extend(msgs)
        # Start another pass only if at least half of it fits before the
        # deadline, so a run lasts about --seconds whatever the pass time.
        if (walls and time.perf_counter() + wall / 2 >= deadline
                and (tracer is None or traced_walls)):
            break
    return walls, traced_walls, summaries, attempted, failed, failures


def _environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


def _trace_metrics(summaries, walls, traced_walls):
    """Figures of the traced pass with the median wall time, so that its
    self times plus its time outside any span add up to its wall time."""
    order = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)
    mid = order[len(order) // 2]
    picked = dict(summaries[mid])
    picked["wall_s"] = traced_walls[mid]
    picked["overhead_s"] = traced_walls[mid] - statistics.median(walls)

    def counts(s):
        return s["counters"], {n: v["calls"] for n, v in s["spans"].items()}

    picked["counts_repeat"] = all(counts(s) == counts(picked) for s in summaries)
    return picked


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    prep = sub.add_parser("prepare")
    prep.add_argument("dir")
    run = sub.add_parser("run")
    run.add_argument("dir")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--spans", default=None, help="write the last traced pass's spans here")
    args = parser.parse_args(argv)
    if args.command == "prepare":
        directory = Path(args.dir)
        with open(directory / "manifest.json", encoding="utf-8") as fh:
            workloads.prepare_operator_files(json.load(fh), directory)
        return 0
    _run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
