"""geomqm benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`, nothing is installed or built).  A run

1. writes the workload's seeded scenario YAML under `.perfbench_run/`
   and, in a set-up process, the operator file the inputs name (not
   timed; this process also fills the bytecode caches);
2. starts SETUP_SAMPLES fresh interpreters that import geomqm and takes
   the median time until the import is done (`setup_s`);
3. starts one fresh worker process (BLAS/OpenMP pinned to one thread)
   that runs passes over the workload's ops, closed loop, one op after
   another, for S seconds, and checks every op's outputs;
4. prints, as the last line of stdout, one JSON object with `correct`,
   `attempted`, `failed` and `metrics`: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1.

Diagnostics and the environment record go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5
BLAS_THREADS = "1"
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBE = (
    "import sys, geomqm, geomqm.scenario\n"
    "sys.stdout.write('ready\\n'); sys.stdout.flush()\n"
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "ratio"),
)

# Per-layer metrics.  `<span>.self_s` and `<span>.calls` come from the
# span of that name, `<layer>.self_s` sums a layer's spans, `trace.*` are
# whole-pass figures, and every other name is a counter computed from
# call arguments or results.
PER_LAYER = (
    ("lattice.build_lattice.self_s", "s"),
    ("lattice.graph_distance.calls", "count"),
    ("lattice.minimal_image_displacement.calls", "count"),
    ("lattice.link_index.calls", "count"),
    ("lattice.link_index.self_s", "s"),
    ("operators.validate_operator.self_s", "s"),
    ("operators.load_operator.self_s", "s"),
    ("operators.hamiltonian_nnz", "count"),
    ("operators.build_hamiltonian.self_s", "s"),
    ("operators.build_hamiltonian.calls", "count"),
    ("operators.eigenvalues.self_s", "s"),
    ("operators.eigenvalues.calls", "count"),
    ("operators.eigenvalues.flops_computed", "flop"),
    ("reconstruct.peierls_decompose.self_s", "s"),
    ("reconstruct.peierls_decompose.calls", "count"),
    ("reconstruct.coordinate_cure_residual.self_s", "s"),
    ("reconstruct.axiom_report.self_s", "s"),
    ("geometry.christoffel.self_s", "s"),
    ("geometry.christoffel.calls", "count"),
    ("geometry.metric_lower.calls", "count"),
    ("geometry.zeroth_residual.self_s", "s"),
    ("maxwell.build_spacetime_complex.self_s", "s"),
    ("maxwell.hodge_factors.self_s", "s"),
    ("maxwell.hodge_factors.calls", "count"),
    ("maxwell.cells_k0", "count"),
    ("maxwell.cells_k1", "count"),
    ("maxwell.cells_k2", "count"),
    ("maxwell.cells_k3", "count"),
    ("holonomy.ab_spectrum.self_s", "s"),
    ("evolution.propagator.self_s", "s"),
    ("evolution.propagator.steps", "count"),
    ("evolution.heisenberg_residual.self_s", "s"),
    ("scenario.run_scenario.self_s", "s"),
    ("scenario.validate_config.self_s", "s"),
    ("scenario.out_bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_s", "s"),
    ("trace.outside_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
)


def layer_metric(name, trace):
    """Value of one per-layer metric from the worker's trace summary."""
    head, _, field = name.rpartition(".")
    if head == "trace":
        return trace["n_spans"] if field == "spans" else trace[field]
    if field == "self_s" and head in LAYERS:
        return trace["layers"][head]
    if field in ("self_s", "calls"):
        return trace["spans"].get(head, {"self_s": 0.0, "calls": 0})[field]
    return trace["counters"].get(name, 0)


def worker_env():
    env = dict(os.environ)
    for var in PINNED:
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def time_setup(env, cwd):
    """Median seconds from starting a fresh interpreter to geomqm imported."""
    times = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env, cwd=cwd,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description="geomqm benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind like on any error, so the running child is killed
    # and waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "geomqm" / "__init__.py").is_file():
        print(f"no geomqm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    base = ROOT / ".perfbench_run"
    work = base / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    env = worker_env()
    try:
        manifest_path = workloads.write_inputs(workloads.generate(args.workload, args.seed), work)
        subprocess.run([sys.executable, str(HERE / "worker.py"), "prepare", str(work)],
                       env=env, cwd=ROOT, check=True, timeout=120)
        setup_s = time_setup(env, ROOT)

        cmd = [sys.executable, str(HERE / "worker.py"), "run", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            (base / "traces").mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(base / "traces" / f"{args.workload}-seed{args.seed}.npz")]
        budget = max(30.0, 170.0 - (time.perf_counter() - started))
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=budget,
                              stdout=subprocess.PIPE, text=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        n_ops = len(json.loads(manifest_path.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"environment: {json.dumps(res['env'], sort_keys=True)}", file=sys.stderr)
    for msg in res["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    walls = res["walls"]
    print(f"{args.workload} seed={args.seed}: {len(walls)} untraced passes of {n_ops} ops, "
          f"wall_s median {statistics.median(walls):.4f} "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); "
          f"setup_s median of {SETUP_SAMPLES}: {setup_s:.4f}", file=sys.stderr)

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        trace = res["trace"]
        print(f"traced passes {len(res['traced_walls'])}, counts repeat: "
              f"{trace['counts_repeat']}", file=sys.stderr)
        metrics = {name: {"value": layer_metric(name, trace), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_rate": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
