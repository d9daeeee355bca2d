"""Tests of the benchmark itself: seeded inputs, known-answer checks and
the tracer's self-time accounting.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _inputs(tmp_path, workload, seed, tag):
    directory = tmp_path / f"{tag}-{seed}"
    workloads.write_inputs(workloads.generate(workload, seed), directory)
    return directory


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_values(tmp_path, workload):
    a = _files(_inputs(tmp_path, workload, 3, "a"))
    b = _files(_inputs(tmp_path, workload, 3, "b"))
    c = _files(_inputs(tmp_path, workload, 4, "c"))
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_varies_values_not_sizes_and_never_tolerances(workload):
    shapes = set()
    for seed in range(6):
        for op in workloads.generate(workload, seed):
            assert "tolerances" not in op.doc
            params = op.doc.get("params") or {}
            shapes.add((op.name, op.doc["task"], json.dumps(op.doc["lattice"]),
                        json.dumps((op.doc.get("fields") or {}).get("time", {}).get("samples")),
                        params.get("steps"), params.get("ensembles"), params.get("duration"),
                        json.dumps(params.get("alphas", {}).get("count"))))
    assert len(shapes) == len(workloads.generate(workload, 0))


def test_operator_file_is_byte_identical_for_a_seed(tmp_path):
    out = []
    for tag in ("a", "b"):
        directory = _inputs(tmp_path, "inverse_torus64", 5, tag)
        manifest = json.loads((directory / "manifest.json").read_text())
        workloads.prepare_operator_files(manifest, directory)
        out.append((directory / "hamiltonian.txt").read_bytes())
    assert out[0] == out[1] and len(out[0]) > 0


def test_cell_count_closed_form_matches_complex():
    from geomqm import LatticeSpec, build_lattice, build_spacetime_complex

    sizes, n_t = [5, 4], 3
    cx = build_spacetime_complex(build_lattice(LatticeSpec("cylinder", sizes, (1.0, 1.0))),
                                 n_t, 0.5)
    assert workloads.cylinder_time_cells(sizes, n_t) == [cx.n_cells(k) for k in range(4)]


def test_known_answer_checks_pass_and_can_fail(tmp_path, monkeypatch):
    from geomqm.scenario import run_scenario

    directory = tmp_path / "ds"
    ops = workloads.generate("dense_spectra", 2)
    flow, _, chern = ops
    flow.doc["lattice"]["sizes"] = [24]
    flow.expect["bloch_ring"]["n"] = 24
    workloads.write_inputs([flow, chern], directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    monkeypatch.chdir(directory)
    reports = {}
    for entry in manifest:
        run_scenario(entry["config"], Path("out") / entry["name"])
        reports[entry["name"]] = json.loads((Path("out") / entry["name"] / "report.json").read_text())
    assert all(workloads.check_op(e, Path("out") / e["name"], reports) == [] for e in manifest)

    # A shifted flux grid and a wrong Chern target must both be caught.
    flow_entry, chern_entry = manifest
    flow_entry["expect"]["bloch_ring"]["start"] += 0.01
    flow_entry["expect"]["bloch_ring"]["stop"] += 0.01
    chern_entry["expect"]["chern_number"] += 1
    assert workloads.check_op(flow_entry, Path("out") / "spectral_flow", reports)
    assert workloads.check_op(chern_entry, Path("out") / "chern", reports)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_cpu_rotation_visits_every_cpu_and_restores_the_set():
    cpus = os.sched_getaffinity(0)
    tid = threading.get_native_id()
    seen = set()
    stop = worker.rotate_cpus(period=0.01)
    try:
        deadline = time.perf_counter() + 2.0
        while seen != cpus and time.perf_counter() < deadline:
            affinity = os.sched_getaffinity(tid)
            if len(affinity) == 1:
                seen |= affinity
    finally:
        stop()
    assert seen == cpus
    assert os.sched_getaffinity(0) == cpus
    assert not any(t.name == "rotate-cpus" for t in threading.enumerate())


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("a.leaf", lambda: clock() and None)
    mid = tracer.wrap("a.mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("b.top", lambda: mid())
    top()
    # Clock ticks: top 1..10, mid 2..9, leaves 3..5 and 6..8 (start, the
    # body's own tick, end).
    summary = tracer.summary(wall=20.0)
    spans = summary["spans"]
    assert spans["a.leaf"] == {"calls": 2, "self_s": 4.0}
    assert spans["a.mid"] == {"calls": 1, "self_s": 7.0 - 4.0}
    assert spans["b.top"] == {"calls": 1, "self_s": 9.0 - 7.0}
    assert summary["outside_s"] == 20.0 - 9.0
    assert summary["layers"]["a"] == 7.0 and summary["layers"]["b"] == 2.0
    assert sum(s["self_s"] for s in spans.values()) + summary["outside_s"] == 20.0


def test_traced_scenario_accounts_for_wall_time_and_restores_bindings(tmp_path):
    import time

    import geomqm
    import geomqm.holonomy
    import geomqm.lattice
    import geomqm.scenario

    originals = (geomqm.build_lattice, geomqm.holonomy.eigenvalues,
                 geomqm.lattice.Lattice.__dict__["link_index"])
    directory = tmp_path / "chern"
    ops = workloads.generate("dense_spectra", 1)[2:]
    workloads.write_inputs(ops, directory)
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            assert geomqm.scenario.build_lattice is geomqm.lattice.build_lattice
            assert geomqm.build_lattice is not originals[0]
            started = time.perf_counter()
            report = geomqm.scenario.run_scenario(directory / "chern.yaml", directory / "out")
            wall = time.perf_counter() - started
        finally:
            tracer.uninstall()
        assert report.passed
        summary = tracer.summary(wall)
        total = sum(summary["layers"].values()) + summary["outside_s"]
        assert total == pytest.approx(wall, abs=1e-9)
        assert summary["spans"]["scenario.run_scenario"]["calls"] == 1
        assert summary["spans"]["lattice.link_index"]["calls"] == 16 * 16 + 16
        counts.append((summary["counters"], {n: s["calls"] for n, s in summary["spans"].items()}))
    assert counts[0] == counts[1]
    assert (geomqm.build_lattice, geomqm.holonomy.eigenvalues,
            geomqm.lattice.Lattice.__dict__["link_index"]) == originals


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
