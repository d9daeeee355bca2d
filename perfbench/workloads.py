"""Seeded scenario documents for the three benchmark workloads, and the
known-answer checks on their outputs.

Sizes are fixed per workload; the seed varies only field values and
initial data.  Every document runs at the program's default tolerances:
no `tolerances:` block is ever written.  The same seed gives
byte-identical YAML (and, after `prepare_operator_files`, a
byte-identical operator file).

This module imports neither numpy nor geomqm at module level, so the
benchmark's parent process can generate inputs without paying the
program's import cost.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One scenario run: its name (of its YAML file and output
    directory), its document, and the closed-form facts its outputs must
    agree with."""

    name: str
    doc: dict
    expect: dict = field(default_factory=dict)


def _u(rng, lo, hi):
    # Rounded so the YAML stays short and round-trips exactly.
    return round(rng.uniform(lo, hi), 6)


def _torus64_fields(rng):
    return {
        "metric": {
            "components": {
                "0,0": {"profile": "sine", "base": 1.0, "amplitude": _u(rng, 0.1, 0.3),
                        "axis": 0, "phase": _u(rng, 0.0, TWO_PI)},
                "0,1": {"profile": "constant", "value": _u(rng, -0.1, 0.1)},
                "1,1": {"profile": "sine", "base": 1.2, "amplitude": _u(rng, 0.1, 0.25),
                        "axis": 1, "phase": _u(rng, 0.0, TWO_PI)},
            }
        },
        "connection": {
            "components": [
                {"profile": "constant", "value": _u(rng, -0.05, 0.05)},
                {"profile": "sine", "base": 0.0, "amplitude": _u(rng, 0.01, 0.05),
                 "axis": 0, "phase": _u(rng, 0.0, TWO_PI)},
            ],
            "holonomies": [_u(rng, -math.pi, math.pi), _u(rng, -math.pi, math.pi)],
        },
        "potential": {"profile": "gaussian_bump", "base": 0.0,
                      "amplitude": _u(rng, 0.2, 0.8), "center": _u(rng, 0.2, 0.8),
                      "width": _u(rng, 0.1, 0.3), "axis": rng.randrange(2)},
    }


def inverse_torus64(rng):
    lattice = {"topology": "torus", "sizes": [64, 64], "spacings": [1.0, 1.0]}
    fields = _torus64_fields(rng)
    roundtrip = {"lattice": lattice, "mass": 1.0, "task": "roundtrip", "fields": fields}
    from_file = {"lattice": lattice, "mass": 1.0, "task": "reconstruct", "fields": fields,
                 "params": {"hamiltonian_file": "hamiltonian.txt"}}
    return [
        Op("roundtrip", roundtrip),
        Op("reconstruct_file", from_file, {"same_as": "roundtrip", "tolerance": 1e-12}),
    ]


def _maxwell_cyl32(rng):
    sizes, samples = [32, 32], 8
    doc = {
        "lattice": {"topology": "cylinder", "sizes": sizes, "spacings": [1.0, 1.0]},
        "mass": 1.0,
        "task": "maxwell",
        "seed": rng.randrange(2**31),
        "fields": {
            "metric": {
                "components": {
                    # Maxwell's Hodge star needs a diagonal spatial metric.
                    "0,0": {"profile": "sine", "base": 1.0, "amplitude": _u(rng, 0.1, 0.3),
                            "axis": 0, "phase": _u(rng, 0.0, TWO_PI)},
                    "1,1": {"profile": "constant", "value": _u(rng, 0.8, 1.2)},
                }
            },
            "time": {"samples": samples, "dt": 0.5},
        },
        "params": {"ensembles": 1, "amplitude": _u(rng, 0.2, 0.4)},
    }
    return Op("maxwell", doc, {"cells": cylinder_time_cells(sizes, samples)})


def cylinder_time_cells(sizes, n_t):
    """Cells per degree of the cubical complex time x cylinder.

    Each axis contributes (vertices, edges): a periodic axis of n sites
    has n of each, an open one n and n - 1.  Cells of the product complex
    by degree are the coefficients of the product of (v + e x) over axes.
    """
    nx, ny = sizes
    counts = [1]
    for v, e in ((n_t, n_t - 1), (nx, nx), (ny, ny - 1)):
        nxt = [0] * (len(counts) + 1)
        for k, c in enumerate(counts):
            nxt[k] += c * v
            nxt[k + 1] += c * e
        counts = nxt
    return counts


def dense_spectra(rng):
    n_ring = 384
    offset = _u(rng, 0.0, TWO_PI / 32)
    flow = {
        "lattice": {"topology": "ring", "sizes": [n_ring], "spacings": [1.0]},
        "mass": 1.0,
        "task": "holonomy",
        "params": {"alphas": {"start": offset, "stop": offset + TWO_PI, "count": 33},
                   "check_periodicity": True},
    }
    evolve = {
        "lattice": {"topology": "interval", "sizes": [256], "spacings": [1.0]},
        "mass": 1.0,
        "task": "evolve",
        "fields": {
            "metric": {"components": {
                "0,0": {"profile": "sine", "base": 1.0, "amplitude": _u(rng, 0.1, 0.3),
                        "axis": 0, "phase": _u(rng, 0.0, TWO_PI)}}},
            "potential": {"profile": "gaussian_bump", "base": 0.0,
                          "amplitude": _u(rng, 0.2, 0.8), "center": _u(rng, 0.3, 0.7),
                          "width": _u(rng, 0.1, 0.3), "axis": 0},
        },
        "params": {"duration": 1.0, "steps": 40, "probe_delta": 0.1},
    }
    quanta = rng.randint(1, 4)
    chern = {
        "lattice": {"topology": "torus", "sizes": [16, 16], "spacings": [1.0, 1.0]},
        "mass": 1.0,
        "task": "holonomy",
        "params": {"chern_flux_quanta": quanta},
    }
    return [
        Op("spectral_flow", flow, {"bloch_ring": {"n": n_ring, "mass": 1.0, "spacing": 1.0,
                                                  "start": offset, "stop": offset + TWO_PI,
                                                  "count": 33, "tolerance": 1e-9}}),
        Op("evolve", evolve),
        Op("chern", chern, {"chern_number": quanta}),
    ]


def _geodesic_torus16(rng):
    dt, duration, speed = 0.001, 4.0, 0.5
    heading = rng.uniform(0.0, TWO_PI)
    doc = {
        "lattice": {"topology": "torus", "sizes": [16, 16], "spacings": [1.0, 1.0]},
        "mass": 1.0,
        "task": "geodesic",
        "fields": {
            "metric": {
                "components": {
                    "0,0": {"profile": "sine", "base": 1.0, "amplitude": _u(rng, 0.1, 0.3),
                            "axis": 0, "phase": _u(rng, 0.0, TWO_PI)},
                    "0,1": {"profile": "constant", "value": _u(rng, -0.1, 0.1)},
                    "1,1": {"profile": "sine", "base": 1.0, "amplitude": _u(rng, 0.1, 0.3),
                            "axis": 1, "phase": _u(rng, 0.0, TWO_PI)},
                }
            },
            "time": {"samples": 8, "scale": {"profile": "linear", "rate": _u(rng, 0.05, 0.2)}},
        },
        "params": {
            "initial": {"position": [_u(rng, 0.0, 16.0), _u(rng, 0.0, 16.0)],
                        "velocity": [round(speed * math.cos(heading), 6),
                                     round(speed * math.sin(heading), 6)]},
            "dt": dt,
            "duration": duration,
        },
    }
    return Op("geodesic", doc, {"trajectory_rows": round(duration / dt) + 1})


def maxwell_geodesic(rng):
    # Both ops are per-element Python (cells of the spacetime complex,
    # scalar metric calls along the trajectory); one workload for the two
    # keeps every run long enough to be steady on a shared machine.
    return [_maxwell_cyl32(rng), _geodesic_torus16(rng)]


WORKLOADS = {
    "inverse_torus64": inverse_torus64,
    "maxwell_geodesic": maxwell_geodesic,
    "dense_spectra": dense_spectra,
}


def generate(workload, seed):
    """The workload's ops for this seed (documents are plain data)."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


def write_inputs(ops, directory):
    """Write one YAML file per op plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for op in ops:
        path = directory / f"{op.name}.yaml"
        path.write_text(yaml.safe_dump(op.doc, sort_keys=True), encoding="utf-8")
        manifest.append({"name": op.name, "config": path.name, "expect": op.expect})
    out = directory / "manifest.json"
    out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return out


def prepare_operator_files(manifest, directory):
    """Dump the Hamiltonian each file-route op reads (not timed).

    Built from the op's own fields with the program's public builder and
    writer, so the file is what `geomqm run` on a build task would leave.
    Needs geomqm importable; runs in the set-up process, not the timed one.
    """
    from geomqm import LatticeSpec, build_hamiltonian, build_lattice, save_operator
    from geomqm.profiles import (
        connection_from_profiles,
        metric_from_profiles,
        scalar_from_profile,
    )

    directory = Path(directory)
    for entry in manifest:
        doc = yaml.safe_load((directory / entry["config"]).read_text(encoding="utf-8"))
        name = (doc.get("params") or {}).get("hamiltonian_file")
        if name is None:
            continue
        lat = doc["lattice"]
        lattice = build_lattice(LatticeSpec(lat["topology"], tuple(lat["sizes"]),
                                            tuple(lat["spacings"])))
        fields = doc["fields"]
        H = build_hamiltonian(
            lattice,
            metric_from_profiles(lattice, fields["metric"]["components"]),
            connection_from_profiles(lattice, fields["connection"]),
            scalar_from_profile(lattice, fields["potential"]),
            doc["mass"],
        )
        save_operator(directory / name, H)


# -- known-answer checks ---------------------------------------------------

def check_op(entry, out_dir, reports):
    """Return a list of failure strings for one op's outputs (empty: ok).

    `reports` maps op name -> parsed report.json of this pass, so an op
    can be compared against an earlier op of the same pass.
    """
    import numpy as np

    expect = entry["expect"]
    report = reports[entry["name"]]
    out_dir = Path(out_dir)
    failures = []
    if not report["passed"]:
        bad = [c["name"] for c in report["checks"] if not c["passed"]]
        failures.append(f"embedded checks failed: {bad}")

    if "same_as" in expect:
        other = reports[expect["same_as"]]["payload"]
        tol = expect["tolerance"]
        for key in ("g_rec", "phi_rec"):
            diff = float(np.max(np.abs(np.asarray(report["payload"][key])
                                       - np.asarray(other[key]))))
            if not diff <= tol:
                failures.append(f"{key} differs from {expect['same_as']} by {diff:g}")

    if "bloch_ring" in expect:
        b = expect["bloch_ring"]
        table = np.loadtxt(out_dir / "spectral_flow.csv", delimiter=",", skiprows=1, ndmin=2)
        alphas = np.linspace(b["start"], b["stop"], b["count"])
        j = np.arange(b["n"])
        want = np.sort(
            (1.0 - np.cos((TWO_PI * j[None, :] + alphas[:, None]) / b["n"]))
            / (b["mass"] * b["spacing"] ** 2),
            axis=1,
        )
        if table.shape != (b["count"], b["n"] + 1):
            failures.append(f"spectral_flow.csv has shape {table.shape}")
        else:
            err = float(np.max(np.abs(table[:, 1:] - want)))
            if not err <= b["tolerance"]:
                failures.append(f"spectral flow off the Bloch spectrum by {err:g}")

    if "chern_number" in expect:
        got = report["payload"].get("chern_number")
        if got != expect["chern_number"]:
            failures.append(f"chern number {got} != seeded {expect['chern_number']}")

    if "cells" in expect:
        # potential and current are 1-cochains, the field strength a 2-cochain
        want = {("potential", 1): expect["cells"][1], ("field_strength", 2): expect["cells"][2],
                ("current", 1): expect["cells"][1]}
        got = {}
        with open(out_dir / "cochains.csv", encoding="utf-8") as fh:
            fh.readline()  # header comment
            for row in csv.DictReader(fh):
                key = (row["cochain"], int(row["degree"]))
                got[key] = got.get(key, 0) + 1
        if got != want:
            failures.append(f"cochains.csv row counts {got} != closed form {want}")

    if "trajectory_rows" in expect:
        data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != expect["trajectory_rows"]:
            failures.append(f"trajectory.csv has {data.shape[0]} rows, "
                            f"want {expect['trajectory_rows']}")
        elif not np.any(data[:, -1] != 0.0):
            failures.append("residual0 is zero along the whole trajectory")
    return failures
