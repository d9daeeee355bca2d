"""Scenario-driven orchestration: parse a config, run a task, emit reports.

Configs are YAML documents (human-writable, comment-friendly).  One
table, `_KEYS`, lists every settable value: validation, the typed values
the task runners read and the schema printed by `geomqm schema` all come
from it.  Every task writes report.json into the output directory plus
task-specific CSVs; embedded numerical checks decide the exit status.
Reports are deterministic for a fixed scenario and seed up to the
wall-time field.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import evolution, geometry, holonomy, maxwell, operators, reconstruct
from ._config import COUNT, POSITIVE, REQUIRED, ConfigError, Key, read_keys
from .lattice import TOPOLOGIES, LatticeError, LatticeSpec, _positive_definite, build_lattice
from .profiles import (
    GRAMMAR,
    connection_from_profiles,
    metric_from_profiles,
    metric_profile,
    scalar_from_profile,
    time_scale_function,
)

TASKS = ("build", "reconstruct", "roundtrip", "geodesic", "maxwell", "holonomy", "evolve")


def _one_of(*names):
    return ("one of " + ", ".join(names), lambda v: v in names)


_PER_AXIS = ("one per lattice axis", lambda v: True)  # validate_config checks the length
_LOOSE = "default 1.0e-9, 1.0e-2 for reference pointwise"
_IDENTITY = "an identity of the implementation, no input fails it"
_FIELD_TASKS = ("build", "reconstruct", "roundtrip", "evolve")  # read every field

# Every settable value of a scenario document.  fields, params and
# tolerances rows name the tasks that read them.  A default that depends
# on other values is None here and set by the one task runner that reads it.
_KEYS = (
    Key("lattice.topology", "str", REQUIRED, _one_of(*TOPOLOGIES)),
    Key("lattice.sizes", "list of int", REQUIRED, note="sites per axis, each >= 3"),
    Key("lattice.spacings", "list of float", REQUIRED, note="per axis, each > 0"),
    Key("mass", "float", REQUIRED, POSITIVE),
    Key("task", "str", REQUIRED, _one_of(*TASKS)),
    Key("seed", "int", 0, note="echoed in the report"),
    Key("fields.metric.components", "mapping", None, None, _FIELD_TASKS + ("geodesic", "maxwell"),
        'inverse metric: a profile per "k,l", k <= l'),
    Key("fields.connection.components", "list of profile", None, None, _FIELD_TASKS,
        "one per axis"),
    Key("fields.connection.holonomies", "list of float", None, None, _FIELD_TASKS,
        "one per periodic axis"),
    Key("fields.potential", "profile", None, None, _FIELD_TASKS, "default zero"),
    Key("fields.time.samples", "int", None, COUNT, ("geodesic", "maxwell"),
        "default 4 for maxwell, 1 for geodesic"),
    Key("fields.time.dt", "float", None, POSITIVE, ("geodesic", "maxwell"),
        "default 1.0, geodesic: duration / (samples - 1)"),
    Key("fields.time.scale", "scale", None, None, ("geodesic",),
        "lower metric scale s(t); needs fields.time.samples >= 3"),
    Key("params.reference", "str", "link_average", _one_of("link_average", "pointwise"),
        ("roundtrip",)),
    Key("params.hamiltonian_file", "str", None, None, ("reconstruct",)),
    Key("params.initial.position", "list of float", None, _PER_AXIS, ("geodesic",), "default 0"),
    Key("params.initial.velocity", "list of float", None, _PER_AXIS, ("geodesic",),
        "default the unit vector of axis 0"),
    Key("params.dt", "float", 1e-3, POSITIVE, ("geodesic",)),
    Key("params.duration", "float", 1.0, POSITIVE, ("geodesic", "evolve")),
    Key("params.eta", "float", 1e-4, POSITIVE, ("geodesic",), "metric difference step"),
    Key("params.ensembles", "int", 1, COUNT, ("maxwell",)),
    Key("params.amplitude", "float", 0.3, ("finite, >= 0", lambda v: 0 <= v < math.inf),
        ("maxwell",)),
    Key("params.alphas.start", "float", 0.0, None, ("holonomy",)),
    Key("params.alphas.stop", "float", 2 * np.pi, None, ("holonomy",)),
    Key("params.alphas.count", "int", 17, COUNT, ("holonomy",)),
    Key("params.check_periodicity", "bool", False, None, ("holonomy",), "alpha vs alpha + 2 pi"),
    Key("params.chern_flux_quanta", "int", None, None, ("holonomy",), "torus only"),
    Key("params.steps", "int", None, COUNT, ("evolve",), "default from ||H||"),
    Key("params.probe_delta", "float", None, POSITIVE, ("evolve",),
        "default duration / steps; at most duration / 2"),
    # positivity, nondegeneracy, truncated and chern_number are pass/fail
    # flags with the fixed tolerance 0.5: they have no row
    Key("tolerances.hermiticity", "float", 1e-12, POSITIVE, ("build",), _IDENTITY),
    Key("tolerances.spectrum_lower_bound", "float", 1e-9, POSITIVE, ("build",)),
    Key("tolerances.e_g", "float", None, POSITIVE, ("roundtrip",), _LOOSE),
    Key("tolerances.e_F", "float", 1e-9, POSITIVE, ("roundtrip",)),
    Key("tolerances.e_phi", "float", None, POSITIVE, ("roundtrip",), _LOOSE),
    Key("tolerances.speed2_drift", "float", 1e-8, POSITIVE, ("geodesic",)),
    Key("tolerances.dF", "float", 1e-12, POSITIVE, ("maxwell",), _IDENTITY),
    Key("tolerances.continuity", "float", 1e-12, POSITIVE, ("maxwell",), _IDENTITY),
    Key("tolerances.double_star", "float", 1e-12, POSITIVE, ("maxwell",)),
    Key("tolerances.periodicity", "float", 1e-9, POSITIVE, ("holonomy",)),
    Key("tolerances.unitarity", "float", 1e-10, POSITIVE, ("evolve",)),
    Key("tolerances.composition", "float", 1e-12, POSITIVE, ("evolve",)),
)


def _schema():
    lines = ["# geomqm scenario schema (YAML), generated from its config table:",
             "# key: <type>  # rule; default; the tasks that read it.  Any other key is",
             "# a config error, as is a key that the document's task does not read."]
    shown = []
    for key in _KEYS:
        *sections, name = key.path.split(".")
        for depth in range(len(sections)):
            if shown[:depth + 1] != sections[:depth + 1]:
                lines.append("  " * depth + sections[depth] + ":")
        shown = sections
        default = key.default not in (None, REQUIRED) and yaml.safe_dump(key.default).split("\n")[0]
        notes = [key.default is REQUIRED and REQUIRED, key.rule and key.rule[0],
                 default and f"default {default}", key.tasks and ", ".join(key.tasks), key.note]
        entry = f"{'  ' * len(sections)}{name}: <{key.kind}>"
        lines.append(f"{entry:<36}# " + "; ".join(note for note in notes if note))
    return "\n".join(lines) + "\n\n" + GRAMMAR + """
Exit codes: 0 all checks pass; 1 a check failed; 2 config error;
3 numerical or domain error, or any other exception (printed as
error: <ErrorClass>: <message>).
"""


SCHEMA = _schema()


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "tolerance": float(self.tolerance),
        }


@dataclass
class Report:
    task: str
    scenario_hash: str
    seed: int
    payload: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "task": self.task,
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "payload": self.payload,
            "wall_time_s": self.wall_time_s,
        }


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse as YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


def validate_config(doc):
    """Check the document against the config table; returns its values
    typed, by dotted path, with the defaults filled in, the built lattice
    and its profile fields (g, theta, phi), each evaluated once."""
    cfg = read_keys(doc, _KEYS, task=doc.get("task"))  # task is read before any task row
    try:
        spec = LatticeSpec(cfg["lattice.topology"], tuple(cfg["lattice.sizes"]),
                           tuple(cfg["lattice.spacings"]))
    except LatticeError as exc:
        raise ConfigError(f"lattice: {exc}") from exc
    for key in _KEYS:
        value = cfg.get(key.path)
        if key.rule is _PER_AXIS and value is not None and len(value) != spec.ndim:
            raise ConfigError(f"{key.path}: expected {spec.ndim} values, one per lattice axis, "
                              f"got {len(value)}")
    lattice = build_lattice(spec)
    g = metric_from_profiles(lattice, cfg.get("fields.metric.components"))
    # geodesic metrics are evaluated analytically along the path, not
    # at lattice sites, so sitewise positive definiteness is not required
    if cfg["task"] != "geodesic" and not _positive_definite(g):
        raise ConfigError("fields.metric: profiles give a non-positive-definite metric")
    try:
        theta = connection_from_profiles(lattice, {
            "components": cfg.get("fields.connection.components"),
            "holonomies": cfg.get("fields.connection.holonomies"),
        })
    except LatticeError as exc:  # a holonomy count that is not the generator count
        raise ConfigError(f"fields.connection.holonomies: {exc}") from exc
    phi = scalar_from_profile(lattice, cfg.get("fields.potential"), "fields.potential")
    if cfg.get("fields.time.scale") is not None:
        time_scale_function(cfg["fields.time.scale"])  # raises on a bad scale profile
        samples = cfg["fields.time.samples"] or 1
        if samples < 3:
            raise ConfigError(f"fields.time.scale: needs fields.time.samples >= 3, got {samples}")
    probe = cfg.get("params.probe_delta")
    if probe is not None and probe > cfg["params.duration"] / 2:
        # the residual is taken at duration / 2 and reaches back to t - probe_delta
        raise ConfigError(f"params.probe_delta: must be <= params.duration / 2 = "
                          f"{cfg['params.duration'] / 2}, got {probe}")
    return cfg, lattice, (g, theta, phi)


def scenario_hash(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def run_scenario(config_path, out_dir, seed=None, tol_scale=1.0):
    """Execute a scenario config; returns the Report after writing files."""
    if not POSITIVE[1](tol_scale):
        raise ConfigError(f"--tol-scale: must be {POSITIVE[0]}, got {tol_scale!r}")
    doc = load_config(config_path)
    cfg, lattice, fields = validate_config(doc)
    task = cfg["task"]
    if seed is None:
        seed = cfg["seed"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    report = Report(task=task, scenario_hash=scenario_hash(doc), seed=seed)
    runner = _TASK_RUNNERS[task]
    runner(cfg, lattice, fields, seed, tol_scale, out, report)
    report.wall_time_s = time.perf_counter() - started

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _tol(cfg, name, tol_scale, derived=None):
    value = cfg[f"tolerances.{name}"]
    return (derived if value is None else value) * tol_scale


def _check(report, name, value, tolerance):
    report.checks.append(Check(name, bool(value <= tolerance), float(value), tolerance))


def _worst(*values):
    """The largest value as a float, NaN if any is NaN, so the check it
    feeds fails (Python's max drops a NaN that is not its first argument)."""
    return float(np.max(values))


def _task_build(cfg, lattice, fields, seed, tol_scale, out, report):
    g, theta, phi = fields
    m = cfg["mass"]
    H = operators.build_hamiltonian(lattice, g, theta, phi, m)
    operators.save_operator(out / "hamiltonian.txt", H)
    val = operators.validate_operator(lattice, H)
    spectrum = operators.eigenvalues(H)
    report.payload = {
        "validation": {
            "hermiticity_defect": val["hermiticity_defect"],
            "locality_radius": val["locality_radius"],
            "commutant_defect": list(val["commutant_defect"]),
        },
        "spectrum_min": float(spectrum[0]),
        "spectrum_max": float(spectrum[-1]),
        "operator_file": "hamiltonian.txt",
    }
    _check(report, "hermiticity", val["hermiticity_defect"], _tol(cfg, "hermiticity", tol_scale))
    lower_defect = _worst(float(np.min(phi)) - float(spectrum[0]), 0.0)
    _check(report, "spectrum_lower_bound", lower_defect, _tol(cfg, "spectrum_lower_bound", tol_scale))


def _task_reconstruct(cfg, lattice, fields, seed, tol_scale, out, report):
    m = cfg["mass"]
    if cfg["params.hamiltonian_file"] is not None:
        H = operators.load_operator(cfg["params.hamiltonian_file"])
        if H.dim != lattice.n_sites:
            raise ConfigError(f"params.hamiltonian_file: operator is {H.dim}x{H.dim} "
                              f"but the lattice has {lattice.n_sites} sites")
    else:
        H = operators.build_hamiltonian(lattice, *fields, m)
    rep = reconstruct.reconstruction_report(lattice, H, m)
    payload = rep.to_dict(lattice)
    payload.pop("errors")  # no reference fields in pure reconstruction mode
    report.payload = payload
    _check(report, "positivity", 0.0 if rep.axiom.positivity_ok else 1.0, 0.5)
    _check(report, "nondegeneracy", 0.0 if rep.axiom.nondegenerate else 1.0, 0.5)


def _task_roundtrip(cfg, lattice, fields, seed, tol_scale, out, report):
    m = cfg["mass"]
    reference = cfg["params.reference"]
    rep = reconstruct.roundtrip_report(lattice, *fields, m, reference=reference)
    report.payload = rep.to_dict(lattice)
    loose = 1e-9 if reference == "link_average" else 1e-2
    _check(report, "e_g", rep.e_g, _tol(cfg, "e_g", tol_scale, loose))
    _check(report, "e_F", rep.e_F, _tol(cfg, "e_F", tol_scale))
    _check(report, "e_phi", rep.e_phi, _tol(cfg, "e_phi", tol_scale, loose))
    _check(report, "positivity", 0.0 if rep.axiom.positivity_ok else 1.0, 0.5)


def _task_geodesic(cfg, lattice, fields, seed, tol_scale, out, report):
    g_inverse = metric_profile(lattice, cfg["fields.metric.components"])
    # the chart reaches eta past an open edge, so the difference stencil of
    # a point on the edge stays in it while a step that starts past the edge
    # leaves it; the closed-form metric is defined there
    eta = cfg["params.eta"]
    metric = geometry.AnalyticMetric(
        lambda q: np.linalg.inv(g_inverse(q)), ndim=lattice.ndim, default_eta=eta,
        bounds=geometry._lattice_bounds(lattice, margin=eta),
    )
    # the table's rules exclude 0 and empty values, so `or` only fills unset ones
    q0 = np.asarray(cfg["params.initial.position"] or [0.0] * lattice.ndim, dtype=float)
    v0 = np.asarray(cfg["params.initial.velocity"] or [1.0] + [0.0] * (lattice.ndim - 1),
                    dtype=float)
    duration = cfg["params.duration"]
    traj = geometry.geodesic_integrate(metric, q0, v0, cfg["params.dt"], duration)

    samples = cfg["fields.time.samples"] or 1
    if samples >= 3:
        scale = time_scale_function(cfg["fields.time.scale"])
        dts = cfg["fields.time.dt"] or duration / (samples - 1)
        times = np.arange(samples) * dts
        series = np.array([fields[0] / scale(t) for t in times])
        st = geometry.lorentzian_lift(lattice, series, times)
        residual = geometry.zeroth_residual(st, traj)
    else:
        residual = np.zeros(len(traj.times))

    d = traj.positions.shape[1]
    header = ",".join(["t", *(f"q_{k+1}" for k in range(d)), *(f"v_{k+1}" for k in range(d)),
                       "speed2", "residual0"])
    table = np.column_stack([traj.times, traj.positions, traj.velocities, traj.speed2, residual])
    _write_csv(out / "trajectory.csv", header + "\n", [("", table)])
    report.payload = {
        "samples": int(len(traj.times)),
        "speed2_drift": traj.speed2_drift(),
        "truncated": bool(traj.truncated),
        "final_position": traj.positions[-1].tolist(),
        "trajectory_file": "trajectory.csv",
    }
    _check(report, "speed2_drift", traj.speed2_drift(), _tol(cfg, "speed2_drift", tol_scale))
    _check(report, "truncated", float(traj.truncated), 0.5)


def _write_csv(path, header, blocks):
    """Write the header text, then one line per row of each (prefix, rows)
    block: the prefix, then the row's numbers as '%.17g', comma-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for prefix, rows in blocks:
            fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            # rows go through Python floats in chunks, so no block is held
            # as one large list
            for start in range(0, len(rows), 1024):
                chunk = rows[start:start + 1024].tolist()
                fh.writelines(prefix + fmt % tuple(row) for row in chunk)


def _task_maxwell(cfg, lattice, fields, seed, tol_scale, out, report):
    samples = cfg["fields.time.samples"] or 4
    dt = cfg["fields.time.dt"] or 1.0
    cx = maxwell.build_spacetime_complex(lattice, samples, dt)
    ensembles = cfg["params.ensembles"]
    amplitude = cfg["params.amplitude"]
    rng = np.random.default_rng(seed)

    # the metric is static: one sample stands for every time slice
    metric_minus = geometry.lorentzian_lift(lattice, fields[0], g00=-1.0)
    metric_plus = geometry.lorentzian_lift(lattice, fields[0], g00=+1.0)

    worst_dF = 0.0
    worst_cont = 0.0
    worst_star = 0.0
    last = None
    for _ in range(ensembles):
        A_series, phi_series = _random_series(lattice, samples, amplitude, rng)
        pot = maxwell.assemble_potential(cx, A_series, phi_series)
        F = maxwell.d_cochain(cx, pot)
        dF = maxwell.d_cochain(cx, F)
        worst_dF = _worst(worst_dF, np.max(np.abs(dF.values), initial=0.0))
        j_minus = maxwell.current(cx, pot, metric_minus)
        j_plus = maxwell.current(cx, pot, metric_plus)
        worst_cont = _worst(
            worst_cont,
            maxwell.continuity_defect(cx, j_minus, metric_minus),
            maxwell.continuity_defect(cx, j_plus, metric_plus),
        )
        worst_star = _worst(
            worst_star,
            maxwell.double_star_defect(cx, F, metric_minus),
            maxwell.double_star_defect(cx, F, metric_plus),
        )
        last = (pot, F, j_minus)

    pot, F, j = last
    header = (f"# complex={cx.content_hash()} orientation=t,x,y,z;increasing-pairs\n"
              "cochain,degree,cell_id,value\n")
    _write_csv(out / "cochains.csv", header, (
        (f"{name},{omega.degree},", np.column_stack([np.arange(len(omega.values)), omega.values]))
        for name, omega in (("potential", pot), ("field_strength", F), ("current", j))
    ))
    report.payload = {
        "time_samples": samples,
        "ensembles": ensembles,
        "max_dF": worst_dF,
        "max_continuity_defect": worst_cont,
        "cochains_file": "cochains.csv",
    }
    _check(report, "dF", worst_dF, _tol(cfg, "dF", tol_scale))
    _check(report, "continuity", worst_cont, _tol(cfg, "continuity", tol_scale))
    _check(report, "double_star", worst_star, _tol(cfg, "double_star", tol_scale))


def _random_series(lattice, samples, amplitude, rng):
    A_series, phi_series = [], []
    canon = lattice.link_reverse > np.arange(lattice.n_links)
    for _ in range(samples):
        theta = np.zeros(lattice.n_links)
        vals = rng.normal(0.0, amplitude, int(canon.sum()))
        theta[canon] = vals
        theta[lattice.link_reverse[canon]] = -vals
        A_series.append(theta)
        phi_series.append(rng.normal(0.0, amplitude, lattice.n_sites))
    return A_series, phi_series


def _task_holonomy(cfg, lattice, fields, seed, tol_scale, out, report):
    m = cfg["mass"]
    payload = {}
    k = cfg["params.chern_flux_quanta"]
    if k is not None:
        theta = _uniform_flux_connection(lattice, k)
        got = holonomy.chern_number(lattice, theta)
        payload["chern_number"] = got
        payload["chern_target"] = k
        _check(report, "chern_number", float(abs(got - k)), 0.5)
        report.payload = payload
        return
    grid = np.linspace(cfg["params.alphas.start"], cfg["params.alphas.stop"],
                       cfg["params.alphas.count"])
    table = holonomy.ab_spectrum(lattice, m, grid)
    header = ",".join(["alpha", *(f"lambda_{k+1}" for k in range(table.shape[1]))])
    _write_csv(out / "spectral_flow.csv", header + "\n", [("", np.column_stack([grid, table]))])
    payload.update(
        {
            "alpha_count": int(len(grid)),
            "lambda_min": float(table.min()),
            "lambda_max": float(table.max()),
            "spectral_flow_file": "spectral_flow.csv",
        }
    )
    if cfg["params.check_periodicity"]:
        shifted = holonomy.ab_spectrum(lattice, m, grid + 2 * np.pi)
        defect = float(np.max(np.abs(table - shifted)))
        payload["periodicity_defect"] = defect
        _check(report, "periodicity", defect, _tol(cfg, "periodicity", tol_scale))
    report.payload = payload


def _uniform_flux_connection(lattice, quanta):
    """Torus connection with uniform flux 2 pi quanta / n_plaquettes."""
    if lattice.spec.topology != "torus":
        raise holonomy.TopologyError(
            f"params.chern_flux_quanta needs a torus lattice, got {lattice.spec.topology}"
        )
    nx, ny = lattice.sizes
    flux = 2 * np.pi * quanta / (nx * ny)
    theta = np.zeros(lattice.n_links)
    for s in range(lattice.n_sites):
        ix, iy = lattice.coords[s]
        ly = lattice.link_index(s, (0, 1))
        theta[ly] = flux * ix
        theta[lattice.link_reverse[ly]] = -flux * ix
    for s in range(lattice.n_sites):
        ix, iy = lattice.coords[s]
        if ix == nx - 1:
            lx = lattice.link_index(s, (1, 0))
            theta[lx] = -flux * nx * iy
            theta[lattice.link_reverse[lx]] = flux * nx * iy
    return theta


def _task_evolve(cfg, lattice, fields, seed, tol_scale, out, report):
    m = cfg["mass"]
    H = operators.build_hamiltonian(lattice, *fields, m)
    duration = cfg["params.duration"]
    steps = cfg["params.steps"] or evolution.suggested_steps(H, 0.0, duration)
    steps += steps % 2  # even count so the composition check aligns
    U = evolution.propagator(H, 0.0, duration, steps)
    # H is static, so the propagator of the second half equals the first's
    half = evolution.propagator(H, 0.0, duration / 2, steps // 2)
    composition = float(np.max(np.abs(half @ half - U)))
    defect = evolution.unitarity_defect(U)
    x = lattice.positions[:, 0]
    xt = evolution.heisenberg_evolve(x, U)
    x0 = np.diag(x.astype(complex))
    # informational (no check reads it), and a dense 2-norm: an SVD of n x n
    noncomm = float(np.linalg.norm(x0 @ xt - xt @ x0, 2))
    probe = cfg["params.probe_delta"] or duration / steps
    residual = evolution.heisenberg_residual(H, x, duration / 2.0, probe)
    report.payload = {
        "steps": steps,
        "unitarity_defect": defect,
        "composition_defect": composition,
        "slice_noncommutation": noncomm,
        "heisenberg_residual": residual,
    }
    _check(report, "unitarity", defect, _tol(cfg, "unitarity", tol_scale))
    _check(report, "composition", composition, _tol(cfg, "composition", tol_scale))


_TASK_RUNNERS = {
    "build": _task_build,
    "reconstruct": _task_reconstruct,
    "roundtrip": _task_roundtrip,
    "geodesic": _task_geodesic,
    "maxwell": _task_maxwell,
    "holonomy": _task_holonomy,
    "evolve": _task_evolve,
}
