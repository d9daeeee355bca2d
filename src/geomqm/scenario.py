"""Scenario-driven orchestration: parse a config, run a task, emit reports.

Configs are YAML documents (human-writable, comment-friendly) validated
against the schema printed by `geomqm schema`.  Every task writes
report.json into the output directory plus task-specific CSVs; embedded
numerical checks decide the exit status.  Reports are deterministic for
a fixed scenario and seed up to the wall-time field.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import evolution, geometry, holonomy, maxwell, operators, reconstruct
from .lattice import LatticeError, LatticeSpec, build_lattice
from .profiles import (
    ProfileError,
    connection_from_profiles,
    metric_from_profiles,
    metric_profile,
    scalar_from_profile,
    time_scale_function,
)

TASKS = ("build", "reconstruct", "roundtrip", "geodesic", "maxwell", "holonomy", "evolve")

SCHEMA = """\
# geomqm scenario schema (YAML).  <angle brackets> mark values to fill in.
lattice:                      # required
  topology: <interval|ring|rectangle|cylinder|torus|box3>
  sizes: [<int >= 3 per axis>]
  spacings: [<float > 0 per axis>]
mass: <float > 0>             # required
task: <build|reconstruct|roundtrip|geodesic|maxwell|holonomy|evolve>
seed: <int>                   # optional, default 0; echoed in the report
fields:                       # optional; profiles are named closed forms
  metric:
    components:               # inverse-metric entries, upper triangle
      "<k>,<l>": <profile>    # e.g. "0,0": {profile: sine, base: 1.0,
                              #              amplitude: 0.3, axis: 0}
  connection:
    components: [<profile per axis>]    # integrated by midpoint rule
    holonomies: [<angle per periodic axis>]
  potential: <profile>
  time:
    samples: <int >= 1>
    dt: <float > 0>
    scale: {profile: linear, rate: <float>}   # lower metric scale s(t)
params:                       # task-specific, all optional
  reference: <link_average|pointwise>         # roundtrip
  hamiltonian_file: <path>                    # reconstruct input dump
  initial: {position: [...], velocity: [...]} # geodesic
  dt: <float>                                 # geodesic step
  duration: <float>                           # geodesic / evolve
  ensembles: <int>                            # maxwell random series
  amplitude: <float>                          # maxwell random series
  eta: <float>                                # geodesic difference step, 1e-4
  alphas: {start: <f>, stop: <f>, count: <n>} # holonomy grid (or a list)
  check_periodicity: <bool>                   # holonomy: alpha vs alpha + 2 pi
  chern_flux_quanta: <int>                    # holonomy, torus only
  steps: <int>                                # evolve
  probe_delta: <float>                        # evolve Heisenberg probe
tolerances:                   # optional overrides for embedded checks
  <check name>: <float>

profile ::= {profile: constant, value: <f>}
          | {profile: zero}
          | {profile: sine, base: <f>, amplitude: <f>, axis: <k>,
             periods: <f>, phase: <f>}
          | {profile: gaussian_bump, base: <f>, amplitude: <f>,
             center: <fraction>, width: <fraction>, axis: <k>}
          | {profile: polynomial, coeffs: [<f>...], axis: <k>}

Exit codes: 0 all checks pass; 1 a check failed; 2 config error;
3 numerical or domain error (printed as error: <ErrorClass>: <message>).
"""


class ConfigError(ValueError):
    """Scenario document violates the schema; message names the field."""


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


def _require(doc, key, kind, path):
    if key not in doc:
        raise ConfigError(f"{path}.{key}: required field missing")
    value = doc[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def validate_config(doc):
    """Check the document against the schema; returns the built lattice
    and its profile fields (g, theta, phi), each evaluated once."""
    lat_doc = _require(doc, "lattice", dict, "")
    topology = _require(lat_doc, "topology", str, "lattice")
    sizes = _require(lat_doc, "sizes", list, "lattice")
    spacings = _require(lat_doc, "spacings", list, "lattice")
    try:
        spec = LatticeSpec(topology, tuple(sizes), tuple(spacings))
    except LatticeError as exc:
        raise ConfigError(f"lattice: {exc}") from exc
    mass = _require(doc, "mass", float, "")
    if mass <= 0:
        raise ConfigError(f"mass: must be positive, got {mass}")
    task = _require(doc, "task", str, "")
    if task not in TASKS:
        raise ConfigError(f"task: unknown task {task!r}, expected one of {TASKS}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed: expected int")
    for name, value in _mapping(doc.get("tolerances"), "tolerances").items():
        if not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"tolerances.{name}: must be a positive number")
    reference = _mapping(doc.get("params"), "params").get("reference", "link_average")
    if reference not in ("link_average", "pointwise"):
        raise ConfigError(
            f"params.reference: expected link_average or pointwise, got {reference!r}"
        )
    lattice = build_lattice(spec)
    try:
        # geodesic metrics are evaluated analytically along the path, not
        # at lattice sites, so sitewise positive definiteness is not required
        fields = _build_fields(lattice, _mapping(doc.get("fields"), "fields"),
                               require_pd=task != "geodesic")
    except (ProfileError, LatticeError) as exc:
        raise ConfigError(str(exc)) from exc
    return lattice, fields


def _mapping(value, path):
    """A mapping-valued field, {} when absent or empty."""
    value = value or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected mapping, got {type(value).__name__}")
    return value


def _build_fields(lattice, fields_doc, require_pd=True):
    metric_doc = _mapping(fields_doc.get("metric"), "fields.metric").get("components")
    g = metric_from_profiles(lattice, metric_doc)
    if require_pd and np.min(np.linalg.eigvalsh(g)) <= 0:
        raise ConfigError("fields.metric: profiles give a non-positive-definite metric")
    theta = connection_from_profiles(
        lattice, _mapping(fields_doc.get("connection"), "fields.connection"))
    phi = scalar_from_profile(lattice, fields_doc.get("potential"), "fields.potential")
    time_doc = _mapping(fields_doc.get("time"), "fields.time")
    samples = int(time_doc.get("samples", 1))
    if samples < 1:
        raise ConfigError("fields.time.samples: must be >= 1")
    dt = float(time_doc.get("dt", 1.0))
    if dt <= 0:
        raise ConfigError("fields.time.dt: must be positive")
    time_scale_function(time_doc.get("scale"))  # raises on a bad scale profile
    return g, theta, phi


def scenario_hash(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def run_scenario(config_path, out_dir, seed=None, tol_scale=1.0):
    """Execute a scenario config; returns the Report after writing files."""
    doc = load_config(config_path)
    lattice, fields = validate_config(doc)
    task = doc["task"]
    if seed is None:
        seed = int(doc.get("seed", 0))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    report = Report(task=task, scenario_hash=scenario_hash(doc), seed=seed)
    runner = _TASK_RUNNERS[task]
    runner(doc, lattice, fields, seed, tol_scale, out, report)
    report.wall_time_s = time.perf_counter() - started

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _tol(doc, name, default, tol_scale):
    value = float((doc.get("tolerances") or {}).get(name, default))
    return value * tol_scale


def _check(report, name, value, tolerance):
    report.checks.append(Check(name, bool(value <= tolerance), float(value), tolerance))


def _task_build(doc, lattice, fields, seed, tol_scale, out, report):
    g, theta, phi = fields
    m = float(doc["mass"])
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
    _check(report, "hermiticity", val["hermiticity_defect"], _tol(doc, "hermiticity", 1e-12, tol_scale))
    lower_defect = max(0.0, float(np.min(phi)) - float(spectrum[0]))
    _check(report, "spectrum_lower_bound", lower_defect, _tol(doc, "spectrum_lower_bound", 1e-9, tol_scale))


def _task_reconstruct(doc, lattice, fields, seed, tol_scale, out, report):
    m = float(doc["mass"])
    params = doc.get("params") or {}
    if "hamiltonian_file" in params:
        H = operators.load_operator(params["hamiltonian_file"])
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


def _task_roundtrip(doc, lattice, fields, seed, tol_scale, out, report):
    m = float(doc["mass"])
    reference = (doc.get("params") or {}).get("reference", "link_average")
    rep = reconstruct.roundtrip_report(lattice, *fields, m, reference=reference)
    report.payload = rep.to_dict(lattice)
    tol_default = 1e-9 if reference == "link_average" else 1e-2
    _check(report, "e_g", rep.e_g, _tol(doc, "e_g", tol_default, tol_scale))
    _check(report, "e_F", rep.e_F, _tol(doc, "e_F", 1e-9, tol_scale))
    _check(report, "e_phi", rep.e_phi, _tol(doc, "e_phi", tol_default, tol_scale))
    _check(report, "positivity", 0.0 if rep.axiom.positivity_ok else 1.0, 0.5)


def _task_geodesic(doc, lattice, fields, seed, tol_scale, out, report):
    params = doc.get("params") or {}
    fields_doc = doc.get("fields") or {}
    g_inverse = metric_profile(lattice, (fields_doc.get("metric") or {}).get("components"))
    metric = geometry.AnalyticMetric(
        lambda q: np.linalg.inv(g_inverse(q)), ndim=lattice.ndim,
        default_eta=float(params.get("eta", 1e-4)),
    )
    initial = params.get("initial") or {}
    q0 = np.asarray(initial.get("position", [0.0] * lattice.ndim), dtype=float)
    v0 = np.asarray(initial.get("velocity", [1.0] + [0.0] * (lattice.ndim - 1)), dtype=float)
    dt = float(params.get("dt", 1e-3))
    duration = float(params.get("duration", 1.0))
    traj = geometry.geodesic_integrate(
        metric, geometry.GeodesicState(q0, v0), dt, duration
    )

    time_doc = fields_doc.get("time") or {}
    samples = int(time_doc.get("samples", 1))
    if samples >= 3:
        scale = time_scale_function(time_doc.get("scale"))
        dts = float(time_doc.get("dt", duration / (samples - 1)))
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
    _check(report, "speed2_drift", traj.speed2_drift(), _tol(doc, "speed2_drift", 1e-8, tol_scale))
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


def _task_maxwell(doc, lattice, fields, seed, tol_scale, out, report):
    params = doc.get("params") or {}
    fields_doc = doc.get("fields") or {}
    time_doc = fields_doc.get("time") or {}
    samples = int(time_doc.get("samples", 4))
    dt = float(time_doc.get("dt", 1.0))
    cx = maxwell.build_spacetime_complex(lattice, samples, dt)
    ensembles = int(params.get("ensembles", 1))
    amplitude = float(params.get("amplitude", 0.3))
    rng = np.random.default_rng(seed)

    g = fields[0]
    series = np.broadcast_to(g, (samples,) + g.shape).copy()
    metric_minus = geometry.lorentzian_lift(lattice, series, np.arange(samples) * dt, g00=-1.0)
    metric_plus = geometry.lorentzian_lift(lattice, series, np.arange(samples) * dt, g00=+1.0)

    worst_dF = 0.0
    worst_cont = 0.0
    worst_star = 0.0
    last = None
    for _ in range(max(1, ensembles)):
        A_series, phi_series = _random_series(lattice, samples, amplitude, rng)
        pot = maxwell.assemble_potential(cx, A_series, phi_series)
        F = maxwell.d_cochain(cx, pot)
        dF = maxwell.d_cochain(cx, F)
        worst_dF = max(worst_dF, float(np.max(np.abs(dF.values), initial=0.0)))
        j_minus = maxwell.current(cx, pot, metric_minus)
        j_plus = maxwell.current(cx, pot, metric_plus)
        worst_cont = max(
            worst_cont,
            maxwell.continuity_defect(cx, j_minus, metric_minus),
            maxwell.continuity_defect(cx, j_plus, metric_plus),
        )
        worst_star = max(
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
    _check(report, "dF", worst_dF, _tol(doc, "dF", 1e-12, tol_scale))
    _check(report, "continuity", worst_cont, _tol(doc, "continuity", 1e-12, tol_scale))
    _check(report, "double_star", worst_star, _tol(doc, "double_star", 1e-12, tol_scale))


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


def _task_holonomy(doc, lattice, fields, seed, tol_scale, out, report):
    params = doc.get("params") or {}
    m = float(doc["mass"])
    payload = {}
    if params.get("chern_flux_quanta") is not None:
        k = int(params["chern_flux_quanta"])
        theta = _uniform_flux_connection(lattice, k)
        got = holonomy.chern_number(lattice, theta)
        payload["chern_number"] = got
        payload["chern_target"] = k
        _check(report, "chern_number", float(abs(got - k)), 0.5)
        report.payload = payload
        return
    alphas = params.get("alphas", {"start": 0.0, "stop": 2 * np.pi, "count": 17})
    if isinstance(alphas, dict):
        grid = np.linspace(
            float(alphas.get("start", 0.0)),
            float(alphas.get("stop", 2 * np.pi)),
            int(alphas.get("count", 17)),
        )
    else:
        grid = np.asarray([float(a) for a in alphas])
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
    if params.get("check_periodicity", False):
        shifted = holonomy.ab_spectrum(lattice, m, grid + 2 * np.pi)
        defect = float(np.max(np.abs(table - shifted)))
        payload["periodicity_defect"] = defect
        _check(report, "periodicity", defect, _tol(doc, "periodicity", 1e-9, tol_scale))
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


def _task_evolve(doc, lattice, fields, seed, tol_scale, out, report):
    m = float(doc["mass"])
    params = doc.get("params") or {}
    H = operators.build_hamiltonian(lattice, *fields, m)
    duration = float(params.get("duration", 1.0))
    steps = int(params.get("steps", 0)) or evolution.suggested_steps(H, 0.0, duration)
    steps += steps % 2  # even count so the composition check aligns
    U = evolution.propagator(H, 0.0, duration, steps)
    # H is static, so the propagator of the second half equals the first's
    half = evolution.propagator(H, 0.0, duration / 2, steps // 2)
    composition = float(np.max(np.abs((half @ half).mat - U.mat)))
    defect = U.unitarity_defect()
    x = lattice.positions[:, 0]
    xt = evolution.heisenberg_evolve(x, U)
    x0 = np.diag(x.astype(complex))
    noncomm = float(np.linalg.norm(x0 @ xt - xt @ x0, 2))
    probe = float(params.get("probe_delta", duration / steps))
    residual = evolution.heisenberg_residual(H, x, duration / 2.0, probe)
    report.payload = {
        "steps": steps,
        "unitarity_defect": defect,
        "composition_defect": composition,
        "slice_noncommutation": noncomm,
        "heisenberg_residual": residual,
    }
    _check(report, "unitarity", defect, _tol(doc, "unitarity", 1e-10, tol_scale))
    _check(report, "composition", composition, _tol(doc, "composition", 1e-12, tol_scale))


_TASK_RUNNERS = {
    "build": _task_build,
    "reconstruct": _task_reconstruct,
    "roundtrip": _task_roundtrip,
    "geodesic": _task_geodesic,
    "maxwell": _task_maxwell,
    "holonomy": _task_holonomy,
    "evolve": _task_evolve,
}
