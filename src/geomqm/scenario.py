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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import evolution, geometry, holonomy, maxwell, operators, reconstruct
from ._config import COUNT, POSITIVE, REQUIRED, ConfigError, Key, read_keys
from .lattice import TOPOLOGIES, LatticeSpec, build_lattice, link_field, metric_field, scalar_field
from .profiles import (
    GRAMMAR,
    connection_from_profiles,
    metric_from_profiles,
    metric_profile,
    scalar_from_profile,
    time_scale_function,
)

TASKS = ("build", "reconstruct", "roundtrip", "geodesic", "maxwell", "holonomy", "evolve")
FLOW_LIMIT = 10**7  # largest params.alphas.count x n_sites: the spectral flow table, 80 MB
ENSEMBLE_LIMIT = 10**4  # largest params.ensembles
SERIES_LIMIT = 10**6  # largest fields.time.samples x n_sites; a complex that large takes 1.2 GB


def _one_of(*names):
    return ("one of " + ", ".join(names), lambda v: v in names)


_PER_AXIS = ("one per lattice axis", lambda v: True)  # validate_config checks the length
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_LOOSE = "default 1.0e-9, 1.0e-2 for reference pointwise"
_IDENTITY = "an identity of the implementation, no input fails it"
_FIELD_TASKS = ("build", "reconstruct", "roundtrip", "evolve")  # read every field

# Every settable value of a scenario document.  fields, params and
# tolerances rows name the tasks that read them.  A default that depends
# on other values is None here and filled in by `validate_config`, but
# for params.steps and params.probe_delta, which need H.
_KEYS = (
    Key("lattice.topology", "str", REQUIRED, _one_of(*TOPOLOGIES)),
    Key("lattice.sizes", "list of int", REQUIRED, note="sites per axis, each >= 3"),
    Key("lattice.spacings", "list of float", REQUIRED, note="per axis, each > 0"),
    Key("mass", "float", REQUIRED, POSITIVE),
    Key("task", "str", REQUIRED, _one_of(*TASKS)),
    Key("seed", "int", 0, _NON_NEGATIVE, note="echoed in the report"),
    Key("fields.metric.components", "mapping", None, None, _FIELD_TASKS + ("geodesic", "maxwell"),
        'inverse metric: a profile per "k,l", k <= l'),
    Key("fields.connection.components", "list of profile", None, None, _FIELD_TASKS,
        "one per axis"),
    Key("fields.connection.holonomies", "list of float", None, None, _FIELD_TASKS,
        "one per periodic axis"),
    Key("fields.potential", "profile", None, None, _FIELD_TASKS, "default zero"),
    Key("fields.time.samples", "int", None, COUNT, ("geodesic", "maxwell"),
        f"default 4 for maxwell, 1 for geodesic; times the sites at most {SERIES_LIMIT}"),
    Key("fields.time.dt", "float", None, POSITIVE, ("geodesic", "maxwell"),
        "default 1.0; geodesic: duration / (samples - 1), set only with samples >= 3"),
    Key("fields.time.scale", "scale", None, None, ("geodesic",),
        "lower metric scale s(t); needs fields.time.samples >= 3"),
    Key("params.reference", "str", "link_average", _one_of("link_average", "pointwise"),
        ("roundtrip",)),
    Key("params.hamiltonian_file", "str", None, None, ("reconstruct",),
        "an existing operator file, relative to the working directory"),
    Key("params.initial.position", "list of float", None, _PER_AXIS, ("geodesic",), "default 0"),
    Key("params.initial.velocity", "list of float", None, _PER_AXIS, ("geodesic",),
        "default the unit vector of axis 0"),
    Key("params.dt", "float", 1e-3, POSITIVE, ("geodesic",),
        f"at most duration; duration / dt at most {geometry.STEP_LIMIT}"),
    Key("params.duration", "float", 1.0, POSITIVE, ("geodesic", "evolve")),
    Key("params.eta", "float", 1e-4, POSITIVE, ("geodesic",), "metric difference step"),
    Key("params.ensembles", "int", 1,
        (f">= 1, <= {ENSEMBLE_LIMIT}", lambda v: 1 <= v <= ENSEMBLE_LIMIT), ("maxwell",)),
    Key("params.amplitude", "float", 0.3, ("finite, >= 0", lambda v: 0 <= v < math.inf),
        ("maxwell",)),
    Key("params.alphas.start", "float", 0.0, None, ("holonomy",)),
    Key("params.alphas.stop", "float", 2 * np.pi, None, ("holonomy",)),
    Key("params.alphas.count", "int", 17, COUNT, ("holonomy",),
        f"times the lattice sites at most {FLOW_LIMIT}"),
    Key("params.check_periodicity", "bool", False, None, ("holonomy",), "alpha vs alpha + 2 pi"),
    Key("params.chern_flux_quanta", "int", None, None, ("holonomy",),
        "torus only; |k| < nx ny / 2; no alphas, check_periodicity or periodicity tolerance"),
    Key("params.steps", "int", None, COUNT, ("evolve",), "default from ||H||"),
    Key("params.probe_delta", "float", None, POSITIVE, ("evolve",),
        "default duration / steps; at most duration / 2"),
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
# Pass/fail checks, measured as their failure truth value: one fixed tolerance, not scaled
FLAGS = ("positivity", "nondegeneracy", "truncated", "chern_number")
_FLAG_TOLERANCE = 0.5
_FLOW_ROWS = ("params.alphas.start", "params.alphas.stop", "params.alphas.count",
              "params.check_periodicity", "tolerances.periodicity")  # a Chern run reads none


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
    return "\n".join(lines) + "\n\n" + GRAMMAR + f"""
Checks: a check passes when its value is <= its tolerance, the row
tolerances.<name> times --tol-scale.  The pass/fail flags (value 1 when
failed) {", ".join(FLAGS)}
have the fixed tolerance {_FLAG_TOLERANCE}, not scaled.

Exit codes: 0 all checks pass; 1 a check failed; 2 config error;
3 numerical or domain error, or any other exception (printed as
error: <ErrorClass>: <message>).
"""


SCHEMA = _schema()


class Check(NamedTuple):
    name: str
    passed: bool
    value: float
    tolerance: float


@dataclass
class Report:
    task: str
    scenario_hash: str
    seed: int
    payload: dict
    checks: list
    wall_time_s: float

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "task": self.task,
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
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
    typed, by dotted path, with every default filled in, the built lattice
    and its profile fields (g, theta, phi), each evaluated once.  It calls
    every library gate that the task's run reaches before its work."""
    cfg = read_keys(doc, _KEYS, task=doc.get("task"))  # task is read before any task row
    task = cfg["task"]
    spec = _gate("lattice", LatticeSpec, cfg["lattice.topology"], tuple(cfg["lattice.sizes"]),
                 tuple(cfg["lattice.spacings"]))
    for key in _KEYS:
        value = cfg.get(key.path)
        if key.rule is _PER_AXIS and value is not None and len(value) != spec.ndim:
            raise ConfigError(f"{key.path}: expected {spec.ndim} values, one per lattice axis, "
                              f"got {len(value)}")
    # the table's rules exclude 0 and empty values, so `or` only fills unset ones
    if task == "maxwell":
        cfg["fields.time.samples"] = cfg["fields.time.samples"] or 4
        cfg["fields.time.dt"] = cfg["fields.time.dt"] or 1.0
    elif task == "geodesic":
        samples = cfg["fields.time.samples"] = cfg["fields.time.samples"] or 1
        if samples >= 3:  # a time series of the metric, lifted along the path
            cfg["fields.time.dt"] = cfg["fields.time.dt"] or cfg["params.duration"] / (samples - 1)
        for path in ("fields.time.dt", "fields.time.scale"):
            if samples < 3 and cfg[path] is not None:
                raise ConfigError(f"{path}: needs fields.time.samples >= 3, got {samples}")
        cfg["params.initial.position"] = cfg["params.initial.position"] or [0.0] * spec.ndim
        cfg["params.initial.velocity"] = (cfg["params.initial.velocity"]
                                          or [1.0] + [0.0] * (spec.ndim - 1))
    reference = cfg.get("params.reference")
    if reference is not None:  # e_g and e_phi: loose for the pointwise reference
        for path in ("tolerances.e_g", "tolerances.e_phi"):
            cfg[path] = cfg[path] or (1e-9 if reference == "link_average" else 1e-2)
    lattice = build_lattice(spec)
    # run sizes per lattice site; a Chern run reads no alphas
    chern = cfg.get("params.chern_flux_quanta")
    alphas = chern is None and cfg.get("params.alphas.count")
    for path, n, limit in (("params.alphas.count", alphas, FLOW_LIMIT),
                           ("fields.time.samples", cfg.get("fields.time.samples"), SERIES_LIMIT)):
        if n and n * lattice.n_sites > limit:
            raise ConfigError(f"{path}: {n} x {lattice.n_sites} sites > {limit}")
    if task in ("build", "evolve") or alphas:  # the tasks that solve densely
        _gate("lattice.sizes", operators._dense_size, lattice.n_sites)
    if alphas:
        _gate("lattice.topology", holonomy._one_periodic_axis, lattice)
    if chern is not None:
        for path in _FLOW_ROWS:  # a spectral flow row that the document sets
            given = doc
            for name in path.split("."):  # read_keys has checked that each section is a mapping
                given = (given or {}).get(name)
            if given is not None:
                raise ConfigError(f"{path}: not read with params.chern_flux_quanta")
        _gate("params.chern_flux_quanta", holonomy._torus_only, lattice)
        _gate("params.chern_flux_quanta", holonomy._flux_in_branch, lattice, chern)
    g = metric_from_profiles(lattice, cfg.get("fields.metric.components"))
    if task != "geodesic" or cfg["fields.time.samples"] >= 3:  # a geodesic lifts g, if at all
        _gate("fields.metric", metric_field, lattice, g)
    if task == "maxwell":
        _gate("fields.metric", maxwell._diagonal_only, g)
    theta = _gate("fields.connection.holonomies", connection_from_profiles, lattice, {
        "components": cfg.get("fields.connection.components"),
        "holonomies": cfg.get("fields.connection.holonomies"),
    })
    _gate("fields.connection", link_field, lattice, theta)
    if "fields.connection.components" in cfg and cfg.get("params.hamiltonian_file") is None:
        _gate("fields.connection", operators._phase_window, theta)  # the fields build H
    phi = scalar_from_profile(lattice, cfg.get("fields.potential"), "fields.potential")
    _gate("fields.potential", scalar_field, lattice, phi)
    if cfg.get("fields.time.scale") is not None:
        scale = time_scale_function(cfg["fields.time.scale"])  # raises on a bad scale profile
        # linear in t: positive and finite at every sample time iff at both ends
        for t in (0.0, (cfg["fields.time.samples"] - 1) * cfg["fields.time.dt"]):
            if not 0 < scale(t) < math.inf:
                raise ConfigError(f"fields.time.scale: must be positive and finite at every "
                                  f"sample time, got {scale(t):.7g} at t = {t:.7g}")
    if "params.dt" in cfg:
        _gate("params.dt", geometry._step_count, cfg["params.dt"], cfg["params.duration"])
    hamiltonian_file = cfg.get("params.hamiltonian_file")
    if hamiltonian_file is not None:
        if not Path(hamiltonian_file).is_file():
            raise ConfigError(f"params.hamiltonian_file: no such file {hamiltonian_file!r}")
        with open(hamiltonian_file, encoding="utf-8") as fh:  # the header line only
            dim, _ = _gate("params.hamiltonian_file", operators._read_header, fh, hamiltonian_file)
        _gate("params.hamiltonian_file", operators._site_shape, lattice, (dim, dim))
    probe, duration = cfg.get("params.probe_delta"), cfg.get("params.duration")
    if probe is not None and probe > duration / 2:
        # the residual is taken at duration / 2 and reaches back to t - probe_delta
        raise ConfigError(f"params.probe_delta: must be <= params.duration / 2 = "
                          f"{duration / 2}, got {probe}")
    return cfg, lattice, (g, theta, phi)


def _gate(path, check, *args):
    """check(*args), a library gate, with its ValueError raised as a ConfigError naming path."""
    try:
        return check(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scenario_hash(doc):
    return _digest(json.dumps(doc, sort_keys=True, default=str))


def run_scenario(config_path, out_dir, seed=None, tol_scale=1.0):
    """Execute a scenario config; returns the Report after writing files.
    The task runner measures, and each of its checks is judged here."""
    if not POSITIVE[1](tol_scale):
        raise ConfigError(f"--tol-scale: must be {POSITIVE[0]}, got {tol_scale!r}")
    if seed is not None and not _NON_NEGATIVE[1](seed):
        raise ConfigError(f"--seed: must be {_NON_NEGATIVE[0]}, got {seed!r}")
    doc = load_config(config_path)
    cfg, lattice, fields = validate_config(doc)
    if seed is not None:
        cfg["seed"] = seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    payload, measured = _TASK_RUNNERS[cfg["task"]](cfg, lattice, fields, out)
    checks = []
    for name, value in measured:  # a check without a row its task reads is a KeyError
        tolerance = _FLAG_TOLERANCE if name in FLAGS else cfg[f"tolerances.{name}"] * tol_scale
        checks.append(Check(name, bool(value <= tolerance), float(value), float(tolerance)))
    report = Report(cfg["task"], scenario_hash(doc), cfg["seed"], payload, checks,
                    time.perf_counter() - started)

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return report


def _worst(*values):
    """The largest value as a float, NaN if any is NaN, so the check it
    feeds fails (Python's max drops a NaN that is not its first argument)."""
    return float(np.max(values))


def _task_build(cfg, lattice, fields, out):
    g, theta, phi = fields
    m = cfg["mass"]
    H = operators.build_hamiltonian(lattice, g, theta, phi, m)
    operators.save_operator(out / "hamiltonian.txt", H)
    val = operators.validate_operator(lattice, H)
    spectrum = operators.eigenvalues(H)
    payload = {
        "validation": {
            "hermiticity_defect": val["hermiticity_defect"],
            "locality_radius": val["locality_radius"],
            "commutant_defect": list(val["commutant_defect"]),
        },
        "spectrum_min": float(spectrum[0]),
        "spectrum_max": float(spectrum[-1]),
        "operator_file": "hamiltonian.txt",
    }
    lower_defect = _worst(float(np.min(phi)) - float(spectrum[0]), 0.0)
    return payload, [("hermiticity", val["hermiticity_defect"]),
                     ("spectrum_lower_bound", lower_defect)]


def _canonical_links(lattice):
    """Mask of the lower-id link of each reversed pair, the one outputs list."""
    return lattice.link_reverse > np.arange(lattice.n_links)


def _reconstruction_payload(lattice, rep):
    """The frozen reconstruction fields of a ReconstructionReport, but errors."""
    canon = _canonical_links(lattice)
    axiom = rep.axiom
    return {
        "g_rec": rep.g_rec.tolist(),
        "A_rec_tree_gauge": list(zip(lattice.link_src[canon].tolist(),
                                     lattice.link_dst[canon].tolist(),
                                     rep.A_rec_tree_gauge[canon].tolist())),
        "phi_rec": rep.phi_rec.tolist(),
        "axioms": {
            "positivity": bool(axiom.positivity_ok),
            "nondegeneracy": bool(axiom.nondegenerate),
            "unquantized_axes": list(axiom.unquantized_axes),
            "min_metric_eigenvalue": float(axiom.metric_min_eigenvalue.min()),
            "cure_max": float(max((r for _, r in axiom.cure_residuals), default=0.0)),
            "commutant": [float(v) for v in axiom.commutant_defect],
        },
    }


def _task_reconstruct(cfg, lattice, fields, out):
    m = cfg["mass"]
    if cfg["params.hamiltonian_file"] is not None:
        H = operators.load_operator(cfg["params.hamiltonian_file"])
    else:
        H = operators.build_hamiltonian(lattice, *fields, m)
    rep = reconstruct.reconstruction_report(lattice, H, m)
    return _reconstruction_payload(lattice, rep), [("positivity", not rep.axiom.positivity_ok),
                                                   ("nondegeneracy", not rep.axiom.nondegenerate)]


def _task_roundtrip(cfg, lattice, fields, out):
    rep = reconstruct.roundtrip_report(lattice, *fields, cfg["mass"],
                                       reference=cfg["params.reference"])
    payload = _reconstruction_payload(lattice, rep)
    payload["errors"] = {"e_g": rep.e_g, "e_F": rep.e_F, "e_phi": rep.e_phi}
    return payload, [*payload["errors"].items(), ("positivity", not rep.axiom.positivity_ok)]


def _task_geodesic(cfg, lattice, fields, out):
    # the lattice's chart: a step that starts past an open edge leaves it
    metric = geometry.AnalyticMetric(
        metric_profile(lattice, cfg["fields.metric.components"]), ndim=lattice.ndim,
        default_eta=cfg["params.eta"], bounds=geometry._lattice_bounds(lattice),
    )
    q0 = np.asarray(cfg["params.initial.position"], dtype=float)
    v0 = np.asarray(cfg["params.initial.velocity"], dtype=float)
    traj = geometry.geodesic_integrate(metric, q0, v0, cfg["params.dt"], cfg["params.duration"])

    samples = cfg["fields.time.samples"]
    if samples >= 3:  # a time series of the metric
        scale = time_scale_function(cfg["fields.time.scale"])
        times = np.arange(samples) * cfg["fields.time.dt"]
        series = np.array([fields[0] / scale(t) for t in times])
        st = geometry.lorentzian_lift(lattice, series, times)
        residual = geometry.zeroth_residual(st, traj)
    else:
        residual = np.zeros(len(traj.times))

    d = traj.positions.shape[1]
    header = ",".join(["t", *(f"q_{k+1}" for k in range(d)), *(f"v_{k+1}" for k in range(d)),
                       "speed2", "residual0"])
    columns = (traj.times, *traj.positions.T, *traj.velocities.T, traj.speed2, residual)
    operators.write_rows(out / "trajectory.csv", header + "\n", [("", columns)], ",")
    payload = {
        "samples": int(len(traj.times)),
        "speed2_drift": traj.speed2_drift(),
        "truncated": bool(traj.truncated),
        "final_position": traj.positions[-1].tolist(),
        "trajectory_file": "trajectory.csv",
    }
    return payload, [("speed2_drift", payload["speed2_drift"]), ("truncated", traj.truncated)]


def _task_maxwell(cfg, lattice, fields, out):
    samples = cfg["fields.time.samples"]
    cx = maxwell.build_spacetime_complex(lattice, samples, cfg["fields.time.dt"])
    ensembles = cfg["params.ensembles"]
    amplitude = cfg["params.amplitude"]
    rng = np.random.default_rng(cfg["seed"])

    # one star per lift sign; the metric is static, so one sample stands
    # for every time slice
    lift = geometry.lorentzian_lift(lattice, fields[0])
    star_minus, star_plus = (maxwell.hodge_factors(cx, replace(lift, g00=g00))
                             for g00 in (-1.0, +1.0))

    dF, continuity, double_star = [], [], []
    for _ in range(ensembles):
        pot = maxwell.assemble_potential(cx, *_random_series(lattice, samples, amplitude, rng))
        F = maxwell.d_cochain(pot)
        j = maxwell.current(star_minus, F)
        dF.append(np.max(np.abs(maxwell.d_cochain(F).values), initial=0.0))
        continuity += [maxwell.continuity_defect(star_minus, j),
                       maxwell.continuity_defect(star_plus, maxwell.current(star_plus, F))]
        double_star += [maxwell.double_star_defect(star, F) for star in (star_minus, star_plus)]
    worst_dF, worst_cont, worst_star = _worst(*dF), _worst(*continuity), _worst(*double_star)

    # the cochains of the last ensemble
    spec = lattice.spec
    complex_hash = _digest(repr((spec.topology, spec.sizes, spec.spacings, cx.n_t, cx.dt)))
    header = (f"# complex={complex_hash} orientation=t,x,y,z;increasing-pairs\n"
              "cochain,degree,cell_id,value\n")
    operators.write_rows(out / "cochains.csv", header, [
        (f"{name},{omega.degree},", (np.arange(len(omega.values)), omega.values))
        for name, omega in (("potential", pot), ("field_strength", F), ("current", j))
    ], ",")
    payload = {
        "time_samples": samples,
        "ensembles": ensembles,
        "max_dF": worst_dF,
        "max_continuity_defect": worst_cont,
        "cochains_file": "cochains.csv",
    }
    return payload, [("dF", worst_dF), ("continuity", worst_cont), ("double_star", worst_star)]


def _random_series(lattice, samples, amplitude, rng):
    """One ensemble's (samples, n_links) link phases, antisymmetric under
    reversal, and (samples, n_sites) site potentials.  One draw holds a
    sample per row: its canonical link phases, then its site potentials."""
    canon = _canonical_links(lattice)
    n_canon = int(canon.sum())
    draw = rng.normal(0.0, amplitude, (samples, n_canon + lattice.n_sites))
    theta = np.zeros((samples, lattice.n_links))
    theta[:, canon] = draw[:, :n_canon]
    theta[:, lattice.link_reverse[canon]] = -draw[:, :n_canon]
    return theta, draw[:, n_canon:].copy()  # a view would keep the whole draw alive


def _task_holonomy(cfg, lattice, fields, out):
    m = cfg["mass"]
    k = cfg["params.chern_flux_quanta"]
    if k is not None:
        got = holonomy.chern_number(lattice, holonomy._uniform_flux_connection(lattice, k))
        return {"chern_number": got, "chern_target": k}, [("chern_number", abs(got - k))]
    grid = np.linspace(cfg["params.alphas.start"], cfg["params.alphas.stop"],
                       cfg["params.alphas.count"])
    table = holonomy.ab_spectrum(lattice, m, grid)
    header = ",".join(["alpha", *(f"lambda_{k+1}" for k in range(table.shape[1]))])
    operators.write_rows(out / "spectral_flow.csv", header + "\n", [("", (grid, *table.T))], ",")
    payload = {
        "alpha_count": int(len(grid)),
        "lambda_min": float(table.min()),
        "lambda_max": float(table.max()),
        "spectral_flow_file": "spectral_flow.csv",
    }
    if not cfg["params.check_periodicity"]:
        return payload, []
    shifted = holonomy.ab_spectrum(lattice, m, grid + 2 * np.pi)
    payload["periodicity_defect"] = float(np.max(np.abs(table - shifted)))
    return payload, [("periodicity", payload["periodicity_defect"])]


def _task_evolve(cfg, lattice, fields, out):
    m = cfg["mass"]
    H = operators.build_hamiltonian(lattice, *fields, m)
    duration = cfg["params.duration"]
    steps = cfg["params.steps"] or evolution.suggested_steps(H, 0.0, duration)
    steps += steps % 2  # even count so the composition check aligns
    # one eigh serves both propagators and the residual
    spectrum = evolution.decompose(H)
    U = evolution.propagator(spectrum, 0.0, duration, steps)
    defect = evolution.unitarity_defect(U)
    # H is static, so the propagator of the second half equals the first's
    half = evolution.propagator(spectrum, 0.0, duration / 2, steps // 2)
    sq = half @ half
    sq -= U
    composition = float(np.max(np.abs(sq)))
    del U, half, sq  # before the residual's n x n matrices are made
    probe = cfg["params.probe_delta"] or duration / steps
    residual = evolution.heisenberg_residual(spectrum, lattice.positions[:, 0], duration / 2.0,
                                             probe)
    payload = {
        "steps": steps,
        "unitarity_defect": defect,
        "composition_defect": composition,
        "heisenberg_residual": residual,
    }
    return payload, [("unitarity", defect), ("composition", composition)]


_TASK_RUNNERS = {
    "build": _task_build,
    "reconstruct": _task_reconstruct,
    "roundtrip": _task_roundtrip,
    "geodesic": _task_geodesic,
    "maxwell": _task_maxwell,
    "holonomy": _task_holonomy,
    "evolve": _task_evolve,
}
