"""The config table: bad documents are config errors naming their path,
every shipped and benchmark document validates, the tolerance rows are
exactly the checks each task can have overridden, and the schema lists
every row."""

import importlib
import json
import pathlib

import numpy as np
import pytest

import geomqm.scenario as scenario
from geomqm.cli import main
from geomqm.profiles import _PROFILES
from geomqm.scenario import load_config, run_scenario, validate_config

ROOT = pathlib.Path(__file__).resolve().parent.parent

RING_BUILD = "lattice: {topology: ring, sizes: [8], spacings: [1.0]}\nmass: 1.0\ntask: build\n"
TORUS_BUILD = ("lattice: {topology: torus, sizes: [4, 4], spacings: [1.0, 1.0]}\n"
               "mass: 1.0\ntask: build\n")
EVOLVE = "lattice: {topology: interval, sizes: [8], spacings: [1.0]}\nmass: 1.0\ntask: evolve\n"
MAXWELL = "lattice: {topology: interval, sizes: [4], spacings: [1.0]}\nmass: 1.0\ntask: maxwell\n"
HOLONOMY = "lattice: {topology: ring, sizes: [4], spacings: [1.0]}\nmass: 1.0\ntask: holonomy\n"
GEODESIC = ("lattice: {topology: rectangle, sizes: [4, 4], spacings: [1.0, 1.0]}\n"
            "mass: 1.0\ntask: geodesic\n")
CHERN = TORUS_BUILD.replace("build", "holonomy") + "params: {chern_flux_quanta: 1"

# Per row, the path the message names and the document; a third entry is
# the row's id where the path is another row's: pytest numbers repeated
# ids, which would rename the rows that hold them.
BAD_CONFIGS = [
    ("params.duration", EVOLVE + "params: {duration: long}\n"),
    ("fields.time.samples", MAXWELL + "fields: {time: {samples: four}}\n"),
    ("fields.connection.components", RING_BUILD + "fields: {connection: {components: 3}}\n"),
    ("fields.potential.axis",
     TORUS_BUILD + "fields: {potential: {profile: sine, amplitude: 0.1, axis: 1.5}}\n"),
    ("params.duratoin", EVOLVE + "params: {duratoin: 2.0}\n"),
    ("tolerances.hermiticty", RING_BUILD + "tolerances: {hermiticty: 1.0e-6}\n"),
    ("feilds", RING_BUILD + "feilds: {potential: {profile: constant, value: 1.0}}\n"),
    ("fields.time.scale.rat",
     GEODESIC + "fields: {time: {samples: 3, scale: {profile: linear, rat: 0.3}}}\n"),
    ("params.check_periodicity", HOLONOMY + "params: {check_periodicity: 'no'}\n"),
    ("seed", RING_BUILD + "seed: true\n"),
    ("seed", RING_BUILD + "seed: -1\n", "seed=-1"),
    ("params.alphas.count", HOLONOMY + "params: {alphas: {count: 0}}\n"),
    ("params.alphas", HOLONOMY + "params: {alphas: [0.0, 1.0]}\n"),
    ("params.initial.position", GEODESIC + "params: {initial: {position: [1.0]}}\n"),
    ("fields.potential.amplitude", RING_BUILD + "fields: {potential: {profile: sine, amplitude: abc}}\n"),
    ("params.ensembles", MAXWELL + "params: {ensembles: 0}\n"),
    ("tolerances.hermiticity", RING_BUILD + "tolerances: {hermiticity: .nan}\n"),
    ("params.eta", EVOLVE + "params: {eta: 1.0e-4}\n"),
    ("fields.time.scale",
     GEODESIC + "fields: {time: {samples: 2, scale: {profile: linear, rate: 0.2}}}\n"),
    ("fields.time.scale", MAXWELL + "fields: {time: {scale: {profile: linear, rate: 0.2}}}\n"),
    ("lattice", RING_BUILD.replace("[8]", "[2]")),
    ("fields.connection.holonomies", RING_BUILD + "fields: {connection: {holonomies: [0.1, 0.2]}}\n"),
    ("fields.potential.width",
     RING_BUILD + "fields: {potential: {profile: gaussian_bump, amplitude: 1.0, width: 0}}\n"),
    ("config does not parse as YAML", RING_BUILD + "fields: {potential: [\n", "yaml"),
    ("config root must be a mapping", "- lattice\n- mass\n", "root"),
    ("mass", RING_BUILD.replace("mass: 1.0\n", "")),
    ("lattice", TORUS_BUILD.replace("[4, 4], spacings: [1.0, 1.0]", "[4], spacings: [1.0]"),
     "lattice-torus-one-size"),
    ("fields.potential", RING_BUILD + "fields: {potential: 3}\n"),
    ("fields.metric", TORUS_BUILD + "fields: {metric: {components: {'a,b': {profile: zero}}}}\n",
     "fields.metric-key-a,b"),
    ("fields.metric", TORUS_BUILD + "fields: {metric: {components: {'0,2': {profile: zero}}}}\n",
     "fields.metric-key-0,2"),
    ("fields.metric", TORUS_BUILD.replace("build", "roundtrip")
     + "fields: {metric: {components: {'0,1': {profile: constant, value: 0.1},\n"
     "                                 '1,0': {profile: constant, value: -0.2}}}}\n",
     "fields.metric-key-1,0"),
    ("fields.metric", TORUS_BUILD.replace("build", "roundtrip")
     + "fields: {metric: {components: {'0,1': {profile: constant, value: 0.1},\n"
     "                                 '0, 1': {profile: constant, value: -0.2}}}}\n",
     "fields.metric-key-0,1-twice"),
    ("fields.connection.components",
     TORUS_BUILD + "fields: {connection: {components: [{profile: zero}]}}\n",
     "fields.connection.components-one-of-two"),
    # a Chern run reads no spectral flow row, and a geodesic without a lift no time step
    ("params.check_periodicity", CHERN + ", check_periodicity: true}\n",
     "params.check_periodicity-chern"),
    ("params.alphas.count", CHERN + ", alphas: {count: 5}}\n", "params.alphas.count-chern"),
    ("params.alphas.start", CHERN + ", alphas: {start: 0.5}}\n"),
    ("tolerances.periodicity", CHERN + "}\ntolerances: {periodicity: 1.0e-30}\n"),
    ("fields.time.dt", GEODESIC + "fields: {time: {dt: 0.5}}\n"),
]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field, text", [row[:2] for row in BAD_CONFIGS],
                         ids=[row[2] if len(row) == 3 else row[0] for row in BAD_CONFIGS])
def test_bad_config_is_a_config_error_naming_its_path(tmp_path, capsys, command, field, text):
    path = write(tmp_path, "bad.yaml", text)
    args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    # a message with no path, such as the root's, is the whole "field"
    assert err.startswith(f"config error: {field}: ") or err == f"config error: {field}\n", err
    assert not (tmp_path / "out").exists()


# A fields key the task does not read, one document per task, keyed by
# the task: two of the paths are BAD_CONFIGS ids already, and a repeated
# id would rename those tests.
UNREAD_FIELDS = {
    "holonomy": ("fields.metric.components",
                 HOLONOMY + "fields: {metric: {components: {'0,0': {profile: constant, "
                 "value: 4.0}}},\n         potential: {profile: constant, value: 2.0}}\n"),
    "maxwell": ("fields.connection.components",
                GEODESIC.replace("rectangle", "cylinder").replace("geodesic", "maxwell")
                + "fields: {connection: {components: [{profile: constant, value: 0.1}, "
                "{profile: zero}]},\n         potential: {profile: constant, value: 1.0}}\n"),
    "build": ("fields.time.samples", RING_BUILD + "fields: {time: {samples: 5, dt: 0.3}}\n"),
    "geodesic": ("fields.connection.holonomies",
                 GEODESIC.replace("rectangle", "torus")
                 + "fields: {potential: {profile: constant, value: 1.0},\n"
                 "         connection: {holonomies: [0.5, 0.2]}}\n"),
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field, text", list(UNREAD_FIELDS.values()), ids=list(UNREAD_FIELDS))
def test_field_the_task_does_not_read_is_a_config_error(tmp_path, capsys, command, field, text):
    test_bad_config_is_a_config_error_naming_its_path(tmp_path, capsys, command, field, text)


@pytest.mark.parametrize("scale", ["-1", "nan", "0", "inf"])
def test_tol_scale_must_be_positive_and_finite(tmp_path, capsys, scale):
    path = write(tmp_path, "build.yaml", RING_BUILD)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--tol-scale", scale]) == 2
    assert capsys.readouterr().err.startswith("config error: --tol-scale: ")


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    path = write(tmp_path, "maxwell.yaml", MAXWELL)
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "config error: --seed: must be >= 0, got -5\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exc", [TypeError("boom"), KeyError("boom")])
def test_any_exception_during_a_run_exits_three(tmp_path, capsys, monkeypatch, exc):
    def runner(*args):
        raise exc

    monkeypatch.setitem(scenario._TASK_RUNNERS, "build", runner)
    path = write(tmp_path, "build.yaml", RING_BUILD)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {type(exc).__name__}: ")


def test_a_check_without_a_tolerance_row_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(scenario._TASK_RUNNERS, "build", lambda *args: ({}, [("bogus", 0.0)]))
    path = write(tmp_path, "build.yaml", RING_BUILD)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("error: KeyError: 'tolerances.bogus'")


def test_shipped_and_benchmark_documents_validate(tmp_path, monkeypatch):
    paths = sorted((ROOT / "scenarios").glob("*.yaml"))
    assert len(paths) >= 8
    for path in paths:
        validate_config(load_config(path))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)
    for name in workloads.WORKLOADS:
        for seed in range(3):
            ops = workloads.generate(name, seed)
            # the benchmark's set-up writes the operator files that file-route ops read
            manifest = json.loads(workloads.write_inputs(ops, tmp_path).read_text())
            workloads.prepare_operator_files(manifest, tmp_path)
            for op in ops:
                validate_config(op.doc)


CYLINDER = "lattice: {topology: cylinder, sizes: [%d, %d], spacings: [1.0, 1.0]}\nmass: 1.0\n"
TORUS = CYLINDER.replace("cylinder", "torus")

# A refusal of a library gate that the run reaches before its work, one
# per gate that `validate` once skipped; each was exit 0 under validate.
RUN_GATES = [
    pytest.param("lattice.sizes", TORUS % (64, 65) + "task: evolve\n", id="dense"),
    pytest.param("fields.connection", RING_BUILD
                 + "fields: {connection: {components: [{profile: constant, value: 2.0}]}}\n",
                 id="phase"),
    pytest.param("fields.metric", CYLINDER % (8, 8) + "task: maxwell\n"
                 'fields: {metric: {components: {"0,1": {profile: constant, value: 0.1}}}}\n',
                 id="diagonal"),
    pytest.param("params.chern_flux_quanta", CYLINDER % (8, 8)
                 + "task: holonomy\nparams: {chern_flux_quanta: 1}\n", id="chern"),
    pytest.param("lattice.topology", TORUS % (8, 8) + "task: holonomy\n", id="flow"),
    pytest.param("fields.time.samples", CYLINDER % (501, 500) + "task: maxwell\n",
                 id="default-samples"),
    pytest.param("fields.potential", RING_BUILD
                 + "fields: {potential: {profile: polynomial, coeffs: [0.0, 0.0, 1.0e+308]}}\n",
                 id="non-finite-potential"),
    pytest.param("params.hamiltonian_file", RING_BUILD.replace("build", "reconstruct")
                 + "params: {hamiltonian_file: header.txt}\n", id="operator-header"),
    pytest.param("params.hamiltonian_file", RING_BUILD.replace("build", "reconstruct")
                 + "params: {hamiltonian_file: ring6.txt}\n", id="operator-size"),
]
# The operator files that RUN_GATES rows name, relative to the working
# directory: a malformed header, and a 6x6 operator for the 8-site ring.
OPERATOR_FILES = {"header.txt": "6 x\n", "ring6.txt": "6 0\n"}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field, text", RUN_GATES)
def test_validate_calls_every_gate_the_run_reaches(tmp_path, capsys, monkeypatch, command, field,
                                                   text):
    monkeypatch.chdir(tmp_path)
    for name, body in OPERATOR_FILES.items():
        write(tmp_path, name, body)
    with np.errstate(over="ignore"):  # the polynomial overflows to inf, which the gate refuses
        test_bad_config_is_a_config_error_naming_its_path(tmp_path, capsys, command, field, text)


@pytest.mark.parametrize("text", [
    pytest.param(RING_BUILD.replace("[8]", "[4097]").replace("build", task), id=task)
    for task in ("roundtrip", "reconstruct")
] + [
    pytest.param(RING_BUILD.replace("[8]", "[4096]"), id="build-at-the-dense-limit"),
    pytest.param(CYLINDER % (8, 8) + "task: maxwell\n"
                 'fields: {metric: {components: {"1,1": {profile: constant, value: 2.0}}}}\n',
                 id="maxwell-diagonal"),
    pytest.param(CYLINDER % (500, 500) + "task: maxwell\n", id="maxwell-at-the-series-limit"),
    pytest.param(TORUS % (16, 16) + "task: holonomy\nparams: {chern_flux_quanta: 1}\n",
                 id="chern-on-a-torus"),
    pytest.param(RING_BUILD + "fields:\n", id="empty-fields-section"),
])
def test_documents_at_the_run_gates_validate(tmp_path, text):
    # negative controls: the sparse tasks have no dense gate, each bound admits
    # its edge, and an empty section reads as an absent one
    validate_config(load_config(write(tmp_path, "edge.yaml", text)))


def chern(quanta):
    return TORUS % (4, 4) + f"task: holonomy\nparams: {{chern_flux_quanta: {quanta}}}\n"


# A uniform flux of pi or more per plaquette of a 4x4 torus: the Chern
# number's principal-branch sum reads another integer.  Each validated
# (exit 0) and then failed its chern_number check under run (exit 1).
@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("quanta", [8, -8, 9])
def test_chern_flux_of_pi_per_plaquette_is_a_config_error(tmp_path, capsys, command, quanta):
    test_bad_config_is_a_config_error_naming_its_path(tmp_path, capsys, command,
                                                      "params.chern_flux_quanta", chern(quanta))


@pytest.mark.parametrize("quanta", [7, -7])
def test_chern_flux_below_pi_per_plaquette_runs_and_passes(tmp_path, quanta):
    # negative control: the largest fluxes the gate admits
    report = run_scenario(write(tmp_path, "chern.yaml", chern(quanta)), tmp_path / "out")
    assert report.passed
    assert report.payload["chern_number"] == quanta


# Pass/fail flags with a fixed tolerance of 0.5: not overridable.
FIXED_CHECKS = {"positivity", "nondegeneracy", "truncated", "chern_number"}

TASK_DOCS = {
    "build": [RING_BUILD],
    "reconstruct": [RING_BUILD.replace("build", "reconstruct")],
    "roundtrip": [RING_BUILD.replace("build", "roundtrip")],
    "geodesic": [GEODESIC + "params: {initial: {position: [1.5, 1.5]}, dt: 0.01, duration: 0.05}\n",
                 GEODESIC + "fields: {time: {samples: 3}}\nparams: {dt: 0.01, duration: 0.05}\n"],
    "maxwell": [MAXWELL + "fields: {time: {samples: 2}}\n"],
    "holonomy": [HOLONOMY.replace("[4]", "[16]")
                 + "params: {alphas: {count: 3}, check_periodicity: true}\n",
                 TORUS_BUILD.replace("build", "holonomy") + "params: {chern_flux_quanta: 1}\n"],
    "evolve": [EVOLVE + "params: {steps: 4}\n"],
}


def test_tolerance_rows_are_the_overridable_checks_of_each_task(tmp_path):
    assert set(TASK_DOCS) == set(scenario.TASKS)
    assert set(scenario.FLAGS) == FIXED_CHECKS
    # e_g and e_phi have no row default: 1e-9 under the default reference
    defaults = {key.path.split(".", 1)[1]: key.default or 1e-9 for key in scenario._KEYS
                if key.path.startswith("tolerances.")}
    overridable = 0
    for task, texts in TASK_DOCS.items():
        emitted = set()
        for i, text in enumerate(texts):
            report = run_scenario(write(tmp_path, f"{task}{i}.yaml", text), tmp_path / f"{task}{i}",
                                  tol_scale=2.0)
            emitted |= {c.name for c in report.checks}
            for c in report.checks:
                assert c.tolerance == (0.5 if c.name in FIXED_CHECKS else 2 * defaults[c.name])
        rows = {key.path.split(".", 1)[1] for key in scenario._KEYS
                if key.path.startswith("tolerances.") and task in key.tasks}
        assert emitted - FIXED_CHECKS == rows, task
        overridable += len(rows)
    assert overridable == 12


# Rows that may stay unset: a profile is optional, an operator file and a
# Chern flux choose another route, a lift may be static, and the evolve
# defaults of steps and probe_delta need H.
OPTIONAL_ROWS = {"fields.metric.components", "fields.connection.components",
                 "fields.connection.holonomies", "fields.potential", "fields.time.scale",
                 "params.hamiltonian_file", "params.chern_flux_quanta", "params.steps",
                 "params.probe_delta"}


class _Reads(dict):
    """A config that records the rows read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, path):
        self.read.add(path)
        return super().__getitem__(path)

    def get(self, path, default=None):
        self.read.add(path)
        return super().get(path, default)


def test_validate_fills_every_row_the_run_reads(tmp_path, monkeypatch):
    # the runners and the check tolerances read values, not `cfg[row] or default`
    configs = []

    def recording(doc):
        cfg, lattice, fields = validate_config(doc)
        configs.append(_Reads(cfg))
        return configs[-1], lattice, fields

    monkeypatch.setattr(scenario, "validate_config", recording)
    read = set()
    for task, texts in TASK_DOCS.items():
        for i, text in enumerate(texts):
            run_scenario(write(tmp_path, f"{task}{i}.yaml", text), tmp_path / f"{task}{i}")
            cfg = configs[-1]
            unset = sorted(path for path in cfg.read - OPTIONAL_ROWS if dict.get(cfg, path) is None)
            assert unset == [], (task, i)
            read |= cfg.read
    # the rows whose defaults depend on other values
    assert {"fields.time.samples", "fields.time.dt", "params.initial.position",
            "params.initial.velocity", "tolerances.e_g", "tolerances.e_phi"} <= read


def test_schema_lists_every_table_path_and_profile_parameter(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    keys, grammar = out.split("\n\n", 1)
    listed, sections = set(), []
    for line in keys.splitlines():
        if line.startswith("#"):
            continue
        depth = (len(line) - len(line.lstrip())) // 2
        name, rest = line.strip().split(":", 1)
        sections[depth:] = [name]
        if rest.strip().startswith("<"):
            listed.add(".".join(sections))
    assert listed == {key.path for key in scenario._KEYS}
    for kind, params in _PROFILES.items():
        line = next(g for g in grammar.splitlines() if f"{{profile: {kind}" in g)
        for key in params:
            assert f"{key.path}: <{key.kind}" in line, kind



# Per bounded run size: its document, the value at its bound (ring (4,)
# and interval (4,) have 4 sites, torus (8, 8) 64) and the bound the
# message names.
OVER_BOUND = [
    pytest.param("params.alphas.count", HOLONOMY + "params: {alphas: {count: %d}}\n",
                 scenario.FLOW_LIMIT // 4, scenario.FLOW_LIMIT, id="params.alphas.count"),
    pytest.param("params.ensembles", MAXWELL + "params: {ensembles: %d}\n",
                 scenario.ENSEMBLE_LIMIT, scenario.ENSEMBLE_LIMIT, id="params.ensembles"),
    pytest.param("fields.time.samples", MAXWELL + "fields: {time: {samples: %d}}\n",
                 scenario.SERIES_LIMIT // 4, scenario.SERIES_LIMIT,
                 id="fields.time.samples-maxwell"),
    pytest.param("fields.time.samples",
                 "lattice: {topology: torus, sizes: [8, 8], spacings: [1.0, 1.0]}\nmass: 1.0\n"
                 "task: geodesic\nfields: {time: {samples: %d}}\n",
                 scenario.SERIES_LIMIT // 64, scenario.SERIES_LIMIT,
                 id="fields.time.samples-geodesic"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field, text, at, limit", OVER_BOUND)
def test_run_size_above_its_bound_is_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                             command, field, text, at, limit):
    def reached(*args, **kwargs):
        raise AssertionError("the bounded work started")

    monkeypatch.setattr(scenario.holonomy, "ab_spectrum", reached)
    monkeypatch.setattr(scenario, "_random_series", reached)
    monkeypatch.setattr(scenario.maxwell, "build_spacetime_complex", reached)
    monkeypatch.setattr(scenario.geometry, "lorentzian_lift", reached)
    path = write(tmp_path, "big.yaml", text % (at + 1))
    args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and str(limit) in err, err
    assert not (tmp_path / "out").exists()
    assert main(["validate", str(write(tmp_path, "edge.yaml", text % at))]) == 0
