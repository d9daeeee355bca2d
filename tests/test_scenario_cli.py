import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeError,
    LatticeMetricInterpolant,
    LatticeSpec,
    OperatorError,
    SpacetimeMetric,
    Trajectory,
    build_hamiltonian,
    build_lattice,
    constant_metric,
    evolution,
    holonomy,
    lorentzian_lift,
    maxwell,
    operators,
    reconstruct,
    scenario,
    zeroth_residual,
)
from geomqm.cli import main
from geomqm.operators import HermitianOperator, _asmat, link_couplings
from geomqm.scenario import ConfigError, load_config, run_scenario, validate_config

ROUNDTRIP_YAML = """\
# discrete round trip on a cylinder
lattice:
  topology: cylinder
  sizes: [12, 12]
  spacings: [1.0, 1.0]
mass: 1.0
task: roundtrip
seed: 11
fields:
  metric:
    components:
      "0,0": {profile: sine, base: 1.0, amplitude: 0.3, axis: 0}
      "0,1": {profile: constant, value: 0.1}
      "1,1": {profile: sine, base: 1.2, amplitude: 0.2, axis: 1}
  connection:
    components:
      - {profile: constant, value: 0.04}
      - {profile: zero}
    holonomies: [1.0471975511965976]
  potential: {profile: gaussian_bump, amplitude: 0.5, axis: 0}
"""

HOLONOMY_YAML = """\
lattice: {topology: ring, sizes: [4], spacings: [1.0]}
mass: 1.0
task: holonomy
params:
  alphas: {start: 0.0, stop: 3.141592653589793, count: 5}
"""


EVOLVE_YAML = """\
lattice: {topology: interval, sizes: [24], spacings: [1.0]}
mass: 1.0
task: evolve
fields: {potential: {profile: gaussian_bump, amplitude: 0.5, axis: 0}}
params: {duration: 1.0, steps: 10, probe_delta: 0.1}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_validate_accepts_good_config(tmp_path):
    path = write(tmp_path, "rt.yaml", ROUNDTRIP_YAML)
    validate_config(load_config(path))


def test_malformed_config_names_the_field(tmp_path):
    path = write(tmp_path, "bad.yaml",
                 "lattice: {topology: ring, sizes: [8], spacings: [1.0]}\n"
                 "mass: -2.0\ntask: build\n")
    with pytest.raises(ConfigError) as err:
        validate_config(load_config(path))
    assert "mass" in str(err.value)


def test_unknown_task_rejected(tmp_path):
    path = write(tmp_path, "bad.yaml",
                 "lattice: {topology: ring, sizes: [8], spacings: [1.0]}\n"
                 "mass: 1.0\ntask: frobnicate\n")
    with pytest.raises(ConfigError) as err:
        validate_config(load_config(path))
    assert "task" in str(err.value)


def test_roundtrip_scenario_passes(tmp_path):
    path = write(tmp_path, "rt.yaml", ROUNDTRIP_YAML)
    report = run_scenario(path, tmp_path / "out")
    assert report.passed
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    # frozen report interface
    assert set(doc["payload"]["errors"]) == {"e_g", "e_F", "e_phi"}
    assert doc["payload"]["errors"]["e_g"] <= 1e-9
    assert {"positivity", "nondegeneracy", "cure_max", "commutant"} <= set(
        doc["payload"]["axioms"]
    )
    assert "g_rec" in doc["payload"] and "A_rec_tree_gauge" in doc["payload"]
    assert "phi_rec" in doc["payload"]


def float_bits(value):
    """value with every float as its exact hex spelling and every sequence as a list"""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: float_bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_bits(item) for item in value]
    return value


def test_report_json_is_one_compact_line_holding_every_value(tmp_path):
    report = run_scenario(write(tmp_path, "rt.yaml", ROUNDTRIP_YAML), tmp_path / "out")
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert text == json.dumps(report.to_dict(), sort_keys=True) + "\n"
    assert text.count("\n") == 1
    # the same document back, every float bit for bit (the payload's link rows are tuples)
    assert float_bits(json.loads(text)) == float_bits(report.to_dict())


def test_report_deterministic_modulo_wall_time(tmp_path):
    for name, text in (("rt.yaml", ROUNDTRIP_YAML), ("evolve.yaml", EVOLVE_YAML)):
        path = write(tmp_path, name, text)
        docs = []
        for sub in ("a", "b"):
            run_scenario(path, tmp_path / f"{name}.{sub}")
            doc = json.loads((tmp_path / f"{name}.{sub}" / "report.json").read_text())
            doc.pop("wall_time_s")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


def test_holonomy_spectral_flow_row_at_pi(tmp_path):
    path = write(tmp_path, "hol.yaml", HOLONOMY_YAML)
    report = run_scenario(path, tmp_path / "out")
    assert report.passed
    rows = (tmp_path / "out" / "spectral_flow.csv").read_text().splitlines()
    assert rows[0] == "alpha,lambda_1,lambda_2,lambda_3,lambda_4"
    # last row of the 5-point grid over [0, pi] sits at alpha = pi
    vals = [float(v) for v in rows[5].split(",")]
    assert abs(vals[0] - np.pi) < 1e-12
    expect = sorted([1 - np.sqrt(2) / 2, 1 - np.sqrt(2) / 2,
                     1 + np.sqrt(2) / 2, 1 + np.sqrt(2) / 2])
    assert np.max(np.abs(np.array(vals[1:]) - expect)) < 1e-10


def test_cli_run_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "rt.yaml", ROUNDTRIP_YAML)
    assert main(["run", str(good), "--out", str(tmp_path / "out")]) == 0
    bad = write(tmp_path, "bad.yaml",
                "lattice: {topology: ring, sizes: [2], spacings: [1.0]}\n"
                "mass: 1.0\ntask: build\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out2")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_validate_and_schema(tmp_path, capsys):
    good = write(tmp_path, "rt.yaml", ROUNDTRIP_YAML)
    assert main(["validate", str(good)]) == 0
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    assert "lattice:" in out and "Exit codes" in out


def test_cli_failing_check_exits_one(tmp_path):
    # impossible tolerance forces a check failure
    text = ROUNDTRIP_YAML + "tolerances: {e_g: 1.0e-30}\n"
    path = write(tmp_path, "strict.yaml", text)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    # e_g is exactly zero only for constant fields; with sine metric the
    # rounding floor sits above 1e-30
    assert code == 1


def test_cli_tol_scale(tmp_path):
    text = ROUNDTRIP_YAML + "tolerances: {e_g: 1.0e-30}\n"
    path = write(tmp_path, "strict.yaml", text)
    assert main(["run", str(path), "--out", str(tmp_path / "out"),
                 "--tol-scale", "1e30"]) == 0


def test_build_task_dump_is_loadable(tmp_path):
    text = (
        "lattice: {topology: torus, sizes: [5, 5], spacings: [1.0, 1.0]}\n"
        "mass: 2.0\ntask: build\n"
        "fields:\n"
        "  metric: {components: {'0,1': {profile: constant, value: 0.2}}}\n"
        "  potential: {profile: constant, value: 1.5}\n"
    )
    path = write(tmp_path, "build.yaml", text)
    report = run_scenario(path, tmp_path / "out")
    assert report.passed
    from geomqm import hermiticity_defect, load_operator

    H = load_operator(tmp_path / "out" / "hamiltonian.txt")
    assert H.mat.shape[0] == 25
    assert hermiticity_defect(H) < 1e-12


def test_maxwell_task_writes_cochains(tmp_path):
    text = (
        "lattice: {topology: cylinder, sizes: [6, 5], spacings: [1.0, 1.0]}\n"
        "mass: 1.0\ntask: maxwell\nseed: 3\n"
        "fields: {time: {samples: 4, dt: 0.5}}\n"
        "params: {ensembles: 2, amplitude: 0.3}\n"
    )
    path = write(tmp_path, "mx.yaml", text)
    report = run_scenario(path, tmp_path / "out")
    assert report.passed
    assert [c.name for c in report.checks] == ["dF", "continuity", "double_star"]
    lines = (tmp_path / "out" / "cochains.csv").read_text().splitlines()
    assert lines[0].startswith("# complex=")
    assert lines[1] == "cochain,degree,cell_id,value"
    names = {line.split(",")[0] for line in lines[2:]}
    assert names == {"potential", "field_strength", "current"}


def test_maxwell_task_builds_one_star_per_lift_sign(tmp_path, monkeypatch):
    # the stars are built before the ensemble loop, not per ensemble
    calls = []
    factors = maxwell.hodge_factors

    def counting(cx, metric=None):
        calls.append(metric.g00)
        return factors(cx, metric)

    monkeypatch.setattr(maxwell, "hodge_factors", counting)
    path = write(tmp_path, "mx.yaml", RING6 + "task: maxwell\nparams: {ensembles: 3}\n")
    assert run_scenario(path, tmp_path / "out").passed
    assert calls == [-1.0, 1.0]


def _random_series_by_sample(lattice, samples, amplitude, rng):
    # the oracle: one sample at a time, its canonical link phases, then its site potentials
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


@pytest.mark.parametrize("topology, sizes, samples, amplitude", [
    ("interval", (5,), 3, 0.3), ("ring", (7,), 1, 0.0), ("cylinder", (6, 5), 4, 0.3),
    ("torus", (4, 6), 2, 1.7), ("box3", (3, 4, 3), 3, 0.3),
])
def test_random_series_draws_the_stream_of_the_per_sample_loop(topology, sizes, samples,
                                                               amplitude):
    lat = build_lattice(LatticeSpec(topology, sizes, (1.0,) * len(sizes)))
    rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2):  # two ensembles: the second starts where the first left the generator
        A, phi = scenario._random_series(lat, samples, amplitude, rng)
        A_want, phi_want = _random_series_by_sample(lat, samples, amplitude, oracle_rng)
        assert A.shape == (samples, lat.n_links) and phi.shape == (samples, lat.n_sites)
        assert A.tobytes() == np.array(A_want).tobytes()
        assert phi.tobytes() == np.array(phi_want).tobytes()
        assert phi.base is None  # a copy, not a view that keeps the draw alive
    assert rng.normal(size=3).tobytes() == oracle_rng.normal(size=3).tobytes()


def test_geodesic_task_trajectory_csv(tmp_path):
    text = (
        "lattice: {topology: rectangle, sizes: [8, 8], spacings: [1.0, 1.0]}\n"
        "mass: 1.0\ntask: geodesic\n"
        "fields:\n"
        "  metric:\n"
        "    components:\n"
        "      '1,1': {profile: polynomial, coeffs: [0.0, 0.0, 1.0], axis: 0}\n"
        "params:\n"
        "  initial: {position: [3.0, 1.0], velocity: [-0.1, 0.15]}\n"
        "  dt: 0.001\n"
        "  duration: 2.0\n"
    )
    path = write(tmp_path, "geo.yaml", text)
    report = run_scenario(path, tmp_path / "out")
    assert report.passed
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q_1,q_2,v_1,v_2,speed2,residual0"
    assert len(lines) > 10


def test_seed_echoed_and_overridable(tmp_path):
    path = write(tmp_path, "rt.yaml", ROUNDTRIP_YAML)
    rep = run_scenario(path, tmp_path / "o1")
    assert rep.seed == 11
    rep2 = run_scenario(path, tmp_path / "o2", seed=99)
    assert rep2.seed == 99


def test_shipped_example_scenarios_pass(tmp_path):
    import pathlib

    scen_dir = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    paths = sorted(scen_dir.glob("*.yaml"))
    assert len(paths) >= 7  # one example per task
    for path in paths:
        report = run_scenario(path, tmp_path / path.stem)
        assert report.passed, f"{path.name} failed: {[c.name for c in report.checks if not c.passed]}"


def test_reconstruct_task_from_operator_file(tmp_path):
    build_text = (
        "lattice: {topology: ring, sizes: [12], spacings: [0.5]}\n"
        "mass: 1.0\ntask: build\n"
        "fields:\n"
        "  connection: {holonomies: [0.9]}\n"
        "  potential: {profile: constant, value: 0.7}\n"
    )
    build_path = write(tmp_path, "build.yaml", build_text)
    assert run_scenario(build_path, tmp_path / "built").passed
    dump = tmp_path / "built" / "hamiltonian.txt"
    rec_text = (
        "lattice: {topology: ring, sizes: [12], spacings: [0.5]}\n"
        "mass: 1.0\ntask: reconstruct\n"
        f"params: {{hamiltonian_file: '{dump}'}}\n"
    )
    rec_path = write(tmp_path, "rec.yaml", rec_text)
    report = run_scenario(rec_path, tmp_path / "rec")
    assert report.passed
    phi = np.asarray(report.payload["phi_rec"])
    assert np.max(np.abs(phi - 0.7)) < 1e-10


def test_unknown_profile_names_the_path(tmp_path):
    text = (
        "lattice: {topology: ring, sizes: [8], spacings: [1.0]}\n"
        "mass: 1.0\ntask: build\n"
        "fields: {potential: {profile: wavelet, scale: 2}}\n"
    )
    path = write(tmp_path, "bad.yaml", text)
    with pytest.raises(ConfigError) as err:
        validate_config(load_config(path))
    assert "wavelet" in str(err.value)


def test_maxwell_report_deterministic(tmp_path):
    text = (
        "lattice: {topology: cylinder, sizes: [6, 5], spacings: [1.0, 1.0]}\n"
        "mass: 1.0\ntask: maxwell\nseed: 17\n"
        "fields: {time: {samples: 4, dt: 0.5}}\n"
        "params: {ensembles: 3, amplitude: 0.3}\n"
    )
    path = write(tmp_path, "mx.yaml", text)
    payloads = []
    for sub in ("a", "b"):
        run_scenario(path, tmp_path / sub)
        doc = json.loads((tmp_path / sub / "report.json").read_text())
        doc.pop("wall_time_s")
        payloads.append(json.dumps(doc, sort_keys=True))
        csv_a = (tmp_path / sub / "cochains.csv").read_bytes()
        payloads.append(csv_a)
    assert payloads[0] == payloads[2] and payloads[1] == payloads[3]


def test_geodesic_task_time_dependent_residual_column(tmp_path):
    text = (
        "lattice: {topology: rectangle, sizes: [8, 8], spacings: [1.0, 1.0]}\n"
        "mass: 1.0\ntask: geodesic\n"
        "fields:\n"
        "  metric: {components: {}}\n"
        "  time:\n"
        "    samples: 5\n"
        "    dt: 0.5\n"
        "    scale: {profile: linear, rate: 0.02}\n"
        "params:\n"
        "  initial: {position: [2.0, 2.0], velocity: [0.4, 0.3]}\n"
        "  dt: 0.01\n"
        "  duration: 2.0\n"
    )
    path = write(tmp_path, "geo.yaml", text)
    report = run_scenario(path, tmp_path / "out")
    assert report.passed
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    # flat metric scaled by (1 + 0.02 t): residual = rate |v|^2 / 2
    assert abs(last[-1] - 0.5 * 0.02 * 0.25) < 1e-6
    # the same five samples without a scale lift a static metric: residual0 reads 0
    static = text.replace("    scale: {profile: linear, rate: 0.02}\n", "")
    path = write(tmp_path, "static.yaml", static)
    assert run_scenario(path, tmp_path / "static").passed
    rows = (tmp_path / "static" / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 201 and {row.rsplit(",", 1)[1] for row in rows} == {"0"}


def test_cli_reconstruct_wrong_size_operator_file(tmp_path, capsys):
    # the shipped 24-site reconstruct scenario pointed at a 64-site dump
    import pathlib

    import yaml

    from geomqm import (
        LatticeSpec,
        build_hamiltonian,
        build_lattice,
        constant_metric,
        save_operator,
    )

    big = build_lattice(LatticeSpec("ring", (64,), (0.5,)))
    dump = tmp_path / "ring64.txt"
    save_operator(dump, build_hamiltonian(big, constant_metric(big), None, None, 1.0))
    shipped = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "reconstruct.yaml"
    doc = yaml.safe_load(shipped.read_text(encoding="utf-8"))
    doc["params"] = {"hamiltonian_file": str(dump)}
    path = write(tmp_path, "rec.yaml", yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "operator is 64x64 but the lattice has 24 sites" in err


@pytest.mark.parametrize("topology, sizes", [("ring", "[8]"), ("cylinder", "[4, 4]")])
def test_chern_task_off_a_torus_is_a_config_error(tmp_path, capsys, topology, sizes):
    spacings = ", ".join(["1.0"] * sizes.count(",") + ["1.0"])
    path = write(tmp_path, "chern.yaml",
                 f"lattice: {{topology: {topology}, sizes: {sizes}, spacings: [{spacings}]}}\n"
                 "mass: 1.0\ntask: holonomy\nparams: {chern_flux_quanta: 1}\n")
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: params.chern_flux_quanta: Chern number needs a closed 2D "
                     "lattice (torus)") == 2
    assert not (tmp_path / "out").exists()


def test_cli_domain_error_exits_three(tmp_path, capsys):
    # only the run reads the operator file: a coupling of sites 0 and 3 of a
    # ring of 8 lies off the range-1 stencil
    from geomqm import save_operator

    ring = build_lattice(LatticeSpec("ring", (8,), (1.0,)))
    mat = sp.lil_matrix(build_hamiltonian(ring, constant_metric(ring), None, None, 1.0).mat.toarray())
    mat[0, 3] = mat[3, 0] = -0.25
    save_operator(tmp_path / "far.txt", mat)
    path = write(tmp_path, "rec.yaml",
                 "lattice: {topology: ring, sizes: [8], spacings: [1.0]}\nmass: 1.0\n"
                 f"task: reconstruct\nparams: {{hamiltonian_file: '{tmp_path / 'far.txt'}'}}\n")
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: LocalityViolation: ")


def test_schema_names_every_param_and_exit_code(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    assert "  eta: <float>" in out and "  check_periodicity: <bool>" in out
    assert "3 numerical or domain error" in out
    flags = out[out.index("The pass/fail flags"):out.index("Exit codes")]
    for name in ("positivity", "nondegeneracy", "truncated", "chern_number"):
        assert name in flags
    assert "fixed tolerance 0.5, not scaled" in flags


def test_roundtrip_run_evaluates_profiles_once(tmp_path, monkeypatch):
    import geomqm.profiles as profiles

    evaluations = []
    original = profiles.resolve_profile

    def counting(spec, lattice, path="profile"):
        fn = original(spec, lattice, path)

        def counted(X):
            evaluations.append(path)
            return fn(X)

        return counted

    monkeypatch.setattr(profiles, "resolve_profile", counting)
    run_scenario(write(tmp_path, "rt.yaml", ROUNDTRIP_YAML), tmp_path / "out")
    # 3 metric components, 2 connection components, 1 potential
    assert sorted(evaluations) == sorted(set(evaluations)) and len(evaluations) == 6


def test_geodesic_run_metric_lower_calls(tmp_path, monkeypatch):
    from geomqm import geometry

    calls, depth = [], []
    for cls in (geometry.AnalyticMetric, geometry.LatticeMetricInterpolant):
        for method in ("evaluate", "lower"):
            # a provider call made from outside the providers counts once,
            # whichever of its own methods it calls in turn
            def counting(self, q, _original=getattr(cls, method)):
                if not depth:
                    calls.append(1)
                depth.append(1)
                try:
                    return _original(self, q)
                finally:
                    depth.pop()

            monkeypatch.setattr(cls, method, counting)
    text = (
        "lattice: {topology: torus, sizes: [8, 8], spacings: [1.0, 1.0]}\n"
        "mass: 1.0\ntask: geodesic\n"
        "fields:\n"
        "  metric: {components: {\"0,0\": {profile: sine, base: 1.0, amplitude: 0.2, axis: 0}}}\n"
        "  time: {samples: 5, scale: {profile: linear, rate: 0.1}}\n"
        "params: {initial: {position: [1.0, 2.0], velocity: [0.3, 0.1]}, dt: 0.01, duration: 0.5}\n"
    )
    run_scenario(write(tmp_path, "geo.yaml", text), tmp_path / "out")
    # 4 christoffel calls per RK4 step, one evaluate each; speed^2; one per time sample
    assert len(calls) <= 4 * 50 + 1 + 5


def test_unknown_roundtrip_reference_is_a_config_error(tmp_path, capsys):
    # a typo used to run the pointwise comparison at its loose tolerances
    path = write(tmp_path, "rt.yaml",
                 "lattice: {topology: torus, sizes: [6, 6], spacings: [1.0, 1.0]}\n"
                 "mass: 1.0\ntask: roundtrip\nparams: {reference: link-average}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "params.reference" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis", [2, -1])
def test_profile_axis_outside_the_lattice_is_a_config_error(tmp_path, capsys, axis):
    path = write(tmp_path, "build.yaml",
                 "lattice: {topology: torus, sizes: [4, 4], spacings: [1.0, 1.0]}\n"
                 "mass: 1.0\ntask: build\n"
                 f"fields: {{potential: {{profile: sine, amplitude: 0.1, axis: {axis}}}}}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "fields.potential" in err and "axis" in err


@pytest.mark.parametrize("field, text", [
    ("params", "params: 3\n"),
    ("fields", "fields: 3\n"),
    ("fields.time", "fields: {time: [4]}\n"),
])
def test_non_mapping_section_is_a_config_error(tmp_path, capsys, field, text):
    path = write(tmp_path, "evolve.yaml",
                 "lattice: {topology: interval, sizes: [8], spacings: [1.0]}\n"
                 "mass: 1.0\ntask: evolve\n" + text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}: expected mapping" in capsys.readouterr().err


# a row of the 8x8 torus dump of scenarios/build.yaml, keyed by "i j",
# replaced or appended; the error names the first edited line
MALFORMED_OPERATOR_ROWS = {
    "nan_diagonal": ({"0 0": "0 0 nan 0"}, []),
    "nan_pair": ({"0 1": "0 1 nan 0", "1 0": "1 0 nan 0"}, []),
    "repeated_row": ({}, ["0 0"]),
    "non_numeric": ({}, ["x 0 1 0"]),
    "index_out_of_range": ({}, ["64 0 1 0"]),
    "fractional_index": ({}, ["1.5 0 1 0"]),
    "field_count": ({"0 1": "0 1 0.5"}, []),
}


@pytest.mark.parametrize("case", MALFORMED_OPERATOR_ROWS)
def test_malformed_operator_file_exits_three_naming_the_line(tmp_path, capsys, case):
    import pathlib

    import yaml

    shipped = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "build.yaml"
    run_scenario(shipped, tmp_path / "built")
    header, *rows = (tmp_path / "built" / "hamiltonian.txt").read_text().splitlines()
    at = {" ".join(row.split()[:2]): r for r, row in enumerate(rows)}
    replace, append = MALFORMED_OPERATOR_ROWS[case]
    for key, row in replace.items():
        rows[at[key]] = row
    rows += [rows[at[row]] if row in at else row for row in append]
    first = min([at[key] for key in replace] or [len(rows) - 1])
    dump = tmp_path / "edited.txt"
    dump.write_text(f"{header.split()[0]} {len(rows)}\n" + "\n".join(rows) + "\n")
    doc = yaml.safe_load(shipped.read_text(encoding="utf-8"))
    doc.update(task="reconstruct", params={"hamiltonian_file": str(dump)})
    path = write(tmp_path, "rec.yaml", yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: OperatorError: ") and "edited.txt" in err
    assert f"line {first + 2}:" in err, err


@pytest.mark.parametrize("lattice, params", [
    ("{topology: ring, sizes: [4], spacings: [1.0]}", "{}"),
    ("{topology: ring, sizes: [8], spacings: [1.0]}", "{check_periodicity: true}"),
    ("{topology: cylinder, sizes: [4, 5], spacings: [1.0, 1.0]}", "{}"),
], ids=["ring4", "ring8-periodicity", "cylinder4x5"])
def test_holonomy_flux_past_the_builder_phase_window(tmp_path, lattice, params):
    # the default grid reaches alpha / N >= pi/2 on these lattices
    path = write(tmp_path, "hol.yaml",
                 f"lattice: {lattice}\nmass: 1.0\ntask: holonomy\nparams: {params}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks = {c["name"]: c["value"] for c in report["checks"]}
    assert checks.keys() == ({"periodicity"} if "check_periodicity" in params else set())
    assert checks.get("periodicity", 0.0) <= 1e-9


def test_cli_build_above_the_dense_limit_is_a_config_error(tmp_path, capsys):
    # the spectrum is dense; 4097 sites is refused before the eigensolve
    path = write(tmp_path, "build.yaml",
                 "lattice: {topology: ring, sizes: [4097], spacings: [1.0]}\n"
                 "mass: 1.0\ntask: build\n")
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: lattice.sizes: dimension 4097 exceeds the dense limit "
                     "4096") == 2
    assert not (tmp_path / "out").exists()


def test_cli_reconstruct_of_a_flipped_coupling_fails_its_checks(tmp_path, capsys):
    # negative control: a saved build with the (0, 1) coupling's sign
    # flipped gives a negative metric on that link
    from geomqm import load_operator, save_operator

    ring = "lattice: {topology: ring, sizes: [8], spacings: [1.0]}\nmass: 1.0\n"
    build = write(tmp_path, "build.yaml", ring + "task: build\n")
    assert main(["run", str(build), "--out", str(tmp_path / "built")]) == 0
    mat = load_operator(tmp_path / "built" / "hamiltonian.txt").mat
    pair = ((mat.row == 0) & (mat.col == 1)) | ((mat.row == 1) & (mat.col == 0))
    assert pair.sum() == 2
    mat.data[pair] = -mat.data[pair].real + 1j * mat.data[pair].imag
    flipped = tmp_path / "flipped.txt"
    save_operator(flipped, mat)
    rec = write(tmp_path, "rec.yaml",
                ring + f"task: reconstruct\nparams: {{hamiltonian_file: '{flipped}'}}\n")
    capsys.readouterr()
    assert main(["run", str(rec), "--out", str(tmp_path / "rec")]) == 1
    out = capsys.readouterr().out
    assert "FAIL positivity:" in out and "FAIL nondegeneracy:" in out


def test_cli_coarse_geodesic_fails_speed2_drift(tmp_path, capsys):
    # negative control: an RK4 step of 1 on a metric that varies over 16
    # sites drifts g(q_dot, q_dot) by 1.1e-7 against 1e-8
    path = write(tmp_path, "geo.yaml", """\
lattice: {topology: torus, sizes: [16, 16], spacings: [1.0, 1.0]}
mass: 1.0
task: geodesic
fields:
  metric:
    components:
      "0,0": {profile: sine, base: 1.0, amplitude: 0.6, axis: 0}
      "1,1": {profile: sine, base: 1.0, amplitude: 0.3, axis: 1}
params:
  initial: {position: [3.0, 1.0], velocity: [0.5, 0.3]}
  dt: 1.0
  duration: 40.0
""")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "FAIL speed2_drift:" in out and "PASS truncated:" in out


@pytest.mark.parametrize("topology, sizes", [
    ("interval", [4]), ("rectangle", [4, 4]), ("cylinder", [4, 4]),
])
def test_cli_default_geodesic_from_an_open_corner_stays_in_the_chart(tmp_path, capsys,
                                                                      topology, sizes):
    # the default run starts at the origin, on every open edge, and moves
    # along axis 0 to x = 1; the difference stencil there reaches eta past
    # the edge, which must not count as leaving the lattice
    spacings = [1.0] * len(sizes)
    path = write(tmp_path, "geo.yaml", f"""\
lattice: {{topology: {topology}, sizes: {sizes}, spacings: {spacings}}}
mass: 1.0
task: geodesic
""")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "PASS truncated:" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["payload"]["truncated"] is False
    assert np.allclose(report["payload"]["final_position"], [1.0] + [0.0] * (len(sizes) - 1))


def test_cli_geodesic_leaving_an_open_lattice_fails_truncated(tmp_path, capsys):
    # negative control: on the flat metric the geodesic would reach x = 23,
    # far past the rectangle's edge at x = 7
    path = write(tmp_path, "geo.yaml", """\
lattice: {topology: rectangle, sizes: [8, 8], spacings: [1.0, 1.0]}
mass: 1.0
task: geodesic
params:
  initial: {position: [3.0, 1.0], velocity: [5.0, 0.0]}
  dt: 0.01
  duration: 4.0
""")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "FAIL truncated:" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["payload"]["truncated"] is True
    assert report["payload"]["final_position"][0] <= 7.0


def test_cli_pointwise_roundtrip_fails_e_g(tmp_path, capsys):
    # negative control: the metric is recovered as link averages, which
    # miss the site values by O(h^2); with six sites to a sine period that
    # is 0.108 against 0.01
    path = write(tmp_path, "rt.yaml", """\
lattice: {topology: ring, sizes: [6], spacings: [1.0]}
mass: 1.0
task: roundtrip
fields:
  metric:
    components:
      "0,0": {profile: sine, base: 1.0, amplitude: 0.5, axis: 0}
  potential: {profile: sine, amplitude: 0.5, axis: 0}
params: {reference: pointwise}
""")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "FAIL e_g:" in out
    assert all(f"PASS {name}:" in out for name in ("e_F", "e_phi", "positivity"))


def test_probe_delta_above_half_the_duration_is_a_config_error(tmp_path, capsys):
    text = EVOLVE_YAML.replace("probe_delta: 0.1", "probe_delta: 0.6")
    path = write(tmp_path, "evolve.yaml", text)
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: params.probe_delta: must be <= params.duration / 2" in err
    # at exactly half the duration the residual starts from t - probe_delta = 0
    path = write(tmp_path, "edge.yaml", EVOLVE_YAML.replace("probe_delta: 0.1", "probe_delta: 0.5"))
    assert main(["run", str(path), "--out", str(tmp_path / "edge")]) == 0
    payload = json.loads((tmp_path / "edge" / "report.json").read_text())["payload"]
    assert 0 < payload["heisenberg_residual"] < 1


GEODESIC_TORUS = ("lattice: {topology: torus, sizes: [8, 8], spacings: [1.0, 1.0]}\n"
                  "mass: 1.0\ntask: geodesic\n")


@pytest.mark.parametrize("dt, duration, message", [
    ("0.5", "0.25", "params.dt: need dt > 0 and T >= dt"),
    ("1.0e-12", "4.0", "params.dt: T / dt = 4e+12 RK4 steps exceeds the step limit 1000000"),
    ("0.25", "250000.25", "params.dt: T / dt = 1000001 RK4 steps exceeds the step limit"),
])
def test_geodesic_step_count_outside_its_bounds_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                                   dt, duration, message):
    monkeypatch.setattr(scenario.geometry, "geodesic_integrate",
                        lambda *args, **kwargs: pytest.fail("the geodesic was integrated"))
    path = write(tmp_path, "geo.yaml",
                 GEODESIC_TORUS + f"params: {{dt: {dt}, duration: {duration}}}\n")
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"config error: {message}") == 2
    assert not (tmp_path / "out").exists()
    # exactly at the limit the document validates
    path = write(tmp_path, "edge.yaml", GEODESIC_TORUS + "params: {dt: 0.25, duration: 250000.0}\n")
    assert main(["validate", str(path)]) == 0


def test_missing_hamiltonian_file_is_a_config_error_naming_the_key(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    path = write(tmp_path, "rec.yaml", "lattice: {topology: ring, sizes: [12], spacings: [0.5]}\n"
                 f"mass: 1.0\ntask: reconstruct\nparams: {{hamiltonian_file: '{missing}'}}\n")
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: params.hamiltonian_file: no such file {str(missing)!r}"] * 2


RING6 = "lattice: {topology: ring, sizes: [6], spacings: [1.0]}\nmass: 1.0\n"
NAN_METRIC = 'fields: {metric: {components: {"0,0": {profile: constant, value: .nan}}}}\n'


@pytest.mark.parametrize("task, fields, path", [
    ("maxwell", NAN_METRIC, "fields.metric.components.0,0.value"),
    ("roundtrip", NAN_METRIC, "fields.metric.components.0,0.value"),
    ("build", NAN_METRIC, "fields.metric.components.0,0.value"),
    ("roundtrip", "fields: {potential: {profile: sine, amplitude: .inf, axis: 0}}\n",
     "fields.potential.amplitude"),
])
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, task, fields, path):
    # YAML's .nan and .inf used to reach the numerics: maxwell passed,
    # roundtrip failed e_g or e_phi with nan, build died inside scipy
    doc = write(tmp_path, "doc.yaml", RING6 + f"task: {task}\n" + fields)
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: expected a finite float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _bad_metric(topology, sizes, entries, value):
    lat = build_lattice(LatticeSpec(topology, sizes, (1.0,) * len(sizes)))
    g = constant_metric(lat)
    for k, l in entries:
        g[1, k, l] = value
    return lat, g


def _validate_with_metric(monkeypatch, lat, g):
    monkeypatch.setattr(scenario, "metric_from_profiles", lambda lattice, spec: g)
    spec = lat.spec
    validate_config({"lattice": {"topology": spec.topology, "sizes": list(spec.sizes),
                                 "spacings": list(spec.spacings)},
                     "mass": 1.0, "task": "build"})


def _zeroth_residual_with_metric(monkeypatch, lat, g):
    # a hand-made series skips the lift's gate; the interpolant of each
    # sample that a difference reads applies it
    times = np.arange(3.0)
    st = SpacetimeMetric(lat, times, np.array([g, 2.0 * g, 3.0 * g]))
    ones = np.ones((3, lat.ndim))
    zeroth_residual(st, Trajectory(times, 0.5 * ones, ones, np.ones(3)))


@pytest.mark.parametrize("refuse, error", [
    (lambda mp, lat, g: link_couplings(lat, g, 1.0), LatticeError),
    (lambda mp, lat, g: LatticeMetricInterpolant(lat, g), LatticeError),
    (lambda mp, lat, g: lorentzian_lift(lat, g), LatticeError),
    (_zeroth_residual_with_metric, LatticeError),
    (_validate_with_metric, ConfigError),
], ids=["link_couplings", "interpolant", "lorentzian_lift", "zeroth_residual",
        "validate_config"])
@pytest.mark.parametrize("topology, sizes, entries, value", [
    ("ring", (6,), [(0, 0)], np.nan),
    ("torus", (4, 4), [(0, 1), (1, 0)], np.nan),
    ("torus", (4, 4), [(0, 1)], 5.0),
], ids=["ring", "torus-cross", "torus-asymmetric"])
def test_nan_metric_entry_fails_every_positivity_test(monkeypatch, refuse, error,
                                                       topology, sizes, entries, value):
    # np.min(eigvalsh(g)) <= 0 is False for a NaN minimum, which eigvalsh
    # returns for the first two; eigvalsh reads only the lower triangle, so
    # it passes the third, whose upper entry the diagonal links read
    lat, g = _bad_metric(topology, sizes, entries, value)
    with pytest.raises(error, match="symmetric positive definite"):
        refuse(monkeypatch, lat, g)


@pytest.mark.parametrize("refuse, error, prefix", [
    (lambda mp, lat, g: build_hamiltonian(lat, g, None, None, 1.0), LatticeError, ""),
    (lambda mp, lat, g: LatticeMetricInterpolant(lat, g), LatticeError, ""),
    (lambda mp, lat, g: lorentzian_lift(lat, g), LatticeError, ""),
    (_zeroth_residual_with_metric, LatticeError, ""),
    (_validate_with_metric, ConfigError, "fields.metric: "),
], ids=["build_hamiltonian", "interpolant", "lorentzian_lift", "zeroth_residual",
        "validate_config"])
@pytest.mark.parametrize("sites", [5, 10, 32])
def test_metric_of_another_site_count_fails_every_entry_point(monkeypatch, refuse, error,
                                                               prefix, sites):
    # refused on entry, by shape: an unchecked interpolant indexes past a short
    # field at its first lower(), and a lift of the wrong lattice fails only later;
    # a hand-made series of 5-site samples reached the same IndexError
    lat = build_lattice(LatticeSpec("torus", (4, 4), (1.0, 1.0)))
    g = np.concatenate([constant_metric(lat)] * 2)[:sites]
    with pytest.raises(error, match=rf"^{prefix}inverse metric shape \({sites}, 2, 2\) "
                                    r"!= \(16, 2, 2\)$"):
        refuse(monkeypatch, lat, g)


def test_nan_continuity_defect_fails_the_maxwell_check(tmp_path, capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a worst-of accumulator must keep the NaN
    monkeypatch.setattr(maxwell, "continuity_defect", lambda *args: float("nan"))
    doc = write(tmp_path, "mx.yaml", RING6 + "task: maxwell\n")
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "FAIL continuity: nan" in out and "PASS dF:" in out


def _anti_hermitian_diagonal(assemble):
    def faulty(lattice, couplings, phases, diagonal):
        op = assemble(lattice, couplings, phases, diagonal)
        return HermitianOperator(_asmat(op.mat.toarray() + 1e-6j * np.eye(op.mat.shape[0])))
    return faulty


def _shifted_down(eigenvalues):
    return lambda op: eigenvalues(op) - 1.0


def _one_phase_perturbed(decompose):
    def faulty(lattice, H):
        dec = decompose(lattice, H)
        dec.phases[0] += 0.1
        dec.phases[lattice.link_reverse[0]] -= 0.1
        return dec
    return faulty


def _offset(potential):
    return lambda lattice, dec: potential(lattice, dec) + 0.1


def _one_value_perturbed(degree):
    def fault(fn):
        def faulty(*args):
            out = fn(*args)
            if out.degree == degree:
                out.values[0] += 0.1
            return out
        return faulty
    return fault


def _one_degree_doubled(degree):
    def fault(hodge_factors):
        def faulty(cx, metric=None):
            star = hodge_factors(cx, metric)
            factors = list(star.factors)
            factors[degree] = 2.0 * factors[degree]
            return replace(star, factors=tuple(factors))
        return faulty
    return fault


def _one_quantum_dropped(connection):
    return lambda lattice, quanta: connection(lattice, quanta - 1)


def _alpha_proportional_shift(spectrum):
    return lambda lattice, m, alphas: spectrum(lattice, m, alphas) + 1e-3 * alphas[:, None]


def _scaled(propagator):
    return lambda *args: 1.001 * propagator(*args)


def _quadratic_global_phase(propagator):
    # exp(-i eps (t2 - t1)^2) is unitary, but the two half-duration factors
    # carry half the phase of the full-duration one
    return lambda H, t1, t2, steps: np.exp(-1e-3j * (t2 - t1) ** 2) * propagator(H, t1, t2, steps)


TORUS44 = "lattice: {topology: torus, sizes: [4, 4], spacings: [1.0, 1.0]}\nmass: 1.0\n"


@pytest.mark.parametrize("check, doc, module, name, fault", [
    ("hermiticity", TORUS44 + "task: build\n", operators, "_assemble", _anti_hermitian_diagonal),
    ("spectrum_lower_bound", TORUS44 + "task: build\n", operators, "eigenvalues", _shifted_down),
    ("e_F", TORUS44 + "task: roundtrip\n", reconstruct, "peierls_decompose",
     _one_phase_perturbed),
    ("e_phi", TORUS44 + "task: roundtrip\n", reconstruct, "reconstruct_potential", _offset),
    ("dF", TORUS44 + "task: maxwell\n", maxwell, "d_cochain", _one_value_perturbed(2)),
    ("continuity", TORUS44 + "task: maxwell\n", maxwell, "current", _one_value_perturbed(1)),
    # D0^T D1^T = 0 keeps continuity at rounding for any star; ** reads the doubling
    ("double_star", TORUS44 + "task: maxwell\n", maxwell, "hodge_factors",
     _one_degree_doubled(1)),
    ("chern_number", TORUS44 + "task: holonomy\nparams: {chern_flux_quanta: 1}\n", holonomy,
     "_uniform_flux_connection", _one_quantum_dropped),
    ("periodicity", RING6 + "task: holonomy\nparams: {check_periodicity: true}\n", holonomy,
     "ab_spectrum", _alpha_proportional_shift),
    ("unitarity", TORUS44 + "task: evolve\n", evolution, "propagator", _scaled),
    ("composition", TORUS44 + "task: evolve\n", evolution, "propagator",
     _quadratic_global_phase),
], ids=["hermiticity", "spectrum_lower_bound", "e_F", "e_phi", "dF", "continuity",
        "double_star", "chern_number", "periodicity", "unitarity", "composition"])
def test_injected_fault_fails_its_check(tmp_path, capsys, monkeypatch, check, doc, module,
                                        name, fault):
    # negative controls: each fault breaks what its check measures
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    doc = write(tmp_path, "doc.yaml", doc)
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 1
    assert f"FAIL {check}:" in capsys.readouterr().out


def _shipped_geodesic_with_a_time_series():
    import pathlib

    import yaml

    doc = yaml.safe_load((pathlib.Path(__file__).resolve().parent.parent / "scenarios"
                          / "geodesic.yaml").read_text(encoding="utf-8"))
    # g^11 = x^2 vanishes on the x = 0 column of sites
    doc["fields"]["time"] = {"samples": 3, "scale": {"profile": "linear", "rate": 0.1}}
    return yaml.safe_dump(doc)


LIFT_REFUSALS = {
    "singular_site_metric": ("fields.metric", _shipped_geodesic_with_a_time_series()),
    "scale_through_zero": (
        "fields.time.scale",
        "lattice: {topology: torus, sizes: [8, 8], spacings: [1.0, 1.0]}\n"
        "mass: 1.0\ntask: geodesic\n"
        "fields: {time: {samples: 5, scale: {profile: linear, rate: -1.0}}}\n"
        "params: {dt: 0.01, duration: 2.0}\n",  # the scale is 0 at t = 1 and -1 at t = 2
    ),
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field, text", list(LIFT_REFUSALS.values()), ids=list(LIFT_REFUSALS))
def test_geodesic_time_series_the_lift_refuses_is_a_config_error(tmp_path, capsys, command,
                                                                 field, text):
    path = write(tmp_path, "geo.yaml", text)
    args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "out").exists()
