"""scipy loads where it runs: `import geomqm` loads numpy and PyYAML only,
`scipy.sparse` loads when the first operator is built or read, and
`scipy.linalg` only when the band solver runs.  The geodesic, Chern and
maxwell runs load none of it.

One fresh interpreter, with PYTHONPATH set to this tree's `src`, runs the
cases in order of growing imports and records after each one which
`scipy` modules `sys.modules` holds and what the CLI returned.
"""

import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import geomqm

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))

PROBE = """
import contextlib, io, json, sys
from pathlib import Path

root, out, seen = Path(sys.argv[1]), Path(sys.argv[2]), {}

def record(case, code=0):
    seen[case] = [code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]

import geomqm, geomqm.scenario
record("import")
from geomqm import cli

def main(case, *argv):
    with contextlib.redirect_stdout(io.StringIO()):
        record(case, cli.main(list(argv)))

main("schema", "schema")
for f in sys.argv[3:]:
    main("validate " + Path(f).name, "validate", f)
for name in ("geodesic", "holonomy_chern", "maxwell", "build"):
    main("run " + name, "run", str(root / "scenarios" / (name + ".yaml")), "--out", str(out / name))
lat = geomqm.build_lattice(geomqm.LatticeSpec("ring", (16,), (1.0,)))
geomqm.eigenvalues(geomqm.build_hamiltonian(lat, geomqm.constant_metric(lat), None, None, 1.0))
record("ring spectrum")
print(json.dumps(seen))
"""

NO_SCIPY = ["import", "schema", *(f"validate {f.name}" for f in SCENARIOS),
            "run geodesic", "run holonomy_chern", "run maxwell"]


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    """Case -> [exit code, sorted scipy modules loaded after it], from one interpreter."""
    out = tmp_path_factory.mktemp("imports")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT), str(out), *map(str, SCENARIOS)],
        cwd=out, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", NO_SCIPY)
def test_case_loads_no_scipy(seen, case):
    code, modules = seen[case]
    assert code == 0
    assert modules == []


def test_dense_build_loads_sparse_but_not_linalg(seen):
    code, modules = seen["run build"]
    assert code == 0
    assert "scipy.sparse" in modules
    assert not [m for m in modules if m.startswith("scipy.linalg")]


def test_band_spectrum_loads_linalg(seen):
    assert "scipy.linalg" in seen["ring spectrum"][1]


def test_operator_annotation_resolves():
    # mat is spelled without a module-level scipy binding
    assert typing.get_type_hints(geomqm.HermitianOperator) == {"mat": object}
