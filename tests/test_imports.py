"""scipy loads where it runs: `import geomqm` loads numpy and PyYAML only,
and `scipy.linalg` loads only when the band solver runs.  Operators are
numpy records, so the build, reconstruct, roundtrip, evolve, geodesic,
Chern and maxwell runs load no scipy module at all; the holonomy run and
the ring spectrum load `scipy.linalg` and no `scipy.sparse`.

One fresh interpreter, with PYTHONPATH set to this tree's `src`, runs the
cases in order of growing imports and records after each one which
`scipy` modules `sys.modules` holds and what the CLI returned.

A static guard covers the paths that no case runs: no `import` or
`from ... import` statement under `src/geomqm/`, at module level or
inside a function, names `scipy.sparse`.
"""

import ast
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import geomqm

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geomqm"
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
for name in ("geodesic", "holonomy_chern", "maxwell", "build", "reconstruct", "roundtrip",
             "evolve"):
    main("run " + name, "run", str(root / "scenarios" / (name + ".yaml")), "--out", str(out / name))
    if name == "build":  # the file route of the inverse step reads the built operator
        doc = out / "rec.yaml"
        doc.write_text("lattice: {topology: torus, sizes: [8, 8], spacings: [1.0, 1.0]}\\n"
                       "mass: 2.0\\ntask: reconstruct\\n"
                       f"params: {{hamiltonian_file: '{out / 'build' / 'hamiltonian.txt'}'}}\\n")
        main("run reconstruct file", "run", str(doc), "--out", str(out / "rec"))
lat = geomqm.build_lattice(geomqm.LatticeSpec("ring", (16,), (1.0,)))
geomqm.eigenvalues(geomqm.build_hamiltonian(lat, geomqm.constant_metric(lat), None, None, 1.0))
record("ring spectrum")
main("run holonomy", "run", str(root / "scenarios" / "holonomy.yaml"), "--out", str(out / "holonomy"))
print(json.dumps(seen))
"""

NO_SCIPY = ["import", "schema", *(f"validate {f.name}" for f in SCENARIOS),
            "run geodesic", "run holonomy_chern", "run maxwell", "run build", "run reconstruct file",
            "run reconstruct", "run roundtrip", "run evolve"]


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


@pytest.mark.parametrize("case", ["run holonomy", "ring spectrum"])
def test_band_solver_loads_linalg_but_not_sparse(seen, case):
    code, modules = seen[case]
    assert code == 0
    assert "scipy.linalg" in modules
    assert not [m for m in modules if m.startswith("scipy.sparse")]


def test_operator_annotation_resolves():
    # mat is spelled without a module-level scipy binding
    assert typing.get_type_hints(geomqm.HermitianOperator) == {"mat": object}


def sparse_imports(source):
    """(line, module) of every import of scipy.sparse or a submodule in source, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if (name + ".").startswith("scipy.sparse.")]
    return found


def test_no_module_imports_scipy_sparse():
    # the guard sees each spelling, a function-local one included
    planted = ("import scipy.sparse as sp\nfrom scipy import sparse, linalg\n"
               "def f():\n    from scipy.sparse.linalg import eigsh\n")
    assert sparse_imports(planted) == [(1, "scipy.sparse"), (2, "scipy.sparse"),
                                       (4, "scipy.sparse.linalg.eigsh")]
    assert sparse_imports("import scipy.linalg\nfrom scipy import sparsetools\n") == []
    found = {str(p.relative_to(SRC)): sparse_imports(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.rglob("*.py"))}
    assert len(found) > 10
    assert {name: hits for name, hits in found.items() if hits} == {}
