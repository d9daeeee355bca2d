"""One module spells the outputs: the frozen reconstruction field names
and the cochains.csv header occur in `scenario` and in no other module
of the package.  Likewise one gate refuses a malformed metric field:
its messages occur in `lattice` only, and the metric is inverted in
`geometry` only.  No task runner refuses a document: every config
error comes before the output directory exists."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "geomqm"
SPELLINGS = ('"g_rec"', '"A_rec_tree_gauge"', '"phi_rec"', '"cure_max"',
             '"min_metric_eigenvalue"', "# complex=")


def test_output_spellings_live_in_scenario_only():
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    for spelling in SPELLINGS:
        assert [name for name, text in sorted(texts.items()) if spelling in text] \
            == ["scenario.py"], spelling


def test_metric_field_refusals_live_in_lattice_only():
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    for spelling in ("symmetric positive definite", "inverse metric shape"):
        assert [name for name, text in sorted(texts.items()) if spelling in text] \
            == ["lattice.py"], spelling


def test_run_gate_refusals_live_in_the_module_that_owns_them():
    # `scenario.validate_config` calls each gate; it spells none of their messages
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    owners = {"exceeds the dense limit": "operators.py", "link phase magnitude": "operators.py",
              "diagonal spatial metrics only": "maxwell.py",
              "exactly one periodic direction": "holonomy.py", "RK4 steps": "geometry.py",
              "but the lattice has": "operators.py", "flux quanta over": "holonomy.py"}
    for spelling, owner in owners.items():
        assert [name for name, text in sorted(texts.items()) if spelling in text] == [owner], \
            spelling


def test_metric_inversion_lives_in_geometry_only():
    # every geometry entry point takes the inverse metric g^ij and inverts it
    # itself, so no caller has to know that providers evaluate g_ij
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert [name for name, text in sorted(texts.items()) if "np.linalg.inv(" in text] \
        == ["geometry.py"]


def test_no_task_runner_raises_a_config_error():
    # `run_scenario` makes the output directory after `validate_config` and
    # before the runner, so a runner's refusal would leave it behind
    tree = ast.parse((SRC / "scenario.py").read_text(encoding="utf-8"))
    runners = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_task_")]
    assert len(runners) == 7
    for runner in runners:
        for node in ast.walk(runner):
            if isinstance(node, ast.Raise):
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert not (isinstance(raised, ast.Name) and raised.id == "ConfigError"), \
                    f"{runner.name}, line {node.lineno}"
