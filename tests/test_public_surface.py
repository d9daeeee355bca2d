"""The package exports only names that something besides the unit tests
reads: the package's own modules, the benchmark, README or the
paper-claim tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "geomqm"


def test_every_export_has_a_reader_outside_the_unit_tests():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    readers = [*(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
               *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md",
               ROOT / "tests" / "test_acceptance.py"]
    texts = [p.read_text(encoding="utf-8") for p in readers]
    unread = []
    for name in names:
        uses, definitions = re.compile(rf"\b{name}\b"), re.compile(rf"^\s*(def|class) {name}\b", re.M)
        if not any(len(uses.findall(t)) > len(definitions.findall(t)) for t in texts):
            unread.append(name)
    assert len(names) > 50
    assert unread == []
