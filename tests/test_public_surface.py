"""Every definition in the package has a reader outside the unit tests.

An AST scan lists every `def` and `class` in `src/geomqm/`, methods and
nested functions included (dunder names excluded), and every name read
by the readers: the package's own modules (not `__init__.py`, which only
re-exports), the benchmark's and the scripts' modules, and the
paper-claim tests.  A read is an identifier or an attribute name in a
load, or an imported name.  Strings, comments and README prose are not
reads, so a name that occurs only in a metric-name string or in the
docs fails the guard.  A definition counts as read when its own name is
read anywhere, whatever object the reader reaches it through.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "geomqm"
READERS = [*(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
           *(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]

# qualified name -> why it stays although no reader reads it
ALLOWED = {
    "Lattice.minimal_image_displacement":
        "perfbench/tracer.py wraps it by name (CLASS_METHODS) to count its calls",
}


def definitions(source):
    """Qualified name -> own name of every def and class in source, dunders excluded."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[prefix + child.name] = child.name
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def reads(source):
    """Every identifier and attribute name loaded in source, and every imported name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def unread(sources, readers):
    """Sorted qualified names of the definitions in sources that no reader reads."""
    read = set().union(*map(reads, readers))
    return sorted(qual for source in sources
                  for qual, name in definitions(source).items() if name not in read)


def test_every_definition_has_a_reader_outside_the_unit_tests():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert sum(len(definitions(s)) for s in sources) > 150
    assert unread(sources, [p.read_text(encoding="utf-8") for p in READERS]) == sorted(ALLOWED)


def test_a_planted_unread_definition_is_flagged():
    module = ("def kept():\n    return 1\n\n\n"
              "def planted():\n    return kept()\n\n\n"
              "class Box:\n    def lid(self):\n        return 0\n\n"
              "    def size(self):\n        return 1\n")
    # a string, a comment and a store are not reads
    reader = ("from module import kept\n"
              "kept()\n"
              "print('planted', Box().size())  # Box.lid\n"
              "lid = 0\n")
    assert unread([module], [reader]) == ["Box.lid", "planted"]
