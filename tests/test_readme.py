"""The README's library tour runs as written, so a renamed or re-signed
public call in it fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library tour", "exec"), namespace)
    assert namespace["defect"] < 1e-10
