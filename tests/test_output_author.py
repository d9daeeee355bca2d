"""One module spells the outputs: the frozen reconstruction field names
and the cochains.csv header occur in `scenario` and in no other module
of the package.  Likewise one gate refuses a malformed metric field:
its messages occur in `lattice` only, and the metric is inverted in
`geometry` only."""

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


def test_metric_inversion_lives_in_geometry_only():
    # every geometry entry point takes the inverse metric g^ij and inverts it
    # itself, so no caller has to know that providers evaluate g_ij
    texts = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert [name for name, text in sorted(texts.items()) if "np.linalg.inv(" in text] \
        == ["geometry.py"]
