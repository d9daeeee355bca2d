"""The committed output manifest, tests/output_manifest.json.

Every output of the shipped scenarios and the seed-1 benchmark ops is
regenerated through scripts/compare_outputs.py's own runner and
summarised as that script's `--manifest` does.  An output missing or
new, another row or column count, or a column's sum or max |value| off
by more than `compare_outputs.RTOL` of its scale plus `compare_outputs.ATOL`
fails.  An output whose digest alone differs (last-bit rounding, say on
another CPU) is named in a warning and passes.  After an intended output
change, regenerate it:

    python3 scripts/compare_outputs.py --manifest . > tests/output_manifest.json
"""

import json
import math
import pathlib
import sys
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from compare_outputs import ATOL, manifest, manifest_drift, outputs, summary  # noqa: E402

COMMITTED = json.loads((ROOT / "tests" / "output_manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """(output name -> bytes, output name -> summary) of this tree."""
    out = tmp_path_factory.mktemp("outputs")
    found = manifest(ROOT, out)
    assert found is not None, "the runs failed"
    return outputs(out), found


def test_outputs_agree_with_the_committed_manifest(regenerated):
    _, found = regenerated
    assert len(COMMITTED) == 23
    failed, bytes_only = manifest_drift(COMMITTED, found)
    assert failed == [], failed
    if bytes_only:
        warnings.warn("outputs whose bytes differ from the manifest, summaries within "
                      "RTOL and ATOL: " + ", ".join(bytes_only))


def _edited(data, line, cell, change):
    """data with the number in cell `cell` of line `line` replaced by change(number)."""
    lines = data.decode("utf-8").split("\n")
    sep = "," if "," in lines[line] else " "
    cells = lines[line].split(sep)
    cells[cell] = repr(change(float(cells[cell])))
    lines[line] = sep.join(cells)
    return "\n".join(lines).encode("utf-8")


def _report_edited(data, key, change):
    """A report with change() applied to its payload's number `key`, written as run_scenario writes."""
    doc = json.loads(data)
    doc["payload"][key] = change(doc["payload"][key])
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _one_part_in_a_billion(value):
    return value * (1 + 1e-9)


def _last_bit(value):
    return math.nextafter(value, math.inf)


@pytest.mark.parametrize("name, edit, caught", [
    ("scenarios/holonomy/report.json", lambda data, change: _report_edited(data, "lambda_max", change),
     True),
    ("scenarios/maxwell/cochains.csv", lambda data, change: _edited(data, 2000, 3, change), True),
    ("scenarios/build/hamiltonian.txt", lambda data, change: _edited(data, 299, 2, change), True),
    # the limit: a value below 0.1% of its column's scale (here q_1 = 2.8 in a column
    # of 4001 positions summing to 1.1e4) is caught by the digest alone
    ("scenarios/geodesic/trajectory.csv", lambda data, change: _edited(data, 2000, 1, change),
     False),
], ids=["report-scalar", "cochain-value", "operator-entry", "below-the-scale"])
def test_one_value_scaled_by_one_part_in_a_billion_fails_and_a_last_bit_is_named(
        regenerated, name, edit, caught):
    files, found = regenerated
    for change, verdict in ((_one_part_in_a_billion, ([name], []) if caught else ([], [name])),
                            (_last_bit, ([], [name]))):
        edited = {**found, name: summary(name, edit(files[name], change))}
        assert manifest_drift(found, edited) == verdict, change.__name__


def test_a_defect_raised_past_atol_fails_and_one_moved_within_it_is_named(regenerated):
    # speed2_drift, 1.6e-12, is a rounding-level defect: another CPU's
    # kernels moved such defects by up to 16% of themselves
    files, found = regenerated
    name = "scenarios/geodesic/report.json"
    for shift, verdict in ((2 * ATOL, ([name], [])), (0.5 * ATOL, ([], [name]))):
        data = _report_edited(files[name], "speed2_drift", lambda value: value + shift)
        assert manifest_drift(found, {**found, name: summary(name, data)}) == verdict, shift


def test_an_output_missing_new_reshaped_or_nan_fails():
    entry = {"sha256": "a", "rows": 2, "columns": 1, "sums": {"0": [2, 3.0, 2.0]}}
    edits = {"missing": None, "another row count": {**entry, "sha256": "b", "rows": 3},
             "nan": {**entry, "sha256": "b", "sums": {"0": [2, math.nan, 2.0]}}}
    for why, edited in edits.items():
        found = {} if edited is None else {"out.csv": edited}
        assert manifest_drift({"out.csv": entry}, found) == (["out.csv"], []), why
    assert manifest_drift({}, {"out.csv": entry}) == (["out.csv"], [])
