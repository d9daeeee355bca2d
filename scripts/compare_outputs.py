"""Compare every output file of two geomqm source trees byte for byte,
or summarise the outputs of one tree as a manifest.

    python3 scripts/compare_outputs.py OLD_TREE NEW_TREE
    python3 scripts/compare_outputs.py --manifest TREE > tests/output_manifest.json

For each tree, a fresh interpreter with that tree's `src` and `perfbench`
on its path runs, through `geomqm.scenario.run_scenario` and into a
temporary directory:

* every shipped scenario, `scenarios/*.yaml`, from the tree's root;
* the seed-1 ops of every benchmark workload, from inputs and operator
  files that the tree's `perfbench/workloads.py` writes as the benchmark
  prepares them (the generated YAML and manifests are inputs and are not
  compared; the prepared operator files are).

The first tree runs on one BLAS thread (`OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` set to 1), the second with the
environment it inherits; no flag changes this.  Then every output file
is compared byte for byte, with the value of `wall_time_s` in each
`report.json` masked.  The files that differ or exist in one tree only
are listed; a `report.json` that differs in bytes is listed as
`differs (same JSON document)` when both parse to the same document,
every number spelled as written and `wall_time_s` masked; a `.csv` file
that differs in bytes but has the same header and shape is listed with
its largest absolute and relative difference over the numeric cells.
The exit status is 0 when no file differs, 1 when one does (a same-document
`report.json` included) and 2 when a run fails.  Nothing is written in
either tree: the runs write no bytecode and change into the temporary
directory for the benchmark ops.

With `--manifest`, the one tree runs on one BLAS thread and its
manifest is printed as JSON: per output file, its `summary` (the
SHA-256 of its bytes with `wall_time_s` masked, and per column of its
numbers their count, sum and max |value|).  The tier-1 test
`tests/test_output_manifest.py` checks the outputs of the working tree
against the committed manifest.

Passing the same tree twice checks that the outputs are deterministic
and do not depend on the BLAS thread count.  The second side takes the
host's default thread count, or the one set in the calling environment:

    OPENBLAS_NUM_THREADS=4 python3 scripts/compare_outputs.py . .
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_RUN = """
import json, os, sys
from pathlib import Path
tree, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
import workloads
from geomqm.scenario import run_scenario
os.chdir(tree)  # a relative params.hamiltonian_file resolves from here
for config in sorted((tree / "scenarios").glob("*.yaml")):
    run_scenario(config, out / "scenarios" / config.stem)
for name in sorted(workloads.WORKLOADS):
    work = out / "workloads" / name
    manifest = workloads.write_inputs(workloads.generate(name, 1), work)
    entries = json.loads(manifest.read_text(encoding="utf-8"))
    workloads.prepare_operator_files(entries, work)
    os.chdir(work)
    for entry in entries:
        run_scenario(entry["config"], work / "out" / entry["name"])
"""

_WALL_TIME = re.compile(rb'"wall_time_s": [^,}\n]*')

_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A column's sum or max |value| agrees with the committed one when they
# differ by at most RTOL times its scale plus ATOL: the scale is the max
# |value| for the max, the larger of |sum| and max |value| for the sum (a
# sum that cancels to near zero is scaled by its largest term).  RTOL was
# chosen before any measurement: four orders above the rounding of a
# value, so a value scaled by 1 + 1e-9 fails when it exceeds 0.1% of its
# column's scale plus 1e-3.  ATOL is the smallest tolerance of any embedded
# check (hermiticity, composition, dF, continuity, double_star): a drift
# below it is rounding that no check of the program can tell apart, such
# as a defect of a few eps computed by another CPU's BLAS kernels.
RTOL = 1e-12
ATOL = 1e-12


def run_tree(tree, out, env):
    """Write the outputs of `tree` under `out` in the environment `env`
    (None: the inherited one); False if the runs fail."""
    proc = subprocess.run([sys.executable, "-B", "-c", _RUN, str(tree.resolve()), str(out)],
                          cwd=out, env=env, check=False)
    return proc.returncode == 0


def outputs(root):
    """Relative path -> bytes of every output file under root."""
    found = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.suffix == ".yaml" or path.name == "manifest.json":
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            data = _WALL_TIME.sub(b'"wall_time_s": null', data)
        found[path.relative_to(root).as_posix()] = data
    return found


def summary(name, data):
    """The manifest entry of the output file `name` with bytes `data`
    (`wall_time_s` masked): its SHA-256 and, per column of its numbers,
    [count, exact sum, max |value|].  A table's (a .csv or an operator
    file) rows are its lines that end in a number, and its columns their
    cell positions; both are counted.  A report's columns are the paths of
    the numbers in its document."""
    entry, columns = {"sha256": hashlib.sha256(data).hexdigest()}, {}
    if name.endswith(".json"):
        _json_columns(json.loads(data), "", columns)
    else:
        sep = "," if name.endswith(".csv") else None
        rows = [line.split(sep) for line in data.decode("utf-8").splitlines()]
        rows = [row for row in rows if row and _number(row[-1]) is not None]
        entry.update(rows=len(rows), columns=max(map(len, rows), default=0))
        for i, column in enumerate(itertools.zip_longest(*rows)):
            cells = [cell for cell in column if cell is not None]
            try:
                values = [float(cell) for cell in cells]
            except ValueError:  # a column with labels: parse each distinct cell once
                numbers = {cell: _number(cell) for cell in set(cells)}
                values = [numbers[cell] for cell in cells if numbers[cell] is not None]
            if values:
                columns[str(i)] = values
    entry["sums"] = {key: [len(values), math.fsum(values), float(max(map(abs, values)))]
                     for key, values in columns.items()}
    return entry


def _json_columns(doc, path, columns):
    """Add the numbers of a JSON document to `columns` by path, bools
    excluded.  A list position is left out of the path, except in a list
    of lists, a table, whose positions are its columns."""
    if isinstance(doc, dict):
        for key, item in doc.items():
            _json_columns(item, f"{path}.{key}" if path else key, columns)
    elif isinstance(doc, list):
        if doc and all(isinstance(item, list) for item in doc):
            doc = [(f"{path}[{i}]", [cell for cell in column if cell is not None])
                   for i, column in enumerate(itertools.zip_longest(*doc))]
        else:
            doc = [(path, item) for item in doc]
        for sub, item in doc:
            _json_columns(item, sub, columns)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        columns.setdefault(path, []).append(doc)


def manifest(tree, out):
    """Output name -> `summary` of every output of `tree`, run on one BLAS
    thread into `out`; None if the runs fail."""
    if not run_tree(Path(tree), out, {**os.environ, **_ONE_THREAD}):
        return None
    return {name: summary(name, data) for name, data in outputs(out).items()}


def manifest_drift(committed, found):
    """(failed, bytes_only) between two manifests: the names whose entries
    disagree (in one manifest only, another count or column, or a sum or
    max |value| beyond RTOL and ATOL), and the names whose digests alone differ."""
    failed, bytes_only = [], []
    for name in sorted(committed.keys() | found.keys()):
        old, new = committed.get(name), found.get(name)
        if old != new:
            agrees = old is not None and new is not None and _agrees(old, new)
            (bytes_only if agrees else failed).append(name)
    return failed, bytes_only


def _agrees(old, new):
    """Whether two entries of one file have the same counts and columns,
    and each column's sum and max |value| within RTOL of the old one's
    scale plus ATOL."""
    if any(old.get(k) != new.get(k) for k in ("rows", "columns")) \
            or old["sums"].keys() != new["sums"].keys():
        return False
    for key, (count, total, top) in old["sums"].items():
        new_count, new_total, new_top = new["sums"][key]
        # written so that a NaN disagrees
        if new_count != count or not (
                abs(new_top - top) <= RTOL * top + ATOL and
                abs(new_total - total) <= RTOL * max(abs(total), top) + ATOL):
            return False
    return True


def document(data):
    """The JSON document in data, every number as its spelling, so that
    no value is rounded and NaN equals NaN; None if data does not parse."""
    try:
        return json.loads(data, parse_float=str, parse_constant=str)
    except ValueError:
        return None


def numeric_drift(old, new):
    """(largest absolute, largest relative) difference over the cells of
    two CSV files of the same header and shape, None if they differ
    otherwise: a cell that differs from its twin must be numeric in both,
    so a header or a label that differs gives None.  A relative
    difference is taken against the larger magnitude."""
    tables = [list(csv.reader(io.StringIO(data.decode("utf-8")))) for data in (old, new)]
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return None
    worst_abs = worst_rel = 0.0
    for old_row, new_row in zip(*tables):
        for old_cell, new_cell in zip(old_row, new_row):
            if old_cell == new_cell:
                continue
            a, b = _number(old_cell), _number(new_cell)
            if a is None or b is None:
                return None
            diff = abs(a - b)
            rel = diff / max(abs(a), abs(b)) if diff else 0.0
            if not math.isfinite(diff):  # a NaN or an infinity against another value
                diff = rel = math.inf
            worst_abs, worst_rel = max(worst_abs, diff), max(worst_rel, rel)
    return worst_abs, worst_rel


def _number(cell):
    """The float a CSV cell spells, None if it spells none."""
    try:
        return float(cell)
    except ValueError:
        return None


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if args[0] == "--manifest":
        with tempfile.TemporaryDirectory(prefix="geomqm-manifest-") as tmp:
            found = manifest(args[1], Path(tmp))
        if found is None:
            print(f"the runs of {args[1]} failed", file=sys.stderr)
            return 2
        text = json.dumps(found, indent=1, sort_keys=True)
        # one line per column: [count, sum, max |value|]
        print(re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                     text))
        return 0
    with tempfile.TemporaryDirectory(prefix="geomqm-compare-") as tmp:
        found = []
        envs = ({**os.environ, **_ONE_THREAD}, None)
        for side, tree, env in zip(("old", "new"), args, envs):
            out = Path(tmp) / side
            out.mkdir()
            if not run_tree(Path(tree), out, env):
                print(f"the runs of {tree} failed", file=sys.stderr)
                return 2
            found.append(outputs(out))
    old, new = found
    names = old.keys() | new.keys()
    differ = sorted(name for name in names if old.get(name) != new.get(name))
    for name in differ:
        if name in old and name in new:
            old_doc = document(old[name]) if name.endswith("report.json") else None
            same = old_doc is not None and old_doc == document(new[name])
            drift = numeric_drift(old[name], new[name]) if name.endswith(".csv") else None
            note = (" (same JSON document)" if same else
                    f" (same header and shape; largest difference {drift[0]:.3g} absolute,"
                    f" {drift[1]:.3g} relative)" if drift else "")
            print(f"{name}: differs{note}")
        else:
            print(f"{name}: only in {args[0] if name in old else args[1]}")
    print(f"{len(names) - len(differ)} of {len(names)} output files byte-identical "
          "(wall_time_s masked)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
