"""scripts/compare_outputs.py: the numeric drift it quotes for a CSV file
that differs in bytes but has the same header and shape."""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))

from compare_outputs import numeric_drift  # noqa: E402

TABLE = b"# complex=ab12\nname,t,q\npotential,0,1.5\ncurrent,1,-2\nfield,2,nan\n"


def test_same_bytes_drift_zero():
    assert numeric_drift(TABLE, TABLE) == (0.0, 0.0)


def test_numeric_cells_report_largest_absolute_and_relative_difference():
    new = TABLE.replace(b"1.5", b"1.5000000000000004").replace(b",-2", b",-2.0000000000000004")
    d_q1, d_q2 = 1.5000000000000004 - 1.5, 2.0000000000000004 - 2.0
    assert numeric_drift(TABLE, new) == (max(d_q1, d_q2),
                                         max(d_q1 / 1.5000000000000004, d_q2 / 2.0000000000000004))
    # a signed zero is no difference; a NaN or an infinity against a number is an infinite one
    assert numeric_drift(b"t\n0\n", b"t\n-0\n") == (0.0, 0.0)
    assert numeric_drift(TABLE, TABLE.replace(b"nan", b"3")) == (math.inf, math.inf)
    assert numeric_drift(TABLE, TABLE.replace(b"1.5", b"inf")) == (math.inf, math.inf)


def test_another_header_shape_or_label_gives_no_drift():
    assert numeric_drift(TABLE, TABLE.replace(b"ab12", b"ab13")) is None
    assert numeric_drift(TABLE, TABLE.replace(b"name,t,q", b"name,t,x")) is None
    assert numeric_drift(TABLE, TABLE.replace(b"current", b"charge")) is None
    assert numeric_drift(TABLE, TABLE.replace(b"1.5", b"inf").replace(b"field", b"other")) is None
    assert numeric_drift(TABLE, TABLE + b"field,3,1\n") is None
    assert numeric_drift(TABLE, TABLE.replace(b"current,1,-2", b"current,1,-2,0")) is None
