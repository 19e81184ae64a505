import math

import numpy as np
import pytest

from consistency_lab.reports import dumps_canonical, format_value, write_csv


def test_canonical_json_writes_bools_null_and_empty_objects():
    text = dumps_canonical({"on": True, "off": False, "missing": None, "empty": {}, "n": [3, 0.5]})
    assert text == (
        '{\n  "empty": {},\n  "missing": null,\n  "n": [\n    3,\n    0.5\n  ],\n'
        '  "off": false,\n  "on": true\n}'
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_canonical_json_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="^canonical JSON cannot carry non-finite floats$"):
        dumps_canonical({"x": [value]})


def test_csv_writes_non_finite_floats_by_name(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(math.nan, math.inf, -math.inf), (np.float64("nan"), 0.1, True)]
    write_csv(path, ["a", "b", "c"], rows, {"seed": 7, "scenario": "x"})
    assert path.read_text() == (
        "# scenario=x\n# seed=7\na,b,c\nnan,inf,-inf\nnan,0.10000000000000001,true\n"
    )
    values = (-0.0, 1e300, 12, "s")
    assert [format_value(v) for v in values] == ["-0", "1.0000000000000001e+300", "12", "s"]
