"""Regression against committed sweep tables.

The files under ``tests/golden/`` were written by

    PYTHONPATH=src python -m ccrsweep sweep --p-count 11 --out tests/golden/default_p11.csv
    PYTHONPATH=src python -m ccrsweep sweep --channels cadc --mu 0 --p-count 11 \
        --out tests/golden/cadc_mu0_p11.csv

before the report pipeline was restructured to trace each partition once.
A rerun must reproduce the header, the row keys and the empty cells exactly
and every number to 1e-13, so a change of evaluation path that alters any
measure or residual beyond round-off shows here.
"""

from pathlib import Path

import pytest

from ccrsweep.cli import main

GOLDEN = Path(__file__).parent / "golden"
KEY_COLUMNS = 4  # channel, mu, x, p
ABS_TOL = 1e-13


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize(
    "name, args",
    [
        ("default_p11.csv", ["--p-count", "11"]),
        ("cadc_mu0_p11.csv", ["--channels", "cadc", "--mu", "0", "--p-count", "11"]),
    ],
)
def test_sweep_matches_golden(tmp_path, name, args):
    out = tmp_path / name
    assert main(["sweep", *args, "--out", str(out)]) == 0
    expected = _rows((GOLDEN / name).read_text())
    actual = _rows(out.read_text())

    assert actual[0] == expected[0]
    assert len(actual) == len(expected)
    worst = 0.0
    for want, got in zip(expected[1:], actual[1:]):
        assert got[:KEY_COLUMNS] == want[:KEY_COLUMNS]
        assert len(got) == len(want)
        for column, w, g in zip(expected[0][KEY_COLUMNS:], want[KEY_COLUMNS:], got[KEY_COLUMNS:]):
            assert (g == "") == (w == ""), f"{column} at {want[:KEY_COLUMNS]}"
            if w:
                worst = max(worst, abs(float(g) - float(w)))
    assert worst <= ABS_TOL
