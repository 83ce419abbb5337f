"""Golden outputs: the CSVs of fixed CLI invocations, stored under
tests/data/golden, must be reproduced cell for cell.

Text and integer cells compare exactly; float cells compare within
1e-12 * max(1, |v|), so a different BLAS does not make the check flaky
while any change of iterates, step lengths or branch labels still fails.
"""

import csv
import math
from pathlib import Path

import pytest

from modescent.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "circle2d_eta1": (["solve", "--problem", "circle2d", "--x0=-2,0.5",
                       "--beta0", "0.1", "--eta", "1"], ["trace.csv"]),
    "sphere3d": (["solve", "--problem", "sphere3d", "--x0", "1,0,0"], ["trace.csv"]),
    "sphere3d_psi": (["solve", "--problem", "sphere3d", "--x0", "1,0,0",
                      "--retraction", "psi"], ["trace.csv"]),
    "front5": (["front", "--problem", "circle2d", "--grid", "5x5",
                "--beta0", "0.1", "--eta", "1"], ["archive.csv", "front.csv"]),
}


def _cell_matches(got, want):
    if got == want:
        return True
    for parse in (int, float):
        try:
            g, w = parse(got), parse(want)
        except ValueError:
            continue
        if parse is int:
            return False
        if math.isnan(w):
            return math.isnan(g)
        return abs(g - w) <= 1e-12 * max(1.0, abs(w))
    return False


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    argv, files = CASES[name]
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    for fname in files:
        got, want = _rows(out / fname), _rows(GOLDEN / name / fname)
        assert len(got) == len(want), fname
        assert got[0] == want[0], fname
        for i, (grow, wrow) in enumerate(zip(got, want)):
            assert len(grow) == len(wrow), (fname, i)
            bad = [(g, w) for g, w in zip(grow, wrow) if not _cell_matches(g, w)]
            assert not bad, (fname, i, bad)

