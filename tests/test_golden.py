"""``certify --analytic-beta`` reports, byte for byte, against stored ones.

The reports under golden/ were written before the analytic profile was
derived from the sum rule, when each catalog map carried a hand-written
profile formula.  The derived profile differs from those formulas by
rounding only (its Weyl margin is about n * 2.2e-16 * sigma_max), far
below the 12 significant digits of a report, so every report must stay
the same.
"""

from pathlib import Path

import pytest

from pjinv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# map identifier -> (report file, exit code)
CASES = {
    "theta-a:10:0.5": ("certify_theta-a_10_0.5.json", 0),
    "theta-b:6": ("certify_theta-b_6.json", 1),
    "theta-c:4": ("certify_theta-c_4.json", 0),
    "identity": ("certify_identity.json", 0),
    "abs-shift": ("certify_abs-shift.json", 0),
    "linear:diag.txt": ("certify_linear_diag.json", 0),
}


@pytest.mark.parametrize("map_id", CASES)
def test_certify_analytic_report_is_unchanged(tmp_path, monkeypatch, capsys,
                                              map_id):
    # the linear map reads diag(2, 3) from a relative path, which the
    # report echoes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "diag.txt").write_text("2 0\n0 3\n")
    name, code = CASES[map_id]
    assert main(["certify", "--map", map_id, "--analytic-beta"]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
