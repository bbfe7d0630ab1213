"""Rewrite every golden report from the current source tree.

usage: python tests/golden/regenerate.py

Runs each command that tests/test_golden.py lists and writes its report,
and each profile's CSV, under tests/golden/, in the process and directory
layout the tests use.
A report that moves is a change of behaviour: name each moved file and its
cause with the change that moved it.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
# the package from this checkout's src/, and test_golden's command lines
sys.path[:0] = [str(GOLDEN.parents[1] / "src"), str(GOLDEN.parent)]

from pjinv.cli import main  # noqa: E402
from test_golden import CASES, COMMANDS, PROFILES  # noqa: E402


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def write_all():
    texts = {f"{stem}.json": report(command.split())
             for stem, (command, _code) in COMMANDS.items()}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the linear map reads diag(2, 3) from a relative path
        os.chdir(tmp)
        try:
            Path("diag.txt").write_text("2 0\n0 3\n")
            for map_id, (name, _code) in CASES.items():
                texts[name] = report(["certify", "--map", map_id,
                                      "--analytic-beta"])
        finally:
            os.chdir(cwd)
        for stem, (command, _code) in PROFILES.items():
            csv = Path(tmp) / "p.csv"
            argv = command.split() + ["--csv", str(csv)]
            texts[f"{stem}.json"] = report(argv)
            texts[f"{stem}.csv"] = csv.read_text()
    for name, text in sorted(texts.items()):
        path = GOLDEN / name
        moved = path.exists() and path.read_text() != text
        path.write_text(text)
        if moved:
            print(f"moved: {name}")
    print(f"{len(texts)} reports written to {GOLDEN}")


if __name__ == "__main__":
    write_all()
