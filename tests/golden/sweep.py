"""Hash the reports of many seeded commands of each golden op class.

usage: python tests/golden/sweep.py [--count N] [--seed S] [CLASS ...]

The classes run the command lines of tests/test_golden.py (all of them
when none is named):

- the nine benchmark operation classes that the golden reports pin:
  certify_mesh, certify_singleton, certify_analytic, invert_clarke,
  invert_exact, invert_newton, check_validity, check_chain and check_mvt;
- certify_sampled, a theta-c:3 certify with 5-vertex Clarke sets, whose
  hull bounds are sampled;
- certify_stack, a theta-c:3 certify with 2-vertex Clarke sets whose
  profile bounds 33 certified hulls in one stack pass;
- profile (a sampled 2-vertex Clarke profile), ball_check,
  invert_ekeland (the Clarke theta-a:4:0.5 descent) and check_optimality;
- invert_off_ray, a theta-b:4 path lift with ``sum`` sets from a start
  off the origin, whose path is no ray: it crosses kinks, and some of
  its secant predictions are rejected;
- invert_linear, a path lift on the ``linear:`` map of LINEAR_FILE (a
  3 x 3 matrix written where the sweep runs), which declares no
  ``rows_match`` and so plans one node at a time;
- invert_failing, an exp1d path lift to a target in [-3, -0.5], outside
  the range of exp: its correctors fail and halve the step;
- check_mvt_maps, which cycles through a Clarke ``check mvt`` on each of
  MVT_MAPS (n = 1 to 4), so that the sampling, stencil and hull kernels
  run on blocks of every width from 1 to 4 columns;
- check_mvt_exact, which cycles through an ``exact`` ``check mvt`` at
  tolerance 1e-9 on each of MVT_EXACT_MAPS, piecewise-affine maps whose
  sign pieces give the exact hull: every command must exit 0;
- check_mvt_tight, one ``exact`` ``check mvt`` segment on theta-c:6 at
  tolerance 1e-12, below the hull projection's default stop of 1e-10;
- config_error, which cycles through one malformed command for each
  config error that ``pjinv.cli`` raises (a config file it names is
  written, with a relative path, to the directory the sweep runs in).

Command i of a class takes ``--seed S + i``, and an invert command the
target drawn uniformly in [-5, 5]^n (invert_failing: [-3, -0.5]) from
``numpy.random.default_rng(S + i)``.
The N commands of each class run in this process, in a fresh temporary
directory, with the package from this checkout's src/, and the script
prints one sha256 per class over every command line, exit code, report
and standard error, and how many commands ended with each exit code.
Run it with the same arguments in two checkouts: equal hashes mean
byte-identical reports and error messages.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
sys.path[:0] = [str(GOLDEN.parents[1] / "src"), str(GOLDEN.parent)]

from pjinv.cli import main  # noqa: E402
from test_golden import (CHAIN, INVERT_CLARKE, INVERT_EXACT, MESH,  # noqa: E402
                         MVT, SAMPLED, SINGLETON, VALIDITY)


def _target(seed, n, low=-5.0, high=5.0):
    values = np.random.default_rng(seed).uniform(low, high, n)
    return ",".join(repr(float(value)) for value in values)


# class -> command line of seed s
CLASSES = {
    "certify_mesh": lambda s: f"{MESH} --grid-n 3 --shell-samples 1 --seed {s}",
    "certify_singleton": lambda s: f"{SINGLETON} --seed {s}",
    "certify_analytic": lambda s: f"{MESH} --analytic-beta --seed {s}",
    "invert_clarke": lambda s: (f"{INVERT_CLARKE} --target={_target(s, 4)} "
                                f"--seed {s}"),
    "invert_exact": lambda s: (f"{INVERT_EXACT} --method path "
                               f"--target={_target(s, 50)} --seed {s}"),
    "invert_newton": lambda s: (f"{INVERT_EXACT} --method newton "
                                f"--target={_target(s, 50)} --seed {s}"),
    "check_validity": lambda s: f"{VALIDITY} --seed {s}",
    "check_chain": lambda s: f"{CHAIN} --seed {s}",
    "check_mvt": lambda s: f"{MVT} --seed {s}",
    "certify_sampled": lambda s: (f"{SAMPLED} --grid-n 3 --shell-samples 2 "
                                  f"--seed {s}"),
    "certify_stack": lambda s: (
        "certify --map theta-c:3 --provider clarke:delta=1e-3,m=2,eps=0 "
        f"--grid-n 5 --shell-samples 8 --seed {s}"),
    "profile": lambda s: (
        "profile --map theta-a:10:0.5 --provider clarke:delta=1e-3,m=2,eps=0 "
        f"--grid-n 5 --shell-samples 8 --seed {s}"),
    "ball_check": lambda s: (
        "ball-check --map theta-c:3 --delta 0.5 --grid-n 16 --shell-samples 8 "
        f"--samples 20 --seed {s}"),
    "invert_ekeland": lambda s: (
        "invert --map theta-a:4:0.5 --provider clarke:delta=1e-4,m=8,eps=0 "
        f"--method ekeland --target={_target(s, 4)} --seed {s}"),
    "check_optimality": lambda s: f"check optimality --seed {s}",
    "invert_off_ray": lambda s: (
        "invert --map theta-b:4 --provider sum --method path "
        f"--x0 0.3,-0.2,0.1,0.5 --target={_target(s, 4)} --seed {s}"),
    "invert_linear": lambda s: (
        f"invert --map linear:{LINEAR_FILE} --provider exact --method path "
        f"--target={_target(s, 3)} --seed {s}"),
    "invert_failing": lambda s: (
        "invert --map exp1d --provider exact --method path "
        f"--target={_target(s, 1, -3.0, -0.5)} --seed {s}"),
    "check_mvt_maps": lambda s: (
        f"check mvt --map {MVT_MAPS[s % len(MVT_MAPS)]} "
        f"--provider clarke:delta=1e-3,m=16,eps=0 --trials 20 --seed {s}"),
    "check_mvt_exact": lambda s: (
        f"check mvt --map {MVT_EXACT_MAPS[s % len(MVT_EXACT_MAPS)]} "
        f"--provider exact --tol 1e-9 --seed {s}"),
    "check_mvt_tight": lambda s: (
        "check mvt --map theta-c:6 --provider exact --tol 1e-12 --trials 10 "
        f"--seed {s}"),
    "config_error": lambda s: (f"{CONFIG_ERRORS[s % len(CONFIG_ERRORS)]} "
                               f"--seed {s}"),
}

# the maps that check_mvt_maps cycles through, n = 1, 2, 3 and 4
MVT_MAPS = ["exp1d", "complexsq", "theta-c:3", "theta-b:4"]

# the matrix of invert_linear and check_mvt_exact, invertible and not
# symmetric
LINEAR_FILE = "matrix.txt"

# the maps that check_mvt_exact cycles through
MVT_EXACT_MAPS = ["theta-b:4", "theta-a:10:0.5", "abs-shift",
                  f"linear:{LINEAR_FILE}"]

# the files that config_error, invert_linear and check_mvt_exact name,
# written where the sweep runs
FILES = {
    LINEAR_FILE: b"2 1 0\n0 3 -1\n1 0 2\n",
    "latin1.cfg": b"map = caf\xe9\n",
    "no_equals.cfg": b"map identity\n",
    "unknown_key.cfg": b"bogus = 1\n",
}

# one malformed command per config error of pjinv.cli, in source order
CONFIG_ERRORS = [
    "frobnicate",  # argparse, and every option value's argparse type
    "certify --map identity --config latin1.cfg",
    "certify --map identity --config no_equals.cfg",
    "invert --map identity --target 1,x,3",
    "invert --map identity --target 1,inf,3",
    "certify --map identity --config unknown_key.cfg",
    "certify --provider sum",  # no --map
    "certify --map nope",
    "invert --map identity --provider bogus --target 1,2,3",
    "certify --map exp1d --analytic-beta",  # no constant sum pair
    "profile --map identity --grid-n 10000 --shell-samples 10000",
    "invert --map identity --target 1,2",
    "ball-check --map identity --delta 3 --t-max 2",
    "check optimality --map theta-a:2:0.5",
    "check validity --map theta-c:3 --negative-control",
    "certify --map identity --config missing.cfg",  # an OSError
]


def sweep(name, count, seed):
    """sha256 over the command lines, exit codes, reports and standard
    errors of a class, and the count of each exit code."""
    digest, codes = hashlib.sha256(), collections.Counter()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for file, content in FILES.items():
            Path(file).write_bytes(content)
        for s in range(seed, seed + count):
            command = CLASSES[name](s)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(command.split())
            codes[code] += 1
            digest.update(f"{command}\n{code}\n{out.getvalue()}\n"
                          f"{err.getvalue()}".encode())
    return digest.hexdigest(), codes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("classes", nargs="*", metavar="CLASS",
                        help="one of: " + ", ".join(CLASSES))
    parser.add_argument("--count", type=int, default=100,
                        help="commands per class (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first command (default 0)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.classes) - set(CLASSES))
    if unknown:
        parser.error(f"unknown class {unknown[0]!r}")
    if args.count < 1:
        parser.error("--count must be at least 1")
    return args


if __name__ == "__main__":
    args = parse_args(sys.argv[1:])
    for name in args.classes or CLASSES:
        digest, codes = sweep(name, args.count, args.seed)
        exits = " ".join(f"exit{code}={n}" for code, n in sorted(codes.items()))
        print(f"{name} {args.count} {digest} {exits}")
