"""Hash the reports of many seeded commands of each golden op class.

usage: python tests/golden/sweep.py [--count N] [--seed S] [CLASS ...]

The classes are the nine benchmark operation classes that the golden
reports pin, with the command lines of tests/test_golden.py: certify_mesh,
certify_singleton, certify_analytic, invert_clarke, invert_exact,
invert_newton, check_validity, check_chain and check_mvt, and
certify_sampled, a theta-c:3 certify with 5-vertex Clarke sets, whose hull
bounds are sampled (all ten when none is named).  Command i of a class
takes ``--seed S + i``, and an invert command the target drawn uniformly
in [-5, 5]^n from ``numpy.random.default_rng(S + i)``.  The N commands of each class run in
this process, with the package from this checkout's src/, and the script
prints one sha256 per class over every command line, exit code and report,
and how many commands ended with each exit code.
Run it with the same arguments in two checkouts: equal hashes mean
byte-identical reports.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
sys.path[:0] = [str(GOLDEN.parents[1] / "src"), str(GOLDEN.parent)]

from pjinv.cli import main  # noqa: E402
from test_golden import (CHAIN, INVERT_CLARKE, INVERT_EXACT, MESH,  # noqa: E402
                         MVT, SAMPLED, SINGLETON, VALIDITY)


def _target(seed, n):
    values = np.random.default_rng(seed).uniform(-5.0, 5.0, n)
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
}


def sweep(name, count, seed):
    """sha256 over the command lines, exit codes and reports of a class, and
    the count of each exit code."""
    digest, codes = hashlib.sha256(), collections.Counter()
    for s in range(seed, seed + count):
        command = CLASSES[name](s)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(command.split())
        codes[code] += 1
        digest.update(f"{command}\n{code}\n{out.getvalue()}".encode())
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
