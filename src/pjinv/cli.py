"""Command-line surface and structured report emission.

Commands: catalog, certify, invert, ball-check, profile, check.
Exit codes: 0 success, 1 negative verdict, 2 config error (a malformed
command line, config file, map, provider or option value; argparse's own
errors included, and every option value checked by its argparse type),
3 computation failure (anything raised while a well-formed command
computes, such as a DomainError or a non-finite set).

Every report command takes one path.  Its ``cmd_*`` function takes the
parsed arguments and the seed's generator, computes, and returns its report
fields, whether it succeeded and its beta/rho profile (None for invert and
check).  ``main`` alone adds the ``command`` key and the ``config`` echo of
the arguments as the command left them (it may fill in a default), adds
``timing_ms`` on ``certify --timing``, formats the report once, opens
``--out``, writes the profile CSV on ``--csv`` and then the report to
``--out`` and to stdout, and maps success to exit 0 and failure to 1.
``catalog`` prints its listing and writes no report.

The argparse parser is built once, when this module is imported, and
every ``main`` call (and a ``--config`` run's second parse) reuses it, so
a caller that runs many commands in one process pays only for parsing.

``main`` owns the process, so it also sets its heap policy, once: on glibc
it asks ``mallopt`` to keep HEAP_TOP_PAD bytes of freed heap instead of
returning them to the kernel, so that the next batched kernel reuses the
pages and does not fault them in again.  The gain is in processes that
call ``main`` more than once; a one-shot command faults its pages in once
either way.  Setting any ``mallopt`` parameter also fixes glibc's mmap
threshold at the value it has then, so a request larger than the kept heap
is mmapped on every call.  Importing this module changes nothing; without
``mallopt`` (musl, macOS, Windows) the policy is a no-op.
"""

import argparse
import contextlib
import ctypes
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import hadamard, indices, invert, properties
from .linalg import _row_norms
from .maps import MAX_BATCH_ENTRIES, MapModel, catalog_ids, make_map
from .pseudojac import build_set, parse_provider, validity_check

__all__ = ["main", "load_config", "format_record"]

# glibc's mallopt parameter: free() keeps this much heap above the top chunk
_M_TOP_PAD = -2
# glibc's default gives each check op's ~2 MiB of NumPy temporaries back to
# the kernel, and the next op faults them in again: about 530 minor faults
# per `check validity` op of 1,000 trials, 200 per `check chain` and 110 per
# `check mvt`, against 0-2 with this pad.  In perfbench's check workload
# (2-core machine) the pad takes the validity op from 3.46 to 2.61 ms.
# The pad holds one working array of MAX_BATCH_ENTRIES floats (16 MiB), the
# largest block a batched kernel takes.
HEAP_TOP_PAD = MAX_BATCH_ENTRIES * 8


# check's default --trials, for every suite but optimality, which takes none
DEFAULT_TRIALS = 200


class ConfigError(ValueError):
    """A command that cannot be set up from its arguments (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _checked(cast, ok, need):
    """An argparse type: the value cast(text), refused unless ok(value)."""
    def convert(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    convert.__name__ = cast.__name__  # argparse: "invalid int value: ..."
    return convert


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < np.inf, "finite and >= 0")
_POSITIVE = _checked(float, lambda v: 0 < v < np.inf, "finite and > 0")


def load_config(path):
    """Parse a flat `key = value` config file, UTF-8, `#` comments.

    Booleans are `true`/`false`; values that parse as int or float are
    converted; everything else stays a string.  A file that is not UTF-8
    raises ConfigError.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        out[key.strip()] = _coerce(val.strip())
    return out


def _coerce(text):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def parse_vector(text):
    try:
        x = np.array([float(p) for p in str(text).split(",")])
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from None
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"vector entries must be finite, got {text!r}")
    return x


def _round_floats(obj):
    # a report value in its JSON-ready form: floats to 12 significant digits
    # (a non-finite one to None), containers and numpy values converted,
    # anything else kept as it is
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(float(v)) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round_floats(float(obj))
    return obj


def format_record(record):
    """Diff-stable serialization: sorted keys, 12 significant digits.

    JSON has no token for inf or NaN; a non-finite float is written as null.
    """
    return json.dumps(_round_floats(record), sort_keys=True,
                      allow_nan=False) + "\n"


def _build_parser():
    parser = _Parser(
        prog="pjinv",
        description="Invertibility certificates and numerical inversion "
                    "for nonsmooth maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--map", dest="map_id", help="catalog map identifier")
        p.add_argument("--provider", help="provider string (default sum)")
        p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, ">= 0"),
                       default=0)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="write the report record to this file")

    def profile_options(p, t_max):
        p.add_argument("--t-max", default=t_max, type=_POSITIVE)
        p.add_argument("--grid-n", default=hadamard.DEFAULT_GRID_N,
                       type=_checked(int, lambda v: v >= 2, ">= 2"))
        p.add_argument("--shell-samples", type=_COUNT,
                       default=hadamard.DEFAULT_SHELL_SAMPLES)
        p.add_argument("--analytic-beta", action="store_true",
                       help="certified profile sigma_min(g') - Lip h on "
                            "each ball, for f = g + h with g' constant")
        p.add_argument("--csv", help="write the beta/rho profile CSV here")

    sub.add_parser("catalog", help="list catalog map identifiers")

    p = sub.add_parser("certify", help="regularity + Hadamard profile verdict")
    common(p)
    profile_options(p, 2.0)
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the report (breaks byte "
                        "determinism across runs)")

    p = sub.add_parser("invert", help="invert one target point")
    common(p)
    p.add_argument("--target", required=True, help="comma-separated floats")
    p.add_argument("--x0", help="start point, comma-separated floats")
    p.add_argument("--method", choices=("newton", "path", "ekeland"),
                   default="path")
    p.add_argument("--tol", type=_NONNEGATIVE, default=1e-10)
    p.add_argument("--steps", type=_COUNT, default=16)

    p = sub.add_parser("ball-check", help="sampled ball-inclusion test")
    common(p)
    p.add_argument("--delta", type=_POSITIVE, default=1.0)
    p.add_argument("--samples", type=_COUNT, default=50)
    profile_options(p, None)  # --t-max defaults to max(--delta, 1)

    p = sub.add_parser("profile", help="emit the beta/rho profile CSV")
    common(p)
    profile_options(p, 2.0)

    p = sub.add_parser("check", help="run a property suite")
    common(p)
    p.add_argument("suite", choices=("mvt", "optimality", "validity", "chain"))
    p.add_argument("--trials", type=_COUNT,
                   help=f"default {DEFAULT_TRIALS}; not for optimality")
    p.add_argument("--tol", type=_NONNEGATIVE, default=1e-3)
    p.add_argument("--negative-control", action="store_true",
                   help="optimality only: run the deliberately failing "
                        "variant; exit 0 iff it fails as designed")
    return parser


_PARSER = _build_parser()


def _parse_args(argv):
    """Parse argv; a flag given on the command line wins over a --config
    file's value, which wins over the parser's default."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _PARSER.parse_args(argv)
    if getattr(args, "config", None):
        # config entries become flags that argparse checks, placed before
        # the command line's own so that those override them
        flags = []
        for key, val in load_config(args.config).items():
            attr = "map_id" if key == "map" else key.replace("-", "_")
            if attr in ("command", "config") or not hasattr(args, attr):
                raise ConfigError(f"unknown config key {key!r}")
            option = "--" + key.replace("_", "-")
            if val is not False:
                flags.append(option if val is True else f"{option}={val}")
        args = _PARSER.parse_args(argv[:1] + flags + argv[1:])
    return args


def _resolve(args):
    if not args.map_id:
        raise ConfigError("--map is required")
    if args.provider is None:
        args.provider = "sum"
    try:
        return make_map(str(args.map_id)), parse_provider(str(args.provider))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _profile_for(model, provider, args, rng):
    # a map without a constant sum pair, or too many draws, is a config error
    center = np.zeros(model.dim_in)
    try:
        if args.analytic_beta:
            return hadamard.beta_profile(model, provider, center, args.t_max,
                                         grid_n=args.grid_n, analytic=True)
        hadamard._check_draws(model.dim_in, args.grid_n, args.shell_samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return hadamard.beta_profile(
        model, provider, center, args.t_max, grid_n=args.grid_n,
        samples_per_shell=args.shell_samples, rng=rng)


def cmd_certify(args, rng):
    model, provider = _resolve(args)
    report = indices.regularity_index(model, provider,
                                      np.zeros(model.dim_in), rng=rng)
    profile = _profile_for(model, provider, args, rng)
    verdict_h = hadamard.hadamard_verdict(
        profile, analytic_divergent=args.analytic_beta and model.beta_divergent)
    # an index of either bound kind must clear the singularity margin
    # 10 * net; report.regular is a certified index that clears it
    if report.alpha <= 0.0:
        verdict = "not-regular"
    elif report.alpha > 10.0 * indices.DEFAULT_NET and verdict_h != "fails":
        verdict = f"regular-{report.bound_kind}"
    else:
        verdict = "inconclusive"
    fields = {
        "verdict": verdict,
        "alpha_min": float(min(report.alpha, profile.beta[-1])),
        "rho_at_tmax": float(profile.rho[-1]),
        "rho_lower_at_tmax": float(profile.rho_lower[-1]),
        "hadamard": verdict_h,
        "witnesses": report.witness.tolist(),
    }
    return fields, verdict.startswith("regular"), profile


def cmd_invert(args, rng):
    model, provider = _resolve(args)
    y = parse_vector(args.target)
    x0 = parse_vector(args.x0) if args.x0 else np.zeros(model.dim_in)
    if y.size != model.dim_out or x0.size != model.dim_in:
        raise ConfigError(f"{model.name} maps R^{model.dim_in} to "
                          f"R^{model.dim_out}; got --target of dim {y.size} "
                          f"and --x0 of dim {x0.size}")
    if args.method == "newton":
        trace = invert.semismooth_newton(model, provider, y, x0, tol=args.tol,
                                         rng=rng)
    elif args.method == "path":
        trace = invert.path_lift_invert(model, provider, x0, y,
                                        steps=args.steps, tol=args.tol, rng=rng)
    else:
        trace = invert.ekeland_descent(model, provider, y, x0, tol=args.tol,
                                       rng=rng)
    return trace.to_record(), trace.status == "converged", None


def cmd_ball_check(args, rng):
    if args.t_max is None:
        args.t_max = max(args.delta, 1.0)
    elif args.delta > args.t_max:
        raise ConfigError("--delta must not exceed --t-max")
    model, provider = _resolve(args)
    profile = _profile_for(model, provider, args, rng)
    rate = hadamard.ball_inclusion_test(model, provider,
                                        np.zeros(model.dim_in), args.delta,
                                        profile, samples=args.samples, rng=rng)
    fields = {"pass_rate": rate,
              "rho_at_delta": hadamard.rho_at(profile, args.delta)}
    return fields, rate == 1.0, profile


def cmd_profile(args, rng):
    model, provider = _resolve(args)
    profile = _profile_for(model, provider, args, rng)
    fields = {
        "mode": profile.mode,
        "rho_at_tmax": float(profile.rho[-1]),
        "rho_lower_at_tmax": float(profile.rho_lower[-1]),
        "beta_end": float(profile.beta[-1]),
    }
    return fields, True, profile


def cmd_check(args, rng):
    if args.suite == "optimality":
        # a fixed scalar target, |x| with a Clarke provider, echoed as such
        if (args.map_id, args.provider, args.trials) != (None, None, None):
            raise ConfigError("check optimality checks abs1d with a Clarke "
                              "provider at one point; --map, --provider and "
                              "--trials do not apply")
        args.map_id, args.provider = "abs1d", "clarke:delta=1e-3,m=32,eps=0"
        x0 = np.array([0.5 if args.negative_control else 0.0])
        dist, ok = properties.optimality_check(
            MapModel("abs1d", 1, 1, np.abs), parse_provider(args.provider), x0,
            tol=args.tol, rng=rng)
        fields = {"suite": args.suite, "distance": dist, "pass": bool(ok)}
        # the negative control succeeds when its check fails
        return fields, bool(ok) != args.negative_control, None
    if args.negative_control:
        raise ConfigError("--negative-control has a failing variant only in "
                          "check optimality")
    if args.trials is None:
        args.trials = DEFAULT_TRIALS
    model, provider = _resolve(args)
    x = np.zeros(model.dim_in)
    if args.suite == "mvt":
        # each segment draws u, then v, then its sets
        dist = max(properties.mvt_check(
            model, provider, rng.uniform(-1.0, 1.0, model.dim_in),
            rng.uniform(-1.0, 1.0, model.dim_in), tol=args.tol, rng=rng)[0]
            for _ in range(max(args.trials // 10, 1)))
        ok = bool(dist <= args.tol)
        return {"suite": args.suite, "max_distance": dist, "pass": ok}, ok, None
    if args.suite == "validity":
        rate, counterexample = validity_check(
            model, x, build_set(model, x, provider, rng=rng),
            trials=args.trials, tol=args.tol, rng=rng, counterexample=True)
    else:  # chain
        y0 = model(x) + 1.0
        outer = MapModel(
            "dist-to-point", model.dim_out, 1,
            lambda ys: _row_norms(ys - y0)[:, None],
            deriv=lambda ys: ((ys - y0) / _row_norms(ys - y0)[:, None])[:, None])
        rate, counterexample = properties.chain_rule_check(
            model, outer, provider, x, trials=args.trials, tol=args.tol,
            rng=rng, counterexample=True)
    ok = bool(rate >= 0.99)
    return {"suite": args.suite, "pass_rate": rate, "pass": ok,
            "counterexample": counterexample}, ok, None


def _config_echo(args):
    # the parsed arguments as the command left them; format_record sorts
    # the keys
    skip = {"command", "out", "csv", "config", "timing"}
    return {key: val for key, val in vars(args).items() if key not in skip}


_COMMANDS = {
    "certify": cmd_certify,
    "invert": cmd_invert,
    "ball-check": cmd_ball_check,
    "profile": cmd_profile,
    "check": cmd_check,
}


@functools.cache
def _keep_freed_heap():
    # the heap policy, once per process; a silent no-op without mallopt
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, HEAP_TOP_PAD)


def main(argv=None):
    _keep_freed_heap()
    try:
        args = _parse_args(argv)
        if args.command == "catalog":
            for ident, desc in catalog_ids():
                print(f"{ident:24s} {desc}")
            return 0
        start = time.perf_counter()
        fields, success, profile = _COMMANDS[args.command](
            args, np.random.default_rng(args.seed))
        record = {"command": args.command, "config": _config_echo(args),
                  **fields}
        if getattr(args, "timing", False):
            record["timing_ms"] = (time.perf_counter() - start) * 1000.0
        text = format_record(record)
        # the report file first, so that a --out that cannot be opened
        # leaves no --csv file behind, and a --csv that cannot be written
        # no report file
        with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
            if profile is not None and args.csv:
                try:
                    hadamard.write_profile_csv(profile, args.csv)
                except OSError:
                    if fh is not None:
                        os.remove(args.out)
                    raise
            if fh is not None:
                fh.write(text)
        sys.stdout.write(text)
        return 0 if success else 1
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map to the documented exit code
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
