"""Command-line surface and structured report emission.

Commands: catalog, certify, invert, ball-check, profile, check.
Exit codes: 0 success, 1 negative verdict, 2 config error (a malformed
command line, config file, map, provider or option value), 3 computation
failure (anything raised while a well-formed command computes, such as a
DomainError or a non-finite set).
"""

import argparse
import json
import sys
import time

import numpy as np

from . import hadamard, indices, invert, properties
from .linalg import _row_norms
from .maps import make_map
from .pseudojac import parse_provider

__all__ = ["main", "load_config", "format_record"]


class ConfigError(ValueError):
    """A command that cannot be set up from its arguments (exit code 2)."""


# option -> (test, requirement): values the computation would refuse
_OPTION_RULES = {
    "trials": (lambda v: v >= 1, ">= 1"),
    "grid_n": (lambda v: v >= 2, ">= 2"),
    "t_max": (lambda v: v is None or v > 0, "> 0"),
    "delta": (lambda v: v >= 0, ">= 0"),
    "samples": (lambda v: v >= 1, ">= 1"),
}


def load_config(path):
    """Parse a flat `key = value` config file, UTF-8, `#` comments.

    Booleans are `true`/`false`; values that parse as int or float are
    converted; everything else stays a string.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(float(v)) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    return obj


def format_record(record):
    """Diff-stable serialization: sorted keys, 12 significant digits.

    JSON has no token for inf or NaN; a non-finite float is written as null.
    """
    return json.dumps(_round_floats(record), sort_keys=True,
                      allow_nan=False) + "\n"


def _emit(record, out_path):
    text = format_record(record)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pjinv",
        description="Invertibility certificates and numerical inversion "
                    "for nonsmooth maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--map", dest="map_id", help="catalog map identifier")
        p.add_argument("--provider", default="sum", help="provider string")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="write the report record to this file")
        p.add_argument("--csv", help="write the beta/rho profile CSV here")

    sub.add_parser("catalog", help="list catalog map identifiers")

    p = sub.add_parser("certify", help="regularity + Hadamard profile verdict")
    common(p)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--grid-n", type=int, default=hadamard.DEFAULT_GRID_N)
    p.add_argument("--shell-samples", type=int,
                   default=hadamard.DEFAULT_SHELL_SAMPLES)
    p.add_argument("--analytic-beta", action="store_true",
                   help="use the map's certified analytic profile bound")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the report (breaks byte "
                        "determinism across runs)")

    p = sub.add_parser("invert", help="invert one target point")
    common(p)
    p.add_argument("--target", required=True, help="comma-separated floats")
    p.add_argument("--x0", help="start point, comma-separated floats")
    p.add_argument("--method", choices=("newton", "path", "ekeland"),
                   default="path")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--steps", type=int, default=16)

    p = sub.add_parser("ball-check", help="sampled ball-inclusion test")
    common(p)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=hadamard.DEFAULT_GRID_N)
    p.add_argument("--shell-samples", type=int,
                   default=hadamard.DEFAULT_SHELL_SAMPLES)
    p.add_argument("--analytic-beta", action="store_true")

    p = sub.add_parser("profile", help="emit the beta/rho profile CSV")
    common(p)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--grid-n", type=int, default=hadamard.DEFAULT_GRID_N)
    p.add_argument("--shell-samples", type=int,
                   default=hadamard.DEFAULT_SHELL_SAMPLES)
    p.add_argument("--analytic-beta", action="store_true")

    p = sub.add_parser("check", help="run a property suite")
    common(p)
    p.add_argument("suite", choices=("mvt", "optimality", "validity", "chain"))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--negative-control", action="store_true",
                   help="run the deliberately failing variant; exit 0 iff "
                        "it fails as designed")
    return parser


def _apply_config(args):
    if getattr(args, "config", None):
        cfg = load_config(args.config)
        for key, val in cfg.items():
            attr = key.replace("-", "_")
            if attr == "map":
                attr = "map_id"
            if not hasattr(args, attr):
                raise ConfigError(f"unknown config key {key!r}")
            if getattr(args, attr) == _build_parser().get_default(attr) or \
                    getattr(args, attr) is None:
                setattr(args, attr, val)
    return args


def _check_options(args):
    for name, (ok, need) in _OPTION_RULES.items():
        if not hasattr(args, name):
            continue
        value = getattr(args, name)
        try:
            good = ok(value)
        except TypeError:
            good = False
        if not good:
            raise ConfigError(f"--{name.replace('_', '-')} must be {need}, "
                              f"got {value!r}")
    if hasattr(args, "delta") and args.t_max is not None \
            and args.delta > args.t_max:
        raise ConfigError("--delta must not exceed --t-max")


def _resolve(args):
    if not args.map_id:
        raise ConfigError("--map is required")
    try:
        return make_map(str(args.map_id)), parse_provider(str(args.provider))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _profile_for(model, provider, args, rng):
    analytic = None
    if args.analytic_beta:
        if model.analytic_beta is None:
            raise ConfigError(f"{model.name}: no analytic profile bound")
        analytic = model.analytic_beta
    t_max = args.t_max if args.t_max else 2.0
    return hadamard.beta_profile(
        model, provider, np.zeros(model.dim_in), t_max,
        grid_n=args.grid_n, samples_per_shell=args.shell_samples,
        analytic_beta=analytic, rng=rng)


def cmd_catalog(_args):
    from .maps import catalog_ids
    for ident, desc in catalog_ids():
        print(f"{ident:24s} {desc}")
    return 0


def cmd_certify(args):
    start = time.perf_counter()
    model, provider = _resolve(args)
    rng = np.random.default_rng(args.seed)
    report = indices.regularity_index(model, provider,
                                      np.zeros(model.dim_in), rng=rng)
    profile = _profile_for(model, provider, args, rng)
    verdict_h = hadamard.hadamard_verdict(
        profile, analytic_divergent=args.analytic_beta and model.beta_divergent)
    alpha_min = float(min(report.alpha, profile.beta[-1]))
    if not report.regular and report.alpha <= 0.0:
        verdict = "not-regular"
    elif report.regular and report.bound_kind == "certified" \
            and verdict_h != "fails":
        verdict = "regular-certified"
    elif report.alpha > 0.0 and verdict_h != "fails":
        verdict = "regular-sampled"
    else:
        verdict = "inconclusive"
    record = {
        "command": "certify",
        "config": _config_echo(args),
        "verdict": verdict,
        "alpha_min": alpha_min,
        "rho_at_tmax": float(profile.rho[-1]),
        "hadamard": verdict_h,
        "witnesses": [[float(v) for v in row] for row in report.witness]
        if report.witness is not None else [],
    }
    if args.timing:
        record["timing_ms"] = (time.perf_counter() - start) * 1000.0
    if args.csv:
        hadamard.write_profile_csv(profile, args.csv)
    _emit(record, args.out)
    return 0 if verdict.startswith("regular") else 1


def cmd_invert(args):
    model, provider = _resolve(args)
    rng = np.random.default_rng(args.seed)
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
    record = {"command": "invert", "config": _config_echo(args)}
    record.update(trace.to_record())
    _emit(record, args.out)
    return 0 if trace.status == "converged" else 1


def cmd_ball_check(args):
    model, provider = _resolve(args)
    rng = np.random.default_rng(args.seed)
    if args.t_max is None:
        args.t_max = max(args.delta, 1.0)
    profile = _profile_for(model, provider, args, rng)
    rate = hadamard.ball_inclusion_test(model, provider,
                                        np.zeros(model.dim_in), args.delta,
                                        profile, samples=args.samples, rng=rng)
    record = {
        "command": "ball-check",
        "config": _config_echo(args),
        "pass_rate": rate,
        "rho_at_delta": hadamard.rho_at(profile, args.delta),
    }
    if args.csv:
        hadamard.write_profile_csv(profile, args.csv)
    _emit(record, args.out)
    return 0 if rate == 1.0 else 1


def cmd_profile(args):
    model, provider = _resolve(args)
    rng = np.random.default_rng(args.seed)
    profile = _profile_for(model, provider, args, rng)
    record = {
        "command": "profile",
        "config": _config_echo(args),
        "mode": profile.mode,
        "rho_at_tmax": float(profile.rho[-1]),
        "beta_end": float(profile.beta[-1]),
    }
    if args.csv:
        hadamard.write_profile_csv(profile, args.csv)
    _emit(record, args.out)
    return 0


def cmd_check(args):
    rng = np.random.default_rng(args.seed)
    record = {"command": "check", "suite": args.suite,
              "config": _config_echo(args)}
    if args.suite == "optimality":
        # canonical scalar target: |x| via the clarke provider
        from .maps import MapModel
        absmap = MapModel("abs1d", 1, 1, lambda x: np.abs(x))
        provider = parse_provider("clarke:delta=1e-3,m=32,eps=0")
        x0 = np.array([0.5]) if args.negative_control else np.array([0.0])
        dist, ok = properties.optimality_check(absmap, provider, x0,
                                               tol=args.tol, rng=rng)
        record.update({"distance": dist, "pass": bool(ok)})
        success = (not ok) if args.negative_control else ok
    elif args.suite == "mvt":
        model, provider = _resolve(args)
        dists = []
        for _ in range(max(args.trials // 10, 1)):
            u = rng.uniform(-1.0, 1.0, model.dim_in)
            v = rng.uniform(-1.0, 1.0, model.dim_in)
            dist, _ok = properties.mvt_check(model, provider, u, v,
                                             tol=args.tol, rng=rng)
            dists.append(dist)
        record.update({"max_distance": max(dists),
                       "pass": bool(max(dists) <= args.tol)})
        success = record["pass"]
    elif args.suite == "validity":
        model, provider = _resolve(args)
        from .pseudojac import build_set, validity_check
        x = np.zeros(model.dim_in)
        jset = build_set(model, x, provider, rng=rng)
        rate = validity_check(model, x, jset, trials=args.trials,
                              tol=args.tol, rng=rng)
        record.update({"pass_rate": rate, "pass": bool(rate >= 0.99)})
        success = record["pass"]
    else:  # chain
        model, provider = _resolve(args)
        fx = model(np.zeros(model.dim_in))
        y0 = fx + np.ones(model.dim_out)
        from .maps import MapModel
        outer = MapModel(
            "dist-to-point", model.dim_out, 1,
            lambda y: np.array([np.linalg.norm(y - y0)]),
            fn_batch=lambda ys: _row_norms(ys - y0)[:, None],
            deriv=lambda y: ((y - y0) / np.linalg.norm(y - y0)).reshape(1, -1))
        rate = properties.chain_rule_check(model, outer, provider,
                                           np.zeros(model.dim_in),
                                           trials=args.trials, tol=args.tol,
                                           rng=rng)
        record.update({"pass_rate": rate, "pass": bool(rate >= 0.99)})
        success = record["pass"]
    _emit(record, args.out)
    return 0 if success else 1


def _config_echo(args):
    skip = {"command", "func", "out", "csv", "config", "timing"}
    echo = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or callable(val):
            continue
        echo[key] = val
    return echo


_COMMANDS = {
    "catalog": cmd_catalog,
    "certify": cmd_certify,
    "invert": cmd_invert,
    "ball-check": cmd_ball_check,
    "profile": cmd_profile,
    "check": cmd_check,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command != "catalog":
            args = _apply_config(args)
            _check_options(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map to the documented exit code
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
