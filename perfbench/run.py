"""pjinv benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload certify|invert|check --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.
Each operation is one ``pjinv`` command line run in process through
``pjinv.cli.main(argv)``; its JSON report is read back and checked (see
workloads.py).  Operations run in rounds of a fixed list, drawn from the
seed, until ``--seconds`` have passed; the round in progress is finished.

``--trace 0`` prints the end-to-end metrics.  Their times are calibrated
against a fixed reference kernel timed between operations (Calibration),
because the speed of a shared machine drifts by a quarter over tens of
seconds (see README.md).  ``--trace 1`` alternates untraced and traced
rounds on the same inputs and prints the per-layer metrics (spans.py); the
spans are written to ``perfbench/out/``.  The last line of standard output
is one JSON object; lines before it give the per-class figures.  The exit
code is 0 only when every operation succeeded and passed its check.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One BLAS thread: the benchmark's one worker process then uses one core.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Calibrated times are in units where the reference kernel takes this long.
REF_NOMINAL_S = 2e-3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_a_p50_ms", "ms"),
    ("op_b_p50_ms", "ms"),
    ("op_c_p50_ms", "ms"),
)

# Run in a fresh interpreter: everything the first operation waits for.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy, pjinv.cli
from pjinv.maps import make_map
from pjinv.pseudojac import parse_provider
make_map(sys.argv[2]); parse_provider(sys.argv[3])
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "invert", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel():
    """Seconds taken by a fixed mix of the kinds of work pjinv's operations do.

    Plane rotations on a 4x4 array (as in a Jacobi SVD), validated map
    evaluations on 3-vectors, matrix-vector products and argmin over 4,096
    points (as in a Frank-Wolfe step) and 50x50 solves (as in Newton on
    theta-a:50), in about equal shares.  None of it is pjinv's code, so only
    the machine's speed moves it.
    """
    import numpy as np
    a = np.arange(1.0, 17.0).reshape(4, 4) ** 0.5
    x = np.array([0.5, -0.25, 0.125])
    points = np.linspace(-1.0, 1.0, 8192).reshape(4096, 2)
    m = 2.0 * np.eye(50) + np.linspace(0.0, 0.01, 2500).reshape(50, 50)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(10):
        w = a.copy()
        for p in range(3):
            q = p + 1
            app, aqq, apq = w[:, p] @ w[:, p], w[:, q] @ w[:, q], w[:, p] @ w[:, q]
            zeta = (aqq - app) / (2.0 * apq)
            t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            wp = w[:, p].copy()
            w[:, p] = c * wp - c * t * w[:, q]
            w[:, q] = c * t * wp + c * w[:, q]
        acc += float(w[0, 0])
    for i in range(75):
        z = np.asarray(x * (1.0 + 1e-3 * i), dtype=float)
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > 1e6:
            raise ArithmeticError("reference kernel left its domain")
        y = z.copy()
        y[:-1] += np.abs(z[1:]) - np.log1p(np.abs(z[1:]))
        acc += float(y[0])
    g = np.array([0.3, -0.2])
    for _ in range(40):
        k = int(np.argmin(points @ g))
        g = g + 1e-3 * points[k]
    for _ in range(5):
        acc += float(np.linalg.solve(m, np.ones(50))[0])
    if not np.isfinite(acc + g[0]):
        raise ArithmeticError("reference kernel overflowed")
    return time.perf_counter() - start


class Calibration:
    """Reference-kernel times taken between timed operations.

    An operation's calibrated time is its raw time times REF_NOMINAL_S over
    the median of the WINDOW kernel times on each side of it.  One kernel
    time is noisy (the machine's speed also flickers from one millisecond to
    the next); the window follows the slower drift that a whole operation
    sees.
    """

    WINDOW = 4

    def __init__(self):
        self.refs = [reference_kernel()]
        self.ops = []               # (key, raw seconds, index of kernel time before)

    def add(self, key, seconds):
        """Record an operation that just ended, then time the kernel."""
        if seconds is not None:
            self.ops.append((key, seconds, len(self.refs) - 1))
        self.refs.append(reference_kernel())

    def calibrated(self):
        """[(key, calibrated seconds)] in the order added."""
        out = []
        for key, seconds, before in self.ops:
            window = self.refs[max(0, before - self.WINDOW + 1):before + self.WINDOW + 1]
            out.append((key, seconds * REF_NOMINAL_S / statistics.median(window)))
        return out


def measure_setup(first_class):
    """Median over SETUP_REPEATS fresh interpreters of the set-up time.

    Each probe builds the map and provider of the workload's first class.
    Returns (calibrated, raw) seconds.
    """
    import numpy as np
    argv, _ = first_class.make(np.random.default_rng(0))
    map_id = argv[argv.index("--map") + 1]
    provider = argv[argv.index("--provider") + 1]
    calibration = Calibration()
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), map_id, provider],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            env=os.environ.copy(), check=True)
        calibration.add("setup", float(proc.stdout.split()[-1]) - start)
    raw = [seconds for _, seconds, _ in calibration.ops]
    calibrated = [seconds for _, seconds in calibration.calibrated()]
    return statistics.median(calibrated), statistics.median(raw)


class Outcomes:
    """Counts, first failure messages and raw latencies of passed operations."""

    def __init__(self):
        self.latencies = {}         # class name -> raw seconds
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def note(self, message):
        if len(self.messages) < 10:
            self.messages.append(message)


def run_op(cli, cls, argv, ctx, outcomes):
    """Run one command in process and check its report.

    Returns the elapsed seconds if the operation passed, else None.
    """
    from workloads import CheckFailed
    out, err = io.StringIO(), io.StringIO()
    outcomes.attempted += 1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects the command line
        code = exc.code
    elapsed = time.perf_counter() - start
    if code != 0:
        outcomes.failed += 1
        outcomes.note(f"{cls.name}: exit {code}: {err.getvalue().strip()[-300:]} "
                      f"argv={argv}")
        return None
    try:
        cls.check(json.loads(out.getvalue().splitlines()[-1]), ctx)
    except (CheckFailed, KeyError, ValueError, IndexError) as exc:
        outcomes.failed += 1
        outcomes.wrong += 1
        outcomes.note(f"{cls.name}: check failed: {exc} argv={argv}")
        return None
    outcomes.latencies.setdefault(cls.name, []).append(elapsed)
    return elapsed


def run_round(cli, ops, outcomes):
    """Run one round; returns its wall seconds."""
    start = time.perf_counter()
    for cls, argv, ctx in ops:
        run_op(cli, cls, argv, ctx, outcomes)
    return time.perf_counter() - start


def run_rounds(cli, classes, seed, seconds, tracer=None, calibration=None):
    """Whole rounds until `seconds` have passed.

    Returns (outcomes, untraced round walls, traced round walls).  With a
    calibration, each operation is recorded in it under (round, class name)
    and the untraced walls are left empty.  With a tracer, each round's
    operations run twice, untraced and traced, in alternating order.
    """
    import numpy as np
    from workloads import round_ops

    rng = np.random.default_rng(seed)
    outcomes = Outcomes()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        ops = round_ops(classes, rng)
        if calibration is not None:
            for cls, argv, ctx in ops:
                calibration.add((index, cls.name), run_op(cli, cls, argv, ctx, outcomes))
        elif tracer is None:
            plain.append(run_round(cli, ops, outcomes))
        else:
            for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracer.traced_round():
                        traced.append(run_round(cli, ops, outcomes))
                else:
                    plain.append(run_round(cli, ops, outcomes))
        index += 1
        outcomes.rounds = index
        if time.perf_counter() >= deadline:
            return outcomes, plain, traced


def end_to_end(classes, calibration):
    """wall_s and op_<slot>_p50_ms from the calibrated operation times.

    wall_s is the median over rounds of the round's summed operation times.
    """
    rounds, per_class = {}, {}
    for (index, name), seconds in calibration.calibrated():
        rounds[index] = rounds.get(index, 0.0) + seconds
        per_class.setdefault(name, []).append(seconds)
    metrics = {"wall_s": statistics.median(rounds.values())}
    for cls in classes:
        if cls.name in per_class:
            metrics[f"op_{cls.slot}_p50_ms"] = statistics.median(per_class[cls.name]) * 1e3
    return metrics


def class_lines(classes, outcomes):
    """Per-class figures under the names the README uses."""
    lines = []
    for cls in classes:
        times = outcomes.latencies.get(cls.name, [])
        if not times:
            continue
        label, unit, value = cls.detail
        p50 = statistics.median(times)
        if unit == "ms":
            lines.append(f"{label}_p50 = {value(p50):.6g} ms (n={len(times)})")
            if len(times) >= 100:
                p90 = statistics.quantiles(times, n=10)[-1]
                lines.append(f"{label}_p90 = {value(p90):.6g} ms (n={len(times)})")
        else:
            lines.append(f"{label} = {value(p50):.6g} {unit} (n={len(times)})")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pjinv" / "cli.py").is_file():
        print(f"pjinv sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)     # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import pjinv.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "pjinv":
        print(f"imported pjinv from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed, negative_control

    classes = WORKLOADS[args.workload]
    correct = True
    messages = []
    if not args.trace:
        setup_s, setup_raw_s = measure_setup(classes[0])
        print(f"setup: {setup_raw_s:.4f} s raw")
    if args.workload == "check":
        try:
            rate = negative_control(args.seed)
            print(f"negative control: validity of |x| against {{0.5}} "
                  f"passes {rate:.3f} of trials (must be <= 0.9)")
        except CheckFailed as exc:
            correct = False
            messages.append(f"negative control: {exc}")

    if args.trace:
        from spans import PER_LAYER, Tracer, per_round_metrics
        tracer = Tracer()
        outcomes, plain, _ = run_rounds(cli, classes, args.seed, args.seconds,
                                        tracer=tracer)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        metrics = per_round_metrics(tracer.layer_totals(), statistics.fmean(plain))
        units = dict(PER_LAYER)
    else:
        calibration = Calibration()
        outcomes, _, _ = run_rounds(cli, classes, args.seed, args.seconds,
                                    calibration=calibration)
        metrics = {"setup_s": setup_s,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if outcomes.latencies:
            metrics.update(end_to_end(classes, calibration))
        units = dict(END_TO_END)
        metrics = {name: metrics[name] for name in units if name in metrics}
    correct = correct and outcomes.wrong == 0
    messages += outcomes.messages

    print(f"workload={args.workload} seed={args.seed} rounds={outcomes.rounds}"
          f"{' (each untraced and traced)' if args.trace else ''}"
          f" attempted={outcomes.attempted} failed={outcomes.failed}")
    for line in class_lines(classes, outcomes):
        print(line)
    for message in messages:
        print(message, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and outcomes.failed == 0 and metrics.keys() == units.keys() else 1


if __name__ == "__main__":
    sys.exit(main())
