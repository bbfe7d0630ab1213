"""Spans around calls into pjinv's modules, and the per-layer metrics.

A ``Tracer`` rebinds each public function of the pjinv modules named in
``LAYERS`` (the functions in each module's ``__all__``), in every pjinv
module namespace that holds it, to a wrapper that records one span: name,
parent span, start, end and a work count.  Maps built by ``make_map`` get
their ``fn``/``fn_batch`` oracles wrapped the same way.  Nothing in the
package is edited; ``uninstall`` puts the original functions back.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans under a root span add up to that root's
duration.  The benchmark opens one root span per round (``bench.round``),
which makes the layer self times add up to the traced wall time.
"""

import importlib
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("maps", "pseudojac", "linalg", "indices", "hadamard", "invert",
          "properties", "cli")

# Input coercion helpers run on every vector and matrix the package touches.
# A span per call would cost more than the call; their time stays in the
# caller's self time.
UNTRACED = frozenset({"linalg.as_matrix", "linalg.as_vector"})

ROOT = "bench.round"

# Self-time metric of each span name; a name not listed here falls under
# "<layer>.self_s".
SELF_METRIC = {
    "pseudojac.validity_check": "pseudojac.validity_self_s",
    "pseudojac.support_function": "pseudojac.validity_self_s",
    "linalg.project_to_hull": "linalg.hull_self_s",
    "linalg.dist_to_hull": "linalg.hull_self_s",
    ROOT: "bench.self_s",
}
LAYER_SELF_METRIC = {
    "pseudojac": "pseudojac.build_self_s",
    "linalg": "linalg.svd_self_s",
}

# Work recorded on a span: (positional args, keyword args, result) -> int.
WORK = {
    "maps.fn": lambda a, kw, r: 1,
    "maps.fn_batch": lambda a, kw, r: len(a[0]),
    "pseudojac.build_set": lambda a, kw, r: len(r.vertices),
    "linalg.project_to_hull": lambda a, kw, r: len(kw.get("vertices", a[1] if len(a) > 1 else ())),
    "invert.path_lift_invert": lambda a, kw, r: len(r.t_grid) - 1,
    "invert.semismooth_newton": lambda a, kw, r: int(r.used_pseudoinverse),
}

# (metric, unit) in the order the benchmark prints them.
PER_LAYER = (
    ("maps.oracle_calls", "count"),
    ("maps.oracle_rows", "count"),
    ("maps.self_s", "s"),
    ("pseudojac.sets_built", "count"),
    ("pseudojac.vertices_built", "count"),
    ("pseudojac.support_calls", "count"),
    ("pseudojac.build_self_s", "s"),
    ("pseudojac.validity_self_s", "s"),
    ("linalg.svd_calls", "count"),
    ("linalg.hull_projections", "count"),
    ("linalg.hull_vertices", "count"),
    ("linalg.svd_self_s", "s"),
    ("linalg.hull_self_s", "s"),
    ("indices.bound_calls", "count"),
    ("indices.regularity_calls", "count"),
    ("indices.svd_per_bound", "ratio"),
    ("indices.self_s", "s"),
    ("hadamard.profile_calls", "count"),
    ("hadamard.self_s", "s"),
    ("invert.path_calls", "count"),
    ("invert.newton_calls", "count"),
    ("invert.path_points", "count"),
    ("invert.pinv_traces", "count"),
    ("invert.newton_per_path_point", "ratio"),
    ("invert.self_s", "s"),
    ("properties.self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

SELF_METRICS = tuple(name for name, unit in PER_LAYER
                     if unit == "s" and not name.startswith("trace."))


def self_metric(span_name):
    """Per-layer self-time metric that a span of this name counts toward."""
    if span_name in SELF_METRIC:
        return SELF_METRIC[span_name]
    layer = span_name.split(".", 1)[0]
    return LAYER_SELF_METRIC.get(layer, f"{layer}.self_s")


class Tracer:
    """Records spans in memory during traced rounds; see the module docstring."""

    def __init__(self):
        self._names = []            # span name table; spans store an index
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._work = array("q")
        self._stack = [-1]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._work.append(0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Wrapper of fn that records a span named name on each call."""
        name_id = self._id(name)
        work = WORK.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self._work[idx] = work(args, kwargs, result)
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def traced_round(self):
        """Install the wrappers and record one round span around the body."""
        self.install()
        idx = self._open(self._id(ROOT))
        try:
            yield
        finally:
            self._close(idx)
            self.uninstall()

    # -- installing the wrappers -------------------------------------------

    def _wrap_map_oracles(self, model):
        model.fn = self.wrap(model.fn, "maps.fn")
        if model.fn_batch is not None:
            model.fn_batch = self.wrap(model.fn_batch, "maps.fn_batch")

    def install(self):
        """Rebind the public functions of every layer to traced wrappers."""
        modules = [importlib.import_module("pjinv")]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pjinv.{layer}")
            modules.append(module)
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if isinstance(fn, types.FunctionType) and name not in UNTRACED:
                    after = self._wrap_map_oracles if name == "maps.make_map" else None
                    wrappers[fn] = self.wrap(fn, name, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        """The recorded spans as numpy arrays (name ids index ``names``)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "work": np.frombuffer(self._work, dtype=np.int64).copy(),
            "names": np.array(self._names),
        }

    def save(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        np.savez_compressed(path, **self.arrays())

    def layer_totals(self):
        """Per-layer counts and self times summed over all recorded spans."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        names = list(spans["names"])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_time = dur - child

        out = {metric: 0.0 for metric in SELF_METRICS}
        per_name_self = np.bincount(name, weights=self_time, minlength=len(names))
        for i, span_name in enumerate(names):
            out[self_metric(span_name)] += float(per_name_self[i])

        def ids(*wanted):
            return [names.index(w) for w in wanted if w in names]

        def count(*wanted):
            return float(np.isin(name, ids(*wanted)).sum())

        def work(*wanted):
            return float(spans["work"][np.isin(name, ids(*wanted))].sum())

        def count_under(target, ancestor):
            mask = np.isin(name, ids(target))
            if not ids(ancestor) or not mask.any():
                return 0.0
            anc_id = ids(ancestor)[0]
            under = np.zeros(name.size, dtype=bool)
            anc = parent.copy()
            live = anc >= 0
            while live.any():
                under[live] |= name[anc[live]] == anc_id
                anc[live] = parent[anc[live]]
                live = anc >= 0
            return float((mask & under).sum())

        out["maps.oracle_calls"] = count("maps.fn", "maps.fn_batch")
        out["maps.oracle_rows"] = work("maps.fn", "maps.fn_batch")
        out["pseudojac.sets_built"] = count("pseudojac.build_set")
        out["pseudojac.vertices_built"] = work("pseudojac.build_set")
        out["pseudojac.support_calls"] = count("pseudojac.support_function")
        out["linalg.svd_calls"] = count("linalg.singular_values")
        out["linalg.hull_projections"] = count("linalg.project_to_hull")
        out["linalg.hull_vertices"] = work("linalg.project_to_hull")
        out["indices.bound_calls"] = count("indices.set_conorm_bounds")
        out["indices.regularity_calls"] = count("indices.regularity_index")
        out["indices.svd_under_bound"] = count_under("linalg.singular_values",
                                                     "indices.set_conorm_bounds")
        out["hadamard.profile_calls"] = count("hadamard.beta_profile")
        out["invert.path_calls"] = count("invert.path_lift_invert")
        out["invert.newton_calls"] = count("invert.semismooth_newton")
        out["invert.path_points"] = work("invert.path_lift_invert")
        out["invert.pinv_traces"] = work("invert.semismooth_newton")
        out["invert.newton_under_path"] = count_under("invert.semismooth_newton",
                                                      "invert.path_lift_invert")
        out["roots"] = count(ROOT)
        out["root_s"] = float(dur[np.isin(name, ids(ROOT))].sum())
        return out


def per_round_metrics(totals, untraced_wall_s):
    """Per-layer metrics per traced round from ``Tracer.layer_totals``.

    Counts and self times are means over the traced rounds; the two ratios
    are taken over all of them.  ``trace.overhead_s`` is the mean traced
    round wall time minus the mean untraced one (``untraced_wall_s``).
    """
    rounds = totals["roots"]
    if rounds < 1:
        raise ValueError("no traced round was recorded")
    out = {}
    for metric, unit in PER_LAYER:
        if unit != "ratio" and not metric.startswith("trace."):
            out[metric] = totals[metric] / rounds
    out["indices.svd_per_bound"] = _ratio(totals["indices.svd_under_bound"],
                                          totals["indices.bound_calls"])
    out["invert.newton_per_path_point"] = _ratio(totals["invert.newton_under_path"],
                                                 totals["invert.path_points"])
    out["trace.wall_s"] = totals["root_s"] / rounds
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
    return out


def _ratio(num, den):
    # a workload that never runs the denominator's operation reports 0
    return num / den if den else 0.0
