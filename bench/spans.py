"""Span tracer for the benchmark's traced run.

`install` wraps public functions of relbound's modules inside the worker
process only: every module attribute bound to a traced function is
rebound to a wrapper, so calls made through `from .x import f` names are
seen as well as calls through `module.f`. No file of the package changes.

Each wrapped call is a frame on a per-thread stack. On exit its duration
is added to its parent's child time, and its self time is its duration
minus that child time (the part of its interval its child calls cover,
since calls on one thread never overlap). Spans (id, name, start, end,
parent id) stay in memory until `write_spans`. High-frequency solver
calls are aggregated into count / total / self with no span per call.
"""

import importlib
import itertools
import json
import sys
import threading
import time
import tracemalloc


class Stat:
    """Aggregate of every call under one name."""

    __slots__ = ("calls", "total", "self_s", "evals", "peak_alloc_mb", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.evals = 0
        self.peak_alloc_mb = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def merge(self, other):
        self.calls += other.calls
        self.total += other.total
        self.self_s += other.self_s
        self.evals += other.evals
        self.peak_alloc_mb = max(self.peak_alloc_mb, other.peak_alloc_mb)
        for key, value in other.extra.items():
            self.add(key, value)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._per_thread = []
        self._lock = threading.Lock()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
        return local

    def wrap(self, fn, name, record=True, key=None, count_evals=False, after=None, alloc=False):
        """Return a traced stand-in for fn.

        key(args) picks the stat name per call (default `name`);
        count_evals counts calls of the function passed as the first
        argument; after(stat, args, result) adds counters from the call;
        alloc records the call's peak traced allocation in MB.
        """
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            state = tracer._thread_state()
            label = key(args) if key else name
            stat = state.stats.get(label)
            if stat is None:
                stat = state.stats[label] = Stat()
            if count_evals:
                inner = args[0]

                def counted(x):
                    stat.evals += 1
                    return inner(x)

                args = (counted,) + args[1:]
            if alloc:
                tracemalloc.start()
            parent = state.stack[-1] if state.stack else None
            frame = [clock(), 0.0, next(tracer._ids)]
            state.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                state.stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    stat.peak_alloc_mb = max(stat.peak_alloc_mb, peak)
                    tracemalloc.stop()
                dur = end - frame[0]
                stat.calls += 1
                stat.total += dur
                stat.self_s += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if record:
                    tracer.spans.append(
                        (frame[2], label, frame[0], end, parent[2] if parent else None)
                    )
            if after is not None:
                after(stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stats(self):
        """Stats of every thread, merged by name."""
        merged = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, stat in table.items():
                merged.setdefault(name, Stat()).merge(stat)
        return merged

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, fh)


def _count_points(stat, args, result):
    stat.add("points", len(args[2]))


def _count_unconverged(stat, args, result):
    stat.add("unconverged", int(not result.converged))


def _count_trials(stat, args, result):
    stat.add("trials", result.trials)


# (module, function, options); stat name is "<module>.<function>"
TARGETS = [
    ("cli", "main", {}),
    ("curves", "evaluate_curve", {"key": lambda args: "curves." + args[1], "after": _count_points}),
    ("curves", "curves_to_csv", {}),
    ("upper_bounds", "delta_lp2", {}),
    ("upper_bounds", "envelope", {}),
    ("upper_bounds", "spectrum_half_point", {}),
    ("upper_bounds", "min_distance_bound", {}),
    ("upper_bounds", "straight_line_bound", {}),
    ("solvers", "bisect_root", {"record": False, "count_evals": True}),
    ("solvers", "golden_min", {"record": False, "count_evals": True}),
    ("channel", "entropy_h_inv", {"record": False}),
    ("classical", "random_coding_exponent", {}),
    ("classical", "sphere_packing_exponent", {}),
    ("classical", "expurgated_exponent", {}),
    ("lower_bounds", "lower_bound_even", {}),
    ("lower_bounds", "lower_bound_q5", {}),
    ("lower_bounds", "coset_spectrum_check", {}),
    ("codes", "make_code", {}),
    ("codes", "build_coset_code", {}),
    ("codes", "random_linear_code", {}),
    ("codes", "q5_weight_census", {}),
    ("codes", "spectrum", {}),
    ("codes", "union_bound_pe", {}),
    ("codes", "exact_pe", {}),
    ("codes", "mc_pe", {"after": _count_trials, "alloc": True}),
    ("oracle", "minimize_q", {"after": _count_unconverged}),
]


def install(tracer):
    """Rebind every traced function, and the criteria and bound tables, in loaded relbound modules."""
    modules = [m for n, m in list(sys.modules.items()) if n == "relbound" or n.startswith("relbound.")]
    # curves.BOUNDS holds some exponent functions directly
    bounds = importlib.import_module("relbound.curves").BOUNDS
    for mod_name, fn_name, opts in TARGETS:
        original = getattr(importlib.import_module(f"relbound.{mod_name}"), fn_name)
        traced = tracer.wrap(original, f"{mod_name}.{fn_name}", **opts)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
        for name, spec in bounds.items():
            if spec.evaluate is original:
                bounds[name] = spec._replace(evaluate=traced)
    criteria = importlib.import_module("relbound.acceptance").CRITERIA
    for i, (name, desc, check) in enumerate(criteria):
        criteria[i] = (name, desc, tracer.wrap(check, f"acceptance.{name}"))


def flat_metrics(stats):
    """Per-layer metric values derived from merged stats, keyed by metric name."""
    flat = {}
    for name, st in stats.items():
        flat[f"{name}.calls"] = st.calls
        flat[f"{name}.s"] = st.total
        flat[f"{name}.self_s"] = st.self_s
        flat[f"{name}.evals"] = st.evals
        flat[f"{name}.peak_alloc_mb"] = st.peak_alloc_mb
        for extra, value in st.extra.items():
            flat[f"{name}.{extra}"] = value
        points = st.extra.get("points")
        if points:
            flat[f"{name}.ms_per_point"] = 1000.0 * st.total / points
        trials = st.extra.get("trials")
        if trials and st.total > 0:
            flat[f"{name}.trials_per_s"] = trials / st.total
    return flat
