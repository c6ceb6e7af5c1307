"""Span tracing of the sfgp package, installed from outside the package.

`Tracer.install()` replaces the public functions of every sfgp module, and
every module attribute that aliases one of them, with wrappers that record a
span (name, start, end, parent) in memory.  Nothing inside the package is
edited, and `uninstall()` restores the originals.  A few wrappers also read
sizes off the arguments or the result, so that work counts (pairs, bytes,
flops) are recorded where the work happens.  Those counts are computed from
array sizes, not measured.

In a process started by the benchmark (the `sfgp sweep` child and its pool
workers) the tracer appends its spans to a JSON-lines file in `sink_dir`
each time a top-level span ends, because those processes cannot hand their
memory back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("core", "kernels", "gpr", "correspondence", "registration",
           "synthdata", "metrics", "io", "cli")

# Non-public callees that carry a layer of their own: the LAPACK wrappers gpr
# calls through its module attributes, and the per-task body of a sweep.
EXTRA_TARGETS = {"gpr": ("cho_factor", "cho_solve", "solve_triangular"),
                 "cli": ("_sweep_task",)}

# Called once per inlier per iteration inside the fusion loop: a span there
# would cost more than the work it times, so these are only counted.
COUNT_ONLY = frozenset({"gpr.fuse_labels"})

UNDERFLOW_ATTR = "underflow_column_count"

# names the span directory of a traced `sfgp sweep` child (see sweep_child.py)
SINK_ENV = "PERFBENCH_TRACE_DIR"


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hook_gram(t, args, kwargs, gram):
    t.sample("kernels.gram_bytes", gram.g.nbytes)


def _hook_responsibilities(t, args, kwargs, p):
    t.sample("correspondence.pairs", p.size)


def _hook_correspondences(t, args, kwargs, result):
    state = result[0]
    mode = _arg(args, kwargs, 2, "mode", "on")
    cutoff = _arg(args, kwargs, 1, "p_min") if mode == "on" else 0.0
    t.count("correspondence.kept_pairs", int((state.P > cutoff).sum()))
    t.count("correspondence.all_pairs", state.P.size)
    t.count("correspondence.inliers", state.inliers.size)
    t.count("correspondence.reference_points", state.P.shape[0])


def _hook_posterior(t, args, kwargs, result):
    t.sample("gpr.observed_block_n", len(_arg(args, kwargs, 1, "inliers")))


def _hook_cho_factor(t, args, kwargs, result):
    c = _arg(args, kwargs, 0, "a").shape[0]
    t.sample("gpr.cholesky_flops", c**3 / 3.0)


def _hook_solve_triangular(t, args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    rhs = b.shape[1] if b.ndim > 1 else 1
    t.sample("gpr.trisolve_flops", float(a.shape[0]) ** 2 * rhs)


def _hook_register(t, args, kwargs, result):
    t.sample("registration.iters", result.iters)


HOOKS = {
    "kernels.assemble_gram": _hook_gram,
    "correspondence.responsibilities": _hook_responsibilities,
    "correspondence.get_correspondences": _hook_correspondences,
    "gpr.gpr_posterior": _hook_posterior,
    "gpr.cho_factor": _hook_cho_factor,
    "gpr.solve_triangular": _hook_solve_triangular,
    "registration.register": _hook_register,
}


class Tracer:
    """Records spans as [name, start, end, parent index] in `spans`."""

    def __init__(self, sink_dir=None):
        self.sink_dir = None if sink_dir is None else Path(sink_dir)
        self._patched = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.counters = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._pid = os.getpid()
        self._underflow_base = self._underflow_now()

    @staticmethod
    def _underflow_now():
        module = sys.modules.get("sfgp.correspondence")
        return getattr(module, UNDERFLOW_ATTR, 0) if module is not None else 0

    def count(self, key, n=1):
        self.counters[key] += n

    def sample(self, key, value):
        self.samples[key].append(float(value))

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        tracer = self

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counters[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._pid != os.getpid():
                tracer._reset()  # first call in a forked worker
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counters[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if not stack and tracer.sink_dir is not None:
                tracer.flush()
            return result

        return traced

    def install(self):
        targets = {}
        for short in MODULES:
            module = importlib.import_module("sfgp." + short)
            for name, fn in _public_functions(module):
                targets.setdefault(id(fn), (fn, f"{short}.{name}"))
            for name in EXTRA_TARGETS.get(short, ()):
                fn = getattr(module, name, None)
                if callable(fn):
                    targets.setdefault(id(fn), (fn, f"{short}.{name}"))
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sfgp" or mod_name.startswith("sfgp.")):
                continue
            for attr, value in list(vars(module).items()):
                key = id(value)
                if key in targets and targets[key][0] is value:
                    setattr(module, attr, wrappers[key])
                    self._patched.append((module, attr, value))
        self._reset()
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def snapshot(self):
        """This process's record since the last reset, as a plain dict."""
        counters = dict(self.counters)
        counters["correspondence.underflow_columns"] = (
            self._underflow_now() - self._underflow_base
        )
        return {"spans": [list(s) for s in self.spans], "counters": counters,
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def flush(self):
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        with open(self.sink_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
        self._reset()


def read_sink(sink_dir):
    """Every record the processes of one traced run flushed to `sink_dir`."""
    records = []
    for path in sorted(Path(sink_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class Aggregate:
    """Per-name durations and self times pooled over many records."""

    def __init__(self, records):
        self.durations = defaultdict(list)
        self.selfs = defaultdict(list)
        self.counters = Counter()
        self.samples = defaultdict(list)
        for record in records:
            spans = record["spans"]
            for span, own in zip(spans, self_times(spans)):
                self.durations[span[0]].append(span[2] - span[1])
                self.selfs[span[0]].append(own)
            self.counters.update(record["counters"])
            for key, values in record["samples"].items():
                self.samples[key].extend(values)

    def pooled(self, names, kind):
        source = self.durations if kind == "duration" else self.selfs
        return [v for name in names for v in source.get(name, ())]


def p50(values):
    return statistics.median(values) if values else 0.0


# (metric prefix, spans pooled into it, per-call quantity of <prefix>_ms)
TIMED_LAYERS = (
    ("kernels.assemble_gram", ("kernels.assemble_gram",), "duration"),
    ("correspondence.responsibilities", ("correspondence.responsibilities",), "duration"),
    ("correspondence.fusion", ("correspondence.get_correspondences",), "self"),
    ("correspondence.threshold", ("correspondence.threshold",), "duration"),
    ("correspondence.closest_point", ("correspondence.closest_point_correspondence",), "duration"),
    ("gpr.posterior", ("gpr.gpr_posterior",), "duration"),
    ("gpr.cholesky", ("gpr.cho_factor",), "duration"),
    ("gpr.cho_solve", ("gpr.cho_solve",), "duration"),
    ("gpr.variance_solve", ("gpr.solve_triangular",), "duration"),
    ("registration.update_sigma2", ("registration.update_sigma2",), "duration"),
    ("registration.loop", ("registration.register",), "self"),
    ("synthdata.generate", ("synthdata.generate",), "duration"),
    ("metrics.eval", ("metrics.mean_sq_distance", "metrics.missing_detection",
                      "metrics.success_ratio"), "duration"),
)

# the register span's own time is the loop around the layers, named for that
_MS_NAME = {"registration.loop": "registration.loop_self_ms"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg):
    """Per-layer metrics of the span records, name -> (value, unit)."""
    out = {}
    for prefix, names, kind in TIMED_LAYERS:
        out[_MS_NAME.get(prefix, prefix + "_ms")] = (1e3 * p50(agg.pooled(names, kind)), "ms")
        out[prefix + "_self_s"] = (sum(agg.pooled(names, "self")), "s")
        out[prefix + "_calls"] = (len(agg.pooled(names, "duration")), "count")
    out["gpr.posterior_self_ms"] = (1e3 * p50(agg.pooled(("gpr.gpr_posterior",), "self")), "ms")
    out["registration.register_ms"] = (
        1e3 * p50(agg.pooled(("registration.register",), "duration")), "ms")

    c, s = agg.counters, agg.samples
    out["kernels.gram_bytes"] = (p50(s["kernels.gram_bytes"]), "bytes_computed")
    out["correspondence.pairs"] = (p50(s["correspondence.pairs"]), "pairs_computed")
    out["correspondence.kept_pair_ratio"] = (
        _ratio(c["correspondence.kept_pairs"], c["correspondence.all_pairs"]), "ratio")
    out["correspondence.fuse_calls"] = (c["gpr.fuse_labels"], "count")
    out["correspondence.inlier_ratio"] = (
        _ratio(c["correspondence.inliers"], c["correspondence.reference_points"]), "ratio")
    out["correspondence.underflow_columns"] = (c["correspondence.underflow_columns"], "count")
    out["correspondence.all_missing_failures"] = (
        c["correspondence.get_correspondences!AllMissingError"], "count")
    out["gpr.observed_block_n"] = (p50(s["gpr.observed_block_n"]), "count")
    out["gpr.cholesky_flops"] = (p50(s["gpr.cholesky_flops"]), "flop_computed")
    out["gpr.trisolve_flops"] = (p50(s["gpr.trisolve_flops"]), "flop_computed")
    out["gpr.numerical_errors"] = (
        sum(n for key, n in c.items() if key.startswith("gpr.") and key.endswith("!NumericalError")),
        "count")
    iters = s["registration.iters"]
    out["registration.iters"] = (statistics.fmean(iters) if iters else 0.0, "count")
    return out
