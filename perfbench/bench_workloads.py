"""The benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client: a registration (or a whole
`sfgp sweep`) starts only after the previous one returned.  Inputs come from
the seed alone.  A run repeats a fixed pass of work at least twice, and then
while another whole pass fits in the time it was given, so every run of a seed
times the same registrations in the same mix; a faster program repeats the
pass more often, and the repeats must give bit-identical results.  Each
registration is scored by its fastest repeat: the minimum drops the slowdowns
that other load on the host adds to single repeats.

fish_grid also runs its registrations through `sfgp sweep --threads 2` in a
child process after the timed passes, checks the sweep's rows against the
in-process ones, and reports the sweep's figures as unbounded info lines
(untraced) or `cli.*` layers (traced).

Import this module only after `run.import_sfgp()` has put the checkout's
`src` on the path.
"""
from __future__ import annotations

import csv
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from sfgp import cli, metrics, registration, synthdata
from sfgp.core import PointSet, SFGPError

import bench_trace

HERE = Path(__file__).resolve().parent
WORKDIR = HERE.parent / ".perfbench"  # scratch space inside the checkout
SWEEP_CHILD = HERE / "sweep_child.py"

# fish98 grid of the paper's missing-region / outlier study: 4 levels x 4
# variants, with the acceptance suite's calibrated kernel and threshold, one
# instance per level: a pass of 16 registrations takes about 18 s on 2 cores.
FISH_GRID = {
    "missing_width": [0.1, 0.3],
    "noise_std": [0.02],
    "outlier_ratio": [0.0, 0.5],
    "deformation_level": [1],
}
FISH_VARIANTS = ("SFGP_Full", "SFGP_bcpdReg", "GPReg_noTresh", "GPClosestPnt")
FISH_KERNEL = {"type": "squared_exponential", "amplitude2": 0.01, "lengthscale": 0.2}
FISH_REGISTRATION = {"p_min": 0.05, "omega": 0.1}
FISH_INSTANCES = 1

# Dense 3-D case: about 1 s per iteration at N_R = 2000, so the iteration cap
# keeps a pass of SPHERE_INSTANCES registrations near 12 s.
SPHERE_N = 2000
SPHERE_INSTANCES = 3
SPHERE_MAX_ITERS = 4
SPHERE_SPEC = {
    "warp_amplitude": synthdata.DEFORMATION_AMPLITUDE_PER_LEVEL,
    "warp_bandwidth": 0.3,
    "warp_controls": 5,
    "missing_width": 0.4,
    "outlier_ratio": 0.1,
    "noise_std": 0.01,
}

# Set-ups are timed before the first pass and after every pass.  On the
# reference host a fresh import took 0.49-0.79 s, with slow stretches of
# several seconds, so samples spread over the run give a steadier median than
# samples taken in a row.
SETUPS_PER_GAP = 2
MIN_PASSES = 2
SWEEP_TIMEOUT_S = 100

# deterministic metrics.csv columns, compared bit for bit across paths
ROW_FIELDS = ("success", "error_all", "error_missing", "error_nonmissing", "recall", "precision")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import sfgp.cli; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Case:
    variant: str
    level: str
    reference: PointSet
    instance: synthdata.SyntheticInstance
    kernel: object
    cfg: object

    @property
    def key(self):
        return (self.variant, self.level, int(self.instance.spec.seed))


@dataclass
class Outcome:
    key: tuple
    seconds: float
    iters: int
    converged: bool
    failed: bool
    row: dict
    points: Optional[np.ndarray] = None


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def correct(self):
        return not self.failures


# ---------------------------------------------------------------- inputs

def fish_cases(master_seed, max_iters=None, instances=FISH_INSTANCES):
    reference = cli.load_reference("fish98")
    kernel = cli.kernel_from_config(FISH_KERNEL, anchor=reference)
    settings = dict(FISH_REGISTRATION)
    if max_iters is not None:
        settings["max_iters"] = max_iters
    base = cli.registration_config_from(settings)
    cases = []
    for level_idx, point in enumerate(cli.grid_points(FISH_GRID)):
        for k in range(instances):
            seed = cli.derive_seed(master_seed, level_idx, k)
            instance = synthdata.generate(reference, cli.spec_for(point, FISH_GRID, seed))
            for variant in FISH_VARIANTS:
                cases.append(Case(variant, cli.level_tag(point), reference, instance, kernel,
                                  registration.variant_config(variant, base)))
    return cases


def fibonacci_sphere(n, radius=0.5):
    """n nearly uniform points on a sphere of unit diameter."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    ring = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return PointSet(points=radius * np.column_stack([ring * np.cos(phi), ring * np.sin(phi), z]))


def sphere_cases(master_seed, max_iters=SPHERE_MAX_ITERS):
    reference = fibonacci_sphere(SPHERE_N)
    kernel = cli.kernel_from_config(FISH_KERNEL, anchor=reference)
    cfg = registration.variant_config(
        "SFGP_Full", cli.registration_config_from(dict(FISH_REGISTRATION, max_iters=max_iters)))
    cases = []
    for k in range(SPHERE_INSTANCES):
        spec = synthdata.PerturbationSpec(**SPHERE_SPEC, seed=cli.derive_seed(master_seed, 0, k))
        cases.append(Case("SFGP_Full", f"sphere{SPHERE_N}", reference,
                          synthdata.generate(reference, spec), kernel, cfg))
    return cases


def write_sweep_config(path, master_seed, max_iters=None):
    settings = dict(FISH_REGISTRATION)
    if max_iters is not None:
        settings["max_iters"] = max_iters
    payload = {
        "schema_version": 1, "reference": "fish98", "kernel": FISH_KERNEL,
        "registration": settings, "grid": FISH_GRID, "variants": list(FISH_VARIANTS),
        "instances": FISH_INSTANCES, "master_seed": master_seed,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def child_import_seconds():
    """Time to import the CLI package in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class SetupClock:
    """Times SETUPS_PER_GAP set-ups per call: each a fresh-interpreter import
    plus `build()`.  `setup_s` is the median of every set-up timed."""

    def __init__(self, build):
        self.build = build
        self.times = []

    def __call__(self):
        for _ in range(SETUPS_PER_GAP):
            import_s = child_import_seconds()
            t0 = time.perf_counter()
            built = self.build()
            self.times.append(import_s + time.perf_counter() - t0)
        return built

    @property
    def setup_s(self):
        return statistics.median(self.times)


# ---------------------------------------------------------------- running

def _failed_row():
    return {"success": 0, **{f: None for f in ROW_FIELDS if f != "success"}}


def run_case(case, failures):
    """Register one case, check its outputs and score it."""
    reference, instance = case.reference, case.instance
    t0 = time.perf_counter()
    try:
        result = registration.register(reference, instance.target, case.kernel, case.cfg)
    except SFGPError:
        return Outcome(case.key, time.perf_counter() - t0, 0, False, True, _failed_row())
    seconds = time.perf_counter() - t0

    points = result.deformed_reference.points
    if points.shape != reference.points.shape:
        failures.append(f"{case.key}: deformed reference has shape {points.shape}, "
                        f"reference {reference.points.shape}")
    elif not np.all(np.isfinite(points)):
        failures.append(f"{case.key}: deformed reference is not finite")
    state = result.state
    if state is not None:
        labels = np.sort(np.concatenate([state.inliers, state.missing]))
        if not np.array_equal(labels, np.arange(reference.n)):
            failures.append(f"{case.key}: inliers and missing do not partition 0..N_R-1")

    if result.failed:
        row = _failed_row()
    else:
        recall, precision = metrics.missing_detection(result, instance)
        row = {
            "success": 1,
            "error_all": metrics.mean_sq_distance(result, instance, "all"),
            "error_missing": metrics.mean_sq_distance(result, instance, "missing"),
            "error_nonmissing": metrics.mean_sq_distance(result, instance, "non_missing"),
            "recall": recall,
            "precision": precision,
        }
        if any(v is not None and not np.isfinite(v) for v in row.values()):
            failures.append(f"{case.key}: non-finite metric row {row}")
    return Outcome(case.key, seconds, result.iters, result.converged, result.failed, row,
                   points.copy())


class FloatErrorCount:
    """Counts the NumPy floating-point errors that would warn, in its scope."""

    def __init__(self):
        self.n = 0

    def _call(self, kind, flag):
        self.n += 1

    def __enter__(self):
        self._state = np.errstate(divide="call", over="call", invalid="call", call=self._call)
        self._state.__enter__()
        return self

    def __exit__(self, *exc):
        return self._state.__exit__(*exc)


def run_pass(cases, failures):
    t0 = time.perf_counter()
    outcomes = [run_case(case, failures) for case in cases]
    return outcomes, time.perf_counter() - t0


def repeat_passes(one_pass, seconds, after_pass):
    """At least MIN_PASSES whole passes, then more while another is expected
    to fit in `seconds`; `after_pass()` runs after each, outside the timing."""
    passes = []
    elapsed = 0.0
    while True:
        outcomes, wall = one_pass()
        passes.append((outcomes, wall))
        after_pass()
        elapsed += wall
        if len(passes) >= MIN_PASSES and elapsed + wall > seconds:
            return passes


def best_of(passes):
    """Per registration, the outcome of its fastest repeat, in pass order."""
    best = {}
    for outcomes in passes:
        for o in outcomes:
            if o.key not in best or o.seconds < best[o.key].seconds:
                best[o.key] = o
    return [best[o.key] for o in passes[0]]


def compare_outcomes(expected, actual, failures, what):
    """Same keys and bit-identical deterministic outputs."""
    got = {o.key: o for o in actual}
    if sorted(got) != sorted(o.key for o in expected):
        failures.append(f"{what}: registrations differ from the reference set")
        return
    for want in expected:
        have = got[want.key]
        if not _rows_equal(want.row, have.row):
            failures.append(f"{what}: {want.key} row {have.row} != {want.row}")
        elif want.points is not None and have.points is not None and not np.array_equal(
                want.points, have.points):
            failures.append(f"{what}: {want.key} deformed reference differs")


def _rows_equal(a, b):
    return all(a[f] == b[f] for f in ROW_FIELDS)


# ---------------------------------------------------------------- sweep path

def _cell(value):
    return None if value == "" else float(value)


def read_sweep_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_outcomes(rows, reference, failures):
    """metrics.csv rows as outcomes; iteration counts come from the matching
    in-process registration, which the row check proves to be the same run."""
    by_key = {o.key: o for o in reference}
    outcomes = []
    for raw in rows:
        key = (raw["variant"], raw["level"], int(raw["seed"]))
        row = {f: _cell(raw[f]) for f in ROW_FIELDS}
        row["success"] = int(row["success"])
        ref = by_key.get(key)
        iters = ref.iters if ref is not None else 0
        if "iters" in raw and ref is not None and int(raw["iters"]) != ref.iters:
            failures.append(f"sweep {key}: iters {raw['iters']} != in-process {ref.iters}")
        outcomes.append(Outcome(key, float(raw["runtime_ms"]) / 1e3, iters,
                                bool(ref and ref.converged), row["success"] == 0, row))
    return outcomes


def run_sweep(config, out_dir, threads, sink_dir=None):
    """`sfgp sweep` in a child process; returns (wall seconds, csv rows)."""
    env = dict(os.environ)  # BLAS thread variables pass through untouched
    env.pop(bench_trace.SINK_ENV, None)
    if sink_dir is not None:
        env[bench_trace.SINK_ENV] = str(sink_dir)
    cmd = [sys.executable, str(SWEEP_CHILD), "sweep", "--config", str(config),
           "--out", str(out_dir), "--threads", str(threads)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers share the group
        proc.communicate()
        raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"sfgp sweep exited {proc.returncode}: {err[-2000:]}")
    return wall, read_sweep_rows(Path(out_dir) / "metrics.csv")


def sweep_threads():
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------- metrics

def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ms_per_iter(outcomes):
    """Total register time over total iterations."""
    iters = sum(o.iters for o in outcomes)
    return 1e3 * sum(o.seconds for o in outcomes) / iters if iters else 0.0


def end_to_end(outcomes, setup_s):
    """The bounded metrics of one pass of outcomes."""
    n = len(outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "iters_mean": (sum(o.iters for o in outcomes) / n, "count"),
        "success_ratio": (sum(not o.failed for o in outcomes) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def timing(outcomes):
    """Registration speed over one outcome per registration of a pass.  Not
    bounded: on fish_grid, host load moved it by more than any bound allows
    (see README.md)."""
    return {
        "registrations_per_s": (len(outcomes) / sum(o.seconds for o in outcomes), "1/s"),
        "ms_per_iter": (ms_per_iter(outcomes), "ms"),
    }


def register_p50(outcomes):
    """Median registration time and its sample count, printed but not
    bounded: on fish_grid the four variants make the distribution multi-modal,
    so its median moves a lot from seed to seed."""
    return {"register_s_p50": (statistics.median(o.seconds for o in outcomes), "s"),
            "register_n": (len(outcomes), "count")}


def quality(outcomes):
    """Result quality of one pass; fixed by the seed, so it is not timed."""
    def mean_of(name):
        values = [o.row[name] for o in outcomes if o.row[name] is not None]
        return statistics.fmean(values) if values else 0.0

    return {
        "error_all_mean": (mean_of("error_all"), "sq_units"),
        "error_missing_mean": (mean_of("error_missing"), "sq_units"),
        "error_nonmissing_mean": (mean_of("error_nonmissing"), "sq_units"),
        "recall_mean": (mean_of("recall"), "ratio"),
        "precision_mean": (mean_of("precision"), "ratio"),
        "converged_ratio": (sum(o.converged for o in outcomes) / len(outcomes), "ratio"),
    }


def overhead_metrics(untraced, traced, n_spans):
    """Tracing overhead, against `ms_per_iter` of the untraced side."""
    plain, with_trace = ms_per_iter(untraced), ms_per_iter(traced)
    return {
        "trace.traced_ms_per_iter": (with_trace, "ms"),
        "trace.overhead_ms_per_iter": (with_trace - plain, "ms"),
        "trace.spans": (n_spans, "count"),
    }


CLI_UNITS = {"cli.task_register_ms_p50": "ms", "cli.worker_busy_ratio": "ratio",
             "cli.pool_overhead_s": "s", "cli.failed_rows": "count"}


def cli_metrics(rows=None, agg=None, threads=1):
    """Sweep-path metrics of a traced sweep; zero on workloads without one."""
    out = {name: (0.0, unit) for name, unit in CLI_UNITS.items()}
    if rows is None:
        return out
    out["cli.task_register_ms_p50"] = (
        statistics.median(float(r["runtime_ms"]) for r in rows), "ms")
    out["cli.failed_rows"] = (sum(int(r["success"]) == 0 for r in rows), "count")
    sweep_wall = sum(agg.durations.get("cli.cmd_sweep", ()))
    busy = sum(agg.durations.get("cli._sweep_task", ()))
    if sweep_wall > 0.0:
        out["cli.worker_busy_ratio"] = (busy / (threads * sweep_wall), "ratio")
        out["cli.pool_overhead_s"] = (sweep_wall - busy / threads, "s")
    return out


# ---------------------------------------------------------------- workloads

def traced_pass(cases, failures):
    """Each case untraced and then traced, so host-load drift over the pass
    falls on both sides of the overhead estimate alike.  Returns the two
    outcome lists, the span records and the float-error count."""
    tracer = bench_trace.Tracer()
    float_errors = FloatErrorCount()
    records, untraced, traced = [], [], []
    for case in cases:
        untraced.append(run_case(case, failures))
        with float_errors:
            tracer.install()
            try:
                traced.append(run_case(case, failures))
                records.append(tracer.snapshot())
            finally:
                tracer.uninstall()
    compare_outcomes(untraced, traced, failures, "traced pass")
    return untraced, traced, records, float_errors.n


def traced_setup(build_cases, seed):
    """The span record of one set-up, for synthdata.generate."""
    tracer = bench_trace.Tracer().install()
    try:
        build_cases(seed)
        return tracer.snapshot()
    finally:
        tracer.uninstall()


def check_sweep(seed, max_iters, reference, failures, trace):
    """The registrations of `reference` once more, through `sfgp sweep
    --threads 2` in a child process, checked row by row against the
    in-process outcomes.  Returns (wall seconds, csv rows, span aggregate of
    the child and its workers, or None when untraced)."""
    threads = sweep_threads()
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="sweep-", dir=WORKDIR) as tmp:
        tmp = Path(tmp)
        config = tmp / "experiment.json"
        write_sweep_config(config, seed, max_iters)
        sink = tmp / "spans" if trace else None
        wall, rows = run_sweep(config, tmp / "out", threads, sink)
        agg = bench_trace.Aggregate(bench_trace.read_sink(sink)) if trace else None
    outcomes = sweep_outcomes(rows, reference, failures)
    compare_outcomes(reference, outcomes, failures, "sweep vs in-process")
    return wall, rows, agg, threads


def _in_process(build_cases, seed, seconds, trace, sweep_check=None):
    """Registrations in this process; `sweep_check(reference, failures,
    trace)`, when given, runs them once more through the CLI."""
    report = Report()

    if not trace:
        set_up = SetupClock(lambda: build_cases(seed))
        cases = set_up()
        passes = repeat_passes(lambda: run_pass(cases, report.failures), seconds, set_up)
        runs = [p for p, _ in passes]
        for outcomes in runs[1:]:
            compare_outcomes(runs[0], outcomes, report.failures, "repeated pass")
        best = best_of(runs)
        report.metrics = end_to_end(best, set_up.setup_s)
        report.info = {**timing(best), **register_p50(best), **quality(runs[0])}
        if sweep_check is not None:
            wall, rows, _, threads = sweep_check(runs[0], report.failures, False)
            report.info.update({
                "sweep_wall_s": (wall, "s"),
                "sweep_registrations_per_s": (len(rows) / wall, "1/s"),
                "sweep_threads": (threads, "count"),
            })
        outcomes = [o for p in runs for o in p]
    else:
        cases = build_cases(seed)
        untraced, traced, records, float_errors = traced_pass(cases, report.failures)
        records.append(traced_setup(build_cases, seed))
        cli = cli_metrics()
        if sweep_check is not None:
            _, rows, agg, threads = sweep_check(untraced, report.failures, True)
            cli = cli_metrics(rows, agg, threads)
        report.metrics = {
            **timing(untraced),
            **bench_trace.layer_metrics(bench_trace.Aggregate(records)),
            **cli,
            **quality(traced),
            "float_warnings": (float_errors, "count"),
            **overhead_metrics(untraced, traced, sum(len(r["spans"]) for r in records)),
        }
        outcomes = untraced + traced
    report.attempted = len(outcomes)
    report.failed = sum(o.failed for o in outcomes)
    return report


def fish_grid(seed, seconds, trace, max_iters=None):
    def sweep_check(reference, failures, traced):
        return check_sweep(seed, max_iters, reference, failures, traced)

    return _in_process(lambda s: fish_cases(s, max_iters), seed, seconds, trace, sweep_check)


def sphere_dense(seed, seconds, trace, max_iters=SPHERE_MAX_ITERS):
    return _in_process(lambda s: sphere_cases(s, max_iters), seed, seconds, trace)


WORKLOADS = {"fish_grid": fish_grid, "sphere_dense": sphere_dense}
