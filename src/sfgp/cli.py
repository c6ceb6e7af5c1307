"""Batch command line: dataset generation, registration runs, parameter
sweeps, and evaluation.  Data goes to files, logs go to stderr.

The engine (`registration`, which loads scipy.linalg) is imported by the code
that registers, before its clock starts: `generate`, `eval`, `--help`, config
errors and the parent of a pooled sweep run on NumPy alone."""
from __future__ import annotations

import argparse
import contextlib
import itertools
import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import io as sio
from .core import (
    VARIANTS,
    ConfigError,
    IterationRecord,
    PointSet,
    RegistrationConfig,
    SFGPError,
    is_number,
    variant_config,
)
from .kernels import (
    KernelSpec,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    load_pca_kernel,
)
from .metrics import SCORE_FIELDS, score_run
from .synthdata import (
    DEFORMATION_AMPLITUDE_PER_LEVEL,
    PerturbationSpec,
    fish_reference,
    generate,
    read_instance,
    write_instance,
)

logger = logging.getLogger(__name__)

GRID_AXES = ("missing_width", "noise_std", "outlier_ratio", "deformation_level")
GRID_SETTINGS = ("rotation_max",)

CONFIG_KEYS = ("schema_version", "reference", "kernel", "registration", "grid", "variants",
               "instances", "master_seed")
# the keys of each kernel block besides "type", by its type
KERNEL_KEYS = {"squared_exponential": ("amplitude2", "lengthscale"), "sum": ("parts",),
               "scaled": ("factor", "inner"), "pca_file": ("path",)}

# what register writes to result.json besides the variant, and a sweep row holds
RUN_FIELDS = ("iters", "stop_reason", "runtime_ms")
SWEEP_FIELDS = ("variant", "level", "seed", *SCORE_FIELDS, *RUN_FIELDS)

SUMMARY_FIELDS = ("ref_index", "is_missing", "best_target", "best_p", "nu")

# read by each BLAS library once, when it loads: NumPy's with numpy, at a
# worker's start, and SciPy's with scipy.linalg, at its first task
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_reference(name_or_path) -> PointSet:
    # open() would read an int as a file descriptor, 0 being stdin
    if not isinstance(name_or_path, (str, os.PathLike)):
        raise ConfigError(f"reference must be a string, got {name_or_path!r}")
    if name_or_path == "fish98":
        return fish_reference()
    return sio.read_pointset_csv(name_or_path)


def _block(value, name: str, allowed=None) -> dict:
    """`value`, the config block `name`: a JSON object with no key outside
    `allowed` (any key if None), whose values the dataclass it builds checks."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = [] if allowed is None else sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")
    return value


def _read_config(path) -> dict:
    return _block(sio.read_json(path), "config", CONFIG_KEYS)


def kernel_from_config(payload: dict, anchor: PointSet) -> KernelSpec:
    kind = _block(payload, "kernel").get("type")
    if kind not in KERNEL_KEYS:
        raise ConfigError(f"unknown kernel type {kind!r}")
    _block(payload, f"{kind} kernel", ("type", *KERNEL_KEYS[kind]))
    if kind == "squared_exponential":
        return SquaredExponential(payload["amplitude2"], payload["lengthscale"])
    if kind == "sum":
        if not isinstance(payload["parts"], list):
            raise ConfigError(f"parts must be a JSON list, got {payload['parts']!r}")
        return SumKernel(*[kernel_from_config(p, anchor) for p in payload["parts"]])
    if kind == "scaled":
        return ScaledKernel(payload["factor"], kernel_from_config(payload["inner"], anchor))
    if not isinstance(payload["path"], str):
        raise ConfigError(f"path must be a string, got {payload['path']!r}")
    return load_pca_kernel(payload["path"], anchor)


def registration_config_from(payload: dict) -> RegistrationConfig:
    _block(payload, "registration", [f.name for f in fields(RegistrationConfig)])
    if "variant" in payload:
        raise ConfigError("registration key variant is set by --variant, or by variants "
                          "for a sweep, not the config")
    return RegistrationConfig(**payload)


def grid_points(grid: dict) -> list:
    """One dict of GRID_AXES values per point of `grid`, which may also set
    GRID_SETTINGS; another key, or an axis that is an empty list, is a ConfigError."""
    _block(grid, "grid", GRID_AXES + GRID_SETTINGS)
    axes = []
    for name in GRID_AXES:
        values = grid.get(name, [0])
        axes.append(list(values) if isinstance(values, (list, tuple)) else [values])
        if not axes[-1]:
            raise ConfigError(f"{name} is an empty list, so the grid has no point")
    return [dict(zip(GRID_AXES, combo)) for combo in itertools.product(*axes)]


def level_tag(point: dict) -> str:
    return (
        f"mw{point['missing_width']:g}_ns{point['noise_std']:g}"
        f"_or{point['outlier_ratio']:g}_dl{point['deformation_level']:g}"
    )


def derive_seed(master_seed: int, level_idx: int, instance_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(level_idx, instance_idx))
    return int(ss.generate_state(1)[0])


def spec_for(point: dict, grid: dict, seed: int) -> PerturbationSpec:
    """The PerturbationSpec, which checks every value, of one grid point."""
    level = point["deformation_level"]
    if not (is_number(level) and 0.0 <= level < np.inf):  # also False for NaN
        raise ConfigError(f"deformation_level must be a finite number >= 0, got {level!r}")
    return PerturbationSpec(
        warp_amplitude=DEFORMATION_AMPLITUDE_PER_LEVEL * level, noise_std=point["noise_std"],
        missing_width=point["missing_width"], outlier_ratio=point["outlier_ratio"], seed=seed,
        **{name: grid[name] for name in GRID_SETTINGS if name in grid})


def _instances(config: dict) -> list:
    """(tag, index, spec) for each of `instances` draws at each point of the
    grid; every spec, and so every value it checks, is built before any is used."""
    for key, minimum in (("instances", 1), ("master_seed", 0)):  # SeedSequence needs >= 0
        if not (is_number(config[key], integer=True) and config[key] >= minimum):
            raise ConfigError(f"{key} must be >= {minimum} and an integer, got {config[key]!r}")
    grid = config.get("grid", {})
    instances = []
    for level_idx, point in enumerate(grid_points(grid)):
        for k in range(config["instances"]):
            seed = derive_seed(config["master_seed"], level_idx, k)
            spec = spec_for(point, grid, seed)  # first: it checks what level_tag formats
            instances.append((level_tag(point), k, spec))
    tags = [tag for tag, k, _ in instances if k == 0]  # one per grid point
    shared = [tag for tag in tags if tags.count(tag) > 1]
    if shared:  # their instances would share one directory and one level
        raise ConfigError(f"two grid points share the level tag {shared[0]}")
    return instances


def _setup(config: dict):
    """The reference, kernel and base registration config a config names."""
    reference = load_reference(config["reference"])
    kernel = kernel_from_config(config["kernel"], anchor=reference)
    return reference, kernel, registration_config_from(config.get("registration", {}))


def cmd_generate(args) -> int:
    config = _read_config(args.config)
    reference = load_reference(config["reference"])
    out = Path(args.out)
    entries = []
    for tag, k, spec in _instances(config):
        write_instance(out / _entry_dirs(tag, k)[0], generate(reference, spec))
        entries.append({"level": tag, "index": k})
    sio.write_json(
        out / "dataset.json",
        {"reference": config["reference"], "grid": config.get("grid", {}),
         "instances": entries, "master_seed": config["master_seed"]},
    )
    logger.info("wrote %d instances under %s", len(entries), out)
    return 0


def _write_register_outputs(out_dir: Path, meta: dict, result=None):
    """`meta` to result.json and, unless the run raised (result None), the
    fitted reference, correspondence summary and trace of `result`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sio.write_json(out_dir / "result.json", meta)
    if result is None:
        return
    sio.write_pointset_csv(out_dir / "deformed_reference.csv", result.deformed_reference)
    n = result.deformed_reference.n
    if result.state is None:  # the run failed: no correspondence state
        flagged, best, best_p, nu = np.zeros(n, bool), np.full(n, -1), np.zeros(n), np.zeros(n)
    else:
        P = result.state.P
        flagged, best, best_p, nu = ~result.state.labelled, P.argmax(1), P.max(1), result.state.nu
    columns = (range(n), flagged.astype(int).tolist(), best.tolist(), best_p.tolist(), nu.tolist())
    sio.write_csv_rows(out_dir / "correspondence_summary.csv", SUMMARY_FIELDS,
                       [dict(zip(SUMMARY_FIELDS, row)) for row in zip(*columns)])
    sio.write_csv_rows(out_dir / "trace.csv", [f.name for f in fields(IterationRecord)],
                       [asdict(r) for r in result.trace])


def _entry_dirs(level: str, index: int) -> tuple:
    """(`instances/<level>/<index>`, `<level>/<index>`): the directory of an
    instance within its dataset, and of its run within a results directory."""
    run = Path(level, str(index))
    return Path("instances") / run, run


def _read_dataset(dataset_dir: Path) -> list:
    """(instance, run directory within a results directory) for each
    instance dataset_dir/dataset.json lists.  Unless `instances` is a list of
    objects of exactly a `level`, one directory name, and an integer `index`
    >= 0, raises ValueError naming the file before any instance is read."""
    path = dataset_dir / "dataset.json"
    entries = sio.read_json(path).get("instances")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: instances must be a list of objects, got {entries!r}")
    for entry in entries:
        # one directory name, so no run leaves --out; the name of "." is ""
        if not (isinstance(entry, dict) and set(entry) == {"level", "index"}
                and isinstance(entry["level"], str) and entry["level"] not in ("", "..")
                and Path(entry["level"]).name == entry["level"]
                and is_number(entry["index"], integer=True) and entry["index"] >= 0):
            raise ValueError(f"{path}: an instance must hold exactly a level, one directory "
                             f"name, and an integer index >= 0, got {entry!r}")
    dirs = [_entry_dirs(entry["level"], entry["index"]) for entry in entries]
    return [(read_instance(dataset_dir / instance_dir), run) for instance_dir, run in dirs]


def cmd_register(args) -> int:
    config = _read_config(args.config)
    reference, kernel, base = _setup(config)
    cfg = variant_config(args.variant, base)
    out = Path(args.out)
    if args.target:
        runs = [(out, sio.read_pointset_csv(args.target))]
    else:
        runs = [(out / run, inst.target) for inst, run in _read_dataset(Path(args.dataset))]
    for out_dir, target in runs:
        result, run = _register(f"{args.variant} {out_dir}", reference, lambda: target,
                                kernel, cfg)
        _write_register_outputs(out_dir, {"variant": args.variant, **run}, result)
        # the result's P is a view of its run's workspace: dropped, the
        # next run's workspace takes its place instead of joining it
        del result
    return 0


def _register(label: str, reference, make_target, kernel, cfg) -> tuple:
    """(result, RUN_FIELDS) of registering the target `make_target()` builds.
    An SFGPError from either is logged under `label` and recorded, never
    raised, so the next run goes on: result None, `iters` 0, and the error's
    class name as `stop_reason`.  `runtime_ms` times the registration alone."""
    from .registration import register  # before the clock starts

    t0 = time.perf_counter()
    try:
        target = make_target()
        t0 = time.perf_counter()
        result = register(reference, target, kernel, cfg)
    except SFGPError as exc:
        logger.warning("%s: %s", label, exc)
        result, iters, stop_reason = None, 0, type(exc).__name__
    else:
        iters, stop_reason = result.iters, result.stop_reason
    return result, dict(zip(RUN_FIELDS, (iters, stop_reason, (time.perf_counter() - t0) * 1e3)))


def _metrics_row(variant, tag, seed, run: dict, arrays) -> dict:
    """One SWEEP_FIELDS row: the identity columns, the run's RUN_FIELDS, and
    the scores `metrics.score_run` builds from its stop reason and `arrays`."""
    return {"variant": variant, "level": tag, "seed": seed,
            **{name: run[name] for name in RUN_FIELDS},
            **score_run(run["stop_reason"], arrays)}


def _write_metrics(path: Path, rows: list) -> None:
    rows.sort(key=lambda r: (r["variant"], r["level"], r["seed"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    sio.write_csv_rows(path, SWEEP_FIELDS, rows)


def _sweep_task(task: tuple) -> dict:
    variant, tag, reference, kernel, cfg, spec = task
    inst = None

    def target():  # inside the guard: a broken instance is recorded, never aborts the sweep
        nonlocal inst
        inst = generate(reference, spec)
        return inst.target

    result, run = _register(f"{variant} {tag} seed={spec.seed}", reference, target, kernel, cfg)
    return _metrics_row(
        variant, tag, spec.seed, run,
        lambda: (inst.ground_truth.points, inst.missing_mask,
                 result.deformed_reference.points, ~result.state.labelled))


@contextlib.contextmanager
def _one_blas_thread_per_worker():
    """Within the block, processes started see one BLAS thread each, so a pool
    of workers shares the cores instead of each starting a thread per core.
    The environment is restored on exit."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _usable_cores() -> int:
    """The cores this process may run on; not every platform has sched_getaffinity."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def cmd_sweep(args) -> int:
    config = _read_config(args.config)
    reference, kernel, base = _setup(config)
    variants = config.get("variants", ["SFGP_Full"])
    if not (isinstance(variants, list) and variants):
        raise ConfigError(f"variants must be a nonempty list, got {variants!r}")
    cfgs = [(name, variant_config(name, base)) for name in variants]
    for name in variants:
        if variants.count(name) > 1:  # each task would run, and write its row, twice
            raise ConfigError(f"variants lists {name!r} more than once")
    tasks = [
        (variant, tag, reference, kernel, cfg, spec)
        for tag, _, spec in _instances(config)
        for variant, cfg in cfgs
    ]
    # a spawned worker imports numpy and sfgp afresh, and scipy.linalg at its
    # first task; an idle one, or one more than the cores, would pay for those
    # imports and add nothing
    workers = min(args.threads, len(tasks), _usable_cores())
    if workers > 1:
        # forked workers would inherit the parent's BLAS threads; spawned
        # ones load BLAS afresh and read the thread variables
        context = multiprocessing.get_context("spawn")
        with _one_blas_thread_per_worker(), ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    path = Path(args.out) / "metrics.csv"
    _write_metrics(path, rows)
    logger.info("wrote %d metric rows to %s", len(rows), path)
    return 0


def _read_scores(inst, run_dir: Path) -> tuple:
    """The arrays `score_run` scores, of the run `register` wrote to run_dir.
    A summary or a deformed reference with a row count other than the
    reference's, or an is_missing cell other than 0 or 1, raises ValueError
    naming its file."""
    n = inst.ground_truth.n
    path = run_dir / "correspondence_summary.csv"
    flags = [r.get("is_missing") for r in sio.read_csv_rows(path)]
    if len(flags) != n:
        raise ValueError(f"{path}: {len(flags)} rows, but the reference has {n} points")
    bad = [f for f in flags if type(f) is not int or f not in (0, 1)]
    if bad:
        raise ValueError(f"{path}: is_missing must be 0 or 1, got {bad[0]!r}")
    fitted_path = run_dir / "deformed_reference.csv"
    fitted = sio.read_pointset_csv(fitted_path)
    if fitted.n != n:
        raise ValueError(f"{fitted_path}: {fitted.n} rows, but the reference has {n} points")
    return inst.ground_truth.points, inst.missing_mask, fitted.points, np.array(flags, dtype=bool)


def cmd_eval(args) -> int:
    rows = []
    for inst, run in _read_dataset(Path(args.dataset)):
        run_dir = Path(args.results) / run
        meta = sio.read_json(run_dir / "result.json")
        missing = [key for key in ("variant", *RUN_FIELDS) if key not in meta]
        if missing:
            raise ValueError(f"{run_dir / 'result.json'}: missing key {missing[0]!r}")
        rows.append(_metrics_row(meta["variant"], run.parent.name, inst.spec.seed, meta,
                                 lambda: _read_scores(inst, run_dir)))
    out = Path(args.out)
    _write_metrics(out / "aggregate.csv", rows)

    lines = [f"{'level':<28} {'n':>3} {'success':>8} {'error_all':>12} {'recall':>8} {'precision':>10}"]
    for level in sorted(set(r["level"] for r in rows)):
        sub = [r for r in rows if r["level"] == level]
        ok = [r for r in sub if r["success"]]
        err, rec, prec = (np.mean(v) if v else float("nan") for v in (
            [r[k] for r in ok if r[k] is not None] for k in ("error_all", "recall", "precision")))
        lines.append(f"{level:<28} {len(sub):>3} {len(ok) / len(sub):>8.2f} "
                     f"{err:>12.6f} {rec:>8.3f} {prec:>10.3f}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    logger.info("wrote %s", out / "summary.txt")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfgp", description="non-rigid point-set registration toolkit"
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("register", help="register one target or a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", default="SFGP_Full", help=f"one of {', '.join(sorted(VARIANTS))}")
    inputs = p.add_mutually_exclusive_group(required=True)
    inputs.add_argument("--target", help="single target point CSV")
    inputs.add_argument("--dataset", help="dataset directory from `generate`")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("sweep", help="run a variant/perturbation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes, >= 1 (default 1), at most the usable cores")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="aggregate registration results")
    p.add_argument("--results", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except (SFGPError, ValueError, OSError, KeyError) as exc:
        # str() of a KeyError is the bare key's repr
        print(f"error: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
