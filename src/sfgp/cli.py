"""Batch command line: dataset generation, registration runs, parameter
sweeps, and evaluation.  Data goes to files, logs go to stderr."""
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
    FAILED_STOPS,
    ConfigError,
    IterationRecord,
    PointSet,
    RegistrationConfig,
    SFGPError,
    validate_config,
)
from .kernels import (
    KernelSpec,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    load_pca_kernel,
)
from .metrics import SUBSETS, detection_scores, flagged_missing, subset_error
from .registration import VARIANTS, register, variant_config
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

SWEEP_FIELDS = (
    "variant",
    "level",
    "seed",
    "error_all",
    "error_missing",
    "error_nonmissing",
    "success",
    "recall",
    "precision",
    "iters",
    "stop_reason",
    "runtime_ms",
)

SUMMARY_FIELDS = ("ref_index", "is_missing", "best_target", "best_p", "nu")

# the exact types each kind of config value admits: a JSON true is no number
CONFIG_KINDS = {"an integer": (int,), "a number": (int, float),
                "a number or null": (int, float, type(None))}

# read by the BLAS libraries once, when they load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_reference(name_or_path) -> PointSet:
    if name_or_path == "fish98":
        return fish_reference()
    return sio.read_pointset_csv(name_or_path)


def _config_value(block: dict, key: str, kind: str = "a number"):
    """block[key], whose exact type must be one CONFIG_KINDS[kind] admits;
    the error names the key."""
    value = block[key]
    if type(value) not in CONFIG_KINDS[kind]:
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value


def kernel_from_config(payload: dict, anchor: PointSet = None) -> KernelSpec:
    kind = payload.get("type")
    if kind == "squared_exponential":
        return SquaredExponential(amplitude2=float(_config_value(payload, "amplitude2")),
                                  lengthscale=float(_config_value(payload, "lengthscale")))
    if kind == "sum":
        return SumKernel(*[kernel_from_config(p, anchor) for p in payload["parts"]])
    if kind == "scaled":
        return ScaledKernel(factor=float(_config_value(payload, "factor")),
                            inner=kernel_from_config(payload["inner"], anchor))
    if kind == "pca_file":
        if anchor is None:
            raise ValueError("pca_file kernel needs the reference as anchor")
        return load_pca_kernel(payload["path"], anchor)
    raise ValueError(f"unknown kernel type {kind!r}")


def registration_config_from(payload: dict) -> RegistrationConfig:
    # the engine variant alone sets the modes; see registration.VARIANTS
    by_variant = sorted(set(payload) & {"variance_mode", "correspondence_mode"})
    if by_variant:
        raise ConfigError(
            f"registration keys set by --variant, not the config: {', '.join(by_variant)}"
        )
    unknown = sorted(set(payload) - {f.name for f in fields(RegistrationConfig)})
    if unknown:
        raise ConfigError(f"unknown registration keys: {', '.join(unknown)}")
    for key in payload:
        kind = ("an integer" if key == "max_iters" else
                "a number or null" if key in ("sigma2_init", "jitter") else "a number")
        _config_value(payload, key, kind)
    return validate_config(RegistrationConfig(**payload))


def grid_points(grid: dict) -> list:
    axes = []
    for name in GRID_AXES:
        values = grid.get(name, [0.0 if name != "deformation_level" else 0])
        if not isinstance(values, (list, tuple)):
            values = [values]
        axes.append(list(values))
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
    return PerturbationSpec(
        warp_amplitude=DEFORMATION_AMPLITUDE_PER_LEVEL * float(point["deformation_level"]),
        warp_bandwidth=float(grid.get("warp_bandwidth", PerturbationSpec.warp_bandwidth)),
        warp_controls=int(grid.get("warp_controls", PerturbationSpec.warp_controls)),
        missing_width=float(point["missing_width"]),
        missing_center=grid.get("missing_center", PerturbationSpec.missing_center),
        outlier_ratio=float(point["outlier_ratio"]),
        noise_std=float(point["noise_std"]),
        rotation_max=float(grid.get("rotation_max", PerturbationSpec.rotation_max)),
        seed=seed,
    )


def _config_int(config: dict, key: str, minimum: int) -> int:
    """config[key], which must be an int, not a bool or a float, >= minimum."""
    value = _config_value(config, key, "an integer")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _instances(config: dict, reference: PointSet):
    """Yield (tag, index, seed, spec) for every instance of a generate or
    sweep config: `instances` draws at each point of the grid.  The config is
    checked against the reference before the first instance is yielded, so
    config["instances"] and config["master_seed"] are exact ints once the
    first one is."""
    grid = config.get("grid", {})
    count = _config_int(config, "instances", 1)
    master_seed = _config_int(config, "master_seed", 0)  # as SeedSequence needs
    center = grid.get("missing_center", PerturbationSpec.missing_center)
    if center != "random" and not (type(center) is int and 0 <= center < reference.n):
        raise ConfigError(f'missing_center must be "random" or an index below '
                          f"{reference.n}, got {center!r}")
    for level_idx, point in enumerate(grid_points(grid)):
        tag = level_tag(point)
        for k in range(count):
            seed = derive_seed(master_seed, level_idx, k)
            yield tag, k, seed, spec_for(point, grid, seed)


def _setup(config: dict):
    """The reference, kernel and base registration config a config names."""
    reference = load_reference(config["reference"])
    kernel = kernel_from_config(config["kernel"], anchor=reference)
    return reference, kernel, registration_config_from(config.get("registration", {}))


def cmd_generate(args) -> int:
    config = sio.read_json(args.config)
    reference = load_reference(config["reference"])
    out = Path(args.out)
    entries = []
    for tag, k, seed, spec in _instances(config, reference):
        rel = Path("instances") / tag / str(k)
        write_instance(out / rel, generate(reference, spec))
        entries.append({"level": tag, "index": k, "seed": seed, "path": str(rel)})
    sio.write_json(
        out / "dataset.json",
        {"reference": config["reference"], "grid": config.get("grid", {}),
         "instances": entries, "master_seed": config["master_seed"]},
    )
    logger.info("wrote %d instances under %s", len(entries), out)
    return 0


def _write_register_outputs(out_dir: Path, result, runtime_ms: float, variant: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    sio.write_pointset_csv(out_dir / "deformed_reference.csv", result.deformed_reference)
    n = result.deformed_reference.n
    if result.state is None:  # the run failed: no correspondence state
        best, best_p, nu = np.full(n, -1), np.zeros(n), np.zeros(n)
    else:
        P = result.state.P
        best, best_p, nu = P.argmax(1), P.max(1), result.state.nu
    columns = (range(n), flagged_missing(result).astype(int).tolist(), best.tolist(),
               best_p.tolist(), nu.tolist())
    sio.write_csv_rows(
        out_dir / "correspondence_summary.csv",
        SUMMARY_FIELDS,
        [dict(zip(SUMMARY_FIELDS, row)) for row in zip(*columns)],
    )
    sio.write_csv_rows(
        out_dir / "trace.csv",
        [f.name for f in fields(IterationRecord)],
        [asdict(r) for r in result.trace],
    )
    sio.write_json(
        out_dir / "result.json",
        {
            "variant": variant,
            "iters": result.iters,
            "stop_reason": result.stop_reason,
            "runtime_ms": runtime_ms,
        },
    )


def cmd_register(args) -> int:
    config = sio.read_json(args.config)
    reference, kernel, base = _setup(config)
    cfg = variant_config(args.variant, base)
    out = Path(args.out)
    if args.target:
        runs = [(out, sio.read_pointset_csv(args.target))]
    else:
        dataset = sio.read_json(Path(args.dataset) / "dataset.json")
        runs = [
            (out / entry["level"] / str(entry["index"]),
             read_instance(Path(args.dataset) / entry["path"]).target)
            for entry in dataset["instances"]
        ]
    for out_dir, target in runs:
        t0 = time.perf_counter()
        result = register(reference, target, kernel, cfg)
        _write_register_outputs(out_dir, result, (time.perf_counter() - t0) * 1e3, args.variant)
    return 0


def _metrics_row(variant, tag, seed, runtime_ms, iters, stop_reason, scored=None) -> dict:
    """One SWEEP_FIELDS row of a run that ended after `iters` iterations
    with `stop_reason`: the result's, or the class name of the SFGPError the
    run raised.  `scored` holds the arrays of a successful run, (ground
    truth, true missing mask, fitted points, flagged mask); None marks a
    failed run, which has no scores."""
    if scored is None:
        errors, success, detection = (None,) * len(SUBSETS), 0, (None, None)
    else:
        gt, true_missing, fitted, flagged = scored
        errors = tuple(subset_error(gt, fitted, true_missing, s) for s in SUBSETS)
        success, detection = 1, detection_scores(flagged, true_missing)
    return dict(zip(SWEEP_FIELDS, (variant, tag, seed, *errors, success, *detection,
                                   int(iters), stop_reason, runtime_ms)))


def _write_metrics(path: Path, rows: list) -> None:
    rows.sort(key=lambda r: (r["variant"], r["level"], r["seed"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    sio.write_csv_rows(path, SWEEP_FIELDS, rows)


def _sweep_task(task: tuple) -> dict:
    variant, tag, reference, kernel, cfg, spec = task
    t0 = time.perf_counter()
    try:
        inst = generate(reference, spec)
        t0 = time.perf_counter()  # runtime_ms times the registration alone
        result = register(reference, inst.target, kernel, cfg)
    except SFGPError as exc:
        # a broken instance is recorded, never aborts the sweep
        logger.warning("%s %s seed=%d: %s", variant, tag, spec.seed, exc)
        result, iters, stop_reason = None, 0, type(exc).__name__
    else:
        iters, stop_reason = result.iters, result.stop_reason
    runtime_ms = (time.perf_counter() - t0) * 1e3
    scored = None
    if result is not None and stop_reason not in FAILED_STOPS:
        scored = (inst.ground_truth.points, inst.missing_mask,
                  result.deformed_reference.points, flagged_missing(result))
    return _metrics_row(variant, tag, spec.seed, runtime_ms, iters, stop_reason, scored)


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


def cmd_sweep(args) -> int:
    config = sio.read_json(args.config)
    reference, kernel, base = _setup(config)
    cfgs = [(name, variant_config(name, base)) for name in config.get("variants", ["SFGP_Full"])]
    tasks = [
        (variant, tag, reference, kernel, cfg, spec)
        for tag, _, _, spec in _instances(config, reference)
        for variant, cfg in cfgs
    ]
    # a spawned worker imports numpy, scipy.linalg and sfgp afresh before its
    # first task; an idle one would pay for that import and do nothing
    workers = min(args.threads, len(tasks))
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


def cmd_eval(args) -> int:
    dataset_dir = Path(args.dataset)
    results_dir = Path(args.results)
    dataset = sio.read_json(dataset_dir / "dataset.json")
    rows = []
    for entry in dataset["instances"]:
        inst = read_instance(dataset_dir / entry["path"])
        run_dir = results_dir / entry["level"] / str(entry["index"])
        meta = sio.read_json(run_dir / "result.json")
        scored = None
        if meta["stop_reason"] not in FAILED_STOPS:
            summary = sio.read_csv_rows(run_dir / "correspondence_summary.csv")
            scored = (
                inst.ground_truth.points,
                inst.missing_mask,
                sio.read_pointset_csv(run_dir / "deformed_reference.csv").points,
                np.array([bool(r["is_missing"]) for r in summary]),
            )
        rows.append(_metrics_row(meta["variant"], entry["level"], entry["seed"],
                                 meta["runtime_ms"], meta["iters"], meta["stop_reason"], scored))
    out = Path(args.out)
    _write_metrics(out / "aggregate.csv", rows)

    lines = [f"{'level':<28} {'n':>3} {'success':>8} {'error_all':>12} {'recall':>8} {'precision':>10}"]
    for level in sorted(set(r["level"] for r in rows)):
        sub = [r for r in rows if r["level"] == level]
        ok = [r for r in sub if r["success"]]
        errs = [r["error_all"] for r in ok if r["error_all"] is not None]
        recs = [r["recall"] for r in ok if r["recall"] is not None]
        precs = [r["precision"] for r in ok if r["precision"] is not None]
        lines.append(
            f"{level:<28} {len(sub):>3} {len(ok) / len(sub):>8.2f} "
            f"{np.mean(errs) if errs else float('nan'):>12.6f} "
            f"{np.mean(recs) if recs else float('nan'):>8.3f} "
            f"{np.mean(precs) if precs else float('nan'):>10.3f}"
        )
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
    p.add_argument("--target", help="single target point CSV")
    p.add_argument("--dataset", help="dataset directory from `generate`")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("sweep", help="run a variant/perturbation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker processes, >= 1 (default 1)")
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
    if args.command == "register" and bool(args.target) == bool(args.dataset):
        print("register needs exactly one of --target or --dataset", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (SFGPError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
