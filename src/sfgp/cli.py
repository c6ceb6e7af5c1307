"""Batch command line: dataset generation, registration runs, parameter
sweeps, and evaluation.  Data goes to files, logs go to stderr."""
from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io as sio
from .core import ConfigError, PointSet, RegistrationConfig, SFGPError, validate_config
from .kernels import (
    KernelSpec,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    load_pca_kernel,
)
from .metrics import mean_sq_distance, missing_detection
from .registration import VARIANTS, register, variant_config
from .synthdata import (
    DEFORMATION_AMPLITUDE_PER_LEVEL,
    PerturbationSpec,
    SyntheticInstance,
    fish_reference,
    generate,
    read_instance,
    spec_to_dict,
    write_instance,
)

logger = logging.getLogger(__name__)

THREADS_ENV = "SFGP_THREADS"

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
    "runtime_ms",
)


def load_reference(name_or_path) -> PointSet:
    if name_or_path == "fish98":
        return fish_reference()
    return sio.read_pointset_csv(name_or_path)


def kernel_from_config(payload: dict, anchor: PointSet = None) -> KernelSpec:
    kind = payload.get("type")
    if kind == "squared_exponential":
        return SquaredExponential(
            amplitude2=float(payload["amplitude2"]),
            lengthscale=float(payload["lengthscale"]),
        )
    if kind == "sum":
        return SumKernel(*[kernel_from_config(p, anchor) for p in payload["parts"]])
    if kind == "scaled":
        return ScaledKernel(
            factor=float(payload["factor"]),
            inner=kernel_from_config(payload["inner"], anchor),
        )
    if kind == "pca_file":
        if anchor is None:
            raise ValueError("pca_file kernel needs the reference as anchor")
        return load_pca_kernel(payload["path"], anchor)
    raise ValueError(f"unknown kernel type {kind!r}")


def registration_config_from(payload: dict) -> RegistrationConfig:
    unknown = sorted(set(payload) - {f.name for f in fields(RegistrationConfig)})
    if unknown:
        raise ConfigError(f"unknown registration keys: {', '.join(unknown)}")
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
        warp_bandwidth=float(grid.get("warp_bandwidth", 0.3)),
        warp_controls=int(grid.get("warp_controls", 5)),
        missing_width=float(point["missing_width"]),
        missing_center=grid.get("missing_center", "random"),
        outlier_ratio=float(point["outlier_ratio"]),
        noise_std=float(point["noise_std"]),
        rotation_max=float(grid.get("rotation_max", 0.0)),
        seed=seed,
    )


def cmd_generate(args) -> int:
    config = sio.read_json(args.config)
    reference = load_reference(config["reference"])
    grid = config.get("grid", {})
    count = int(config["instances"])
    if count < 1:
        raise ValueError("instances must be >= 1")
    master_seed = int(config["master_seed"])
    out = Path(args.out)
    points = grid_points(grid)
    entries = []
    for level_idx, point in enumerate(points):
        tag = level_tag(point)
        for k in range(count):
            seed = derive_seed(master_seed, level_idx, k)
            inst = generate(reference, spec_for(point, grid, seed))
            rel = Path("instances") / tag / str(k)
            write_instance(out / rel, inst)
            entries.append({"level": tag, "index": k, "seed": seed, "path": str(rel)})
    sio.write_json(
        out / "dataset.json",
        {"reference": config["reference"], "grid": grid, "instances": entries,
         "master_seed": master_seed},
    )
    logger.info("wrote %d instances under %s", len(entries), out)
    return 0


def _write_register_outputs(out_dir: Path, result, runtime_ms: float, variant: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    sio.write_pointset_csv(out_dir / "deformed_reference.csv", result.deformed_reference)
    rows = []
    state = result.state
    n = result.deformed_reference.n
    missing = set(int(i) for i in state.missing) if state is not None else set()
    for i in range(n):
        if state is not None and state.P.size:
            best = int(np.argmax(state.P[i]))
            best_p = float(state.P[i, best])
        else:
            best, best_p = -1, 0.0
        rows.append(
            {
                "ref_index": i,
                "is_missing": int(i in missing),
                "best_target": best,
                "best_p": best_p,
                "nu": float(state.nu[i]) if state is not None else 0.0,
            }
        )
    sio.write_csv_rows(
        out_dir / "correspondence_summary.csv",
        ("ref_index", "is_missing", "best_target", "best_p", "nu"),
        rows,
    )
    sio.write_csv_rows(
        out_dir / "trace.csv",
        ("iteration", "mean_disp_change", "n_inliers", "n_missing", "mean_sigma2", "elapsed_s"),
        [
            {
                "iteration": r.iteration,
                "mean_disp_change": r.mean_disp_change,
                "n_inliers": r.n_inliers,
                "n_missing": r.n_missing,
                "mean_sigma2": r.mean_sigma2,
                "elapsed_s": r.elapsed_s,
            }
            for r in result.trace
        ],
    )
    sio.write_json(
        out_dir / "result.json",
        {
            "variant": variant,
            "iters": result.iters,
            "converged": result.converged,
            "failed": result.failed,
            "failure_reason": result.failure_reason,
            "runtime_ms": runtime_ms,
        },
    )


def cmd_register(args) -> int:
    config = sio.read_json(args.config)
    reference = load_reference(config["reference"])
    kernel = kernel_from_config(config["kernel"], anchor=reference)
    base = registration_config_from(config.get("registration", {}))
    cfg = variant_config(args.variant, base)
    out = Path(args.out)

    if args.target:
        target = sio.read_pointset_csv(args.target)
        t0 = time.perf_counter()
        result = register(reference, target, kernel, cfg)
        _write_register_outputs(out, result, (time.perf_counter() - t0) * 1e3, args.variant)
        return 0

    dataset = sio.read_json(Path(args.dataset) / "dataset.json")
    for entry in dataset["instances"]:
        inst = read_instance(Path(args.dataset) / entry["path"])
        t0 = time.perf_counter()
        result = register(reference, inst.target, kernel, cfg)
        _write_register_outputs(
            out / entry["level"] / str(entry["index"]),
            result,
            (time.perf_counter() - t0) * 1e3,
            args.variant,
        )
    return 0


def _failed_row(variant, tag, seed, runtime_ms):
    return {
        "variant": variant, "level": tag, "seed": seed,
        "error_all": None, "error_missing": None, "error_nonmissing": None,
        "success": 0, "recall": None, "precision": None,
        "runtime_ms": runtime_ms,
    }


def _metric_row(variant, tag, seed, result, inst: SyntheticInstance, runtime_ms):
    if result.failed:
        return _failed_row(variant, tag, seed, runtime_ms)
    recall, precision = missing_detection(result, inst)
    return {
        "variant": variant,
        "level": tag,
        "seed": seed,
        "error_all": mean_sq_distance(result, inst, "all"),
        "error_missing": mean_sq_distance(result, inst, "missing"),
        "error_nonmissing": mean_sq_distance(result, inst, "non_missing"),
        "success": 1,
        "recall": recall,
        "precision": precision,
        "runtime_ms": runtime_ms,
    }


def _sweep_task(payload: dict) -> dict:
    reference = PointSet(points=np.asarray(payload["reference_points"]))
    kernel = kernel_from_config(payload["kernel"], anchor=reference)
    cfg = variant_config(
        payload["variant"], registration_config_from(payload["registration"])
    )
    spec = PerturbationSpec(**payload["spec"])
    inst = generate(reference, spec)
    t0 = time.perf_counter()
    try:
        result = register(reference, inst.target, kernel, cfg)
    except SFGPError as exc:
        # a broken instance is recorded, never aborts the sweep
        logger.warning("%s %s seed=%d: %s", payload["variant"], payload["level"], spec.seed, exc)
        return _failed_row(
            payload["variant"], payload["level"], spec.seed,
            (time.perf_counter() - t0) * 1e3,
        )
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return _metric_row(
        payload["variant"], payload["level"], spec.seed, result, inst, runtime_ms
    )


def cmd_sweep(args) -> int:
    config = sio.read_json(args.config)
    reference = load_reference(config["reference"])
    grid = config.get("grid", {})
    count = int(config["instances"])
    master_seed = int(config["master_seed"])
    variants = config.get("variants", ["SFGP_Full"])
    for name in variants:
        if name not in VARIANTS:
            raise ValueError(
                f"unknown variant {name!r}; choose one of {', '.join(sorted(VARIANTS))}"
            )
    points = grid_points(grid)

    tasks = []
    for level_idx, point in enumerate(points):
        tag = level_tag(point)
        for k in range(count):
            seed = derive_seed(master_seed, level_idx, k)
            spec = spec_for(point, grid, seed)
            for variant in variants:
                tasks.append(
                    {
                        "reference_points": reference.points.tolist(),
                        "kernel": config["kernel"],
                        "registration": config.get("registration", {}),
                        "variant": variant,
                        "level": tag,
                        "spec": spec_to_dict(spec),
                    }
                )

    threads = args.threads or int(os.environ.get(THREADS_ENV, "1"))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]

    rows.sort(key=lambda r: (r["variant"], r["level"], r["seed"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sio.write_csv_rows(out / "metrics.csv", SWEEP_FIELDS, rows)
    logger.info("wrote %d metric rows to %s", len(rows), out / "metrics.csv")
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
        if meta["failed"]:
            rows.append(
                _failed_row(meta["variant"], entry["level"], entry["seed"], meta["runtime_ms"])
            )
            continue
        fitted = sio.read_pointset_csv(run_dir / "deformed_reference.csv")
        summary = sio.read_csv_rows(run_dir / "correspondence_summary.csv")
        flagged = np.array([bool(r["is_missing"]) for r in summary])
        true_missing = inst.missing_mask
        gt = inst.ground_truth.points
        err = np.sum((gt - fitted.points) ** 2, axis=1)
        tp = int(np.sum(flagged & true_missing))
        rows.append(
            {
                "variant": meta["variant"],
                "level": entry["level"],
                "seed": entry["seed"],
                "error_all": float(np.mean(err)),
                "error_missing": float(np.mean(err[true_missing])) if true_missing.any() else None,
                "error_nonmissing": float(np.mean(err[~true_missing])) if (~true_missing).any() else None,
                "success": 1,
                "recall": tp / true_missing.sum() if true_missing.any() else None,
                "precision": tp / flagged.sum() if flagged.any() else None,
                "runtime_ms": meta["runtime_ms"],
            }
        )
    rows.sort(key=lambda r: (r["variant"], r["level"], r["seed"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sio.write_csv_rows(out / "aggregate.csv", SWEEP_FIELDS, rows)

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
    p.add_argument("--threads", type=int, default=0,
                   help=f"worker processes (default ${THREADS_ENV} or 1)")
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
