import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sfgp import cli, registration
from sfgp import io as sio
from sfgp.cli import BLAS_THREAD_VARS, _one_blas_thread_per_worker, main
from sfgp.core import AllMissingError, RegistrationConfig
from sfgp.correspondence import get_correspondences
from sfgp.kernels import build_pca_kernel, save_pca_kernel
from sfgp.synthdata import fish_reference, warp_rbf


def write_config(path, **overrides):
    payload = {
        "schema_version": 1,
        "reference": "fish98",
        "kernel": {"type": "squared_exponential", "amplitude2": 0.01, "lengthscale": 0.2},
        "registration": {"p_min": 0.05, "max_iters": 40},
        "grid": {
            "missing_width": [0.0, 0.3],
            "noise_std": [0.02],
            "outlier_ratio": [0.0],
            "deformation_level": [1],
        },
        "variants": ["SFGP_Full"],
        "instances": 2,
        "master_seed": 777,
    }
    payload.update(overrides)
    Path(path).write_text(json.dumps(payload))
    return path


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_generate_writes_expected_instances(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    manifests = list(out.rglob("manifest.json"))
    assert len(manifests) == 4  # 2 levels x 2 instances
    dataset = sio.read_json(out / "dataset.json")
    assert len(dataset["instances"]) == 4


def test_generate_hundred_instances_single_level(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.3], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        instances=100,
    )
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(out.rglob("manifest.json"))) == 100


def test_generate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(cfg), "--out", str(out1)])
    main(["generate", "--config", str(cfg), "--out", str(out2)])
    assert tree_digest(out1) == tree_digest(out2)


def test_generate_zero_instances_fails(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", instances=0)
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "instances" in capsys.readouterr().err


def test_register_self_target_near_zero_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    fish = fish_reference()
    target_csv = tmp_path / "target.csv"
    sio.write_pointset_csv(target_csv, fish)
    out = tmp_path / "run"
    code = main([
        "register", "--config", str(cfg), "--target", str(target_csv),
        "--out", str(out),
    ])
    assert code == 0
    fitted = sio.read_pointset_csv(out / "deformed_reference.csv")
    assert np.mean(np.linalg.norm(fitted.points - fish.points, axis=1)) < 1e-3
    meta = sio.read_json(out / "result.json")
    assert set(meta) == {"schema_version", "variant", "iters", "stop_reason", "runtime_ms"}
    trace = sio.read_csv_rows(out / "trace.csv")
    assert len(trace) == meta["iters"]
    # the run stopped on the first row whose largest move is within the tolerance
    rel_tol = RegistrationConfig().rel_tol
    within = [r["max_move"] <= rel_tol * np.sqrt(r["mean_sigma2"]) for r in trace]
    assert meta["stop_reason"] == "converged" and meta["iters"] < 40
    assert within[-1] and not any(within[1:-1])


def test_register_dataset_produces_per_instance_results(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    data = tmp_path / "data"
    main(["generate", "--config", str(cfg), "--out", str(data)])
    out = tmp_path / "runs"
    code = main([
        "register", "--config", str(cfg), "--dataset", str(data),
        "--out", str(out), "--variant", "SFGP_Full",
    ])
    assert code == 0
    assert len(list(out.rglob("result.json"))) == 4


def test_register_requires_target_xor_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["register", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_variant_lists_choices(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    target_csv = tmp_path / "t.csv"
    sio.write_pointset_csv(target_csv, fish_reference())
    code = main([
        "register", "--config", str(cfg), "--target", str(target_csv),
        "--out", str(tmp_path / "o"), "--variant", "SFGP_Fancy",
    ])
    assert code == 1
    err = capsys.readouterr().err
    for name in ("SFGP_Full", "SFGP_bcpdReg", "GPReg_noTresh", "GPClosestPnt"):
        assert name in err


def test_sweep_metrics_roundtrip_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={
            "missing_width": [0.3],
            "noise_std": [0.02],
            "outlier_ratio": [0.0],
            "deformation_level": [1],
        },
        variants=["SFGP_Full", "GPClosestPnt"],
        instances=2,
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0

    rows1 = sio.read_csv_rows(out1 / "metrics.csv")
    rows2 = sio.read_csv_rows(out2 / "metrics.csv")
    assert len(rows1) == 4
    strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
    assert strip(rows1) == strip(rows2)

    # written floats parse back to the exact in-memory values
    raw = (out1 / "metrics.csv").read_text().splitlines()
    header = raw[0].split(",")
    idx = header.index("error_all")
    for row, line in zip(rows1, raw[1:]):
        assert row["error_all"] == float(line.split(",")[idx])


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    # the pool sets the BLAS thread variables for its workers only
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.2], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        instances=2,
    )
    serial, parallel = tmp_path / "ser", tmp_path / "par"
    main(["sweep", "--config", str(cfg), "--out", str(serial)])
    main(["sweep", "--config", str(cfg), "--out", str(parallel), "--threads", "2"])
    strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
    assert strip(sio.read_csv_rows(serial / "metrics.csv")) == strip(
        sio.read_csv_rows(parallel / "metrics.csv")
    )
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ


def test_one_blas_thread_block_sets_and_restores_env(monkeypatch):
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with _one_blas_thread_per_worker():
        assert [os.environ[name] for name in BLAS_THREAD_VARS] == ["1"] * 3
    assert os.environ["MKL_NUM_THREADS"] == "4"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_cli_import_loads_only_numpy_and_scipy_linalg():
    # every sfgp process and spawned sweep worker pays for what this imports
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, sfgp.cli; "
        "print(sorted(m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.special') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_eval_aggregates_dataset_results(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    data, runs, report = tmp_path / "data", tmp_path / "runs", tmp_path / "report"
    main(["generate", "--config", str(cfg), "--out", str(data)])
    main(["register", "--config", str(cfg), "--dataset", str(data), "--out", str(runs)])
    code = main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(report)])
    assert code == 0
    rows = sio.read_csv_rows(report / "aggregate.csv")
    assert len(rows) == 4
    assert all(r["success"] == 1 for r in rows)
    assert (report / "summary.txt").read_text().count("\n") >= 3


def test_missing_config_fails_cleanly(tmp_path, capsys):
    code = main(["generate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


def test_unknown_registration_key_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", registration={"pmin": 0.05, "seed": 3})
    target_csv = tmp_path / "t.csv"
    sio.write_pointset_csv(target_csv, fish_reference())
    code = main([
        "register", "--config", str(cfg), "--target", str(target_csv),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "pmin" in err and "seed" in err


def test_variant_keys_in_registration_block_fail_cleanly(tmp_path, capsys):
    # the modes belong to --variant; a registration block must not set them
    cfg = write_config(
        tmp_path / "cfg.json",
        registration={"p_min": 0.05, "variance_mode": "scalar",
                      "correspondence_mode": "closest_point"},
    )
    target_csv = tmp_path / "t.csv"
    sio.write_pointset_csv(target_csv, fish_reference())
    code = main([
        "register", "--config", str(cfg), "--variant", "SFGP_Full",
        "--target", str(target_csv), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "variance_mode" in err and "correspondence_mode" in err
    assert "--variant" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("p_min", "0.05"), ("omega", None), ("rel_tol", [1e-3]), ("max_iters", 2.5),
    ("max_iters", True), ("sigma2_init", "1e-3"), ("jitter", False),
    ("sigma2_init", float("nan")), ("sigma2_init", float("inf")), ("rel_tol", float("nan")),
    ("rel_tol", float("inf")), ("jitter", float("nan")), ("jitter", float("inf")),
])
def test_registration_value_of_wrong_type_fails_cleanly(tmp_path, capsys, key, value):
    # a value of the wrong type, or a NaN or Infinity (which JSON parses), is
    # a ConfigError naming its key, caught before any task runs, not an error
    # from inside validation or `register`
    cfg = write_config(tmp_path / "cfg.json", registration={"p_min": 0.05, key: value})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("amplitude2", True), ("amplitude2", "0.01"), ("lengthscale", None),
    ("amplitude2", float("nan")), ("lengthscale", float("inf")), ("factor", False),
    ("factor", float("nan")),
])
def test_kernel_value_of_wrong_type_fails_cleanly(tmp_path, capsys, key, value):
    # float() would run true as 1.0; NaN and Infinity would reach the Gram
    se = {"type": "squared_exponential", "amplitude2": 0.01, "lengthscale": 0.2}
    kernel = {"type": "scaled", "factor": 2.0, "inner": se}
    (kernel if key == "factor" else se)[key] = value
    cfg = write_config(tmp_path / "cfg.json", kernel=kernel)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


def test_registration_numbers_and_nulls_are_accepted():
    cfg = cli.registration_config_from(
        {"omega": 0, "p_min": 0.05, "rel_tol": 1, "max_iters": 5, "sigma2_init": None,
         "jitter": None}
    )
    assert cfg == RegistrationConfig(omega=0, p_min=0.05, rel_tol=1, max_iters=5)


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("center", [98, 500, -1, "middle"])
def test_missing_center_outside_the_reference_fails_cleanly(tmp_path, capsys, command, center):
    # fish98 has indices 0..97: the center is checked before anything is
    # generated, written or registered
    grid = {"missing_width": [0.3], "noise_std": [0.02], "missing_center": center}
    cfg = write_config(tmp_path / "cfg.json", grid=grid)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "missing_center" in err
    assert not out.exists()


def test_eval_matches_sweep_cell_for_cell(tmp_path):
    # eval scores the CSV outputs of `register` with the same metric code the
    # sweep applies in-process, so every deterministic cell agrees exactly
    cfg = write_config(tmp_path / "cfg.json")
    data, runs, report = tmp_path / "data", tmp_path / "runs", tmp_path / "report"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--dataset", str(data), "--out", str(runs)]) == 0
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(report)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    evaluated = sio.read_csv_rows(report / "aggregate.csv")
    swept = sio.read_csv_rows(tmp_path / "sweep" / "metrics.csv")
    for rows in (evaluated, swept):
        for row in rows:
            del row["runtime_ms"]
    assert evaluated == swept
    assert any(r["error_missing"] is not None and r["recall"] is not None for r in swept)


def strip_runtime(rows):
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("key", ["instances", "master_seed"])
@pytest.mark.parametrize("value", [2.5, 7.9, True, "3"])
def test_instances_and_master_seed_must_be_exact_ints(tmp_path, capsys, command, key, value):
    # int() would run 2.5 as 2 and "3" as 3; a ConfigError names the key
    # before anything is generated, written or registered
    cfg = write_config(tmp_path / "cfg.json", **{key: value})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


def test_negative_master_seed_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", master_seed=-1)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "master_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_zero_instances_fails(tmp_path, capsys):
    # the same check as `generate`, not a header-only metrics.csv
    cfg = write_config(tmp_path / "cfg.json", instances=0)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "instances must be >= 1" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_sweep_records_a_degenerate_level_as_failed(tmp_path):
    # a missing box wider than fish98 removes every point of that level; the
    # level becomes a failed row and the other level is still scored
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.3, 3.0], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        instances=1,
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {r["level"]: r for r in sio.read_csv_rows(out / "metrics.csv")}
    assert sorted(rows) == ["mw0.3_ns0.02_or0_dl1", "mw3_ns0.02_or0_dl1"]
    scored, failed = rows["mw0.3_ns0.02_or0_dl1"], rows["mw3_ns0.02_or0_dl1"]
    assert scored["success"] == 1 and scored["error_all"] is not None
    assert scored["iters"] >= 1 and scored["stop_reason"] in ("converged", "max_iters")
    assert failed["success"] == 0
    assert all(failed[k] is None for k in ("error_all", "recall", "precision"))
    # the run raised: no iteration, and the exception's class as the reason
    assert failed["iters"] == 0
    assert failed["stop_reason"] == "DegenerateInstanceError"


def test_sweep_scores_an_unperturbed_level(tmp_path):
    # every grid axis at its default of 0 leaves the target equal to the
    # reference: closest points fit it exactly, which is no failure
    cfg = write_config(tmp_path / "cfg.json", grid={}, variants=["GPClosestPnt"], instances=1)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    [row] = sio.read_csv_rows(out / "metrics.csv")
    assert row["success"] == 1 and row["error_all"] == 0.0
    assert row["iters"] == 2 and row["stop_reason"] == "converged"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process and maps in-process."""

    sizes = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("instances, threads, sizes", [(2, "8", [2]), (1, "2", [])])
def test_sweep_pool_is_capped_at_the_task_count(tmp_path, monkeypatch, instances, threads, sizes):
    # one task per instance here; a single task runs without a pool
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.2], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        instances=instances,
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
    assert RecordingPool.sizes == sizes
    assert len(sio.read_csv_rows(out / "metrics.csv")) == instances


def test_pca_sum_kernel_agrees_across_sweep_and_files(tmp_path):
    # a pca_file summand takes the low-rank posterior path, in-process, in
    # pool workers and through register's files alike
    fish = fish_reference()
    deformations = [
        (warp_rbf(fish, 0.03, 0.3, 5, seed).points - fish.points).ravel() for seed in range(6)
    ]
    spectrum = tmp_path / "spectrum.npz"
    save_pca_kernel(spectrum, build_pca_kernel(deformations, 3, fish))
    kernel = {
        "type": "sum",
        "parts": [
            {"type": "squared_exponential", "amplitude2": 0.01, "lengthscale": 0.2},
            {"type": "pca_file", "path": str(spectrum)},
        ],
    }
    cfg = write_config(
        tmp_path / "cfg.json",
        kernel=kernel,
        grid={"missing_width": [0.3], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
    )
    data, runs, report = tmp_path / "data", tmp_path / "runs", tmp_path / "report"
    for threads in ("1", "2"):
        out = tmp_path / f"sweep{threads}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--dataset", str(data), "--out", str(runs)]) == 0
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(report)]) == 0

    serial = strip_runtime(sio.read_csv_rows(tmp_path / "sweep1" / "metrics.csv"))
    assert len(serial) == 2 and all(r["success"] == 1 for r in serial)
    assert strip_runtime(sio.read_csv_rows(tmp_path / "sweep2" / "metrics.csv")) == serial
    assert strip_runtime(sio.read_csv_rows(report / "aggregate.csv")) == serial


def test_register_mid_run_collapse_writes_placeholders(tmp_path, monkeypatch):
    # a collapse after iteration 1 leaves a fitted reference but no state
    calls = []

    def e_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise AllMissingError("collapsed")
        return get_correspondences(*args, **kwargs)

    monkeypatch.setattr(registration, "get_correspondences", e_step)
    target_csv = tmp_path / "target.csv"
    sio.write_points_csv(target_csv, warp_rbf(fish_reference(), 0.03, 0.3, 5, 1).points)
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    code = main(["register", "--config", str(cfg), "--target", str(target_csv), "--out", str(out)])
    assert code == 0
    meta = sio.read_json(out / "result.json")
    assert meta["stop_reason"] == "mid_run_collapse"
    assert meta["iters"] == 2
    assert len(sio.read_csv_rows(out / "trace.csv")) == 1
    assert sio.read_pointset_csv(out / "deformed_reference.csv").n == fish_reference().n
    summary = sio.read_csv_rows(out / "correspondence_summary.csv")
    assert [r["ref_index"] for r in summary] == list(range(fish_reference().n))
    assert all(r["best_target"] == -1 and r["nu"] == 0 and r["is_missing"] == 0
               for r in summary)


def test_register_first_iteration_failure_writes_placeholders(tmp_path):
    # no correspondence state exists, so every summary row is a placeholder
    reference_csv, target_csv = tmp_path / "ref.csv", tmp_path / "target.csv"
    sio.write_points_csv(reference_csv, [[0.0, 0.0], [1.0, 0.0]])
    sio.write_points_csv(target_csv, [[1e160, 1e160]])
    cfg = write_config(
        tmp_path / "cfg.json", reference=str(reference_csv), registration={"sigma2_init": 1e-6}
    )
    out = tmp_path / "run"
    code = main(["register", "--config", str(cfg), "--target", str(target_csv), "--out", str(out)])
    assert code == 0
    meta = sio.read_json(out / "result.json")
    assert meta["stop_reason"] == "first_iteration"
    summary = sio.read_csv_rows(out / "correspondence_summary.csv")
    assert [r["ref_index"] for r in summary] == [0, 1]
    assert all(r["best_target"] == -1 and r["nu"] == 0 for r in summary)
