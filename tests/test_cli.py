import hashlib
import json
from pathlib import Path

import numpy as np

from sfgp import io as sio
from sfgp.cli import main
from sfgp.synthdata import fish_reference


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
    assert meta["failed"] is False
    trace = sio.read_csv_rows(out / "trace.csv")
    assert len(trace) == meta["iters"]


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


def test_sweep_parallel_matches_serial(tmp_path):
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
