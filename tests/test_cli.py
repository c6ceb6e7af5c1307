import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from sfgp import cli, registration
from sfgp import io as sio
from sfgp.cli import BLAS_THREAD_VARS, _one_blas_thread_per_worker, main
from sfgp.core import AllMissingError, ConfigError, RegistrationConfig
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
    # an entry names its instance by level and index alone, and the
    # instance's seed is stored once, in its own manifest
    assert [set(e) for e in dataset["instances"]] == [{"level", "index"}] * 4
    assert sorted(m.parent for m in manifests) == sorted(
        out / "instances" / e["level"] / str(e["index"]) for e in dataset["instances"])


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
    within = [r["max_move"] <= registration.REL_TOL * np.sqrt(r["mean_sigma2"]) for r in trace]
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
    for inputs in ([], ["--target", "t.csv", "--dataset", "data"]):  # neither, both
        with pytest.raises(SystemExit) as exc:
            main(["register", "--config", str(cfg), "--out", str(tmp_path / "o"), *inputs])
        assert exc.value.code == 2
        assert "--target" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)  # a pool even on one core
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


def run_probe(probe, *args):
    """stdout of `probe` run by a fresh interpreter that imports sfgp from src/."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return out.stdout.strip().splitlines()[-1]


LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("module", ["sfgp", "sfgp.cli"])
def test_import_loads_no_scipy(module):
    # every sfgp process pays for what this imports, whether it registers or not
    assert run_probe(f"import sys, {module}; {LOADED_SCIPY}") == "[]"


def test_generate_and_pooled_sweep_parent_load_no_scipy(tmp_path):
    # the workers register; their parent only deals out the tasks
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.2], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        registration={"p_min": 0.05, "max_iters": 5},
    )
    probe = (
        "import sys; from sfgp import cli; "
        "cli._usable_cores = lambda: 2; "  # a pool even on one core
        "cfg, out = sys.argv[1:]; "
        "assert cli.main(['generate', '--config', cfg, '--out', out + '/data']) == 0; "
        "assert cli.main(['sweep', '--config', cfg, '--out', out + '/sweep', "
        "'--threads', '2']) == 0; "
        f"{LOADED_SCIPY}"
    )
    assert run_probe(probe, cfg, tmp_path) == "[]"
    assert len(sio.read_csv_rows(tmp_path / "sweep" / "metrics.csv")) == 2


def test_registration_loads_only_scipy_linalg(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.2], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        registration={"p_min": 0.05, "max_iters": 5}, instances=1,
    )
    probe = (
        "import sys; from sfgp import cli; "
        "assert cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
        "print(['scipy.linalg' in sys.modules, sorted(m for m in "
        "('scipy.spatial', 'scipy.sparse', 'scipy.special') if m in sys.modules)])"
    )
    assert run_probe(probe, cfg, tmp_path / "sweep") == "[True, []]"


def test_package_resolves_the_engine_functions():
    import sfgp
    from sfgp import gpr, gpr_posterior, register, update_sigma2

    assert register is registration.register
    assert update_sigma2 is registration.update_sigma2
    assert gpr_posterior is gpr.gpr_posterior
    with pytest.raises(AttributeError, match="no attribute 'x'"):
        sfgp.x


def test_register_dataset_drops_each_result_before_the_next(tmp_path, monkeypatch):
    # a result's P is a view of its run's full-size workspace: one kept
    # alive while the next instance registers doubles the memory held
    results, alive_at_call = [], []
    original = registration.register

    def register(*args, **kwargs):
        gc.collect()
        alive_at_call.append(sum(ref() is not None for ref in results))
        result = original(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(registration, "register", register)
    cfg = write_config(tmp_path / "cfg.json", registration={"p_min": 0.05, "max_iters": 3})
    data, runs = tmp_path / "data", tmp_path / "runs"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--dataset", str(data),
                 "--out", str(runs)]) == 0
    assert alive_at_call == [0, 0, 0, 0]  # 2 levels x 2 instances
    assert len(list(runs.rglob("result.json"))) == 4


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
    # the variant belongs to --variant; a registration block must not set it
    cfg = write_config(
        tmp_path / "cfg.json", registration={"p_min": 0.05, "variant": "GPClosestPnt"})
    target_csv = tmp_path / "t.csv"
    sio.write_pointset_csv(target_csv, fish_reference())
    code = main([
        "register", "--config", str(cfg), "--variant", "SFGP_Full",
        "--target", str(target_csv), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "--variant" in err
    assert not (tmp_path / "o").exists()


def test_the_old_mode_keys_are_unknown_registration_keys():
    with pytest.raises(ConfigError, match="unknown registration keys: "
                                          "correspondence_mode, variance_mode$"):
        cli.registration_config_from({"variance_mode": "scalar",
                                      "correspondence_mode": "closest_point"})


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


SE_KERNEL = {"type": "squared_exponential", "amplitude2": 0.01, "lengthscale": 0.2}


@pytest.mark.parametrize("overrides, key", [
    ({"variant": ["SFGP_bcpdReg"]}, "variant"),
    ({"kernel": {**SE_KERNEL, "lenghtscale": 5.0}}, "lenghtscale"),
    ({"kernel": {"type": "scaled", "factor": 2.0, "inner": {**SE_KERNEL, "scale": 2.0}}},
     "scale"),
], ids=["top_level", "kernel", "inner_kernel"])
def test_unknown_config_keys_fail_cleanly(tmp_path, capsys, overrides, key):
    # a misspelt key would otherwise run at its default without a word
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"kernel": "se"}, "kernel"),
    ({"kernel": {"type": "sum", "parts": {"a": 1}}}, "parts"),
    ({"kernel": {"type": "sum", "parts": [SE_KERNEL, 1]}}, "kernel"),
    ({"registration": [1]}, "registration"),
    ({"grid": [0.2]}, "grid"),
    ({"kernel": {"type": "pca_file", "path": 3}}, "path"),
    ({"kernel": {"type": "matern"}}, "unknown kernel type"),
    ({"kernel": {"amplitude2": 0.01}}, "unknown kernel type"),
], ids=["kernel", "sum_parts", "sum_part", "registration", "grid", "pca_path", "kernel_type",
        "kernel_without_type"])
def test_block_of_the_wrong_kind_fails_cleanly(tmp_path, capsys, overrides, key):
    # an error naming the key, not a traceback from the code that reads it
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("reference", [0, 5, None, ["fish98"]])
def test_reference_that_is_no_string_fails_cleanly(tmp_path, capsys, command, reference):
    # open() would take an int as a file descriptor: 0 would read stdin
    cfg = write_config(tmp_path / "cfg.json", reference=reference)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "reference" in err
    assert not out.exists()


def _fish_csv_with(tmp_path, first_row_end):
    """fish98 as a point CSV whose first row ends in `first_row_end`."""
    path = tmp_path / "fish.csv"
    sio.write_points_csv(path, fish_reference().points)
    lines = path.read_text().splitlines()
    lines[0] += first_row_end
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("command, bad", [
    ("generate", "trailing_comma"), ("generate", "ragged"), ("sweep", "ragged"),
    ("register", "trailing_comma"), ("generate", "json"), ("sweep", "json"),
])
def test_malformed_input_file_is_named(tmp_path, capsys, command, bad):
    # a trailing comma would drop the row as a header, a ragged row would
    # fail inside NumPy and a JSON syntax error would name no file
    path = _fish_csv_with(tmp_path, "," if bad == "trailing_comma" else ",0.5")
    out = tmp_path / "out"
    if command == "register":  # the file is the target, the reference fish98
        cfg = write_config(tmp_path / "cfg.json")
        extra = ["--target", str(path)]
    else:
        cfg = write_config(tmp_path / "cfg.json", reference=str(path))
        extra = []
    if bad == "json":
        cfg.write_text(cfg.read_text()[:-1] + ",}")
        path = cfg
    assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert not out.exists()


def test_config_that_is_no_json_object_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, overrides, key", [
    ("generate", {"grid": {"missing_width": [], "noise_std": [0.02]}}, "missing_width"),
    ("sweep", {"grid": {"missing_width": [], "noise_std": [0.02]}}, "missing_width"),
    ("sweep", {"variants": []}, "variants"),
    ("sweep", {"variants": ["SFGP_Full", "GPClosestPnt", "SFGP_Full"]}, "'SFGP_Full'"),
    ("sweep", {"variants": [["SFGP_Full"]]}, "unknown variant ['SFGP_Full']"),
    ("sweep", {"variants": [{"name": "SFGP_Full"}]}, "unknown variant {'name'"),
], ids=["generate_axis", "sweep_axis", "sweep_variants", "sweep_variant_twice",
        "sweep_variant_list", "sweep_variant_object"])
def test_empty_list_fails_cleanly(tmp_path, capsys, command, overrides, key):
    # an empty axis or variant list runs nothing; like instances: 0 it is an
    # error, not a header-only metrics.csv or a half-written dataset.  A
    # variant listed twice would run every one of its tasks twice and write
    # two rows with one (variant, level, seed), and one that is no string
    # is no variant, not a TypeError
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


def test_registration_numbers_are_accepted():
    cfg = cli.registration_config_from({"omega": 0, "p_min": 0.05, "max_iters": 5})
    assert cfg == RegistrationConfig(omega=0, p_min=0.05, max_iters=5)


@pytest.mark.parametrize("payload", [
    {"jitter": 0}, {"sigma2_init": 1e-3}, {"jitter": None}, {"sigma2_init": None},
], ids=["jitter", "sigma2_init", "jitter_null", "sigma2_init_null"])
def test_registration_has_no_key_for_the_initial_sigma2_or_the_jitter(payload):
    # both are derived, from the reference and from the kernel diagonal, so
    # a config that sets either, to a number or to null, names the key
    [key] = payload
    with pytest.raises(ConfigError, match=f"unknown registration keys: {key}$"):
        cli.registration_config_from({"p_min": 0.05, **payload})


def test_the_stop_tolerance_is_no_registration_key():
    # it is the constant registration.REL_TOL
    with pytest.raises(ConfigError, match="unknown registration keys: rel_tol$"):
        cli.registration_config_from({"p_min": 0.05, "rel_tol": 1e-3})


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("key, entries", [
    ("warp_controls", {"warp_controls": 2.5}),
    ("warp_controls", {"warp_controls": -1}),
    ("missing_width", {"missing_width": [True]}),
    ("missing_width", {"missing_width": ["0.1"]}),
    ("missing_width", {"missing_width": [0.1, -0.2]}),
    ("noise_std", {"noise_std": [float("nan")]}),
    ("rotation_max", {"rotation_max": [0.1]}),
    ("warp_bandwidth", {"warp_bandwidth": None}),
    ("missing_widht", {"missing_widht": [0.3]}),
    ("deformation_level", {"deformation_level": [float("nan")]}),
    ("deformation_level", {"deformation_level": [-1]}),
    ("deformation_level", {"deformation_level": [True]}),
    ("deformation_level", {"deformation_level": ["1"]}),
    ("mw0.2_ns0.02_or0_dl0", {"missing_width": [0.2, 0.2]}),
    ("mw0.1_ns0.02_or0_dl0", {"missing_width": [0.1, 0.1000001]}),
    ("warp_bandwidth", {"warp_bandwidth": 0.3}),
    ("warp_controls", {"warp_controls": 5}),
    ("missing_center", {"missing_center": 3}),
    ("missing_center", {"missing_center": "random"}),
], ids=["float_count", "negative_count", "true", "string", "negative", "nan", "list_setting",
        "null_setting", "unknown_key", "nan_level", "negative_level", "true_level",
        "string_level", "equal_points", "points_equal_to_6_digits", "warp_bandwidth",
        "warp_controls", "missing_center", "random_missing_center"])
def test_malformed_grid_fails_cleanly(tmp_path, capsys, command, key, entries):
    # int() would run 2.5 as 2 and float() [true] as 1.0, a misspelt axis
    # would run at its default, two points with one level tag would write
    # one instance directory and score one level twice, and the warp shape
    # and the missing center are no grid settings (every spec warps at
    # PerturbationSpec's defaults around a random center): a ConfigError
    # names the key, or the tag, before anything is generated, written or
    # registered
    grid = {"missing_width": [0.3], "noise_std": [0.02], **entries}
    cfg = write_config(tmp_path / "cfg.json", grid=grid)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


def test_grid_settings_are_accepted(tmp_path):
    grid = {"missing_width": 0.3, "noise_std": [0, 0.02], "rotation_max": 0.1}
    cfg = write_config(tmp_path / "cfg.json", grid=grid, instances=1)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    manifests = list((tmp_path / "out").rglob("manifest.json"))
    assert [sio.read_json(m)["spec"]["rotation_max"] for m in manifests] == [0.1, 0.1]


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


@pytest.mark.parametrize("threads", ["0", "-3", "abc", "2.5"])
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
    monkeypatch.setattr(cli, "_usable_cores", lambda: 8)  # not the host's count
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


@pytest.mark.parametrize("cores, sizes", [(2, [2]), (1, [])])
def test_sweep_pool_is_capped_at_the_usable_cores(tmp_path, monkeypatch, cores, sizes):
    # 64 workers on a 2-core host would each import numpy and scipy for nothing
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    cfg = write_config(
        tmp_path / "cfg.json",
        grid={"missing_width": [0.2], "noise_std": [0.02],
              "outlier_ratio": [0.0], "deformation_level": [1]},
        instances=3,
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", "64"]) == 0
    assert RecordingPool.sizes == sizes
    assert len(sio.read_csv_rows(out / "metrics.csv")) == 3


def test_usable_cores_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cores() == 3


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


@pytest.mark.parametrize("name, write, needle", [
    ("spectrum.npy", lambda p: np.save(p, np.ones(3)), "not a spectrum archive"),
    ("spectrum.csv", lambda p: p.write_text("0.1,0.2\n"), "not a spectrum archive"),
    ("spectrum.npz", lambda p: np.savez(p, eigenvalues=np.ones(2), eigenvectors=np.eye(196, 2)),
     "anchor_hash"),
], ids=["npy", "text", "npz_without_anchor_hash"])
def test_pca_file_that_is_no_spectrum_archive_fails_cleanly(tmp_path, capsys, name, write,
                                                            needle):
    # np.load gives an .npy's one array, which is no context manager, takes
    # a text file for a pickle, and an archive's KeyError would read as a
    # missing config key
    path = tmp_path / name
    write(path)
    cfg = write_config(tmp_path / "cfg.json", kernel={"type": "pca_file", "path": str(path)})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(path) in err and needle in err
    assert not out.exists()


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
    cfg = write_config(tmp_path / "cfg.json", reference=str(reference_csv))
    out = tmp_path / "run"
    code = main(["register", "--config", str(cfg), "--target", str(target_csv), "--out", str(out)])
    assert code == 0
    meta = sio.read_json(out / "result.json")
    assert meta["stop_reason"] == "first_iteration"
    summary = sio.read_csv_rows(out / "correspondence_summary.csv")
    assert [r["ref_index"] for r in summary] == [0, 1]
    assert all(r["best_target"] == -1 and r["nu"] == 0 for r in summary)


def test_register_records_a_raising_run_as_the_sweep_does(tmp_path):
    # amplitudes whose kernel diagonal sums past the largest float give a
    # jitter that is not finite: every registration raises NumericalError,
    # which register records, as the sweep does, and goes on
    se = {"type": "squared_exponential", "amplitude2": 1.5e154, "lengthscale": 0.2}
    cfg = write_config(tmp_path / "cfg.json", instances=1,
                       kernel={"type": "scaled", "factor": 1e154, "inner": se})
    data, runs, report = tmp_path / "data", tmp_path / "runs", tmp_path / "report"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--dataset", str(data), "--out", str(runs)]) == 0
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(report)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    swept = strip_runtime(sio.read_csv_rows(tmp_path / "sweep" / "metrics.csv"))
    assert len(swept) == 2
    assert all(r["success"] == 0 and r["iters"] == 0 and r["stop_reason"] == "NumericalError"
               for r in swept)
    assert strip_runtime(sio.read_csv_rows(report / "aggregate.csv")) == swept


@pytest.mark.parametrize("stop_reason, iters, fails", [
    ("first_iteration", 1, lambda n: True),
    # each run's second E-step finds no label, and a collapse ends it there
    ("mid_run_collapse", 2, lambda n: n % 2 == 0),
])
def test_register_and_eval_score_a_failed_stop_as_the_sweep_does(
        tmp_path, monkeypatch, stop_reason, iters, fails):
    calls = []

    def e_step(*args, **kwargs):
        calls.append(1)
        if fails(len(calls)):
            raise AllMissingError("collapsed")
        return get_correspondences(*args, **kwargs)

    monkeypatch.setattr(registration, "get_correspondences", e_step)
    cfg = write_config(tmp_path / "cfg.json")
    data, runs, report = tmp_path / "data", tmp_path / "runs", tmp_path / "report"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["register", "--config", str(cfg), "--dataset", str(data), "--out", str(runs)]) == 0
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(report)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                 "--threads", "1"]) == 0  # in this process, so patched
    swept = strip_runtime(sio.read_csv_rows(tmp_path / "sweep" / "metrics.csv"))
    assert len(swept) == 4
    scores = ("error_all", "error_missing", "error_nonmissing", "recall", "precision")
    assert all(r["success"] == 0 and all(r[k] is None for k in scores)
               and r["iters"] == iters and r["stop_reason"] == stop_reason for r in swept)
    assert strip_runtime(sio.read_csv_rows(report / "aggregate.csv")) == swept


def generated_dataset(tmp_path):
    """The dataset of one fish98 instance with a missing box, from tmp_path/cfg.json."""
    cfg = write_config(tmp_path / "cfg.json", instances=1, grid={"missing_width": 0.3})
    data = tmp_path / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    return data


def registered_run(tmp_path):
    """The dataset and the runs of one fish98 instance with a missing box."""
    data, runs = generated_dataset(tmp_path), tmp_path / "runs"
    assert main(["register", "--config", str(tmp_path / "cfg.json"), "--dataset", str(data),
                 "--out", str(runs)]) == 0
    [summary] = runs.rglob("correspondence_summary.csv")
    return data, runs, summary


@pytest.mark.parametrize("n_rows", [1, 99])
def test_eval_rejects_a_summary_of_the_wrong_length(tmp_path, capsys, n_rows):
    # one row would broadcast its is_missing against all 98 points
    data, runs, summary = registered_run(tmp_path)
    header, *rows = summary.read_text().splitlines()
    rows = (rows * 2)[:n_rows]
    summary.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "report"
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(summary) in err
    assert f"{len(rows)} rows, but the reference has 98 points" in err


@pytest.mark.parametrize("n_rows", [1, 99])
def test_eval_rejects_a_deformed_reference_of_the_wrong_length(tmp_path, capsys, n_rows):
    # the fitted points are scored index by index against the ground truth
    data, runs, summary = registered_run(tmp_path)
    fitted = summary.parent / "deformed_reference.csv"
    points = sio.read_pointset_csv(fitted).points
    sio.write_points_csv(fitted, np.vstack([points, points])[:n_rows])
    out = tmp_path / "report"
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(fitted) in err
    assert f"{n_rows} rows, but the reference has 98 points" in err


@pytest.mark.parametrize("cell", ["2", "1.0", "-1", "yes", ""])
def test_eval_rejects_an_is_missing_cell_other_than_0_or_1(tmp_path, capsys, cell):
    data, runs, summary = registered_run(tmp_path)
    rows = sio.read_csv_rows(summary)
    rows[5]["is_missing"] = cell
    sio.write_csv_rows(summary, list(rows[0]), rows)
    out = tmp_path / "report"
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(summary) in err and "is_missing must be 0 or 1" in err


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
def test_eval_rejects_an_empty_summary(tmp_path, capsys, text):
    data, runs, summary = registered_run(tmp_path)
    summary.write_text(text)
    out = tmp_path / "report"
    assert main(["eval", "--results", str(runs), "--dataset", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(summary) in err and "no header row" in err


@pytest.mark.parametrize("spec, message", [
    ({"warp_amp": 0.03}, "unknown spec keys: warp_amp\n"), ([0.03], "spec must be"),
    ({"noise_std": -1}, "noise_std must be a finite number >= 0, got -1\n"),
    ({"missing_center": "random"}, "unknown spec keys: missing_center\n"),
    ({"missing_center": 3, "warp_amp": 0.03}, "unknown spec keys: missing_center, warp_amp\n"),
], ids=["unknown_key", "list", "out_of_range", "missing_center", "two_unknown_keys"])
@pytest.mark.parametrize("command", ["eval", "register"])
def test_a_bad_manifest_spec_names_the_manifest(tmp_path, capsys, command, spec, message):
    # a manifest written before the missing box's center was always drawn
    # holds "missing_center": "random"; generate rewrites it without the key
    data = generated_dataset(tmp_path)
    [manifest] = data.rglob("manifest.json")
    edit_json(manifest, lambda m: m.update(spec=dict(m["spec"], **spec)
                                           if isinstance(spec, dict) else spec))
    err = fails_on_dataset(tmp_path, command, capsys)
    assert err.startswith(f"error: {manifest}: {message}")


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("spec"), "missing key 'spec'"),
    (lambda m: m.pop("missing_mask"), "missing key 'missing_mask'"),
    (lambda m: m.pop("outlier_mask"), "missing key 'outlier_mask'"),
    (lambda m: m.update(missing_mask="abc"), "masks inconsistent"),
    (lambda m: m.update(outlier_mask=m["outlier_mask"][1:]), "masks inconsistent"),
    # the count of kept points still matches: eval would index the 98
    # ground-truth points with 97 flags
    (lambda m: m["missing_mask"].remove(True), "masks inconsistent"),
    (lambda m: m.update(missing_mask=[[True], []]), "setting an array element with a sequence"),
], ids=["no_spec", "no_missing_mask", "no_outlier_mask", "string_mask", "short_outlier_mask",
        "short_missing_mask", "ragged_mask"])
@pytest.mark.parametrize("command", ["eval", "register"])
def test_a_bad_manifest_names_the_manifest(tmp_path, capsys, command, edit, message):
    data = generated_dataset(tmp_path)
    [manifest] = data.rglob("manifest.json")
    edit_json(manifest, edit)
    err = fails_on_dataset(tmp_path, command, capsys)
    assert err.startswith(f"error: {manifest}: {message}") and err.count("\n") == 1


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def fails_on_dataset(tmp_path, command, capsys) -> str:
    """The error output of `eval` of tmp_path/runs or `register --dataset`,
    over tmp_path/data, once it has exited 1 without writing its output."""
    data, out = tmp_path / "data", tmp_path / "second"
    if command == "eval":
        argv = ["eval", "--results", str(tmp_path / "runs"), "--dataset", str(data),
                "--out", str(out)]
    else:
        argv = ["register", "--config", str(tmp_path / "cfg.json"), "--dataset", str(data),
                "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    return capsys.readouterr().err


def _first_entry(**values):
    return lambda d, root: d["instances"][0].update(values)


@pytest.mark.parametrize("edit", [
    lambda d, root: d.update(instances=5),
    lambda d, root: d.update(instances=["a"]),
    _first_entry(path=5),
    lambda d, root: d.update(instances=[{"level": "x"}]),
    _first_entry(index=-1),
    _first_entry(seed=True),
    lambda d, root: d.pop("instances"),
    _first_entry(path="instances/mw0.3_ns0_or0_dl0/0"),
    _first_entry(seed=3),
    _first_entry(level="../x"),
    lambda d, root: d["instances"][0].update(level=str(root / "abs")),
    _first_entry(level="a/b"),
    _first_entry(level=".."),
    _first_entry(level="."),
    _first_entry(level=""),
    _first_entry(level=5),
], ids=["number", "string_entry", "number_path", "missing_keys", "negative_index", "true_seed",
        "no_instances", "old_path", "old_seed", "parent_level", "absolute_level",
        "nested_level", "dotdot_level", "dot_level", "empty_level", "number_level"])
@pytest.mark.parametrize("command", ["eval", "register"])
def test_a_bad_dataset_json_names_the_file(tmp_path, capsys, command, edit):
    # each entry is checked before any instance is read, and an error line,
    # not a TypeError or a bare missing key, names dataset.json. An entry
    # holds exactly a level and an index: a path or a seed, which the older
    # format also stored, is an unknown key. A level is one directory name,
    # so no run directory leaves --out and nothing else is written
    data = generated_dataset(tmp_path)
    edit_json(data / "dataset.json", lambda d: edit(d, tmp_path))
    before = sorted(tmp_path.rglob("*"))
    err = fails_on_dataset(tmp_path, command, capsys)
    assert err.startswith(f"error: {data / 'dataset.json'}: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("key", ["variant", *cli.RUN_FIELDS])
def test_eval_names_a_result_json_that_lacks_a_key(tmp_path, capsys, key):
    _, _, summary = registered_run(tmp_path)
    result = summary.parent / "result.json"
    edit_json(result, lambda meta: meta.pop(key))
    err = fails_on_dataset(tmp_path, "eval", capsys)
    assert err == f"error: {result}: missing key {key!r}\n"


@pytest.mark.parametrize("path", [("kernel",), ("kernel", "lengthscale")])
def test_missing_key_is_named(tmp_path, capsys, path):
    cfg = write_config(tmp_path / "cfg.json")
    payload = json.loads(cfg.read_text())
    block = payload
    for key in path[:-1]:
        block = block[key]
    del block[path[-1]]
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: missing key '{path[-1]}'\n"
