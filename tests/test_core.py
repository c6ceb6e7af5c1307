from dataclasses import fields, replace

import numpy as np
import pytest

from sfgp import core
from sfgp.core import (
    ConfigError,
    CorrespondenceState,
    PointSet,
    RegistrationConfig,
    SFGPError,
    default_sigma2_init,
    nearest,
    sq_dists,
    variant_config,
)
from sfgp import io as sio
from sfgp.kernels import (
    PCAKernel,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    build_pca_kernel,
    gp_prior,
    load_pca_kernel,
    save_pca_kernel,
)
from sfgp.synthdata import PerturbationSpec, fish_reference

from helpers import fibonacci_sphere, kdtree_sigma2_init


def test_config_accepts_reference_settings():
    cfg = RegistrationConfig(omega=0.1, p_min=0.01, max_iters=100, variant="GPClosestPnt")
    assert (cfg.omega, cfg.p_min, cfg.max_iters, cfg.variant) == (
        0.1, 0.01, 100, "GPClosestPnt")


def test_config_has_no_setting_for_the_initial_sigma2_or_the_jitter():
    # both are derived: sigma2 from the reference, the jitter from the kernel;
    # the variant's row, not a mode field, says what the run does; and the
    # stop tolerance is the constant registration.REL_TOL
    assert [f.name for f in fields(RegistrationConfig)] == [
        "omega", "p_min", "max_iters", "variant"]


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(omega=1.0), "omega"),
        (dict(omega=-0.2), "omega"),
        (dict(p_min=-0.1), "p_min"),
        (dict(p_min=1.0), "p_min"),
        (dict(variant="bogus"), "variant"),
        (dict(omega=float("inf")), "omega"),
        (dict(max_iters=0), "max_iters"),
        (dict(omega=float("nan")), "omega"),
        (dict(variant=["SFGP_Full"]), "variant"),
        (dict(p_min=float("nan")), "p_min"),
        (dict(p_min=[0.01]), "p_min"),
        (dict(variant=None), "variant"),
        (dict(max_iters=2.5), "max_iters"),
        (dict(max_iters=float("inf")), "max_iters"),
        (dict(max_iters=float("nan")), "max_iters"),
        (dict(max_iters=True), "max_iters"),
        (dict(p_min=False), "p_min"),
        (dict(max_iters="5"), "max_iters"),
        (dict(omega=None), "omega"),
        (dict(omega="0.1"), "omega"),
        (dict(omega=True), "omega"),
    ],
)
def test_config_rejections_name_the_field(kwargs, needle):
    with pytest.raises(ConfigError, match=needle):
        RegistrationConfig(**kwargs)


@pytest.mark.parametrize("variant", ["SFGP_full", ["SFGP_Full"], None])
def test_config_rejects_a_variant_naming_the_choices(variant):
    with pytest.raises(ConfigError, match="unknown variant .*; choose one of GPClosestPnt, "
                                          "GPReg_noTresh, SFGP_Full, SFGP_bcpdReg$"):
        RegistrationConfig(variant=variant)


def test_config_accepts_a_numpy_integer_max_iters():
    assert RegistrationConfig(max_iters=np.int64(3)).max_iters == 3


def test_replaced_config_is_checked_again():
    with pytest.raises(ConfigError, match="max_iters"):
        replace(RegistrationConfig(), max_iters=0)


def test_omega_one_message():
    with pytest.raises(ConfigError, match="omega must be < 1"):
        RegistrationConfig(omega=1.0)


ANCHOR = PointSet(points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
OTHER = PointSet(points=ANCHOR.points + 0.5)
TRAINING = np.random.default_rng(3).normal(size=(4, 6))


def _archive(tmp_path, **arrays):
    path = tmp_path / "spectrum.npz"
    np.savez(path, **arrays)
    return path


def _saved(tmp_path):
    path = tmp_path / "spectrum.npz"
    save_pca_kernel(path, build_pca_kernel(TRAINING, 2, ANCHOR))
    return path


def _npy(tmp_path):
    path = tmp_path / "spectrum.npy"
    np.save(path, np.ones(3))
    return path


@pytest.mark.parametrize("make", [
    lambda tmp: RegistrationConfig(p_min=1.0),
    lambda tmp: SquaredExponential(amplitude2=0.0),
    lambda tmp: SquaredExponential(lengthscale=np.nan),
    lambda tmp: ScaledKernel(-1.0, SquaredExponential()),
    lambda tmp: SumKernel(),
    lambda tmp: PCAKernel(np.array([-1.0]), np.eye(6, 1), ANCHOR),
    lambda tmp: PCAKernel(np.array([1.0]), np.eye(5, 1), ANCHOR),
    lambda tmp: PerturbationSpec(noise_std=-0.1),
    lambda tmp: PerturbationSpec(warp_amplitude=0.03, warp_bandwidth=0.0),
    lambda tmp: PerturbationSpec(warp_controls=2.5),
    lambda tmp: PerturbationSpec(seed=-1),
    lambda tmp: variant_config("SFGP_full"),
    lambda tmp: variant_config(["SFGP_Full"]),
    lambda tmp: build_pca_kernel(TRAINING, 0, ANCHOR),
    lambda tmp: build_pca_kernel(np.ones((4, 6)), 1, ANCHOR),
    lambda tmp: gp_prior(build_pca_kernel(TRAINING, 2, ANCHOR), OTHER),
    lambda tmp: load_pca_kernel(_saved(tmp), OTHER),
    lambda tmp: load_pca_kernel(_npy(tmp), ANCHOR),
    lambda tmp: load_pca_kernel(_archive(tmp, eigenvalues=np.ones(1)), ANCHOR),
], ids=["registration", "amplitude2", "lengthscale", "factor", "sum_parts", "eigenvalues",
        "eigenvectors", "noise_std", "warp_bandwidth", "warp_controls", "seed",
        "variant", "variant_of_wrong_kind", "rank", "spectrum_rank", "prior_anchor",
        "archive_anchor", "npy_file", "archive_without_arrays"])
def test_every_setting_out_of_range_is_a_config_error(tmp_path, make):
    # one class for every setting, whichever type holds it; it is still a
    # ValueError, and an SFGPError like every error the engine raises
    with pytest.raises(ConfigError) as exc:
        make(tmp_path)
    assert isinstance(exc.value, SFGPError) and isinstance(exc.value, ValueError)


def test_pointset_requires_valid_dim_and_finite():
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        PointSet(points=np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((0, 2)))


def test_correspondence_state_partition_comes_from_its_mask():
    # inliers and missing are the True and False indices of the one mask:
    # sorted, disjoint, and together every reference index
    rng = np.random.default_rng(5)
    n = 40
    labelled = rng.random(n) < 0.6
    state = CorrespondenceState(
        P=np.zeros((n, 2)), nu=np.zeros(n), ps=np.zeros((n, 2)), pss=np.zeros(n),
        labelled=labelled,
    )
    inliers, missing = state.inliers, state.missing
    assert 0 < inliers.size < n
    assert np.all(np.diff(inliers) > 0) and np.all(np.diff(missing) > 0)
    assert not np.intersect1d(inliers, missing).size
    assert np.array_equal(np.sort(np.concatenate([inliers, missing])), np.arange(n))
    assert np.all(labelled[inliers]) and not np.any(labelled[missing])


def test_default_sigma2_init_is_squared_nn_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    # nearest-neighbor distances: 1, 1, 2 -> mean 4/3
    assert default_sigma2_init(PointSet(points=pts)) == pytest.approx((4.0 / 3.0) ** 2)


def _random_set(n, d, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))


def _with_duplicates(d=3):
    pts = _random_set(40, d, seed=1)
    return np.vstack([pts, pts[:7]])


NN_SETS = {
    "random_2d": lambda: _random_set(150, 2),
    "random_3d": lambda: _random_set(150, 3),
    "n2_2d": lambda: _random_set(2, 2),
    "n2_3d": lambda: _random_set(2, 3),
    "duplicates": _with_duplicates,
    "duplicates_2d": lambda: _with_duplicates(2),
    "fish98": lambda: fish_reference().points,
    "sphere2000": lambda: fibonacci_sphere(2000),
}


@pytest.mark.parametrize("name", sorted(NN_SETS))
def test_default_sigma2_init_matches_kdtree_bit_for_bit(name):
    pts = NN_SETS[name]()
    assert default_sigma2_init(PointSet(points=pts)) == kdtree_sigma2_init(pts)


@pytest.mark.parametrize("n", [7, 8, 9, 20])
def test_default_sigma2_init_matches_kdtree_at_block_edges(monkeypatch, n):
    monkeypatch.setattr(core, "ROW_BLOCK", 8)
    pts = _random_set(n, 3, seed=n)
    assert default_sigma2_init(PointSet(points=pts)) == kdtree_sigma2_init(pts)


@pytest.mark.parametrize("d", [2, 3])
def test_nearest_skipping_the_diagonal_finds_a_duplicate_twin(d):
    pts = _with_duplicates(d)
    idx = nearest(pts, pts, skip_diagonal=True)
    twins = np.arange(7)
    assert np.array_equal(idx[twins], twins + 40)
    assert np.array_equal(idx[twins + 40], twins)
    assert np.all(np.sum((pts[idx] - pts) ** 2, axis=1)[np.r_[twins, twins + 40]] == 0.0)


def direct_sq_dists(a, b):
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)


@pytest.mark.parametrize("n, m, d", [(57, 31, 2), (40, 90, 3), (1, 25, 2), (25, 1, 3), (1, 1, 3)])
def test_sq_dists_matches_coordinate_differences(n, m, d):
    rng = np.random.default_rng(n * m + d)
    a = rng.normal(size=(n, d)) + 2.0
    b = rng.normal(size=(m, d))
    d2 = sq_dists(a, b)
    assert d2.shape == (n, m) and np.all(d2 >= 0.0)
    # the norm form cancels up to a few ulps of |a|^2 + |b|^2
    scale = np.max(np.sum(a**2, axis=1)) + np.max(np.sum(b**2, axis=1))
    atol = 8 * np.finfo(float).eps * scale
    np.testing.assert_allclose(d2, direct_sq_dists(a, b), rtol=0.0, atol=atol)
    out = np.full((n, m), np.nan)
    assert sq_dists(a, b, out=out) is out
    assert out.tobytes() == d2.tobytes()


def test_sq_dists_of_a_set_with_itself_is_zero_on_the_diagonal_and_never_negative():
    # unclamped, 35 of these entries would be negative
    pts = _random_set(300, 3, seed=5) * 1e3
    d2 = sq_dists(pts, pts)
    assert np.all(d2 >= 0.0)
    assert np.all(np.diag(d2) <= 8 * np.finfo(float).eps * 2 * np.sum(pts**2, axis=1))


def test_pointset_csv_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(17, 3)) * np.array([1e-7, 1.0, 1e9])
    ps = PointSet(points=pts)
    path = tmp_path / "points.csv"
    sio.write_pointset_csv(path, ps)
    back = sio.read_pointset_csv(path)
    assert np.array_equal(back.points, ps.points)


def test_points_csv_skips_a_header_and_blank_lines(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x,y\n\n0.5,1\n   \n-2,3.25\n\n")
    assert sio.read_points_csv(path).tolist() == [[0.5, 1.0], [-2.0, 3.25]]


@pytest.mark.parametrize("text, error", [
    ("1,2\n3,4\nx,y\n", "could not convert"),
    ("", "no points"),
    ("x,y\n\n", "no points"),
    ("1,2,\n3,4\n", "line 1: could not convert"),
    ("x,1\n3,4\n", "line 1: could not convert"),
    ("x,y\n1,2\n\n3,4,5\n", "line 4: 3 values"),
], ids=["text_after_data", "empty", "header_only", "trailing_comma", "header_with_a_number",
        "ragged"])
def test_points_csv_rejects_text_after_data_and_a_file_with_no_points(tmp_path, text, error):
    # only lines before the first point, none of whose fields is a number,
    # may be a header; a trailing comma would otherwise drop a point unseen
    path = tmp_path / "points.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        sio.read_points_csv(path)


def test_points_csv_rejects_digit_group_underscores(tmp_path):
    # Python's float reads "1_0" as 10.0; a point CSV field with one is no number
    path = tmp_path / "points.csv"
    path.write_text("1_0,2\n3,4\n")
    with pytest.raises(ValueError, match="line 1: could not convert"):
        sio.read_points_csv(path)


def test_csv_rows_reject_a_row_whose_width_differs_from_the_header(tmp_path):
    # zipped with the header, a short row would lack its last keys unseen
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\n1,2,3\n\n1,2\n")
    with pytest.raises(ValueError, match=r"rows\.csv, line 4: 2 cells, but the header has 3"):
        sio.read_csv_rows(path)


def test_csv_rows_read_a_cell_with_digit_group_underscores_as_text(tmp_path):
    # int() and float() read "1_0" as 10 and "2_5.0" as 25.0; by the point
    # CSVs' rule such a cell is no number, as a level tag's underscores are
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c,level\n1_0,2_5.0,x,mw0.1_or0\n10,2.5,,1e3\n")
    assert sio.read_csv_rows(path) == [
        {"a": "1_0", "b": "2_5.0", "c": "x", "level": "mw0.1_or0"},
        {"a": 10, "b": 2.5, "c": None, "level": 1000.0},
    ]
