import numpy as np
import pytest

from sfgp import core
from sfgp.core import (
    ConfigError,
    CorrespondenceState,
    PointSet,
    RegistrationConfig,
    default_sigma2_init,
    validate_config,
)
from sfgp import io as sio
from sfgp.synthdata import fish_reference

from helpers import fibonacci_sphere, kdtree_sigma2_init


def test_config_accepts_reference_settings():
    cfg = RegistrationConfig(omega=0.1, p_min=0.01, sigma2_init=1.0, max_iters=100)
    assert validate_config(cfg) is cfg


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(omega=1.0), "omega"),
        (dict(omega=-0.2), "omega"),
        (dict(p_min=-0.1), "p_min"),
        (dict(p_min=1.0), "p_min"),
        (dict(sigma2_init=0.0), "sigma2_init"),
        (dict(sigma2_init=-1.0), "sigma2_init"),
        (dict(max_iters=0), "max_iters"),
        (dict(jitter=-1e-9), "jitter"),
        (dict(variance_mode="bogus"), "variance_mode"),
        (dict(sigma2_init=float("nan")), "sigma2_init"),
        (dict(rel_tol=float("inf")), "rel_tol"),
        (dict(jitter=float("nan")), "jitter"),
    ],
)
def test_config_rejections_name_the_field(kwargs, needle):
    with pytest.raises(ConfigError, match=needle):
        validate_config(RegistrationConfig(**kwargs))


def test_omega_one_message():
    with pytest.raises(ConfigError, match="omega must be < 1"):
        validate_config(RegistrationConfig(omega=1.0))


def test_pointset_requires_valid_dim_and_finite():
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 4)))
    with pytest.raises(ValueError):
        PointSet(points=np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((0, 2)))


def test_correspondence_state_partition_enforced():
    p = np.zeros((3, 2))
    with pytest.raises(ValueError):
        CorrespondenceState(
            P=p,
            nu=np.zeros(3),
            ps=np.zeros((3, 2)),
            pss=np.zeros(3),
            inliers=np.array([0, 1]),
            missing=np.array([1, 2]),
        )


def test_default_sigma2_init_is_squared_nn_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    # nearest-neighbor distances: 1, 1, 2 -> mean 4/3
    assert default_sigma2_init(PointSet(points=pts)) == pytest.approx((4.0 / 3.0) ** 2)


def _random_set(n, d, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))


def _with_duplicates():
    pts = _random_set(40, 3, seed=1)
    return np.vstack([pts, pts[:7]])


NN_SETS = {
    "random_2d": lambda: _random_set(150, 2),
    "random_3d": lambda: _random_set(150, 3),
    "n2_2d": lambda: _random_set(2, 2),
    "n2_3d": lambda: _random_set(2, 3),
    "duplicates": _with_duplicates,
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


def test_pointset_csv_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(17, 3)) * np.array([1e-7, 1.0, 1e9])
    ps = PointSet(points=pts)
    path = tmp_path / "points.csv"
    sio.write_pointset_csv(path, ps)
    back = sio.read_pointset_csv(path)
    assert np.array_equal(back.points, ps.points)
