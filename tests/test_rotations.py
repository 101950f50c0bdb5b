import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from splinefusion.errors import InvalidArgumentError
from splinefusion.rotations import (
    Pose,
    hat,
    is_rotation,
    quat_to_rotation,
    rotation_to_quat,
    slerp,
    slerp_many,
    so3_exp,
    so3_log,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

from conftest import random_rotation


def test_hat_cross_product(rng):
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-15)
    assert np.allclose(hat(v), -hat(v).T, atol=1e-15)


def test_exp_identity():
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3), atol=1e-15)


def test_exp_against_scipy(rng):
    v = rng.normal(size=(200, 3)) * rng.uniform(0.0, 3.0, size=(200, 1))
    ours = so3_exp(v)
    ref = ScipyRotation.from_rotvec(v).as_matrix()
    assert np.max(np.abs(ours - ref)) < 1e-12


def test_log_against_scipy(rng):
    R = ScipyRotation.random(200, rng=rng).as_matrix()
    ours = so3_log(R)
    ref = ScipyRotation.from_matrix(R).as_rotvec()
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_exp_log_roundtrip(rng):
    for scale in (1e-10, 1e-6, 0.5, 3.0):
        v = rng.normal(size=(50, 3))
        v = v / np.linalg.norm(v, axis=1, keepdims=True) * scale
        assert np.max(np.abs(so3_log(so3_exp(v)) - v)) < 1e-9


def test_log_principal_branch(rng):
    v = rng.normal(size=(50, 3))
    v = v / np.linalg.norm(v, axis=1, keepdims=True) * 5.0  # beyond pi
    back = so3_log(so3_exp(v))
    assert np.all(np.linalg.norm(back, axis=1) <= np.pi + 1e-12)
    assert np.allclose(so3_exp(back), so3_exp(v), atol=1e-9)


def test_log_near_pi():
    for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                 np.array([0.3, -0.4, 0.86])):
        axis = axis / np.linalg.norm(axis)
        v = axis * (np.pi - 1e-9)
        assert np.allclose(so3_log(so3_exp(v)), v, atol=1e-6)


def _log_via_quaternion(R):
    """Log through the quaternion, the route ``so3_log`` keeps near pi."""
    q = rotation_to_quat(R)
    norm_v = np.linalg.norm(q[..., 1:], axis=-1)
    small = norm_v < 1e-8
    scale = np.where(small, 2.0 / q[..., 0], 2.0 * np.arctan2(norm_v, q[..., 0])
                     / np.where(small, 1.0, norm_v))
    return scale[..., None] * q[..., 1:]


def test_log_matches_quaternion_route(rng):
    """From 1e-12 rad to pi, and on both sides of the angle where ``so3_log``
    switches to the quaternion (cos theta = -0.995), the two routes agree to
    1e-12.  Conjugating by a random rotation gives the entries of R the
    rounding of a general product."""
    switch = np.arccos(-0.995)
    angles = np.concatenate([np.logspace(-12, 0, 25), np.linspace(1.0, np.pi, 40),
                             switch + np.array([-1e-3, -1e-9, 1e-9, 1e-3]),
                             np.pi - np.array([1e-3, 1e-4, 1e-6, 1e-9, 0.0])])
    axes = rng.normal(size=(angles.size, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    Q = np.stack([random_rotation(rng) for _ in angles])
    R = Q @ so3_exp(axes * angles[:, None]) @ np.swapaxes(Q, 1, 2)
    assert np.max(np.abs(so3_log(R) - _log_via_quaternion(R))) < 1e-12


@pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-4, 0.5, 2.0, 3.0])
def test_right_jacobians_match_central_differences(angle, rng):
    """Exp(phi + d) = Exp(phi) Exp(J_r d) and Log(Exp(phi) Exp(d)) = phi +
    J_r^-1 d to first order, and J_r J_r^-1 = I."""
    axis = rng.normal(size=3)
    phi = angle * axis / np.linalg.norm(axis)
    h = 1e-6
    Jr = np.empty((3, 3))
    Jr_inv = np.empty((3, 3))
    for k, d in enumerate(h * np.eye(3)):
        Jr[:, k] = (so3_log(so3_exp(phi).T @ so3_exp(phi + d))
                    - so3_log(so3_exp(phi).T @ so3_exp(phi - d))) / (2 * h)
        Jr_inv[:, k] = (so3_log(so3_exp(phi) @ so3_exp(d))
                        - so3_log(so3_exp(phi) @ so3_exp(-d))) / (2 * h)
    assert np.max(np.abs(so3_right_jacobian(phi) - Jr)) < 1e-8
    assert np.max(np.abs(so3_right_jacobian_inv(phi) - Jr_inv)) < 1e-8
    assert np.max(np.abs(so3_right_jacobian(phi) @ so3_right_jacobian_inv(phi)
                         - np.eye(3))) < 1e-12


def test_exp_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        so3_exp(np.zeros(4))
    with pytest.raises(InvalidArgumentError):
        so3_exp(np.array([np.nan, 0.0, 0.0]))


def test_quat_roundtrip(rng):
    R = ScipyRotation.random(300, rng=rng).as_matrix()
    q = rotation_to_quat(R)
    assert np.all(q[:, 0] >= 0.0)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(quat_to_rotation(q) - R)) < 1e-12


def test_quat_near_pi():
    # w near zero exercises the Shepperd diagonal branches
    R = so3_exp(np.array([0.0, np.pi - 1e-12, 0.0]))
    q = rotation_to_quat(R)
    assert np.allclose(quat_to_rotation(q), R, atol=1e-12)


def test_is_rotation():
    assert is_rotation(np.eye(3))
    assert not is_rotation(np.eye(3) * 1.1)
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    assert not is_rotation(np.full((3, 3), np.nan))


def test_log_validates():
    with pytest.raises(InvalidArgumentError):
        so3_log(np.eye(3) * 2.0)
    # validate=False skips the check
    so3_log(np.eye(3) * 2.0, validate=False)


def test_slerp_endpoints_and_midpoint(rng):
    Ra = random_rotation(rng)
    Rb = random_rotation(rng)
    assert np.allclose(slerp(Ra, Rb, 0.0), Ra, atol=1e-12)
    assert np.allclose(slerp(Ra, Rb, 1.0), Rb, atol=1e-12)
    mid = slerp(Ra, Rb, 0.5)
    assert np.isclose(np.linalg.norm(so3_log(Ra.T @ mid)),
                      np.linalg.norm(so3_log(mid.T @ Rb)), atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        slerp(Ra, Rb, 1.5)


def test_slerp_many_matches_scalar(rng):
    Ra = np.stack([random_rotation(rng) for _ in range(5)])
    Rb = np.stack([random_rotation(rng) for _ in range(5)])
    u = rng.uniform(0, 1, size=5)
    out = slerp_many(Ra, Rb, u)
    for i in range(5):
        assert np.allclose(out[i], slerp(Ra[i], Rb[i], float(u[i])), atol=1e-12)


def test_pose_algebra(rng):
    A = Pose(random_rotation(rng), rng.normal(size=3))
    B = Pose(random_rotation(rng), rng.normal(size=3))
    x = rng.normal(size=(4, 3))
    AB = A.compose(B)
    Bx = x @ B.R.T + B.p
    assert np.allclose(x @ AB.R.T + AB.p, Bx @ A.R.T + A.p, atol=1e-12)
    AI = A.compose(A.inverse())
    assert np.allclose(AI.R, np.eye(3), atol=1e-12)
    assert np.allclose(AI.p, 0.0, atol=1e-12)
