import dataclasses

import numpy as np
import pytest

from splinefusion.camera import CameraModel, in_image, project_many
from splinefusion.dataset import build_section
from splinefusion.errors import InvalidArgumentError

CAM = CameraModel(fx=400.0, fy=420.0, cx=320.0, cy=240.0, width=640, height=480)


def test_principal_ray():
    px, valid = project_many(CAM, np.array([0.0, 0.0, 2.0]))
    assert valid and np.allclose(px, [320.0, 240.0])


def test_known_projection():
    # x/z = 0.5, y/z = -0.25: u = 400*0.5 + 320, v = 420*(-0.25) + 240
    px, valid = project_many(CAM, np.array([1.0, -0.5, 2.0]))
    assert valid and np.allclose(px, [520.0, 135.0])


def test_one_point_equals_its_batch_row(rng):
    pts = rng.normal(size=(50, 3))
    pts[:, 2] = rng.uniform(0.5, 10.0, size=50)
    px, valid = project_many(CAM, pts)
    assert np.all(valid)
    for p, z in zip(pts, px):
        one, ok = project_many(CAM, p)
        assert one.shape == (2,) and ok.shape == () and ok
        assert np.array_equal(one, z)


def test_project_many_soft_invalid():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
    px, valid = project_many(CAM, pts)
    assert list(valid) == [True, False, False]
    assert np.allclose(px[1:], 0.0)


def test_projection_jacobian_matches_central_differences(rng):
    """d pixel / d p_cam agrees with central differences, for a batch and
    for one point, and is zero for a point behind the camera; the pixels
    and mask are those of the call without Jacobians."""
    pts = rng.normal(size=(20, 3))
    pts[:, 2] = rng.uniform(0.5, 10.0, size=20)
    pts[3] = [0.3, -0.2, -1.5]
    px, valid, J = project_many(CAM, pts, jacobians=True)
    assert J.shape == (20, 2, 3)
    px0, valid0 = project_many(CAM, pts)
    assert np.array_equal(px, px0) and np.array_equal(valid, valid0)
    assert not valid[3] and not J[3].any()
    h = 1e-6
    fd = np.stack([(project_many(CAM, pts + h * e)[0]
                    - project_many(CAM, pts - h * e)[0]) / (2 * h)
                   for e in np.eye(3)], axis=-1)
    scale = np.abs(fd).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(J - fd) <= 1e-7 * scale)
    for p, Jp in zip(pts, J):
        assert np.array_equal(project_many(CAM, p, jacobians=True)[2], Jp)


def test_in_image():
    px = np.array([[0.0, 0.0], [639.0, 479.0], [640.0, 240.0], [-1.0, 10.0]])
    assert list(in_image(CAM, px)) == [True, True, False, False]
    assert list(in_image(CAM, px, margin=1.0)) == [False, False, False, False]


def test_camera_validation():
    with pytest.raises(InvalidArgumentError):
        CameraModel(fx=-1.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError, match="fx must be finite"):
            CameraModel(fx=bad, fy=400.0, cx=320.0, cy=240.0, width=640,
                        height=480)
        with pytest.raises(InvalidArgumentError, match="fy must be finite"):
            CameraModel(fx=400.0, fy=bad, cx=320.0, cy=240.0, width=640,
                        height=480)
    with pytest.raises(InvalidArgumentError):
        CameraModel(fx=400.0, fy=400.0, cx=700.0, cy=240.0, width=640, height=480)


def test_dict_roundtrip():
    assert build_section(CameraModel, dataclasses.asdict(CAM), "scene.json",
                         "rig.camera") == CAM
