"""Pinhole camera model (no distortion)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, require_finite

MIN_DEPTH = 1e-6


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        require_finite("fx", self.fx, positive=True)
        require_finite("fy", self.fy, positive=True)
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise InvalidArgumentError("principal point must lie inside the image")


def project_many(cam: CameraModel, p_cam, jacobians=False):
    """Project camera-frame points to pixels: the one pinhole model of the
    simulator, the reprojection factors and the PnP refinement.

    ``p_cam`` of shape (..., 3) gives (pixels (..., 2), valid mask (...));
    one point of shape (3,) gives a (2,) pixel and a 0-d mask.  Points at
    or behind the minimum depth get a zero pixel and a False mask instead
    of an error, matching the soft-exclusion policy of the batch factors.
    With ``jacobians=True`` also returns d pixel / d p_cam (..., 2, 3),
    zero where a point is invalid.
    """
    p_cam = np.asarray(p_cam, dtype=float)
    z = p_cam[..., 2]
    valid = z > MIN_DEPTH
    zs = np.where(valid, z, 1.0)
    px = np.stack(
        [
            cam.fx * p_cam[..., 0] / zs + cam.cx,
            cam.fy * p_cam[..., 1] / zs + cam.cy,
        ],
        axis=-1,
    )
    px = np.where(valid[..., None], px, 0.0)
    if not jacobians:
        return px, valid
    J = np.zeros(p_cam.shape[:-1] + (2, 3))
    J[..., 0, 0] = cam.fx / zs
    J[..., 0, 2] = -cam.fx * p_cam[..., 0] / (zs * zs)
    J[..., 1, 1] = cam.fy / zs
    J[..., 1, 2] = -cam.fy * p_cam[..., 1] / (zs * zs)
    return px, valid, J * valid[..., None, None]


def in_image(cam: CameraModel, px, margin=0.0):
    px = np.asarray(px, dtype=float)
    return (
        (px[..., 0] >= margin)
        & (px[..., 0] <= cam.width - 1 - margin)
        & (px[..., 1] >= margin)
        & (px[..., 1] <= cam.height - 1 - margin)
    )
