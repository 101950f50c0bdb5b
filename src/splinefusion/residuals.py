"""State containers of the CT and DT batch problems.

Each residual model has one implementation: the factor kernel in
:mod:`splinefusion.estimators` that the solver runs.

The states hold what is estimated, the same unknowns in CT and DT: the
trajectory, the IMU biases, the landmarks and the two clock offsets.  The
camera extrinsic and the GPS lever arm are not estimated: the factor groups
read them from the rig (``scene.json``).  Nor is gravity: both hold it at
``GRAVITY``, since with GPS the world frame is the GPS frame, in which
gravity is known.

Conventions: body spline poses map body to world, ``t_imu = t_cam +
t_cam_imu``, ``t_imu = t_gps + t_gps_imu``, and the accelerometer model is
``a_bar = R^T (pddot + g) + b_a`` with ``g = GRAVITY`` a world vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsplines import SplineR3, SplineSO3
from .errors import InvalidArgumentError

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class CtState:
    """Continuous-time state: the spline trajectory, cubic bias splines, the
    landmarks and the clock offsets.  Gravity is ``GRAVITY``, as in DT.  The
    splines run on seconds since the origin of the measurements ``meas``:
    sample them at stamps ``t_ns`` with ``sample_many(meas.seconds(t_ns))``."""

    position: SplineR3  # body position in world
    rotation: SplineSO3  # body orientation in world
    landmarks: dict  # id -> (3,) world
    t_cam_imu: float
    t_gps_imu: float
    bias_accel: SplineR3  # cubic (order 4)
    bias_gyro: SplineR3

    def __post_init__(self):
        for b in (self.bias_accel, self.bias_gyro):
            if b.grid.order != 4:
                raise InvalidArgumentError("bias splines must be cubic (order 4)")


@dataclass
class DtState:
    """Discrete-time state: one pose/velocity/bias per camera frame."""

    t_ns: np.ndarray  # (K,) pose stamps, IMU clock; seconds: meas.seconds(t_ns)
    positions: np.ndarray  # (K, 3)
    rotations: np.ndarray  # (K, 3, 3)
    velocities: np.ndarray  # (K, 3)
    bias_accel: np.ndarray  # (K, 3)
    bias_gyro: np.ndarray  # (K, 3)
    landmarks: dict
    t_cam_imu: float
    t_gps_imu: float

    def __post_init__(self):
        self.t_ns = np.asarray(self.t_ns, dtype=np.int64)
        k = self.t_ns.size
        for name in ("positions", "rotations", "velocities", "bias_accel",
                     "bias_gyro"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[0] != k:
                raise InvalidArgumentError(f"{name} length != number of poses")
        if k > 1 and np.any(np.diff(self.t_ns) <= 0):
            raise InvalidArgumentError("pose timestamps must strictly increase")
