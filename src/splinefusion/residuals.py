"""Error terms of the batch problems (reference scalar forms).

The batch estimators evaluate vectorized versions of these residuals; the
functions here define the measurement models one factor at a time and are
the ground truth the vectorized kernels are tested against.

Conventions: body spline poses map body to world, ``t_imu = t_cam +
t_cam_imu``, ``t_imu = t_gps + t_gps_imu``, and the accelerometer model is
``a_bar = R^T (pddot + g) + b_a`` with gravity ``g`` a world vector
(nominally (0, 0, -9.81)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsplines import SplineR3, SplineSO3
from .camera import project
from .errors import InvalidArgumentError
from .rotations import Pose, slerp

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class CtState:
    """Continuous-time state: spline trajectory plus calibration unknowns."""

    position: SplineR3  # body position in world
    rotation: SplineSO3  # body orientation in world
    landmarks: dict  # id -> (3,) world
    t_cam_imu: float
    T_cam_imu: Pose  # camera pose in the body frame
    t_gps_imu: float
    p_antenna_body: np.ndarray
    gravity: np.ndarray  # free in the CT problem
    bias_accel: SplineR3  # cubic (order 4)
    bias_gyro: SplineR3
    camera: object = None  # CameraModel, needed for reprojection terms

    def __post_init__(self):
        self.p_antenna_body = np.asarray(self.p_antenna_body, dtype=float)
        self.gravity = np.asarray(self.gravity, dtype=float)
        for b in (self.bias_accel, self.bias_gyro):
            if b.grid.order != 4:
                raise InvalidArgumentError("bias splines must be cubic (order 4)")


@dataclass
class DtState:
    """Discrete-time state: one pose/velocity/bias per camera frame."""

    t_ns: np.ndarray  # (K,) pose timestamps, IMU clock
    positions: np.ndarray  # (K, 3)
    rotations: np.ndarray  # (K, 3, 3)
    velocities: np.ndarray  # (K, 3)
    bias_accel: np.ndarray  # (K, 3)
    bias_gyro: np.ndarray  # (K, 3)
    landmarks: dict
    t_cam_imu: float
    T_cam_imu: Pose
    t_gps_imu: float
    p_antenna_body: np.ndarray

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
        self.p_antenna_body = np.asarray(self.p_antenna_body, dtype=float)

    @property
    def times(self):
        return self.t_ns * 1e-9


# ---------------------------------------------------------------------------
# continuous-time residuals


def camera_pose_ct(state: CtState, tau):
    """World pose of the camera at IMU time tau."""
    R_wb = state.rotation.sample(tau)
    p_wb = state.position.sample(tau)
    return Pose(R_wb, p_wb).compose(state.T_cam_imu)


def reprojection_residual_ct(state: CtState, t_k, landmark_id, z_bar):
    """e = z_bar - pi(camera-frame landmark) at IMU time t_k + t_cam_imu.

    Raises OutOfDomainError outside the spline domain and BehindCameraError
    for non-positive depth; exclusion policies live in the estimator.
    """
    if state.camera is None:
        raise InvalidArgumentError("state.camera must be set for reprojection")
    T_wc = camera_pose_ct(state, t_k + state.t_cam_imu)
    l_cam = T_wc.inverse().apply(state.landmarks[int(landmark_id)])
    return np.asarray(z_bar, dtype=float) - project(state.camera, l_cam)


def accel_residual(state: CtState, t_m, a_bar):
    """e = R(t)^T (pddot(t) + g) - a_bar + b_a(t)."""
    R = state.rotation.sample(t_m)
    acc = state.position.sample(t_m, derivative=2)
    return R.T @ (acc + state.gravity) - np.asarray(a_bar, dtype=float) + (
        state.bias_accel.sample(t_m)
    )


def gyro_residual(state: CtState, t_m, w_bar):
    """e = omega(t) - w_bar + b_w(t)."""
    return (
        state.rotation.angular_velocity(t_m)
        - np.asarray(w_bar, dtype=float)
        + state.bias_gyro.sample(t_m)
    )


def bias_rw_residual(bias_spline: SplineR3, t_f):
    """e = bdot(t_f): the bias-spline velocity penalized by the walk density."""
    return bias_spline.sample(t_f, derivative=1)


def gps_residual_ct(state: CtState, t_d, p_bar):
    """e = p_bar - (p(tau) + R(tau) p_antenna), tau = t_d + t_gps_imu."""
    tau = t_d + state.t_gps_imu
    pred = state.position.sample(tau) + state.rotation.sample(tau) @ (
        state.p_antenna_body
    )
    return np.asarray(p_bar, dtype=float) - pred


# ---------------------------------------------------------------------------
# discrete-time residuals


def interpolate_pose_dt(state: DtState, tau):
    """Linear position / SLERP rotation interpolation between pose states."""
    times = state.times
    if tau < times[0] or tau > times[-1]:
        raise InvalidArgumentError(
            f"time {tau} outside pose span [{times[0]}, {times[-1]}]"
        )
    k = int(np.clip(np.searchsorted(times, tau, side="right") - 1, 0,
                    len(times) - 2))
    alpha = (tau - times[k]) / (times[k + 1] - times[k])
    p = (1.0 - alpha) * state.positions[k] + alpha * state.positions[k + 1]
    R = slerp(state.rotations[k], state.rotations[k + 1], float(alpha))
    return Pose(R, p)


def gps_residual_dt(state: DtState, t_d, p_bar):
    """e = p_bar - (p_int + R_int p_antenna) at tau = t_d + t_gps_imu."""
    T = interpolate_pose_dt(state, t_d + state.t_gps_imu)
    return np.asarray(p_bar, dtype=float) - (T.p + T.R @ state.p_antenna_body)
