"""Synthetic dataset generation.

A ground-truth trajectory is an analytic profile (line, circle or
lemniscate, optionally with roll/pitch wobble and a static prefix) fitted
by a spline pair.  All derivatives needed for sensor synthesis then come
from the spline itself, so the generated IMU, GPS and camera streams are
exactly consistent with one continuous-time trajectory.

Clock convention: the spline lives on the IMU clock.  Camera frames are
captured at IMU times ``tau`` but stamped ``tau - t_cam_imu``; GPS fixes
captured at ``tau`` are stamped ``tau - t_gps_imu``.

The camera stream is one (frame, landmark) table: one projection, one
pixel-noise draw in frame-major order, and ``frames_from_observations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bsplines as bs
from .camera import CameraModel, in_image, project_many
from .dataset import (MeasurementSet, NoiseSpec, SensorRig,
                      frames_from_observations)
from .errors import InvalidArgumentError, require_finite
from .initialization import fit_spline_to_poses
from .preintegration import GRAVITY
from .rotations import Pose, so3_exp, so3_orthonormalize

PROFILES = ("line", "circle", "lemniscate")
# the ground truth: order 6, 20 Hz nodes, fitted to 100 Hz profile samples
GT_ORDER = 6
GT_NODE_HZ = 20.0
SAMPLE_HZ = 100.0  # also the scan rate of peak_angular_rate
RAMP = 1.0  # s, the smoothstep blend out of a static prefix
LANDMARK_CLEARANCE = 0.3  # m, the least distance of a landmark to the path
MIN_TRACK_LENGTH = 2  # observations a landmark needs to be kept


@dataclass(frozen=True)
class ProfileParams:
    """Analytic trajectory shape parameters.

    ``rate`` is the angular rate of the profile phase in rad/s; the wobble
    terms add sinusoidal roll and pitch on top of the velocity-following
    yaw.  ``static_prefix`` seconds at the start are exactly stationary,
    blended in over ``RAMP`` seconds with a smoothstep time warp.
    """

    kind: str = "circle"
    radius: float = 2.0
    rate: float = 0.5
    height: float = 0.0
    height_rate: float = 0.7
    wobble_roll: float = 0.0
    wobble_pitch: float = 0.0
    wobble_rate: float = 1.0
    static_prefix: float = 0.0

    def __post_init__(self):
        if self.kind not in PROFILES:
            raise InvalidArgumentError(
                f"unknown profile {self.kind!r}, expected one of {PROFILES}"
            )
        for name in ("radius", "rate"):
            require_finite(name, getattr(self, name), positive=True)
        for name in ("height", "height_rate", "wobble_roll", "wobble_pitch",
                     "wobble_rate"):
            require_finite(name, getattr(self, name))
        require_finite("static_prefix", self.static_prefix, positive=False)


def _warp(t, params):
    """Time warp: zero on the static prefix, then smoothly reaches unit slope."""
    if params.static_prefix <= 0:
        return np.asarray(t, dtype=float)
    x = np.clip((np.asarray(t, dtype=float) - params.static_prefix) / RAMP,
                0.0, None)
    xc = np.minimum(x, 1.0)
    # integral of smoothstep(x) = x^3 - x^4/2 on [0,1], then slope one
    core = xc**3 - 0.5 * xc**4
    return RAMP * (core + np.maximum(x - 1.0, 0.0))


def _positions(s, params):
    s = np.asarray(s, dtype=float)
    z = params.height * np.sin(params.height_rate * s)
    if params.kind == "line":
        # constant-velocity straight line with speed radius * rate
        x = params.radius * params.rate * s
        y = np.zeros_like(x)
        z = np.zeros_like(x)
    elif params.kind == "circle":
        x = params.radius * np.cos(params.rate * s)
        y = params.radius * np.sin(params.rate * s)
    else:  # lemniscate of Gerono
        x = params.radius * np.sin(params.rate * s)
        y = params.radius * np.sin(params.rate * s) * np.cos(params.rate * s)
    return np.stack([x, y, z], axis=-1)


def profile_poses(ts, params):
    """Analytic poses at the given times: positions plus an orientation that
    yaws along the horizontal velocity with optional roll/pitch wobble."""
    ts = np.asarray(ts, dtype=float)
    s = _warp(ts, params)
    p = _positions(s, params)
    h = 1e-5
    v = (_positions(s + h, params) - _positions(s - h, params)) / (2 * h)
    speed = np.linalg.norm(v[..., :2], axis=-1)
    yaw = np.arctan2(v[..., 1], v[..., 0])
    # during the static prefix the heading is undefined; hold the first
    # moving heading so the orientation stays continuous
    ok = speed > 1e-6
    if not np.all(ok):
        if not np.any(ok):
            yaw = np.zeros_like(yaw)
        else:
            first = yaw[np.argmax(ok)]
            yaw = np.where(ok, yaw, first)
    roll = params.wobble_roll * np.sin(params.wobble_rate * s)
    pitch = params.wobble_pitch * np.sin(params.wobble_rate * s * 0.8 + 0.4)
    ez = np.zeros_like(yaw)
    Rz = so3_exp(np.stack([ez, ez, yaw], axis=-1))
    Ry = so3_exp(np.stack([ez, pitch, ez], axis=-1))
    Rx = so3_exp(np.stack([roll, ez, ez], axis=-1))
    return p, Rz @ Ry @ Rx


@dataclass
class GroundTruth:
    """Continuous-time ground truth on the IMU clock over [t_start, t_end]."""

    position: bs.SplineR3
    rotation: bs.SplineSO3
    t_start: float
    t_end: float


def make_ground_truth(profile, duration, margin=0.5, **profile_kwargs):
    """Fit a spline pair to an analytic profile over ``[0, duration]``.

    ``profile`` is either a profile name ("line", "circle", "lemniscate",
    refined by keyword shape arguments) or a ready :class:`ProfileParams`.
    The grid extends ``margin`` (finite, >= 0) seconds past both ends so
    that time-offset perturbed sampling stays inside the domain.  The fitted rotation nodes,
    which the LM steps leave a few ulps off SO(3), are projected back onto
    it, so that the ground truth's own rotations are orthonormal to
    rounding.  Raises if the fit does not reproduce the profile to 1e-4 m
    RMS.
    """
    if isinstance(profile, ProfileParams):
        if profile_kwargs:
            raise InvalidArgumentError(
                "pass shape arguments either via ProfileParams or keywords"
            )
        params = profile
    else:
        params = ProfileParams(kind=profile, **profile_kwargs)
    require_finite("duration", duration)
    require_finite("margin", margin, positive=False)
    if duration < 5.0:
        raise InvalidArgumentError("duration must be at least 5 s")
    ts = np.arange(-margin, duration + margin + 1.0 / SAMPLE_HZ, 1.0 / SAMPLE_HZ)
    p, R = profile_poses(ts, params)
    fit = fit_spline_to_poses(ts, p, R, order=GT_ORDER, node_hz=GT_NODE_HZ)
    rms = float(np.sqrt(((fit.position.sample_many(ts) - p)**2).sum(axis=1).mean()))
    if rms > 1e-4:
        raise InvalidArgumentError(
            f"ground-truth fit too loose: rms {rms:.2e} m; "
            "lower the profile rate"
        )
    return GroundTruth(
        position=fit.position,
        rotation=bs.SplineSO3(fit.rotation.grid, so3_orthonormalize(fit.rotation.nodes)),
        t_start=0.0,
        t_end=float(duration),
    )


def peak_angular_rate(gt: GroundTruth):
    ts = np.arange(gt.t_start, gt.t_end, 1.0 / SAMPLE_HZ)
    w = gt.rotation.angular_velocity_many(ts)
    return float(np.linalg.norm(w, axis=1).max())


def make_landmarks(gt: GroundTruth, count, rng, spread=3.0):
    """Scatter ``count`` landmarks, (count, 3), in a box around the
    trajectory; landmark ``i`` has id ``i``."""
    ts = np.linspace(gt.t_start, gt.t_end, 200)
    p = gt.position.sample_many(ts)
    lo = p.min(axis=0) - spread
    hi = p.max(axis=0) + spread
    pts = rng.uniform(lo, hi, size=(count, 3))
    # keep landmarks off the trajectory itself
    d = np.linalg.norm(pts[:, None, :] - p[None, ::10, :], axis=2).min(axis=1)
    bad = d < LANDMARK_CLEARANCE
    while np.any(bad):
        pts[bad] = rng.uniform(lo, hi, size=(int(bad.sum()), 3))
        d = np.linalg.norm(pts[:, None, :] - p[None, ::10, :], axis=2).min(axis=1)
        bad = d < LANDMARK_CLEARANCE
    return pts


@dataclass
class SimulationResult:
    """What :func:`synthesize` makes: measurements, true poses and biases."""

    measurements: MeasurementSet
    gt_t_ns: np.ndarray
    gt_positions: np.ndarray
    gt_rotations: np.ndarray
    accel_bias: np.ndarray  # (n_imu, 3) true bias trajectory
    gyro_bias: np.ndarray
    stats: dict


def _bias_walk(rng, n, dt, sigma_rw):
    steps = rng.normal(scale=sigma_rw * np.sqrt(dt), size=(n, 3))
    steps[0] = 0.0
    return np.cumsum(steps, axis=0)


def default_rig(t_cam_imu=0.0, t_gps_imu=0.0):
    """A forward-tilted VGA camera, offset GPS antenna, desk-scale rig."""
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    # camera optical axis along body +x (z_cam = x_body, x_cam = -y_body)
    R_cb = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]).T
    return SensorRig(
        T_cam_imu=Pose(R_cb, np.array([0.05, 0.0, 0.02])),
        p_antenna_body=np.array([0.10, -0.05, 0.15]),
        t_cam_imu=t_cam_imu,
        t_gps_imu=t_gps_imu,
        camera=cam,
    )


def synthesize(gt: GroundTruth, rig: SensorRig, noise: NoiseSpec,
               num_landmarks=300, landmark_spread=3.0):
    """Generate IMU, GPS and camera measurements from a ground truth.

    All sensors are driven by one RNG seeded from ``noise.seed``, so a given
    (ground truth, rig, noise) triple is fully reproducible.
    """
    rng = np.random.default_rng(noise.seed)
    t0, t1 = gt.t_start, gt.t_end

    # IMU stream on its own clock
    imu_dt = 1.0 / noise.imu_hz
    imu_t = np.arange(t0, t1 + imu_dt * 0.5, imu_dt)
    R_wb = gt.rotation.sample_many(imu_t)
    acc_w = gt.position.sample_many(imu_t, derivative=2)
    omega = gt.rotation.angular_velocity_many(imu_t)
    gyro_bias = _bias_walk(rng, len(imu_t), imu_dt, noise.gyro_bias_rw)
    accel_bias = _bias_walk(rng, len(imu_t), imu_dt, noise.accel_bias_rw)
    gyro = (
        omega + gyro_bias
        + rng.normal(scale=noise.gyro_sigma, size=omega.shape)
    )
    accel = (
        np.einsum("nji,nj->ni", R_wb, acc_w + GRAVITY) + accel_bias
        + rng.normal(scale=noise.accel_sigma, size=acc_w.shape)
    )

    # GPS fixes: captured at tau on the IMU clock, stamped tau - t_gps_imu
    gps_dt = 1.0 / noise.gps_hz
    gps_tau = np.arange(t0 + 0.5 * gps_dt, t1, gps_dt)
    gps_R = gt.rotation.sample_many(gps_tau)
    gps_p = (
        gt.position.sample_many(gps_tau)
        + np.einsum("nij,j->ni", gps_R, rig.p_antenna_body)
        + rng.normal(scale=noise.gps_sigma, size=(len(gps_tau), 3))
    )
    gps_t = gps_tau - rig.t_gps_imu

    # camera frames: every (frame, landmark) pair at once, (K, L) tables
    lm_pts = make_landmarks(gt, num_landmarks, rng, spread=landmark_spread)
    cam_tau = np.arange(t0, t1, 1.0 / noise.cam_hz)
    cam_R = gt.rotation.sample_many(cam_tau)
    rel = lm_pts[None] - gt.position.sample_many(cam_tau)[:, None]
    T_ci = rig.T_cam_imu.inverse()  # imu-in-camera
    p_body_t = np.swapaxes(cam_R, 1, 2) @ np.swapaxes(rel, 1, 2)  # (K, 3, L)
    p_cam = np.swapaxes(T_ci.R @ p_body_t, 1, 2) + T_ci.p
    px, valid = project_many(rig.camera, p_cam)
    valid &= in_image(rig.camera, px, margin=1.0) & (p_cam[..., 2] < 40.0)
    # frame-major order: one draw gives the numbers of one draw per frame
    k, lm = np.nonzero(valid)
    pix = px[k, lm] + rng.normal(scale=noise.pixel_sigma, size=(k.size, 2))
    inside = in_image(rig.camera, pix)
    seen = np.bincount(lm[inside], minlength=len(lm_pts)) >= MIN_TRACK_LENGTH
    keep = inside & seen[lm]
    used, frame_index = np.unique(k[keep], return_inverse=True)
    stamps = np.round((cam_tau[used] - rig.t_cam_imu) * 1e9).astype(np.int64)
    frames = frames_from_observations(stamps, frame_index, lm[keep], pix[keep])

    meas = MeasurementSet(
        imu_t_ns=np.round(imu_t * 1e9).astype(np.int64),
        gyro=gyro,
        accel=accel,
        gps_t_ns=np.round(gps_t * 1e9).astype(np.int64),
        gps=gps_p,
        frames=frames,
        landmarks_true={int(i): lm_pts[i] for i in np.flatnonzero(seen)},
    )
    meas.validate()
    return SimulationResult(
        measurements=meas,
        gt_t_ns=meas.imu_t_ns,
        gt_positions=gt.position.sample_many(imu_t),
        gt_rotations=R_wb,
        accel_bias=accel_bias,
        gyro_bias=gyro_bias,
        stats={
            "num_frames": len(frames),
            "num_landmarks": len(meas.landmarks_true),
            "num_observations": frame_index.size,
            "num_imu": len(imu_t),
            "num_gps": len(gps_t),
            "peak_angular_rate": peak_angular_rate(gt),
        },
    )
