"""Workloads of the time-to-estimate benchmark, their inputs and checks.

Every workload is one batch estimation through ``estimators.run`` on inputs
that ``simulate`` generates here.  The motion, rig and rates are those of
the acceptance "aggressive, 10 ms" dataset: a wobbling lemniscate, a
10 Hz camera stamped 10 ms late, a 200 Hz IMU and 7 Hz GPS with 1 px and
0.1 m noise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from splinefusion import estimators as est
from splinefusion import simulate as sim
from splinefusion.dataset import NoiseSpec

PROFILE = dict(profile="lemniscate", margin=0.6, radius=2.5, rate=0.7,
               wobble_roll=0.25, wobble_pitch=0.2, wobble_rate=1.3)
T_CAM = 0.010  # injected camera clock offset, s
NUM_LANDMARKS = 500
GPS_SIGMA = 0.1  # m
# Streams a seed can draw.  Every other stream is the acceptance dataset's
# (noise seed 3) on every seed.
SEEDED_FIELDS = {
    "imu": ("gyro", "accel"),  # noise and bias walks
    "camera": ("frames", "landmarks_true"),  # landmark map and pixel noise
}
SCENE_SEED = 3
# The estimator's own seed perturbs the landmark prior.  It is 0, as in the
# acceptance tests; drawn per seed it moved the CT final iteration count
# from 9 to between 11 and 15.
ESTIMATOR_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "ct" or "dt"
    duration: float  # s of motion
    config: object  # CtConfig or DtConfig
    seeded: str  # the stream the seed draws, a key of SEEDED_FIELDS
    landmarks: int = NUM_LANDMARKS


# Why each workload was chosen, and why its seed draws the stream it does,
# is stated in README.md.  In short: the GPS noise sets the absolute error,
# so it is never drawn per seed; the landmark map changed the CT iteration
# count (run time 35-60 s over five seeds); an IMU+GPS estimate follows the
# IMU noise (rotation error spread half its median over five seeds).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ct_aggressive_10ms", "ct", 7.5, est.CtConfig(), "imu"),
        Workload("dt_aggressive_10ms", "dt", 7.5, est.DtConfig(), "imu"),
        # camera frames feed only the PnP initialization, which DT needs
        Workload("dt_imu_gps_30s", "dt", 30.0, est.DtConfig(use_cam=False),
                 "camera"),
    )
}


@dataclass
class Inputs:
    ground_truth: object  # simulate.GroundTruth
    rig: object
    noise: NoiseSpec
    meas: object  # MeasurementSet
    stats: dict


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Ground truth and measurements of a workload for one seed: the
    workload's seeded stream drawn from ``seed``, every other stream from
    ``SCENE_SEED``."""
    gt = sim.make_ground_truth(duration=w.duration, **PROFILE)
    rig = sim.default_rig(t_cam_imu=T_CAM)
    noise = NoiseSpec(cam_hz=10, imu_hz=200, gps_hz=7, seed=SCENE_SEED,
                      pixel_sigma=1.0, gps_sigma=GPS_SIGMA)
    base = sim.synthesize(gt, rig, noise, num_landmarks=w.landmarks)
    drawn = sim.synthesize(gt, rig, dataclasses.replace(noise, seed=seed),
                           num_landmarks=w.landmarks)
    fields = SEEDED_FIELDS[w.seeded]
    meas = dataclasses.replace(
        base.measurements,
        **{f: getattr(drawn.measurements, f) for f in fields})
    frames_from = drawn if w.seeded == "camera" else base
    return Inputs(gt, rig, noise, meas, frames_from.stats)


def same_inputs(a: Inputs, b: Inputs) -> bool:
    """True when two input sets hold identical measurements."""
    ma, mb = a.meas, b.meas
    if len(ma.frames) != len(mb.frames):
        return False
    arrays = [(ma.imu_t_ns, mb.imu_t_ns), (ma.gyro, mb.gyro),
              (ma.accel, mb.accel), (ma.gps_t_ns, mb.gps_t_ns),
              (ma.gps, mb.gps)]
    for fa, fb in zip(ma.frames, mb.frames):
        arrays += [(fa.landmark_ids, fb.landmark_ids), (fa.pixels, fb.pixels)]
    return (all(np.array_equal(x, y) for x, y in arrays)
            and all(f.t_ns == g.t_ns for f, g in zip(ma.frames, mb.frames)))


def estimate(w: Workload, inputs: Inputs):
    return est.run(inputs.meas, inputs.rig, inputs.noise, w.config,
                   mode=w.mode, seed=ESTIMATOR_SEED)


# ---------------------------------------------------------------------------
# checks


def ate(gt, out):
    """Position (mm) and rotation (deg) RMS error at the camera stamps,
    against the simulator's ground-truth splines, without alignment."""
    t = out.t_ns * 1e-9
    dp = out.positions - gt.position.sample_many(t)
    ate_p = 1e3 * float(np.sqrt(np.mean(np.sum(dp * dp, axis=1))))
    R_gt = gt.rotation.sample_many(t)
    rel = np.swapaxes(R_gt, -1, -2) @ out.rotations
    cos = np.clip((np.trace(rel, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    ate_r = float(np.degrees(np.sqrt(np.mean(np.arccos(cos) ** 2))))
    return ate_p, ate_r


def check(w: Workload, inputs: Inputs, out):
    """Quality values of one estimate and the list of checks it fails."""
    meas = inputs.meas
    rep = out.report
    failures = []
    if rep.termination != "converged":
        failures.append(f"termination is {rep.termination!r}")
    if np.any(np.diff(rep.cost_history) > 0):
        failures.append("an accepted step raised the cost")
    if not rep.final_cost < rep.initial_cost:
        failures.append("final cost not below initial cost")
    K = len(meas.frames)
    if (out.positions.shape != (K, 3) or out.rotations.shape != (K, 3, 3)
            or not np.array_equal(out.t_ns, meas.frame_t_ns)):
        failures.append("not one pose per camera frame")
        return {}, failures
    if not (np.all(np.isfinite(out.positions))
            and np.all(np.isfinite(out.rotations))):
        failures.append("non-finite pose")
        return {}, failures
    R = out.rotations
    ortho = float(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max())
    if ortho > 1e-9 or np.any(np.linalg.det(R) <= 0):
        failures.append(f"rotation not orthonormal ({ortho:.1e})")
    bound = w.config.offset_bound
    for name, value in (("t_cam", out.t_cam_imu), ("t_gps", out.t_gps_imu)):
        if not abs(value) < bound:
            failures.append(f"{name} {value:+.4f} s not inside +-{bound} s")
    ate_p, ate_r = ate(inputs.ground_truth, out)
    if not ate_p < 1e3 * GPS_SIGMA:
        failures.append(f"ATE-P {ate_p:.1f} mm not below the GPS sigma")
    t_cam_err_ms = 1e3 * abs(out.t_cam_imu - T_CAM)
    if w.mode == "ct" and not t_cam_err_ms <= 2.0:
        failures.append(f"t_cam off by {t_cam_err_ms:.3f} ms (> 2 ms)")
    values = {
        "ate_p_mm": ate_p,
        "ate_r_deg": ate_r,
        "t_cam_ms": 1e3 * out.t_cam_imu,
        "t_cam_error_ms": t_cam_err_ms,
        "t_gps_ms": 1e3 * out.t_gps_imu,
        "iterations_final": rep.iterations,
        "termination": rep.termination,
        "initial_cost": rep.initial_cost,
        "final_cost": rep.final_cost,
        "stage_seconds": dict(out.stage_seconds),
    }
    return values, failures
