import numpy as np
import pytest

from splinefusion import simulate as sim
from splinefusion.dataset import NoiseSpec
from splinefusion.errors import InvalidArgumentError
from splinefusion.residuals import GRAVITY

from conftest import noiseless_spec, wobbly_ground_truth


def test_profile_validation():
    with pytest.raises(InvalidArgumentError):
        sim.ProfileParams(kind="spiral")
    with pytest.raises(InvalidArgumentError):
        sim.ProfileParams(kind="circle", radius=-1.0)
    with pytest.raises(InvalidArgumentError):
        sim.make_ground_truth("circle", duration=2.0)


def test_determinism():
    gt = sim.make_ground_truth("circle", duration=5.0)
    rig = sim.default_rig()
    noise = NoiseSpec(cam_hz=10, imu_hz=100, gps_hz=5, seed=11)
    a = sim.synthesize(gt, rig, noise, num_landmarks=100)
    b = sim.synthesize(gt, rig, noise, num_landmarks=100)
    assert np.array_equal(a.measurements.gyro, b.measurements.gyro)
    assert np.array_equal(a.measurements.gps, b.measurements.gps)
    assert len(a.measurements.frames) == len(b.measurements.frames)
    for fa, fb in zip(a.measurements.frames, b.measurements.frames):
        assert fa.t_ns == fb.t_ns
        assert np.array_equal(fa.pixels, fb.pixels)
    c = sim.synthesize(
        gt, rig, NoiseSpec(cam_hz=10, imu_hz=100, gps_hz=5, seed=12),
        num_landmarks=100,
    )
    assert not np.array_equal(a.measurements.gyro, c.measurements.gyro)


def test_imu_accelerometer_convention(tiny_noiseless):
    """Noiseless accelerometer reads R^T (pddot + g); gyro reads body rates."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    t = meas.imu_t_ns * 1e-9
    R = gt.rotation.sample_many(t)
    acc_w = gt.position.sample_many(t, derivative=2)
    expect = np.einsum("nji,nj->ni", R, acc_w + GRAVITY)
    assert np.max(np.abs(meas.accel - expect)) < 1e-9
    expect_w = gt.rotation.angular_velocity_many(t)
    assert np.max(np.abs(meas.gyro - expect_w)) < 1e-9


def test_static_reading():
    """A static rig with a level attitude reads (0, 0, -9.81)."""
    params = sim.ProfileParams(kind="circle", radius=2.0, rate=0.5,
                               static_prefix=2.0)
    gt = sim.make_ground_truth(params, duration=8.0)
    rig = sim.default_rig()
    result = sim.synthesize(gt, rig, noiseless_spec(), num_landmarks=150)
    meas = result.measurements
    t = meas.imu_t_ns * 1e-9
    static = t < 1.5
    assert np.max(np.abs(meas.gyro[static])) < 1e-6
    mean_a = meas.accel[static].mean(axis=0)
    assert np.allclose(mean_a, [0.0, 0.0, -9.81], atol=1e-6)


def test_gps_stamps_and_antenna(tiny_noiseless):
    """GPS fixes are the antenna position at capture time tau, stamped
    tau - t_gps_imu."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    tau = meas.gps_t_ns * 1e-9 + rig.t_gps_imu
    R = gt.rotation.sample_many(tau)
    expect = gt.position.sample_many(tau) + np.einsum(
        "nij,j->ni", R, rig.p_antenna_body
    )
    assert np.max(np.abs(meas.gps - expect)) < 1e-9


def test_camera_stamps_shifted(tiny_noiseless):
    """Frames captured at tau are stamped tau - t_cam_imu: reprojecting the
    true landmarks at tau = stamp + t_cam_imu reproduces the noiseless
    pixels exactly."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    T_ci = rig.T_cam_imu.inverse()
    for fr in meas.frames[::7]:
        tau = fr.t_ns * 1e-9 + rig.t_cam_imu
        R = gt.rotation.sample_many(tau)
        p = gt.position.sample_many(tau)
        pts = np.stack([meas.landmarks_true[int(l)] for l in fr.landmark_ids])
        p_cam = (T_ci.R @ (R.T @ (pts - p).T)).T + T_ci.p
        px = np.stack([
            rig.camera.fx * p_cam[:, 0] / p_cam[:, 2] + rig.camera.cx,
            rig.camera.fy * p_cam[:, 1] / p_cam[:, 2] + rig.camera.cy,
        ], axis=1)
        assert np.max(np.abs(px - fr.pixels)) < 1e-9


def test_wobbly_profile_is_aggressive():
    gt = wobbly_ground_truth(duration=6.0)
    assert sim.peak_angular_rate(gt) >= 1.5


def test_landmarks_off_trajectory(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    ts = np.linspace(gt.t_start, gt.t_end, 300)
    traj = gt.position.sample_many(ts)
    for p in result.measurements.landmarks_true.values():
        assert np.min(np.linalg.norm(traj - p, axis=1)) > 0.2


def test_every_track_observed_twice(tiny_noiseless):
    _, _, _, result = tiny_noiseless
    counts = {}
    for fr in result.measurements.frames:
        for lid in fr.landmark_ids:
            counts[int(lid)] = counts.get(int(lid), 0) + 1
    assert counts and min(counts.values()) >= 2


def test_ground_truth_fit_quality(tiny_noiseless):
    gt, _, _, _ = tiny_noiseless
    assert gt.fit_rms < 1e-4
