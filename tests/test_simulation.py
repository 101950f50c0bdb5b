import numpy as np
import pytest

from splinefusion import simulate as sim
from splinefusion.camera import in_image, project_many
from splinefusion.dataset import NoiseSpec
from splinefusion.errors import InvalidArgumentError
from splinefusion.preintegration import GRAVITY

from conftest import noiseless_spec, wobbly_ground_truth


def per_frame_camera(gt, rig, noise, num_landmarks, landmark_spread=3.0):
    """The camera stream of ``synthesize`` made frame by frame, as the
    simulator once made it: (frames as (t_ns, ids, pixels), landmarks,
    observation count)."""
    rng = np.random.default_rng(noise.seed)
    n_imu = np.arange(gt.t_start, gt.t_end + 0.5 / noise.imu_hz,
                      1.0 / noise.imu_hz).size
    n_gps = np.arange(gt.t_start + 0.5 / noise.gps_hz, gt.t_end,
                      1.0 / noise.gps_hz).size
    # the two bias walks, gyro and accel noise, then GPS noise come first
    rng.normal(size=(4 * n_imu + n_gps, 3))
    lm_pts = sim.make_landmarks(gt, num_landmarks, rng, spread=landmark_spread)
    lm_ids = np.arange(num_landmarks)
    cam_tau = np.arange(gt.t_start, gt.t_end, 1.0 / noise.cam_hz)
    cam_R = gt.rotation.sample_many(cam_tau)
    cam_p = gt.position.sample_many(cam_tau)
    T_ci = rig.T_cam_imu.inverse()
    obs_count = np.zeros(num_landmarks, dtype=int)
    kept = []
    for R, p in zip(cam_R, cam_p):
        p_body = (R.T @ (lm_pts - p).T).T
        p_cam = (T_ci.R @ p_body.T).T + T_ci.p
        px, valid = project_many(rig.camera, p_cam)
        valid &= in_image(rig.camera, px, margin=1.0)
        valid &= p_cam[:, 2] < 40.0
        idx = np.nonzero(valid)[0]
        if idx.size == 0:
            kept.append(None)
            continue
        pix = px[idx] + rng.normal(scale=noise.pixel_sigma, size=(idx.size, 2))
        inside = in_image(rig.camera, pix)
        obs_count[idx[inside]] += 1
        kept.append((idx[inside], pix[inside]))
    frames = []
    for tau, item in zip(cam_tau, kept):
        if item is None:
            continue
        idx, pix = item
        enough = obs_count[idx] >= 2
        if np.any(enough):
            frames.append((int(round((tau - rig.t_cam_imu) * 1e9)),
                           lm_ids[idx[enough]], pix[enough]))
    seen = obs_count >= 2
    landmarks = {int(i): lm_pts[i] for i in lm_ids[seen]}
    return frames, landmarks, sum(f[1].size for f in frames)


@pytest.mark.parametrize("params", [
    sim.ProfileParams(kind="circle", radius=2.0, rate=0.5, static_prefix=1.5),
    sim.ProfileParams(kind="lemniscate", radius=2.5, rate=0.7,
                      wobble_roll=0.25, wobble_pitch=0.2, wobble_rate=1.3),
], ids=["circle_static_prefix", "wobbly_lemniscate"])
def test_camera_table_matches_per_frame_loop(params):
    """``synthesize`` projects every (frame, landmark) pair at once and draws
    the pixel noise in one call, and gives the frames, landmarks and counts
    of a frame-by-frame loop bit for bit."""
    gt = sim.make_ground_truth(params, duration=5.0)
    rig = sim.default_rig(t_cam_imu=0.010)
    for seed in (4, 5):
        noise = NoiseSpec(cam_hz=10, imu_hz=100, gps_hz=5, seed=seed)
        result = sim.synthesize(gt, rig, noise, num_landmarks=120)
        meas = result.measurements
        frames, landmarks, n_obs = per_frame_camera(gt, rig, noise, 120)
        assert len(meas.frames) == len(frames)
        for fr, (t_ns, ids, pix) in zip(meas.frames, frames):
            assert fr.t_ns == t_ns
            assert np.array_equal(fr.landmark_ids, ids)
            assert np.array_equal(fr.pixels, pix)
        assert list(meas.landmarks_true) == list(landmarks)
        assert all(np.array_equal(meas.landmarks_true[i], landmarks[i])
                   for i in landmarks)
        assert result.stats == {
            "num_frames": len(frames), "num_landmarks": len(landmarks),
            "num_observations": n_obs, "num_imu": meas.imu_t_ns.size,
            "num_gps": meas.gps_t_ns.size,
            "peak_angular_rate": sim.peak_angular_rate(gt),
        }


def test_profile_validation():
    with pytest.raises(InvalidArgumentError):
        sim.ProfileParams(kind="spiral")
    with pytest.raises(InvalidArgumentError):
        sim.ProfileParams(kind="circle", radius=-1.0)
    with pytest.raises(InvalidArgumentError):
        sim.make_ground_truth("circle", duration=2.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_shape_rejected(value):
    """Every shape value, the duration and the margin must be finite; the
    error names the field."""
    for key in ("radius", "rate", "height", "height_rate", "wobble_roll",
                "wobble_pitch", "wobble_rate", "static_prefix"):
        with pytest.raises(InvalidArgumentError, match=key):
            sim.ProfileParams(**{key: value})
        with pytest.raises(InvalidArgumentError, match=key):
            sim.make_ground_truth("circle", duration=5.0, **{key: value})
    for key in ("duration", "margin"):
        with pytest.raises(InvalidArgumentError, match=key):
            sim.make_ground_truth("circle", **{"duration": 5.0, key: value})


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


def test_ground_truth_fit_quality():
    """The ground truth reproduces its profile to 1e-4 m or is refused: a
    lemniscate of phase rate 15 rad/s fits to about 7e-4 m and raises, one
    of 10 rad/s fits to about 3e-5 m."""
    with pytest.raises(InvalidArgumentError, match="ground-truth fit too loose"):
        sim.make_ground_truth("lemniscate", duration=5.0, rate=15.0)
    sim.make_ground_truth("lemniscate", duration=5.0, rate=10.0)
