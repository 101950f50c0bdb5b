import numpy as np
import pytest

from splinefusion import bsplines as bs
from splinefusion import residuals as res
from splinefusion.errors import InvalidArgumentError
from splinefusion.rotations import Pose, random_rotation, so3_exp


def make_ct_state(gt, rig, landmarks):
    bias_grid = bs.grid_covering(gt.t_start - 0.5, gt.t_end + 0.5, 1.0, 4)
    zeros = np.zeros((bias_grid.count, 3))
    return res.CtState(
        position=gt.position, rotation=gt.rotation,
        landmarks={int(k): v for k, v in landmarks.items()},
        t_cam_imu=rig.t_cam_imu, T_cam_imu=rig.T_cam_imu,
        t_gps_imu=rig.t_gps_imu, p_antenna_body=rig.p_antenna_body,
        gravity=res.GRAVITY.copy(),
        bias_accel=bs.SplineR3(bias_grid, zeros),
        bias_gyro=bs.SplineR3(bias_grid, zeros.copy()),
        camera=rig.camera,
    )


def test_ct_residuals_zero_at_truth(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    state = make_ct_state(gt, rig, meas.landmarks_true)

    fr = meas.frames[len(meas.frames) // 2]
    t_k = fr.t_ns * 1e-9
    for lid, px in zip(fr.landmark_ids[:5], fr.pixels[:5]):
        e = res.reprojection_residual_ct(state, t_k, lid, px)
        assert np.max(np.abs(e)) < 1e-9

    for m in range(0, meas.imu_t_ns.size, 97):
        t_m = meas.imu_t_ns[m] * 1e-9
        assert np.max(np.abs(res.accel_residual(state, t_m, meas.accel[m]))) < 1e-9
        assert np.max(np.abs(res.gyro_residual(state, t_m, meas.gyro[m]))) < 1e-9

    for d in range(0, meas.gps_t_ns.size, 5):
        t_d = meas.gps_t_ns[d] * 1e-9
        e = res.gps_residual_ct(state, t_d, meas.gps[d])
        assert np.max(np.abs(e)) < 1e-9

    assert np.max(np.abs(res.bias_rw_residual(state.bias_accel, t_m))) < 1e-12


def test_reprojection_requires_camera(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    state = make_ct_state(gt, rig, result.measurements.landmarks_true)
    state.camera = None
    with pytest.raises(InvalidArgumentError):
        res.reprojection_residual_ct(state, 1.0, 0, np.zeros(2))


def make_dt_state(rng, K=5):
    t_ns = (np.arange(K) * 100_000_000).astype(np.int64)
    rotations = np.stack([random_rotation(rng) for _ in range(K)])
    return res.DtState(
        t_ns=t_ns,
        positions=rng.normal(size=(K, 3)),
        rotations=rotations,
        velocities=np.zeros((K, 3)),
        bias_accel=np.zeros((K, 3)),
        bias_gyro=np.zeros((K, 3)),
        landmarks={},
        t_cam_imu=0.0,
        T_cam_imu=Pose(np.eye(3), np.zeros(3)),
        t_gps_imu=0.0,
        p_antenna_body=np.array([0.1, -0.05, 0.15]),
    )


def test_interpolate_pose_dt(rng):
    state = make_dt_state(rng)
    T0 = res.interpolate_pose_dt(state, 0.0)
    assert np.allclose(T0.p, state.positions[0], atol=1e-12)
    assert np.allclose(T0.R, state.rotations[0], atol=1e-12)
    Tm = res.interpolate_pose_dt(state, 0.05)
    assert np.allclose(Tm.p, 0.5 * (state.positions[0] + state.positions[1]),
                       atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        res.interpolate_pose_dt(state, -0.1)


def test_gps_residual_dt_zero_at_node(rng):
    state = make_dt_state(rng)
    k = 2
    p_bar = state.positions[k] + state.rotations[k] @ state.p_antenna_body
    e = res.gps_residual_dt(state, float(state.times[k]), p_bar)
    assert np.max(np.abs(e)) < 1e-12


def test_dt_state_validation(rng):
    with pytest.raises(InvalidArgumentError):
        res.DtState(
            t_ns=np.array([0, 0]), positions=np.zeros((2, 3)),
            rotations=np.stack([np.eye(3)] * 2), velocities=np.zeros((2, 3)),
            bias_accel=np.zeros((2, 3)), bias_gyro=np.zeros((2, 3)),
            landmarks={}, t_cam_imu=0.0,
            T_cam_imu=Pose(np.eye(3), np.zeros(3)), t_gps_imu=0.0,
            p_antenna_body=np.zeros(3),
        )


def test_ct_state_requires_cubic_bias(tiny_noiseless):
    gt, rig, _, result = tiny_noiseless
    state = make_ct_state(gt, rig, result.measurements.landmarks_true)
    bad_grid = bs.grid_covering(gt.t_start, gt.t_end, 1.0, 5)
    with pytest.raises(InvalidArgumentError):
        res.CtState(
            position=state.position, rotation=state.rotation,
            landmarks=state.landmarks, t_cam_imu=0.0,
            T_cam_imu=state.T_cam_imu, t_gps_imu=0.0,
            p_antenna_body=np.zeros(3), gravity=res.GRAVITY,
            bias_accel=bs.SplineR3(bad_grid, np.zeros((bad_grid.count, 3))),
            bias_gyro=state.bias_gyro, camera=state.camera,
        )
