import numpy as np
import pytest

from splinefusion import bsplines as bs
from splinefusion import estimators as est
from splinefusion import residuals as res
from splinefusion.errors import InvalidArgumentError
from splinefusion.rotations import Pose, slerp
from splinefusion.solver import Problem

from conftest import random_rotation


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


def dt_gps_residuals(rng, stamps, antenna_at, K=5):
    """DT GPS residuals of a ``DtGpsGroup`` over K random pose states 0.1 s
    apart, for GPS fixes made by ``antenna_at(positions, rotations,
    p_antenna_body)`` at ``stamps``."""
    pose_times = 0.1 * np.arange(K)
    positions = rng.normal(size=(K, 3))
    rotations = np.stack([random_rotation(rng) for _ in range(K)])
    p_ant = np.array([0.1, -0.05, 0.15])
    problem = Problem()
    ids = {
        "p": np.array([problem.add_euclidean(f"p{k}", positions[k])
                       for k in range(K)]),
        "R": np.array([problem.add_rotation(f"R{k}", rotations[k])
                       for k in range(K)]),
    }
    pant_id = problem.add_euclidean("p_ant", p_ant)
    tgps_id = problem.add_euclidean("t_gps", 0.0)
    problem._layout()
    gps = antenna_at(positions, rotations, p_ant)
    group = est.DtGpsGroup(ids, pose_times, pant_id, tgps_id,
                           np.asarray(stamps, dtype=float), gps, 1.0)
    return group.residuals(problem, problem.initial_state())


def test_interpolate_pose_dt(rng):
    """At a node the DT pose is the pose state; halfway between nodes it is
    the mean position and the SLERP rotation."""
    def antenna_at(positions, rotations, p_ant):
        mid_R = slerp(rotations[0], rotations[1], 0.5)
        return np.stack([
            positions[0] + rotations[0] @ p_ant,
            0.5 * (positions[0] + positions[1]) + mid_R @ p_ant,
        ])
    r = dt_gps_residuals(rng, [0.0, 0.05], antenna_at)
    assert np.max(np.abs(r)) < 1e-12


def test_gps_residual_dt_zero_at_node(rng):
    k = 2

    def antenna_at(positions, rotations, p_ant):
        return (positions[k] + rotations[k] @ p_ant)[None]
    r = dt_gps_residuals(rng, [0.1 * k], antenna_at)
    assert np.max(np.abs(r)) < 1e-12


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
