import numpy as np
import pytest

from splinefusion import bsplines as bs
from splinefusion import estimators as est
from splinefusion import simulate as sim
from splinefusion.errors import InvalidArgumentError
from splinefusion.rotations import slerp, so3_exp
from splinefusion.solver import Problem

from conftest import random_rotation


def make_ct_state(gt, rig, landmarks):
    bias_grid = bs.grid_covering(gt.t_start - 0.5, gt.t_end + 0.5, 1.0, 4)
    zeros = np.zeros((bias_grid.count, 3))
    return est.CtState(
        position=gt.position, rotation=gt.rotation,
        landmarks={int(k): v for k, v in landmarks.items()},
        t_cam_imu=rig.t_cam_imu, t_gps_imu=rig.t_gps_imu,
        bias_accel=bs.SplineR3(bias_grid, zeros),
        bias_gyro=bs.SplineR3(bias_grid, zeros.copy()),
    )


RIG = sim.default_rig()  # the GPS groups read its lever arm


def frame_problem(positions, rotations, t_gps=0.0):
    """A problem with one position and one rotation block per frame (ids
    ``{"p": ..., "R": ...}``), then the ``t_gps`` block."""
    K = len(positions)
    problem = Problem()
    ids = {
        "p": np.array([problem.add_euclidean(f"p{k}", positions[k])
                       for k in range(K)]),
        "R": np.array([problem.add_rotation(f"R{k}", rotations[k])
                       for k in range(K)]),
    }
    tgps_id = problem.add_euclidean("t_gps", t_gps)
    problem._layout()
    return problem, ids, tgps_id


def dt_gps_residuals(rng, stamps, antenna_at, K=5):
    """DT GPS residuals of a ``DtGpsGroup`` over K random pose states 0.1 s
    apart, for GPS fixes made by ``antenna_at(positions, rotations, lever)``
    at ``stamps``, with the rig's lever arm."""
    pose_times = 0.1 * np.arange(K)
    positions = rng.normal(size=(K, 3))
    rotations = np.stack([random_rotation(rng) for _ in range(K)])
    problem, ids, tgps_id = frame_problem(positions, rotations)
    gps = antenna_at(positions, rotations, RIG.p_antenna_body)
    group = est.DtGpsGroup(ids, pose_times, RIG, tgps_id,
                           np.asarray(stamps, dtype=float), gps, 1.0)
    return group.residuals(problem, problem.initial_state())


def test_interpolate_pose_dt(rng):
    """At a node the DT pose is the pose state; halfway between nodes it is
    the mean position and the SLERP rotation."""
    def antenna_at(positions, rotations, lever):
        mid_R = slerp(rotations[0], rotations[1], 0.5)
        return np.stack([
            positions[0] + rotations[0] @ lever,
            0.5 * (positions[0] + positions[1]) + mid_R @ lever,
        ])
    r = dt_gps_residuals(rng, [0.0, 0.05], antenna_at)
    assert np.max(np.abs(r)) < 1e-12


def test_gps_residual_dt_zero_at_node(rng):
    k = 2

    def antenna_at(positions, rotations, lever):
        return (positions[k] + rotations[k] @ lever)[None]
    r = dt_gps_residuals(rng, [0.1 * k], antenna_at)
    assert np.max(np.abs(r)) < 1e-12


def test_dt_gps_is_ct_gps_at_order_2(rng):
    """DT GPS interpolation is the order-2 cumulative B-spline: a CtGpsGroup
    on an order-2 grid over the frame states has DtGpsGroup's residuals and,
    slot for slot, its Jacobians."""
    K, n = 6, 20
    positions = rng.normal(size=(K, 3))
    steps = rng.normal(size=(K - 1, 3))
    steps *= 0.8 / np.linalg.norm(steps, axis=1, keepdims=True)  # 0.8 rad
    rotations = [random_rotation(rng)]
    for w in steps:
        rotations.append(rotations[-1] @ so3_exp(w))
    problem, ids, tgps_id = frame_problem(positions, rotations, t_gps=0.013)
    stamps = rng.uniform(0.0, 0.1 * (K - 1) - 0.02, size=n)
    gps = rng.normal(size=(n, 3))
    grid = bs.KnotGrid(t0=0.0, dt=0.1, count=K, order=2)
    ct = est.CtGpsGroup(grid, ids["p"][0], ids["R"][0], RIG, tgps_id, stamps,
                        gps, 1.0)
    dt = est.DtGpsGroup(ids, 0.1 * np.arange(K), RIG, tgps_id, stamps, gps,
                        1.0)
    state = problem.initial_state()
    r_ct, slots_ct, J_ct, _ = ct.linearize(problem, state)
    r_dt, slots_dt, J_dt, _ = dt.linearize(problem, state)
    assert np.max(np.abs(r_ct - r_dt)) < 1e-12
    # the position pair, the rotation pair, then t_gps
    assert len(slots_ct) == len(slots_dt) == 3
    for c in range(3):
        assert np.array_equal(slots_ct[c].factor_blocks(),
                              slots_dt[c].factor_blocks())
        assert np.max(np.abs(J_ct[c] - J_dt[c])) < 1e-12


def test_dt_state_validation(rng):
    with pytest.raises(InvalidArgumentError):
        est.DtState(
            t_ns=np.array([0, 0]), positions=np.zeros((2, 3)),
            rotations=np.stack([np.eye(3)] * 2), velocities=np.zeros((2, 3)),
            bias_accel=np.zeros((2, 3)), bias_gyro=np.zeros((2, 3)),
            landmarks={}, t_cam_imu=0.0, t_gps_imu=0.0,
        )


def test_ct_state_requires_cubic_bias(tiny_noiseless):
    gt, rig, _, result = tiny_noiseless
    state = make_ct_state(gt, rig, result.measurements.landmarks_true)
    bad_grid = bs.grid_covering(gt.t_start, gt.t_end, 1.0, 5)
    with pytest.raises(InvalidArgumentError):
        est.CtState(
            position=state.position, rotation=state.rotation,
            landmarks=state.landmarks, t_cam_imu=0.0, t_gps_imu=0.0,
            bias_accel=bs.SplineR3(bad_grid, np.zeros((bad_grid.count, 3))),
            bias_gyro=state.bias_gyro,
        )
