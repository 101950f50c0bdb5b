import dataclasses

import numpy as np
import pytest

from splinefusion import bsplines as bs
from splinefusion import estimators as est
from splinefusion import initialization as ini
from splinefusion import simulate as sim
from splinefusion import solver
from splinefusion.camera import CameraModel
from splinefusion.errors import (
    DataError,
    DegenerateConfigurationError,
    InvalidArgumentError,
    NumericalFailureError,
)
from splinefusion.rotations import slerp, so3_exp, so3_log
from splinefusion.solver import (
    EUCLIDEAN,
    ROTATION,
    FactorGroup,
    Problem,
    Slot,
    SolveOptions,
    solve,
)

from conftest import noiseless_spec, random_rotation, wobbly_ground_truth


def _pnp_scene(rng, n=30):
    """A camera, its pose and ``n`` points in front of it with exact pixels."""
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    R_wc = random_rotation(rng)
    p_wc = rng.normal(size=3)
    pts_cam = rng.uniform([-1.5, -1.0, 2.0], [1.5, 1.0, 8.0], size=(n, 3))
    pts_world = (R_wc @ pts_cam.T).T + p_wc
    px = np.stack([
        cam.fx * pts_cam[:, 0] / pts_cam[:, 2] + cam.cx,
        cam.fy * pts_cam[:, 1] / pts_cam[:, 2] + cam.cy,
    ], axis=1)
    return cam, R_wc, p_wc, pts_world, px


def test_pnp_recovers_pose(rng):
    cam, R_wc, p_wc, pts_world, px = _pnp_scene(rng)
    T = ini.pnp_dlt(cam, pts_world, px)
    assert np.linalg.norm(T.p - p_wc) < 1e-6
    assert np.linalg.norm(so3_log(T.R.T @ R_wc)) < 1e-6


class _PnPRefinement(FactorGroup):
    """The PnP residuals of one camera pose as a factor group over the
    rotation block ``rot`` and position block ``pos``: the general sparse
    refinement, kept as the oracle of the dense one in :func:`ini.pnp_dlt`."""

    name = "pnp"
    dim = 2

    def __init__(self, camera, points, pixels, rot, pos):
        self.camera = camera
        self.points = points
        self.pixels = pixels
        self.slots = [Slot(rot, ROTATION, 3), Slot(pos, EUCLIDEAN, 3)]

    def kernel(self, ctx, gathered, jacobians=False):
        out = ini._pnp_residuals(self.camera, gathered[0][0], gathered[1][0],
                                 self.points, self.pixels, jacobians=jacobians)
        if not jacobians:
            return out.reshape(-1, 2)
        r, J = out
        J = J.reshape(-1, 2, 6)
        return r.reshape(-1, 2), {0: J[..., :3], 1: J[..., 3:]}


def _pnp_problem(camera, R_wc, p_wc, points, pixels):
    problem = Problem()
    rot = problem.add_rotation("pnp_R", R_wc)
    pos = problem.add_euclidean("pnp_p", p_wc)
    problem.add_group(_PnPRefinement(camera, points, pixels, rot, pos))
    return problem


def test_pnp_jacobians_match_finite_differences():
    """The PnP refinement's exact rotation and position Jacobians agree with
    central differences, also for a point behind the camera, whose
    residual and Jacobian rows are zero."""
    rng = np.random.default_rng(5)
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    R_wc = random_rotation(rng)
    p_wc = rng.normal(size=3)
    pts_cam = rng.uniform([-1.5, -1.0, 2.0], [1.5, 1.0, 8.0], size=(12, 3))
    pts_cam[4] = [0.3, -0.2, -1.5]
    px = rng.normal(scale=0.2, size=(12, 2)) * cam.fx + [cam.cx, cam.cy]
    problem = _pnp_problem(cam, R_wc @ so3_exp([0.02, -0.01, 0.03]),
                           p_wc + [0.05, 0.02, -0.04], pts_cam @ R_wc.T + p_wc, px)
    group = problem.groups[0]
    problem._layout()
    state = problem.initial_state()
    ctx, slots, gathered = group.inputs(problem, state)
    r, jacs = group.kernel(ctx, gathered, jacobians=True)
    assert np.array_equal(r, group.kernel(ctx, gathered))
    assert not r[4].any() and not jacs[0][4].any() and not jacs[1][4].any()
    assert sorted(jacs) == [0, 1]
    for si, slot in enumerate(slots):
        fd = group._fd_slot(ctx, gathered, si, slot)
        assert jacs[si].shape == fd.shape == (12, 2, 3)
        scale = np.abs(fd).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(jacs[si] - fd) <= 1e-7 * scale)


def test_pnp_dense_refinement_matches_sparse_problem(rng, monkeypatch):
    """From the DLT pose, the dense 6-column refinement of ``pnp_dlt`` ends
    at the pose that a general Problem with the same residuals ends at
    under ``solver.solve``, on noisy frames and on one with a point behind
    the camera, which drops out of both."""
    starts = []
    lm = ini._levenberg_marquardt

    def recording_lm(state, *args):
        starts.append(state)
        return lm(state, *args)

    monkeypatch.setattr(ini, "_levenberg_marquardt", recording_lm)
    for behind, tol in ((False, 1e-12), (False, 1e-12), (True, 1e-10)):
        cam, R_wc, p_wc, pts_world, px = _pnp_scene(rng)
        px = px + rng.normal(scale=0.5, size=px.shape)
        if behind:
            pts_world[7] = R_wc @ [0.3, -0.2, -1.5] + p_wc
        T = ini.pnp_dlt(cam, pts_world, px)
        problem = _pnp_problem(cam, *starts[-1], pts_world, px)
        state, _ = solve(problem, SolveOptions(max_iter=15, rel_tol=1e-10))
        assert np.max(np.abs(T.R - problem.block_value(state, "pnp_R"))) <= tol
        assert np.max(np.abs(T.p - problem.block_value(state, "pnp_p"))) <= tol
    assert len(starts) == 3


def test_pnp_drops_a_point_behind_the_camera(rng, monkeypatch):
    """A point behind the camera drops out of the refinement, as it does
    from every reprojection factor: on a noisy frame with one such point,
    the refinement converges and the pose ends within 1 cm of the truth."""
    reports = []
    lm = ini._levenberg_marquardt

    def recording_lm(*args):
        out = lm(*args)
        reports.append(out[1])
        return out

    monkeypatch.setattr(ini, "_levenberg_marquardt", recording_lm)
    cam, R_wc, p_wc, pts_world, px = _pnp_scene(rng)
    px = px + rng.normal(scale=0.5, size=px.shape)
    pts_world[7] = R_wc @ [0.3, -0.2, -1.5] + p_wc
    T = ini.pnp_dlt(cam, pts_world, px)
    assert reports[-1].converged, reports[-1].termination
    assert np.linalg.norm(T.p - p_wc) < 0.01


def test_pnp_evaluates_no_trial_at_an_unchanged_pose(monkeypatch):
    """Once no damped step lowers the cost, the steps shrink with the
    damping until the retraction leaves the pose unchanged; the refinement
    stops there and evaluates no trial at the pose it linearized at.  On
    200 noisy frames, no frame spends as many trials as ``_MAX_REJECTS``."""
    residuals = ini._pnp_residuals
    seen = {"at": None, "trials": 0, "unchanged": 0}

    def counting(camera, R_wc, p_wc, *args, jacobians=False):
        if jacobians:  # a linearization: the pose the trials step from
            seen["at"] = (R_wc, p_wc)
        else:
            seen["trials"] += 1
            seen["unchanged"] += (np.array_equal(R_wc, seen["at"][0])
                                  and np.array_equal(p_wc, seen["at"][1]))
        return residuals(camera, R_wc, p_wc, *args, jacobians=jacobians)

    monkeypatch.setattr(ini, "_pnp_residuals", counting)
    rng = np.random.default_rng(7)
    most = 0
    for _ in range(200):
        cam, R_wc, p_wc, pts_world, px = _pnp_scene(rng, 60)
        before = seen["trials"]
        ini.pnp_dlt(cam, pts_world, px + rng.normal(scale=1.0, size=px.shape))
        most = max(most, seen["trials"] - before)
    assert seen["unchanged"] == 0
    assert most < solver._MAX_REJECTS


def test_pnp_builds_no_problem(rng, monkeypatch):
    """The PnP refinement runs on its dense system: no Problem
    linearization, no solver.solve and no finite differences."""
    def forbidden(*args, **kwargs):
        raise AssertionError("called by pnp_dlt")

    monkeypatch.setattr(Problem, "linearize", forbidden)
    monkeypatch.setattr(solver, "solve", forbidden)
    monkeypatch.setattr(ini, "solve", forbidden)
    monkeypatch.setattr(FactorGroup, "_fd_slot", forbidden)
    cam, R_wc, p_wc, pts_world, px = _pnp_scene(rng)
    T = ini.pnp_dlt(cam, pts_world, px + rng.normal(scale=0.5, size=px.shape))
    assert np.linalg.norm(T.p - p_wc) < 0.1


def test_spline_fits_make_no_finite_differences(tiny_noiseless, monkeypatch):
    """The ground truth's fit, the one spline fit, linearizes with exact
    Jacobians only: no finite-difference slot, and it does solve.  The CT
    start places its nodes: it builds no problem and runs no solve."""
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences in a spline fit")

    def no_solve(*args, **kwargs):
        raise AssertionError("the CT start built a problem or ran a solve")

    fits = []
    fit = ini.fit_spline_to_poses

    def counting_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(FactorGroup, "_fd_slot", forbidden)
    monkeypatch.setattr(sim, "fit_spline_to_poses", counting_fit)
    sim.make_ground_truth("circle", duration=5.0)
    assert len(fits) == 1 and fits[0].report.iterations > 0
    _, rig, _, result = tiny_noiseless
    monkeypatch.setattr(Problem, "__init__", no_solve)
    monkeypatch.setattr(est, "solve", no_solve)
    monkeypatch.setattr(ini, "solve", no_solve)
    est.initialize_ct(result.measurements, rig, est.CtConfig())


def test_pnp_without_a_finite_step_is_a_numerical_failure(rng, monkeypatch,
                                                          tiny_noiseless):
    """No damped system of the refinement gives a finite step (its
    Jacobians are NaN): pnp_dlt raises NumericalFailureError, and
    initial_frame_poses skips such a frame like a degenerate one."""
    residuals = ini._pnp_residuals
    broken = [True]  # whether the refinement gets NaN Jacobians

    def nan_jacobians(*args, jacobians=False):
        out = residuals(*args, jacobians=jacobians)
        if not (jacobians and broken[0]):
            return out
        return out[0], np.full_like(out[1], np.nan)

    monkeypatch.setattr(ini, "_pnp_residuals", nan_jacobians)
    cam, _, _, pts_world, px = _pnp_scene(rng)
    with pytest.raises(NumericalFailureError):
        ini.pnp_dlt(cam, pts_world, px + rng.normal(scale=0.5, size=px.shape))

    _, rig, _, result = tiny_noiseless
    meas = dataclasses.replace(result.measurements,
                               frames=result.measurements.frames[:3])
    landmarks = {int(k): v for k, v in result.measurements.landmarks_true.items()}
    calls = []

    def first_frame_broken(*args):
        calls.append(None)
        broken[0] = len(calls) == 1
        return ini.pnp_dlt(*args)

    monkeypatch.setattr(est, "pnp_dlt", first_frame_broken)
    _, pos, rot = est.initial_frame_poses(meas, rig, landmarks)
    assert len(calls) == 3
    assert np.array_equal(pos[0], pos[1]) and np.array_equal(rot[0], rot[1])
    assert not np.array_equal(pos[1], pos[2])


def test_pnp_degenerate(rng):
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    with pytest.raises(DegenerateConfigurationError):
        ini.pnp_dlt(cam, np.zeros((4, 3)), np.zeros((4, 2)))
    with pytest.raises(DegenerateConfigurationError):
        ini.pnp_dlt(cam, np.tile(np.ones(3), (10, 1)), np.zeros((10, 2)))


def _gps_gyro_poses(meas, rig, query):
    """:func:`ini.gps_gyro_poses` on the streams of ``meas``."""
    return ini.gps_gyro_poses(
        meas.seconds(meas.imu_t_ns), meas.gyro, meas.accel,
        meas.seconds(meas.gps_t_ns), meas.gps, rig.p_antenna_body, query)


@pytest.mark.parametrize("imu_hz,gps_hz", [(100.0, 5.0), (200.0, 7.0)])
def test_gps_gyro_poses_recover_the_true_attitude(imu_hz, gps_hz):
    """On noise-free data the gyro chain aligned by the accelerometer gives
    the true attitude at every IMU stamp, heading included; at the GPS
    stamps the positions are the fixes less the lever arm, and at the IMU
    stamps before the first fix and after the last the fitted model carries
    the nearest fix to the true position."""
    gt = wobbly_ground_truth(duration=8.0)
    rig = sim.default_rig()
    meas = sim.synthesize(gt, rig, noiseless_spec(imu_hz=imu_hz, gps_hz=gps_hz),
                          num_landmarks=80).measurements
    t_imu, t_gps = meas.seconds(meas.imu_t_ns), meas.seconds(meas.gps_t_ns)
    p_imu, R = _gps_gyro_poses(meas, rig, t_imu)
    err = so3_log(np.swapaxes(gt.rotation.sample_many(meas.imu_t_ns * 1e-9),
                              -1, -2) @ R)
    assert np.linalg.norm(err, axis=1).max() < 1e-4
    p, _ = _gps_gyro_poses(meas, rig, t_gps)
    assert np.abs(p - gt.position.sample_many(meas.gps_t_ns * 1e-9)).max() < 1e-4
    outside = (t_imu < t_gps[0]) | (t_imu > t_gps[-1])
    assert outside[0] and outside[-1]
    truth = gt.position.sample_many(meas.imu_t_ns[outside] * 1e-9)
    assert np.abs(p_imu[outside] - truth).max() < 1e-3


def test_gps_gyro_poses_reject_a_straight_constant_velocity_track():
    """On a straight line at constant speed the accelerometer sees gravity
    alone, so the heading is not determined: a DataError names the
    singular-value ratio."""
    gt = sim.make_ground_truth("line", duration=10.0, radius=2.0, rate=0.5)
    rig = sim.default_rig()
    meas = sim.synthesize(gt, rig, noiseless_spec(imu_hz=200.0, gps_hz=7.0),
                          num_landmarks=80).measurements
    with pytest.raises(DataError, match=r"heading not determined.*second "
                       r"singular value is .* of its first \(need >= 1e-06\)"):
        _gps_gyro_poses(meas, rig, meas.seconds(meas.imu_t_ns))


def test_gps_gyro_poses_need_four_fixes_in_the_imu_span():
    gt = wobbly_ground_truth(duration=6.0)
    rig = sim.default_rig()
    meas = sim.synthesize(gt, rig, noiseless_spec(), num_landmarks=80).measurements
    few = dataclasses.replace(meas, gps_t_ns=meas.gps_t_ns[:3], gps=meas.gps[:3])
    with pytest.raises(DataError, match="3 GPS fixes inside the IMU span"):
        _gps_gyro_poses(few, rig, meas.seconds(meas.imu_t_ns))


def test_fit_spline_to_poses_fast_convergence():
    """Fitting smooth poses converges in under 20 iterations with a tight
    reproduction error."""
    gt = sim.make_ground_truth("circle", duration=8.0, margin=0.5)
    ts = np.arange(0.0, 8.0, 0.1)
    pos = gt.position.sample_many(ts)
    rot = gt.rotation.sample_many(ts)
    fit = ini.fit_spline_to_poses(ts, pos, rot, order=5, node_hz=5.0)
    assert fit.report.iterations < 20
    ep = fit.position.sample_many(ts) - pos
    assert np.sqrt((ep**2).sum(axis=1).mean()) < 1e-4
    er = so3_log(np.swapaxes(fit.rotation.sample_many(ts), -1, -2) @ rot)
    assert np.sqrt((er**2).sum(axis=1).mean()) < 1e-3


def test_so3_fit_declares_the_windows_holding_a_cut_pair():
    """With the control pair (3, 4) within ``fd_step`` of angle pi, the
    rotation-fit linearization flags exactly the order-4 windows that hold
    both of its nodes, those starting at nodes 1, 2 and 3."""
    grid = bs.grid_covering(0.0, 1.0, 0.1, 4)
    angles = np.full(grid.count - 1, 0.2)
    angles[3] = np.pi - 1e-9
    nodes = [np.eye(3)]
    for a in angles:
        nodes.append(nodes[-1] @ so3_exp([0.0, 0.0, a]))
    problem = Problem()
    first = [problem.add_rotation(f"rot{i}", R) for i, R in enumerate(nodes)][0]
    seg = np.arange(grid.count - 3)
    u = np.full(seg.size, 0.5)
    group = ini.SO3FitGroup(grid, first, seg, u, np.stack(nodes[:seg.size]))
    problem.add_group(group)
    problem._layout()
    _, _, _, jumps = group.linearize(problem, problem.initial_state())
    assert np.flatnonzero(jumps).tolist() == [1, 2, 3]


def test_fit_spline_input_validation():
    with pytest.raises(InvalidArgumentError):
        ini.fit_spline_to_poses(
            np.arange(3.0), np.zeros((3, 3)), np.stack([np.eye(3)] * 3),
            order=5, node_hz=1.0,
        )
    # a node rate that is not finite and positive is named, not a grid of
    # zero or infinite spacing
    ts = np.arange(0.0, 2.0, 0.1)
    for rate in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError, match="node rate"):
            ini.fit_spline_to_poses(ts, np.zeros((ts.size, 3)),
                                    np.stack([np.eye(3)] * ts.size),
                                    order=5, node_hz=rate)


def reference_interp_rotations(times, rotations, query):
    """Per-query SLERP between the poses that bracket each query, held at
    the end poses outside the stamps."""
    out = np.empty((len(query), 3, 3))
    for i, q in enumerate(query):
        j = min(max(int(np.searchsorted(times, q, side="right")) - 1, 0),
                len(times) - 2)
        a = min(max((q - times[j]) / (times[j + 1] - times[j]), 0.0), 1.0)
        out[i] = slerp(rotations[j], rotations[j + 1], a)
    return out


def test_interp_rotations_matches_per_query_slerp():
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.05, 0.2, size=12))
    rotations = np.stack([random_rotation(rng) for _ in times])
    query = np.concatenate([
        times,  # on the stamps
        0.5 * (times[:-1] + times[1:]),  # between them
        rng.uniform(times[0], times[-1], size=30),
        [times[0] - 0.3, times[0] - 1e-9, times[-1] + 1e-9, times[-1] + 0.5],
    ])
    got = ini._interp_rotations(times, rotations, query)
    assert np.array_equal(got, reference_interp_rotations(times, rotations, query))
