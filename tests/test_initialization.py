import numpy as np
import pytest

from splinefusion import initialization as ini
from splinefusion import simulate as sim
from splinefusion.camera import CameraModel
from splinefusion.errors import (
    BootstrapUnavailableError,
    DegenerateConfigurationError,
    InvalidArgumentError,
)
from splinefusion.rotations import random_rotation, rotation_angle, slerp, so3_exp
from splinefusion.solver import FactorGroup, Problem

from conftest import noiseless_spec


def test_umeyama_exact(rng):
    src = rng.normal(size=(40, 3))
    true = ini.Sim3Transform(1.7, random_rotation(rng), rng.normal(size=3))
    tgt = true.apply(src)
    est = ini.umeyama(src, tgt)
    assert abs(est.s - true.s) < 1e-9
    assert np.max(np.abs(est.R - true.R)) < 1e-9
    assert np.max(np.abs(est.t - true.t)) < 1e-9
    assert np.max(np.abs(est.apply(src) - tgt)) < 1e-9


def test_umeyama_reflection_guard(rng):
    src = rng.normal(size=(30, 3))
    tgt = src * np.array([1.0, 1.0, -1.0])  # a reflection
    est = ini.umeyama(src, tgt)
    assert np.isclose(np.linalg.det(est.R), 1.0, atol=1e-9)


def test_umeyama_degenerate():
    line = np.outer(np.linspace(0, 1, 20), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateConfigurationError):
        ini.umeyama(line, line + 1.0)
    with pytest.raises(DegenerateConfigurationError):
        ini.umeyama(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        ini.umeyama(np.zeros((5, 3)), np.zeros((6, 3)))


def test_sim3_algebra(rng):
    a = ini.Sim3Transform(2.0, random_rotation(rng), rng.normal(size=3))
    b = ini.Sim3Transform(0.5, random_rotation(rng), rng.normal(size=3))
    x = rng.normal(size=(5, 3))
    assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)), atol=1e-12)
    ident = a.compose(a.inverse())
    assert np.isclose(ident.s, 1.0) and np.allclose(ident.t, 0, atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        ini.Sim3Transform(-1.0, np.eye(3), np.zeros(3))


def _pnp_scene(rng):
    """A camera, its pose and 30 points in front of it with exact pixels."""
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    R_wc = random_rotation(rng)
    p_wc = rng.normal(size=3)
    pts_cam = rng.uniform([-1.5, -1.0, 2.0], [1.5, 1.0, 8.0], size=(30, 3))
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
    assert rotation_angle(T.R.T @ R_wc) < 1e-6


def test_pnp_jacobians_match_finite_differences():
    """The PnP refinement's exact rotation and position Jacobians agree with
    central differences, also for a point behind the camera, whose depth
    is clamped."""
    rng = np.random.default_rng(5)
    R_wc = random_rotation(rng)
    p_wc = rng.normal(size=3)
    pts_cam = rng.uniform([-1.5, -1.0, 2.0], [1.5, 1.0, 8.0], size=(12, 3))
    pts_cam[4] = [0.3, -0.2, -1.5]
    xy = rng.normal(scale=0.2, size=(12, 2))
    group = ini._PnPGroup(None, pts_cam @ R_wc.T + p_wc, xy)
    problem = Problem()
    problem.add_rotation("pnp_R", R_wc @ so3_exp([0.02, -0.01, 0.03]))
    problem.add_euclidean("pnp_p", p_wc + [0.05, 0.02, -0.04])
    problem.add_group(group)
    problem._layout()
    state = problem.initial_state()
    ctx, slots = group.build(problem, state)
    gathered = [problem.gather(state, s) for s in slots]
    r, jacs = group.kernel(ctx, gathered, jacobians=True)
    assert np.array_equal(r, group.kernel(ctx, gathered))
    assert sorted(jacs) == [0, 1]
    for si, slot in enumerate(slots):
        fd, _ = group._fd_slot(ctx, gathered, si, slot, r)
        assert jacs[si].shape == fd.shape == (12, 2, 3)
        scale = np.abs(fd).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(jacs[si] - fd) <= 1e-7 * scale)


def test_pnp_refinement_makes_no_finite_differences(rng, monkeypatch):
    """Each linearization of the PnP refinement is one kernel call."""
    calls = {"linearize": 0, "kernel": 0, "fd": 0}
    inside = []
    linearize = ini._PnPGroup.linearize
    kernel = ini._PnPGroup.kernel
    fd_slot = FactorGroup._fd_slot

    def counting_linearize(self, *args):
        calls["linearize"] += 1
        inside.append(True)
        try:
            return linearize(self, *args)
        finally:
            inside.pop()

    def counting_kernel(self, *args, **kwargs):
        calls["kernel"] += bool(inside)
        return kernel(self, *args, **kwargs)

    def counting_fd_slot(self, *args):
        calls["fd"] += 1
        return fd_slot(self, *args)

    monkeypatch.setattr(ini._PnPGroup, "linearize", counting_linearize)
    monkeypatch.setattr(ini._PnPGroup, "kernel", counting_kernel)
    monkeypatch.setattr(FactorGroup, "_fd_slot", counting_fd_slot)
    cam, _, _, pts_world, px = _pnp_scene(rng)
    ini.pnp_dlt(cam, pts_world, px + rng.normal(scale=0.5, size=px.shape))
    assert calls["linearize"] > 0
    assert calls == {"linearize": calls["linearize"],
                     "kernel": calls["linearize"], "fd": 0}


def test_pnp_degenerate(rng):
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    with pytest.raises(DegenerateConfigurationError):
        ini.pnp_dlt(cam, np.zeros((4, 3)), np.zeros((4, 2)))
    with pytest.raises(DegenerateConfigurationError):
        ini.pnp_dlt(cam, np.tile(np.ones(3), (10, 1)), np.zeros((10, 2)))


def test_fit_spline_to_poses_fast_convergence():
    """Fitting smooth poses converges in under 20 iterations with a tight
    reproduction error."""
    gt = sim.make_ground_truth("circle", duration=8.0, margin=0.5)
    ts = np.arange(0.0, 8.0, 0.1)
    pos = gt.position.sample_many(ts)
    rot = gt.rotation.sample_many(ts)
    fit = ini.fit_spline_to_poses(ts, pos, rot, order=5, node_hz=5.0)
    assert fit.report.iterations < 20
    assert fit.rms_position < 1e-4
    assert fit.rms_rotation < 1e-3


def test_fit_spline_input_validation():
    with pytest.raises(InvalidArgumentError):
        ini.fit_spline_to_poses(
            np.arange(3.0), np.zeros((3, 3)), np.stack([np.eye(3)] * 3),
            order=5, node_hz=1.0,
        )


def _bootstrap_dataset():
    params = sim.ProfileParams(kind="circle", radius=2.0, rate=0.8,
                               static_prefix=1.5)
    gt = sim.make_ground_truth(params, duration=10.0)
    rig = sim.default_rig()
    noise = noiseless_spec(imu_hz=200.0)
    result = sim.synthesize(gt, rig, noise, num_landmarks=150)
    return gt, result.measurements


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


def test_imu_scale_bootstrap_recovers_scale():
    """Dead-reckoning a noiseless segment recovers a synthetic scale factor
    to within 10%."""
    gt, meas = _bootstrap_dataset()
    true_scale = 2.5
    grid = gt.position.grid
    import splinefusion.bsplines as bs
    pos_scaled = bs.SplineR3(grid, gt.position.nodes / true_scale)
    res = ini.imu_scale_bootstrap(
        pos_scaled, gt.rotation,
        meas.imu_t_ns * 1e-9, meas.gyro, meas.accel,
        static_window=1.0, motion_duration=3.0,
    )
    assert abs(res.sim3.s - true_scale) / true_scale < 0.10
    assert np.allclose(
        res.gravity_body / np.linalg.norm(res.gravity_body),
        [0.0, 0.0, -1.0], atol=1e-3,
    )


def test_bootstrap_requires_static_prefix():
    from conftest import wobbly_ground_truth
    gt = wobbly_ground_truth(duration=6.0)
    rig = sim.default_rig()
    meas = sim.synthesize(gt, rig, noiseless_spec(imu_hz=200.0),
                          num_landmarks=120).measurements
    with pytest.raises(BootstrapUnavailableError):
        ini.imu_scale_bootstrap(
            gt.position, gt.rotation,
            meas.imu_t_ns * 1e-9, meas.gyro, meas.accel,
        )
