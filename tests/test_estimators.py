import dataclasses
import json
import os
import subprocess
import sys
import time
import types
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from splinefusion import bsplines as bs
from splinefusion import estimators as est
from splinefusion import initialization as ini
from splinefusion import preintegration as pre
from splinefusion import simulate as sim
from splinefusion.dataset import Frame, MeasurementSet, NoiseSpec
from splinefusion.estimators import CtState, DtState
from splinefusion.errors import (
    DataError,
    DegenerateConfigurationError,
    InvalidArgumentError,
    NumericalFailureError,
)
from splinefusion.rotations import so3_exp
from splinefusion.solver import (FactorGroup, Problem, SolveOptions, solve,
                                window_jacobian)

from block_oracle import oracle_errors
from conftest import noiseless_spec, wobbly_ground_truth


def true_ct_state(gt, rig, landmarks):
    bias_grid = bs.grid_covering(gt.t_start - 0.5, gt.t_end + 0.5, 1.0, 4)
    zeros = np.zeros((bias_grid.count, 3))
    # copy the spline nodes so tests can perturb the state without touching
    # the session-scoped ground truth
    return CtState(
        position=bs.SplineR3(gt.position.grid, gt.position.nodes.copy()),
        rotation=bs.SplineSO3(gt.rotation.grid, gt.rotation.nodes.copy()),
        landmarks={int(k): v.copy() for k, v in landmarks.items()},
        t_cam_imu=rig.t_cam_imu, t_gps_imu=rig.t_gps_imu,
        bias_accel=bs.SplineR3(bias_grid, zeros),
        bias_gyro=bs.SplineR3(bias_grid, zeros.copy()),
    )


def test_shift_feature():
    z = np.array([[100.0, 200.0]])
    v = np.array([[10.0, -20.0]])
    assert np.allclose(est.shift_feature(z, v, 0.1), [[101.0, 198.0]])
    assert np.allclose(est.shift_feature(z, v, 0.0), z)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        est.CtConfig(use_cam=False, use_gps=False)
    with pytest.raises(InvalidArgumentError):
        est.CtConfig(spline_order=3)
    with pytest.raises(InvalidArgumentError):
        est.DtConfig(use_imu=False, use_gps=False, use_cam=True)


@pytest.mark.parametrize("kwargs, name", [
    (dict(spline_order=4.5), "spline order"), (dict(spline_order=True), "spline order"),
    (dict(spline_order=9, use_imu=False), "spline order"),
    (dict(max_iter=2.5), "max_iter"), (dict(max_iter=True), "max_iter"),
    (dict(max_iter=0), "max_iter")])
def test_integer_settings_checked_at_construction(kwargs, name):
    """The spline order and the iteration cap are checked when the config
    is made, not when ``run`` first uses them."""
    with pytest.raises(InvalidArgumentError, match=name):
        est.CtConfig(**kwargs)
    if "max_iter" in kwargs:
        with pytest.raises(InvalidArgumentError, match=name):
            est.DtConfig(**kwargs)


def test_flatten_observations(tiny_noiseless):
    _, _, _, result = tiny_noiseless
    meas = result.measurements
    obs = est.flatten_observations(meas)
    n_total = sum(len(f.landmark_ids) for f in meas.frames)
    assert obs.pixels.shape == (n_total, 2)
    assert obs.stamps.shape == (n_total,)
    # velocity of a non-first track observation is the backward difference
    lid = obs.landmark_ids[0]
    rows = np.nonzero(obs.landmark_ids == lid)[0]
    if len(rows) >= 2:
        a, b = rows[0], rows[1]
        dv = (obs.pixels[b] - obs.pixels[a]) / (obs.stamps[b] - obs.stamps[a])
        assert np.allclose(obs.velocities[b], dv, atol=1e-9)
        # first observation reuses the forward difference
        assert np.allclose(obs.velocities[a], dv, atol=1e-9)


def reference_flatten_observations(meas, origin_ns):
    """The per-observation loop ``flatten_observations`` replaced: one row
    per observation, frame by frame, with stamps in seconds since
    ``origin_ns``, and each track's velocities from its rows in a dict.
    Returns (stamps, frame_index, landmark_ids, pixels, velocities)."""
    stamps, fidx, lids, pixels = [], [], [], []
    for k, fr in enumerate(meas.frames):
        t = (fr.t_ns - origin_ns) * 1e-9
        for lid, px in zip(fr.landmark_ids, fr.pixels):
            stamps.append(t)
            fidx.append(k)
            lids.append(int(lid))
            pixels.append(px)
    stamps = np.asarray(stamps)
    fidx = np.asarray(fidx, dtype=int)
    lids = np.asarray(lids, dtype=int)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    vel = np.zeros_like(pixels)
    by_lm = {}
    for n, lid in enumerate(lids):
        by_lm.setdefault(lid, []).append(n)
    for rows in by_lm.values():
        if len(rows) < 2:
            continue
        ts = stamps[rows]
        zs = pixels[rows]
        dv = np.diff(zs, axis=0) / np.diff(ts)[:, None]
        vel[rows[0]] = dv[0]
        for i in range(1, len(rows)):
            vel[rows[i]] = dv[i - 1]
    return stamps, fidx, lids, pixels, vel


def _handcrafted_meas():
    """Camera frames only, at uneven stamps, whose tracks interleave, with
    unsorted ids in each frame and the single-observation tracks 9 and 4."""
    rng = np.random.default_rng(5)
    ids = [[7, 3, 12], [3, 5], [12, 9, 7], [5, 7, 3, 4]]
    stamps = [1_000_000_000, 1_100_000_000, 1_250_000_000, 1_300_000_007]
    frames = [Frame(t, np.array(i), rng.uniform(0.0, 640.0, (len(i), 2)))
              for t, i in zip(stamps, ids)]
    none = np.zeros(0, np.int64), np.zeros((0, 3))
    return MeasurementSet(*none, none[1], *none, frames, {})


@pytest.mark.parametrize("which", ["tiny", "handcrafted"])
def test_flatten_observations_matches_per_observation_loop(which,
                                                           tiny_noiseless):
    """Every field equals, bit for bit and in dtype, the one of the
    per-observation loop.  The stamps count from the first IMU stamp, 0 in
    the simulator, or else from the first frame, the handcrafted data's at
    1 s."""
    meas = (tiny_noiseless[3].measurements if which == "tiny"
            else _handcrafted_meas())
    origin = 0 if which == "tiny" else 1_000_000_000
    obs = est.flatten_observations(meas)
    got = (obs.stamps, obs.frame_index, obs.landmark_ids, obs.pixels,
           obs.velocities)
    for name, x, y in zip(("stamps", "frame_index", "landmark_ids", "pixels",
                           "velocities"), got,
                          reference_flatten_observations(meas, origin)):
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    if which == "handcrafted":
        assert not obs.velocities[obs.landmark_ids == 9].any()
        assert not obs.velocities[obs.landmark_ids == 4].any()


def test_ct_residuals_vanish_at_truth(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    state0 = true_ct_state(gt, rig, meas.landmarks_true)
    cfg = est.CtConfig()
    problem = est.build_ct_problem(meas, state0, cfg, noise, rig)
    r = problem.residual_vector(problem.initial_state())
    assert np.max(np.abs(r)) < 1e-9


def test_ct_factor_counts(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    state0 = true_ct_state(gt, rig, meas.landmarks_true)
    problem = est.build_ct_problem(meas, state0, est.CtConfig(), noise, rig)
    counts = problem.factor_counts
    n_obs = sum(len(f.landmark_ids) for f in meas.frames)
    M = meas.imu_t_ns.size
    D = meas.gps_t_ns.size
    F = state0.bias_accel.grid.count - 1
    assert counts["reprojection"] == n_obs
    assert counts["accel"] == M
    assert counts["gyro"] == M
    assert counts["bias_rate"] == 2 * F
    assert counts["gps"] == D
    assert counts["total"] == n_obs + 2 * M + 2 * F + D


def test_ct_domain_check(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    state0 = true_ct_state(gt, rig, meas.landmarks_true)
    short_grid = bs.grid_covering(1.0, 3.0, 0.1, 6)
    bad = CtState(
        position=bs.SplineR3(short_grid, np.zeros((short_grid.count, 3))),
        rotation=bs.SplineSO3(
            short_grid, np.stack([np.eye(3)] * short_grid.count)
        ),
        landmarks=state0.landmarks, t_cam_imu=0.0, t_gps_imu=0.0,
        bias_accel=state0.bias_accel, bias_gyro=state0.bias_gyro,
    )
    with pytest.raises(InvalidArgumentError, match="does not cover"):
        est.build_ct_problem(meas, bad, est.CtConfig(), noise, rig)


def _jacobian_check(problem, state, rtol=5e-4, every_slot=False):
    """The exact Jacobians a kernel returns agree with finite differences
    slot by slot; with ``every_slot`` each kernel must return all of its
    slots."""
    problem._layout()
    for group in problem.groups:
        ctx, slots, gathered = group.inputs(problem, state)
        r, exact = group.kernel(ctx, gathered, jacobians=True)
        if every_slot:
            assert sorted(exact) == list(range(len(slots))), group.name
        for si, J in exact.items():
            fd = group._fd_slot(ctx, gathered, si, slots[si])
            scale = max(np.abs(fd).max(), 1.0)
            err = np.max(np.abs(J - fd)) / scale
            assert err < rtol, f"{group.name} slot {si}: rel err {err:.2e}"


@pytest.fixture(scope="module")
def perturbed_ct(tiny_noiseless):
    """CT problem linearized away from the optimum, where every Jacobian
    term is nontrivial: positions, rotations, landmarks, biases and both
    clock offsets are all off the truth."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    rng = np.random.default_rng(5)
    state0 = true_ct_state(gt, rig, meas.landmarks_true)
    state0.position.nodes += rng.normal(scale=0.01, size=state0.position.nodes.shape)
    state0.rotation.nodes = state0.rotation.nodes @ so3_exp(
        rng.normal(scale=0.02, size=(state0.rotation.nodes.shape[0], 3)))
    for lid in state0.landmarks:
        state0.landmarks[lid] += rng.normal(scale=0.02, size=3)
    state0.bias_accel.nodes += rng.normal(scale=1e-3, size=state0.bias_accel.nodes.shape)
    state0 = dataclasses.replace(
        state0, t_cam_imu=rig.t_cam_imu + 0.004, t_gps_imu=rig.t_gps_imu - 0.003)
    problem = est.build_ct_problem(meas, state0, est.CtConfig(), noise, rig)
    problem._layout()
    return problem, problem.initial_state()


def test_ct_exact_jacobians_match_fd(perturbed_ct):
    problem, state = perturbed_ct
    _jacobian_check(problem, state)


def test_ct_imu_families_share_one_window_pass_per_state(perturbed_ct,
                                                        monkeypatch):
    """Over a CT solve the two IMU families make one SO(3) window pass per
    distinct state of their rotation windows, shared by both families and
    by the trial and the linearization at one state, and form its Jacobian
    parts once per linearization."""
    problem, _ = perturbed_ct
    accel, = [g for g in problem.groups if g.name == "ct_accel"]
    gyro, = [g for g in problem.groups if g.name == "ct_gyro"]
    stamps = accel.stamps
    assert gyro.stamps is stamps
    stamps.memo.clear()
    calls = {"steps": 0, "jacobians": 0}
    imu_pass = []  # whether the innermost window pass is at the IMU stamps
    window_pass = bs._so3_window_pass

    def flagged(*args):  # (windows, u, order, jacobians, at, memo)
        imu_pass.append(args[4] is stamps.at)
        try:
            return window_pass(*args)
        finally:
            imu_pass.pop()

    monkeypatch.setattr(bs, "_so3_window_pass", flagged)
    # a pass forms the steps from the node differences and its Jacobian
    # parts from their J_r^-1
    for name, key in (("so3_window_diffs", "steps"),
                      ("so3_right_jacobian_inv", "jacobians")):
        def counting(x, _fn=getattr(bs, name), _key=key):
            calls[_key] += bool(imu_pass) and imu_pass[-1]
            return _fn(x)

        monkeypatch.setattr(bs, name, counting)
    windows, linearizations = [], 0
    for name in ("residual_vector", "linearize"):
        def recording(self, state, _fn=getattr(Problem, name),
                      _lin=name == "linearize"):
            nonlocal linearizations
            linearizations += _lin
            windows.append(self.gather(state, accel.slots[1]))
            return _fn(self, state)

        monkeypatch.setattr(Problem, name, recording)
    solve(problem, SolveOptions(max_iter=4))
    changes = 1 + sum(not np.array_equal(a, b)
                      for a, b in zip(windows, windows[1:]))
    assert linearizations >= 3 and changes < len(windows)
    assert calls == {"steps": changes, "jacobians": linearizations}


@pytest.fixture(scope="module")
def spline_fit_problem():
    """The problem ``fit_spline_to_poses`` solves, at its initial state:
    control nodes interpolated from noisy poses, away from the fit."""
    gt = wobbly_ground_truth(duration=5.0)
    ts = np.arange(0.0, 5.0, 0.05)
    rng = np.random.default_rng(9)
    pos = gt.position.sample_many(ts) + rng.normal(scale=0.01, size=(ts.size, 3))
    rot = gt.rotation.sample_many(ts)
    problems = []
    solve = ini.solve

    def capture(problem, opts=None):
        problems.append(problem)
        return solve(problem, opts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ini, "solve", capture)
        ini.fit_spline_to_poses(ts, pos, rot, order=6, node_hz=4.0)
    problem, = problems
    problem._layout()
    return problem, problem.initial_state()


def test_spline_fit_exact_jacobians_match_fd(spline_fit_problem):
    problem, state = spline_fit_problem
    assert {g.name for g in problem.groups} == {"r3_fit", "so3_fit"}
    _jacobian_check(problem, state, every_slot=True)


@pytest.mark.parametrize("fixture", ["perturbed_ct", "perturbed_dt",
                                     "spline_fit_problem"])
def test_normal_equations_match_sparse_assembly(request, fixture):
    """The blockwise H and g of the CT, DT and spline-fit problems against
    J^T J and J^T r of the CSR Jacobian."""
    problem, state = request.getfixturevalue(fixture)
    h_err, g_err, nnz, csr_nnz = oracle_errors(problem, state)
    assert h_err <= 1e-12 and g_err <= 1e-12
    assert nnz == csr_nnz


def test_ct_linearize_makes_no_finite_differences(perturbed_ct, monkeypatch):
    """Every CT factor family supplies every slot's Jacobian exactly, each
    from a single kernel evaluation."""
    problem, state = perturbed_ct
    calls = {"fd": 0, "kernel": 0}
    fd_slot = FactorGroup._fd_slot

    def counting_fd_slot(self, *args):
        calls["fd"] += 1
        return fd_slot(self, *args)

    monkeypatch.setattr(FactorGroup, "_fd_slot", counting_fd_slot)
    ct_families = [g for g in problem.groups if g.name in
                   ("ct_reproj", "ct_accel", "ct_gyro", "ct_gps",
                    "ct_bias_rate")]
    assert len(ct_families) == 6  # two bias-rate groups: accel and gyro
    for group in ct_families:
        kernel = group.kernel

        def counting_kernel(*args, _kernel=kernel, **kwargs):
            calls["kernel"] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(group, "kernel", counting_kernel)
    _, J, _ = problem.linearize(state)
    assert calls == {"fd": 0, "kernel": 6}
    assert not any(np.any(g.jumps(*g.inputs(problem, state)[::2])) for g in problem.groups)
    assert all(np.all(np.isfinite(M)) for M, _ in J.blocks)


def _per_observation_sample(group, ctx, pose, t, jacobians=False):
    """The per-observation reference of ``_SplineGroup._sample``: the
    window kernels run once per factor, on the windows taken per factor."""
    k, dt = group.grid.order, group.grid.dt
    seg, each, _ = ctx
    posw, rotw = (x.take(each, axis=0) for x in pose)
    u = (t - group.grid.t0) / dt - seg.take(each)
    p = bs.r3_window_eval(posw, u, k, dt)
    if not jacobians:
        return p, bs.so3_window_eval(rotw, u, k)
    R, JR = bs.so3_window_eval(rotw, u, k, jacobians=True)
    return (p, R, bs.r3_window_eval(posw, u, k, dt, 1),
            bs.so3_window_angvel(rotw, u, k, dt),
            partial(est._pose_window_jacobians, JR=window_jacobian(JR),
                    coeff=bs.window_node_coefficients(k, u)))


def test_ct_reproj_samples_the_spline_once_per_frame(perturbed_ct,
                                                     monkeypatch):
    """The CT reprojection family passes the window kernels one row per
    distinct frame stamp, in a linearization and in a trial residual, and
    gives the same bits as sampling once per observation."""
    problem, state = perturbed_ct
    group, = [g for g in problem.groups if g.name == "ct_reproj"]
    frames = np.unique(group.stamps).size
    assert frames < group.stamps.size
    rows = []
    for name in ("r3_window_eval", "so3_window_eval", "so3_window_angvel"):
        def counting(windows, u, *args, _kernel=getattr(bs, name), **kwargs):
            rows.append(u.shape[0])
            return _kernel(windows, u, *args, **kwargs)

        monkeypatch.setattr(bs, name, counting)
    r, slots, jacs = group.linearize(problem, state)
    assert rows == [frames] * 4  # p, R with its Jacobians, pdot, omega
    rows.clear()
    trial = group.residuals(problem, state)
    assert rows == [frames] * 2
    assert np.array_equal(trial, r)

    monkeypatch.setattr(group, "_sample", partial(_per_observation_sample,
                                                  group))
    r_ref, _, jacs_ref = group.linearize(problem, state)
    assert np.array_equal(r_ref, r)
    assert np.array_equal(group.residuals(problem, state), trial)
    assert sorted(jacs_ref) == sorted(jacs) == list(range(len(slots)))
    for si in jacs:
        assert np.array_equal(jacs_ref[si], jacs[si]), si


def test_ct_solve_tests_for_jumps_once_at_the_returned_state(perturbed_ct,
                                                             monkeypatch):
    """A CT solve calls each family's ``jumps`` once, on the kernel inputs
    at the state it returns, and at none of its linearizations."""
    problem, _ = perturbed_ct
    seen = []
    for group in problem.groups:
        def recording(ctx, gathered, _group=group, _jumps=group.jumps):
            seen.append((_group, gathered))
            return _jumps(ctx, gathered)

        monkeypatch.setattr(group, "jumps", recording)
    linearizations = []
    linearize = Problem.linearize
    monkeypatch.setattr(Problem, "linearize",
                        lambda self, s: linearizations.append(s) or linearize(self, s))
    state, report = solve(problem, SolveOptions(max_iter=3))
    assert len(linearizations) >= 2 and report.jump_rows == 0
    assert [g for g, _ in seen] == problem.groups
    for group, gathered in seen:
        at_state = group.inputs(problem, state)[2]
        assert all(np.array_equal(a, b) for a, b in zip(gathered, at_state, strict=True))


def test_ct_reproj_kernel_makes_one_window_pass(perturbed_ct, monkeypatch):
    """One CT reprojection kernel call with Jacobians samples the rotation
    and the angular velocity from one SO(3) window pass: it forms the node
    differences of its rotation windows once, not once per window kernel."""
    problem, state = perturbed_ct
    group, = [g for g in problem.groups if g.name == "ct_reproj"]
    ctx, _, gathered = group.inputs(problem, state)
    formed = []
    diffs = bs.so3_window_diffs
    monkeypatch.setattr(bs, "so3_window_diffs",
                        lambda windows: formed.append(windows.shape[0]) or diffs(windows))
    group.kernel(ctx, gathered, jacobians=True)
    assert formed == [gathered[1].shape[0]]


def test_bias_rate_residual_is_weighted_bias_velocity():
    """At nonzero bias nodes the bias-rate residual is w b'(t), the time
    derivative of the bias spline, and its Jacobians match finite
    differences: on a 0.5 s grid a lost 1/dt halves either."""
    rng = np.random.default_rng(4)
    grid = bs.grid_covering(0.0, 5.0, 0.5, 4)
    spline = bs.SplineR3(grid, rng.normal(scale=0.1, size=(grid.count, 3)))
    problem = Problem()
    b0 = problem.add_euclidean("b0", spline.nodes[0])
    for i in range(1, grid.count):
        problem.add_euclidean(f"b{i}", spline.nodes[i])
    lo, hi = grid.domain
    t = np.linspace(lo, hi, 23, endpoint=False)
    group = est.CtBiasRateGroup(grid, b0, t, 2.5)
    problem.add_group(group)
    problem._layout()
    state = problem.initial_state()
    expected = 2.5 * spline.sample_many(t, derivative=1)
    assert np.abs(expected).max() > 0.1
    assert np.allclose(group.residuals(problem, state), expected,
                       rtol=1e-12, atol=1e-12)
    _jacobian_check(problem, state)


@pytest.fixture(scope="module")
def zero_offset_sim():
    gt = wobbly_ground_truth(duration=5.0)
    rig = sim.default_rig()  # zero clock offsets
    noise = noiseless_spec()
    result = sim.synthesize(gt, rig, noise, num_landmarks=120)
    return gt, rig, noise, result


def true_dt_state(gt, rig, meas):
    stamps = meas.frame_t_ns * 1e-9
    return DtState(
        t_ns=meas.frame_t_ns,
        positions=gt.position.sample_many(stamps),
        rotations=gt.rotation.sample_many(stamps),
        velocities=gt.position.sample_many(stamps, derivative=1),
        bias_accel=np.zeros((stamps.size, 3)),
        bias_gyro=np.zeros((stamps.size, 3)),
        landmarks={int(k): v.copy() for k, v in meas.landmarks_true.items()},
        t_cam_imu=rig.t_cam_imu, t_gps_imu=rig.t_gps_imu,
    )


def test_dt_reprojection_vanishes_at_truth(zero_offset_sim):
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    state0 = true_dt_state(gt, rig, meas)
    cfg = est.DtConfig(use_imu=False)
    problem = est.build_dt_problem(meas, state0, cfg, noise, rig)
    problem._layout()
    state = problem.initial_state()
    for group in problem.groups:
        if group.name == "dt_reproj":
            r = group.residuals(problem, state)
            assert np.max(np.abs(r)) < 1e-9


def test_dt_factor_counts(zero_offset_sim):
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    state0 = true_dt_state(gt, rig, meas)
    problem = est.build_dt_problem(meas, state0, est.DtConfig(), noise, rig)
    K = len(meas.frames)
    n_obs = sum(len(f.landmark_ids) for f in meas.frames)
    counts = problem.factor_counts
    assert counts["reprojection"] == n_obs
    assert counts["preintegration"] == K - 1
    assert counts["bias_walk"] == K - 1
    assert counts["gps"] <= meas.gps_t_ns.size
    assert counts["total"] == sum(
        v for k, v in counts.items() if k != "total"
    )


@pytest.fixture(scope="module")
def perturbed_dt(zero_offset_sim):
    """DT problem linearized away from the optimum: positions, rotations,
    landmarks and the GPS clock offset are all off the truth, so that every
    GPS Jacobian column is nontrivial."""
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    rng = np.random.default_rng(6)
    state0 = true_dt_state(gt, rig, meas)
    state0.positions += rng.normal(scale=0.01, size=state0.positions.shape)
    state0.rotations = state0.rotations @ so3_exp(
        rng.normal(scale=0.02, size=(state0.rotations.shape[0], 3)))
    for lid in state0.landmarks:
        state0.landmarks[lid] += rng.normal(scale=0.02, size=3)
    state0 = dataclasses.replace(state0, t_gps_imu=rig.t_gps_imu - 0.003)
    problem = est.build_dt_problem(meas, state0, est.DtConfig(), noise, rig)
    problem._layout()
    return problem, problem.initial_state()


def test_dt_exact_jacobians_match_fd(perturbed_dt):
    problem, state = perturbed_dt
    _jacobian_check(problem, state)


def test_dt_linearize_makes_finite_differences_only_for_preintegration(
        perturbed_dt, monkeypatch):
    """In a DT linearization only the preintegration family fills slots by
    finite differences; the GPS family supplies all six slots exactly from
    one kernel evaluation."""
    problem, state = perturbed_dt
    fd_groups = []
    gps_kernels = []
    fd_slot = FactorGroup._fd_slot

    def counting_fd_slot(self, *args):
        fd_groups.append(self.name)
        return fd_slot(self, *args)

    monkeypatch.setattr(FactorGroup, "_fd_slot", counting_fd_slot)
    gps, = [g for g in problem.groups if g.name == "dt_gps"]
    kernel = gps.kernel

    def counting_kernel(*args, **kwargs):
        gps_kernels.append(kwargs.get("jacobians", False))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(gps, "kernel", counting_kernel)
    _, J, _ = problem.linearize(state)
    assert fd_groups and set(fd_groups) == {"dt_preint"}
    assert gps_kernels == [True]
    assert not any(np.any(g.jumps(*g.inputs(problem, state)[::2])) for g in problem.groups)
    assert all(np.all(np.isfinite(M)) for M, _ in J.blocks)


def test_dt_reprojection_linearize_makes_no_finite_differences(perturbed_dt):
    """The DT reprojection family is exact in every slot, so one kernel
    evaluation linearizes it."""
    problem, state = perturbed_dt
    group, = [g for g in problem.groups if g.name == "dt_reproj"]
    calls = []
    kernel = group.kernel

    def counting_kernel(*args, **kwargs):
        calls.append(kwargs.get("jacobians", False))
        return kernel(*args, **kwargs)

    group.kernel = counting_kernel
    try:
        group.linearize(problem, state)
    finally:
        del group.kernel
    assert calls == [True]


def _plain_preint_kernel(ctx, gathered, jacobians=False):
    """The preintegration kernel that reuses nothing, the oracle of
    ``DtPreintGroup.kernel``: every part evaluated at every call."""
    p, R, v, ba_i, bg_i = gathered
    pim, W = ctx
    e = pre.preint_residual(R[:, 0], p[:, 0], v[:, 0], ba_i, bg_i, R[:, 1],
                            p[:, 1], v[:, 1], pim)
    r = np.einsum("nij,nj->ni", W, e)
    return (r, {}) if jacobians else r


def _bias_moved(problem, state, seed):
    """``state`` with every frame's biases moved away from those the
    preintegration was linearized at."""
    rng = np.random.default_rng(seed)
    return _moved(problem, state, {(b.name, i): rng.normal(scale=0.02)
                                   for b in problem.blocks
                                   if b.name[:2] in ("ba", "bg") for i in range(3)})


@pytest.mark.parametrize("biases", ["at_linearization", "moved"])
def test_dt_preint_linearize_equals_plain_finite_differences(perturbed_dt,
                                                             biases):
    """The reused residual parts change no bit: the residuals and every
    slot's central differences equal those through the plain kernel, at
    the biases the segments were integrated at and away from them."""
    problem, state = perturbed_dt
    if biases == "moved":
        state = _bias_moved(problem, state, 4)
    group, = [g for g in problem.groups if g.name == "dt_preint"]
    r, slots, jacs = group.linearize(problem, state)
    ctx, _, gathered = group.inputs(problem, state)
    plain = types.SimpleNamespace(kernel=_plain_preint_kernel,
                                  fd_step=group.fd_step)
    assert np.array_equal(r, _plain_preint_kernel(ctx, gathered))
    assert sorted(jacs) == list(range(len(slots)))
    for si, slot in enumerate(slots):
        assert np.array_equal(jacs[si], FactorGroup._fd_slot(
            plain, ctx, gathered, si, slot)), si


def test_dt_preint_linearize_recomputes_only_moved_parts(perturbed_dt,
                                                         monkeypatch):
    """One linearization makes 49 kernel calls (the residuals, then two per
    tangent direction of the 24 in the pair windows and the 6 of the
    biases) but corrects the biases only when a bias moved (13 times),
    forms the rotation term when R or b_gyro moved and once more when R
    returns to its value for the steps of v (20), the velocity term unless p
    alone moved (37) and the position term at every call."""
    problem, state = perturbed_dt
    group, = [g for g in problem.groups if g.name == "dt_preint"]
    calls = dict.fromkeys(("kernel", "corrected", "rotation_term",
                           "velocity_term", "position_term"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(group, "kernel", counting("kernel", group.kernel))
    monkeypatch.setattr(pre.PreintegratedImu, "corrected", counting(
        "corrected", pre.PreintegratedImu.corrected))
    for name in ("rotation_term", "velocity_term", "position_term"):
        monkeypatch.setattr(pre, name, counting(name, getattr(pre, name)))
    group.linearize(problem, state)
    assert calls == {"kernel": 49, "corrected": 13, "rotation_term": 20,
                     "velocity_term": 37, "position_term": 49}


def test_dt_preint_kernel_recomputes_a_slot_whose_values_changed(perturbed_dt):
    """After a call, a call with any one slot replaced by other values (the
    others the same arrays) gives the plain kernel's bits, and so does the
    call at the first values again."""
    problem, state = perturbed_dt
    group, = [g for g in problem.groups if g.name == "dt_preint"]
    ctx, slots, gathered = group.inputs(problem, state)
    rng = np.random.default_rng(9)
    base = _plain_preint_kernel(ctx, gathered)
    assert np.array_equal(group.kernel(ctx, gathered), base)
    for si, value in enumerate(gathered):
        if si == 1:  # rotations
            other = value @ so3_exp(rng.normal(scale=0.01, size=value.shape[:-1]))
        else:
            other = value + rng.normal(scale=0.01, size=value.shape)
        moved = gathered[:si] + [other] + gathered[si + 1:]
        assert np.array_equal(group.kernel(ctx, moved),
                              _plain_preint_kernel(ctx, moved)), si
        assert np.array_equal(group.kernel(ctx, gathered), base), si


def test_dt_preint_forms_dR_only_when_b_gyro_moved(perturbed_dt, monkeypatch):
    """dR reads b_gyro alone, so a linearization forms it 7 times (the
    residuals, then the 6 steps of b_gyro), one ``so3_exp`` item per segment
    each, not at each of the 13 bias corrections; the 6 steps of b_accel
    keep it.  The residuals and every slot's Jacobian are the bits of a
    linearization that forms dR at every kernel call."""
    problem, state = perturbed_dt
    group, = [g for g in problem.groups if g.name == "dt_preint"]
    segments = group.ctx[0].dR.shape[0]
    items, calls = [], dict.fromkeys(("corrected", "corrected_rotation"), 0)
    exp = pre.so3_exp

    def counting_exp(phi):
        items.append(np.shape(phi)[0])
        return exp(phi)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(pre, "so3_exp", counting_exp)
    for name in calls:
        monkeypatch.setattr(pre.PreintegratedImu, name, counting(
            name, getattr(pre.PreintegratedImu, name)))
    r, slots, jacs = group.linearize(problem, state)
    assert calls == {"corrected": 13, "corrected_rotation": 7}
    assert sum(items) == 7 * segments

    reuse = group._reuse
    monkeypatch.setattr(group, "_reuse", lambda part, key, compute, *args: (
        compute(*args) if part == "dR" else reuse(part, key, compute, *args)))
    items.clear()
    r_every, _, jacs_every = group.linearize(problem, state)
    assert sum(items) == 49 * segments
    assert np.array_equal(r, r_every)
    assert sorted(jacs) == sorted(jacs_every) == list(range(len(slots)))
    for si in jacs:
        assert np.array_equal(jacs[si], jacs_every[si]), si


def test_ct_run_never_preintegrates(short_sim, monkeypatch):
    """CT fits its spline to the raw IMU samples: a CT run with the camera
    completes with ``integrate`` and the bias correction raising, where a
    DT run stops at its build."""
    rig, noise, meas = short_sim

    def no_preintegration(*args, **kwargs):
        raise AssertionError("preintegrated")

    monkeypatch.setattr(pre, "integrate", no_preintegration)
    for name in ("corrected", "corrected_rotation"):
        monkeypatch.setattr(pre.PreintegratedImu, name, no_preintegration)
    out = est.run(meas, rig, noise, est.CtConfig(max_iter=3), mode="ct", seed=0)
    assert out.positions.shape == (len(meas.frames), 3)
    assert np.all(np.isfinite(out.positions))
    with pytest.raises(AssertionError, match="preintegrated"):
        est.run(meas, rig, noise, est.DtConfig(max_iter=3), mode="dt", seed=0)


def test_dt_preint_segments_integrate_their_own_imu_slice():
    """Each segment hands ``integrate`` only the samples around it, at the
    biases of its first frame, and gets exactly what integrating the whole
    hold-extended stream gives, with frame stamps on, between and outside
    the sample stamps; the stacked whitening equals the per-segment one."""
    rng = np.random.default_rng(8)
    imu_t = np.cumsum(rng.uniform(0.004, 0.006, size=200))
    gyro = rng.normal(size=(200, 3))
    accel = rng.normal(size=(200, 3)) + [0.0, 0.0, 9.81]
    frame_times = np.concatenate([[imu_t[0] - 0.002], imu_t[[20, 51]],
                                  [imu_t[90] + 0.003, imu_t[-1] + 0.001]])
    K = frame_times.size
    ba = rng.normal(scale=0.05, size=(K, 3))
    bg = rng.normal(scale=0.01, size=(K, 3))
    ids = {k: np.arange(K) for k in ("p", "R", "v", "ba", "bg")}
    group = est.DtPreintGroup(ids, imu_t, gyro, accel, frame_times, ba, bg,
                              2e-3, 3e-2)
    held_t = np.concatenate([frame_times[:1], imu_t, frame_times[-1:]])
    held_gyro, held_accel = (np.concatenate([x[:1], x, x[-1:]])
                             for x in (gyro, accel))
    pim, W = group.ctx
    wholes = [pre.integrate(held_t, held_gyro, held_accel,
                            bias_lin=(ba[n], bg[n]), gyro_sigma=2e-3,
                            accel_sigma=3e-2, t_start=frame_times[n],
                            t_end=frame_times[n + 1]) for n in range(K - 1)]
    for f in ("dR", "dv", "dp", "covariance", "J_bias"):
        assert np.array_equal(getattr(pim, f),
                              np.stack([getattr(w, f) for w in wholes])), f
    assert np.array_equal(pim.bias_lin[0], ba[:-1])
    assert np.array_equal(pim.bias_lin[1], bg[:-1])
    assert np.array_equal(W, np.stack([w.sqrt_info() for w in wholes]))


def test_dt_bias_walk_whitens_by_density_and_frame_gap():
    """A bias step over a frame gap dt has standard deviation
    density * sqrt(dt)."""
    ids = {"ba": np.array([0, 2]), "bg": np.array([1, 3])}
    group = est.DtBiasWalkGroup(ids, np.array([0.0, 0.25]), accel_rw=1e-3,
                                gyro_rw=1e-4)
    ba = np.array([[[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]]])
    bg = np.array([[[0.0, 0.0, 0.0], [0.0, 2e-4, 0.0]]])
    r = group.kernel(None, [ba, bg])
    assert np.isclose(r[0, 0], 1e-3 / (1e-3 * 0.5))
    assert np.isclose(r[0, 4], 2e-4 / (1e-4 * 0.5))
    assert np.count_nonzero(r) == 2


@pytest.mark.parametrize("which", ["perturbed_ct", "perturbed_dt",
                                   "spline_fit_problem"])
def test_kernel_residuals_same_with_and_without_jacobians(which, request):
    """LM accepts a step by comparing the trial cost, from
    ``kernel(ctx, gathered)``, with the cost at the linearization, from
    ``kernel(ctx, gathered, jacobians=True)``: both must give the same
    residual bits."""
    problem, state = request.getfixturevalue(which)
    for group in problem.groups:
        ctx, slots, gathered = group.inputs(problem, state)
        r, _ = group.kernel(ctx, gathered, jacobians=True)
        assert np.array_equal(r, group.kernel(ctx, gathered)), group.name


def _moved(problem, state, moves):
    """A copy of ``state`` with ``{(block name, entry): step}`` added."""
    store = {b.name: b.store for b in problem.blocks}
    out = state.copy()
    for (name, i), step in moves.items():
        out.euc[store[name] + i] += step
    return out


@pytest.mark.parametrize("which, far, near", [
    ("perturbed_ct", {("t_cam", 0): 0.02, ("t_gps", 0): -0.02},
     {("t_cam", 0): 0.005, ("t_gps", 0): -0.005}),
    ("perturbed_dt", {("bg3", 0): 0.15}, {("bg3", 0): 0.08}),
], ids=["ct", "dt"])
def test_residuals_do_not_depend_on_evaluation_history(which, far, near, request):
    """The cost is a function of the state alone: after the residuals at
    the initial state, those at a nearby state are bit-equal whether or not
    a far trial (an LM step that is then rejected) was evaluated between.
    For DT the trial moves one frame's gyroscope bias by 0.15 rad/s, the
    nearby state by 0.08 rad/s."""
    problem, state = request.getfixturevalue(which)
    problem.residual_vector(state)
    direct = problem.residual_vector(_moved(problem, state, near))
    problem.residual_vector(_moved(problem, state, far))
    assert np.array_equal(problem.residual_vector(_moved(problem, state, near)),
                          direct)


def test_dt_imu_gap_rejected(zero_offset_sim):
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    state0 = true_dt_state(gt, rig, meas)
    # carve a gap longer than the frame interval out of the IMU stream
    t = meas.imu_t_ns * 1e-9
    mid = t[len(t) // 2]
    keep = (t < mid) | (t > mid + 0.25)
    import dataclasses as dc
    gappy = dc.replace(
        meas, imu_t_ns=meas.imu_t_ns[keep], gyro=meas.gyro[keep],
        accel=meas.accel[keep],
    )
    with pytest.raises(DataError, match="gap"):
        est.build_dt_problem(gappy, state0, est.DtConfig(), noise, rig)
    # the continuous-time builder applies the same check
    ct_state0 = true_ct_state(gt, rig, meas.landmarks_true)
    with pytest.raises(DataError, match="gap"):
        est.build_ct_problem(gappy, ct_state0, est.CtConfig(), noise, rig)


def test_run_rejects_imu_gap_before_initialization(zero_offset_sim, monkeypatch):
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    t = meas.imu_t_ns * 1e-9
    mid = t[len(t) // 2]
    keep = (t < mid) | (t > mid + 0.25)
    gappy = dataclasses.replace(
        meas, imu_t_ns=meas.imu_t_ns[keep], gyro=meas.gyro[keep],
        accel=meas.accel[keep],
    )

    def no_initialization(*args, **kwargs):
        raise AssertionError("initialization ran on a gappy IMU stream")

    monkeypatch.setattr(est, "initialize_ct", no_initialization)
    monkeypatch.setattr(est, "initialize_dt", no_initialization)
    for cfg, mode in ((est.CtConfig(), "ct"), (est.DtConfig(), "dt")):
        with pytest.raises(DataError, match="gap"):
            est.run(gappy, rig, noise, cfg, mode=mode)


def test_ct_gps_without_fixes_is_data_error(tiny_noiseless, monkeypatch):
    """With GPS enabled and a GPS stream of no fixes, the CT builder raises a
    DataError that says so, and a full run raises it before the
    initialization; with GPS off the same data build."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    empty = dataclasses.replace(meas, gps_t_ns=meas.gps_t_ns[:0], gps=meas.gps[:0])
    state0 = true_ct_state(gt, rig, meas.landmarks_true)
    message = "GPS is enabled but the GPS stream has no fixes"
    with pytest.raises(DataError, match=message):
        est.build_ct_problem(empty, state0, est.CtConfig(), noise, rig)

    def no_initialization(*args, **kwargs):
        raise AssertionError("initialization ran on a GPS stream of no fixes")

    monkeypatch.setattr(est, "initialize_ct", no_initialization)
    with pytest.raises(DataError, match=message):
        est.run(empty, rig, noise, est.CtConfig(), mode="ct")
    est.build_ct_problem(empty, state0, est.CtConfig(use_gps=False), noise, rig)


@pytest.mark.parametrize("fixes", ["none", "outside the pose span"])
def test_dt_gps_without_fixes_in_span_is_data_error(zero_offset_sim, fixes):
    """With GPS enabled, the DT builder raises a DataError that names the
    cause when the GPS stream has no fixes, and when every fix lies more
    than offset_bound + 1 ms outside the pose span (the default 50 ms
    bound: 51 ms)."""
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    state0 = true_dt_state(gt, rig, meas)
    if fixes == "none":
        data = dataclasses.replace(meas, gps_t_ns=meas.gps_t_ns[:0], gps=meas.gps[:0])
        message = "GPS is enabled but the GPS stream has no fixes"
    else:
        data = dataclasses.replace(meas, gps_t_ns=meas.gps_t_ns + 100_000_000_000)
        t = meas.frame_t_ns * 1e-9
        message = (rf"GPS is enabled but none of its {meas.gps_t_ns.size} fixes "
                   rf"lies within 0\.0510 s of the pose span "
                   rf"\[{t[0]:.3f}, {t[-1]:.3f}\] s")
    with pytest.raises(DataError, match=message):
        est.build_dt_problem(data, state0, est.DtConfig(), noise, rig)
    est.build_dt_problem(data, state0, est.DtConfig(use_gps=False), noise, rig)


@pytest.mark.parametrize("side", ["start", "end"])
def test_dt_imu_coverage_error_names_side_gap_and_slack(zero_offset_sim, side):
    """Frames that reach 70 ms past an end of the IMU stream exceed the
    default slack of offset_bound + 10 ms = 60 ms; the error gives the
    side, the gap and the slack, and names offset_bound, which widens it."""
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    ft = meas.frame_t_ns
    shift = (meas.imu_t_ns[0] - 70_000_000 - ft[0] if side == "start"
             else meas.imu_t_ns[-1] + 70_000_000 - ft[-1])
    shifted = dataclasses.replace(meas, frames=[
        dataclasses.replace(f, t_ns=f.t_ns + int(shift)) for f in meas.frames])
    ft = shifted.frame_t_ns
    message = (rf"IMU does not cover the pose span: its {side} lies "
               rf"0\.0700 s inside the frames', more than the allowed "
               rf"slack of 0\.0600 s \(offset_bound \+ 10 ms; a larger "
               rf"offset_bound widens it\)")
    state0 = dataclasses.replace(true_dt_state(gt, rig, meas), t_ns=ft)
    with pytest.raises(DataError, match=message):
        est.build_dt_problem(shifted, state0, est.DtConfig(), noise, rig)
    # the same error ends a full run
    if side == "start":
        with pytest.raises(DataError, match=message):
            est.run(shifted, rig, noise, est.DtConfig(), mode="dt")
    # a bound past the gap lets the problem be built
    est.build_dt_problem(shifted, state0, est.DtConfig(offset_bound=0.1),
                         noise, rig)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_run_rejects_a_seed_that_is_no_non_negative_int(zero_offset_sim,
                                                        monkeypatch, seed):
    """A bad seed is named before the initialization, which would pass it
    to numpy's RNG."""
    _, rig, noise, result = zero_offset_sim

    def no_initialization(*args, **kwargs):
        raise AssertionError("initialization ran with a bad seed")

    monkeypatch.setattr(est, "initialize_ct", no_initialization)
    monkeypatch.setattr(est, "initialize_dt", no_initialization)
    for cfg, mode in ((est.CtConfig(), "ct"), (est.DtConfig(), "dt")):
        with pytest.raises(InvalidArgumentError, match="seed"):
            est.run(result.measurements, rig, noise, cfg, mode=mode, seed=seed)


def _first_frames(meas, n):
    return dataclasses.replace(meas, frames=meas.frames[:n])


def test_initial_frame_poses_skips_degenerate_frames(tiny_noiseless,
                                                     monkeypatch):
    """A frame whose PnP is degenerate inherits its neighbor's pose."""
    _, rig, _, result = tiny_noiseless
    meas = _first_frames(result.measurements, 3)
    landmarks = {int(k): v for k, v in result.measurements.landmarks_true.items()}
    pnp = est.pnp_dlt
    calls = []

    def degenerate_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise DegenerateConfigurationError("degenerate PnP configuration")
        return pnp(*args, **kwargs)

    monkeypatch.setattr(est, "pnp_dlt", degenerate_first)
    _, pos, rot = est.initial_frame_poses(meas, rig, landmarks)
    assert len(calls) == 3
    assert np.array_equal(pos[0], pos[1]) and np.array_equal(rot[0], rot[1])
    assert not np.array_equal(pos[1], pos[2])


def test_initial_frame_poses_ties_go_to_the_earlier_frame(tiny_noiseless,
                                                          monkeypatch):
    """Frames 1 and 3 of five fail PnP: frame 1 lies between the PnP poses
    of frames 0 and 2 and takes frame 0's, frame 3 takes frame 2's; PnP
    still runs once per frame."""
    _, rig, _, result = tiny_noiseless
    meas = _first_frames(result.measurements, 5)
    landmarks = {int(k): v for k, v in result.measurements.landmarks_true.items()}
    pnp = est.pnp_dlt
    calls = []

    def failing_odd(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise NumericalFailureError("PnP refinement failed")
        return pnp(*args, **kwargs)

    monkeypatch.setattr(est, "pnp_dlt", failing_odd)
    _, pos, rot = est.initial_frame_poses(meas, rig, landmarks)
    assert len(calls) == 5
    for k, j in enumerate([0, 0, 2, 2, 4]):
        assert np.array_equal(pos[k], pos[j]) and np.array_equal(rot[k], rot[j])
    assert not np.array_equal(pos[0], pos[2])


def test_perturbed_landmarks_draw_three_normals_per_landmark_in_dict_order():
    """One draw of (L, 3) normals gives each landmark, in the dict's order,
    the three numbers a draw per landmark gives it."""
    true = {12: np.array([1.0, 2.0, 3.0]), 3: np.array([-1.0, 0.5, 4.0]),
            7: np.array([0.0, 0.0, 1.0])}
    meas = types.SimpleNamespace(landmarks_true=true)
    got = est._perturbed_landmarks(meas, 0.1, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    want = {i: p + rng.normal(scale=0.1, size=3) for i, p in true.items()}
    assert list(got) == list(want)
    assert all(np.array_equal(got[i], want[i]) for i in want)


def test_initial_frame_poses_lets_other_errors_through(tiny_noiseless,
                                                       monkeypatch):
    """Only a degenerate or numerically failed PnP skips a frame; any
    other exception is a bug and propagates."""
    _, rig, _, result = tiny_noiseless
    meas = _first_frames(result.measurements, 3)
    landmarks = {int(k): v for k, v in result.measurements.landmarks_true.items()}

    def broken(*args, **kwargs):
        raise TypeError("bug in the PnP code")

    monkeypatch.setattr(est, "pnp_dlt", broken)
    with pytest.raises(TypeError, match="bug in the PnP code"):
        est.initial_frame_poses(meas, rig, landmarks)


def test_initialize_ct_contract(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    cfg = est.CtConfig()
    init = est.initialize_ct(meas, rig, cfg, seed=0)
    assert init.t_cam_imu == 0.0
    assert init.t_gps_imu == 0.0
    assert init.bias_accel.grid.order == 4
    # PnP + node placement lands close to the true trajectory at frame times
    stamps = meas.frame_t_ns * 1e-9
    tau = stamps + rig.t_cam_imu
    err = np.linalg.norm(
        init.position.sample_many(stamps) - gt.position.sample_many(tau), axis=1
    )
    # the initializer perturbs the landmark priors, so PnP poses are only
    # coarsely correct; they just need to be in the basin of attraction
    assert np.median(err) < 0.5


def test_initialize_dt_contract(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    init = est.initialize_dt(meas, rig, est.DtConfig(), seed=0)
    assert init.t_ns.size == len(meas.frames)
    assert init.t_cam_imu == 0.0 and init.t_gps_imu == 0.0
    assert np.allclose(init.bias_accel, 0.0)


def test_ct_and_dt_estimate_the_same_unknowns(tiny_noiseless):
    """Beside their trajectory and bias fields, CT and DT estimate the same
    blocks, the landmarks and the two clock offsets; both hold gravity."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    motion = {"position", "rotation", "positions", "rotations", "velocities",
              "bias_accel", "bias_gyro"}
    others, names = [], []
    for initialize, build, cfg in (
            (est.initialize_ct, est.build_ct_problem, est.CtConfig()),
            (est.initialize_dt, est.build_dt_problem, est.DtConfig())):
        init = initialize(meas, rig, cfg, seed=0)
        problem = build(meas, init, cfg, noise, rig)
        # every block is read back into a state field
        assert sorted(b for ids, _ in problem.meta.values() for b in ids) == \
            list(range(len(problem.blocks)))
        fields = problem.meta.keys() - motion
        others.append({problem.blocks[b].name
                       for f in fields for b in problem.meta[f][0]})
        names.append({blk.name for blk in problem.blocks})
    assert others[0] == others[1]
    assert {"t_cam", "t_gps"} < others[0]
    assert len(others[0]) == 2 + len(meas.landmarks_true)
    assert "grav" not in names[0]


def test_no_trajectory_block_held_without_gps(tiny_noiseless):
    """Camera + IMU leaves a free yaw-and-translation gauge: no position or
    rotation block is held in either estimator."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    for initialize, build, cfg in (
            (est.initialize_ct, est.build_ct_problem, est.CtConfig(use_gps=False)),
            (est.initialize_dt, est.build_dt_problem, est.DtConfig(use_gps=False))):
        init = initialize(meas, rig, cfg, seed=0)
        problem = build(meas, init, cfg, noise, rig)
        motion = [b for b in problem.blocks
                  if b.name.rstrip("0123456789") in ("pos", "rot", "p", "R")]
        assert len(motion) > 10
        assert not any(b.fixed for b in motion)


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_stage_one_holds_the_landmarks_and_both_offsets(tiny_noiseless,
                                                         monkeypatch, mode):
    """A camera run builds two problems: stage 1 holds every landmark,
    ``t_cam`` and ``t_gps`` and nothing else, the final problem no block."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    name = f"build_{mode}_problem"
    build, problems = getattr(est, name), []

    def capturing_build(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    monkeypatch.setattr(est, name, capturing_build)
    cfg = (est.CtConfig if mode == "ct" else est.DtConfig)(max_iter=1)
    est.run(meas, rig, noise, cfg, mode=mode)
    stage1, final = problems
    assert {b.name for b in stage1.blocks if b.fixed} == (
        {"t_cam", "t_gps"} | {f"lm{i}" for i in meas.landmarks_true})
    assert not any(b.fixed for b in final.blocks)


def test_extract_roundtrip_ct(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    state0 = true_ct_state(gt, rig, meas.landmarks_true)
    cfg = est.CtConfig()
    problem = est.build_ct_problem(meas, state0, cfg, noise, rig)
    out = est.extract_state(problem, problem.initial_state(), state0)
    assert np.allclose(out.position.nodes, state0.position.nodes)
    assert np.allclose(out.rotation.nodes, state0.rotation.nodes)
    assert out.t_cam_imu == state0.t_cam_imu
    assert out.t_gps_imu == state0.t_gps_imu
    lid = next(iter(state0.landmarks))
    assert np.allclose(out.landmarks[lid], state0.landmarks[lid])


def test_extract_roundtrip_dt(zero_offset_sim):
    gt, rig, noise, result = zero_offset_sim
    meas = result.measurements
    state0 = true_dt_state(gt, rig, meas)
    cfg = est.DtConfig()
    problem = est.build_dt_problem(meas, state0, cfg, noise, rig)
    state = problem.initial_state()
    out = est.extract_state(problem, state, state0)
    assert not np.shares_memory(out.positions, state.euc)
    assert np.allclose(out.positions, state0.positions)
    assert np.allclose(out.rotations, state0.rotations)
    assert np.allclose(out.velocities, state0.velocities)


def test_run_rejects_unknown_mode(tiny_noiseless):
    gt, rig, noise, result = tiny_noiseless
    with pytest.raises(InvalidArgumentError):
        est.run(result.measurements, rig, noise, est.CtConfig(), mode="ukf")


@pytest.fixture(scope="module")
def imu_gps_sim():
    """15 s of the wobbling lemniscate with 0.1 m GPS noise; the camera
    frames only set the stamps of a camera-free DT run's states.  On 5 s of
    it a camera-free solve still ends at its iteration cap."""
    gt = wobbly_ground_truth(duration=15.0)
    rig = sim.default_rig(t_cam_imu=0.010)
    noise = NoiseSpec(cam_hz=10, imu_hz=200, gps_hz=7, seed=3, gps_sigma=0.1)
    return gt, rig, noise, sim.synthesize(gt, rig, noise, num_landmarks=500).measurements


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_camera_free_run_solves_once(mode, imu_gps_sim, monkeypatch):
    """An IMU+GPS run has no landmarks and no camera offset to hold, so it
    builds one problem and solves it once: no fixed-offset stage, and DT
    preintegrates each frame gap once.  It starts from GPS and the gyro and
    runs no PnP.  The estimate converges with ATE-P below the GPS noise."""
    gt, rig, noise, meas = imu_gps_sim
    integrate, segments = pre.integrate, []

    def counting(*args, **kwargs):
        segments.append(kwargs["t_start"])
        return integrate(*args, **kwargs)

    def no_pnp(*args, **kwargs):
        raise AssertionError("a camera-free run ran PnP")

    monkeypatch.setattr(pre, "integrate", counting)
    monkeypatch.setattr(est, "pnp_dlt", no_pnp)
    cfg = (est.CtConfig if mode == "ct" else est.DtConfig)(use_cam=False)
    out = est.run(meas, rig, noise, cfg, mode=mode, seed=0)
    assert list(out.stage_reports) == ["solve"]
    assert "solve_fixed_offsets" not in out.stage_seconds
    if mode == "dt":
        assert len(segments) == len(set(segments)) == len(meas.frames) - 1
    assert out.report.termination == "converged"
    err = out.positions - gt.position.sample_many(out.t_ns * 1e-9)
    assert np.sqrt(np.mean(np.sum(err**2, axis=1))) < noise.gps_sigma


def test_camera_free_dt_start_reaches_the_pnp_start_minimum(imu_gps_sim):
    """A camera-free DT run, started from GPS and gyro poses, ends within
    1e-6 relative of the final cost of a solve started from the PnP poses
    of the frames."""
    gt, rig, noise, meas = imu_gps_sim
    cfg = est.DtConfig(use_cam=False)
    out = est.run(meas, rig, noise, cfg, mode="dt", seed=0)
    landmarks = est._perturbed_landmarks(meas, cfg.landmark_sigma,
                                         np.random.default_rng(0))
    stamps, pos, rot = est.initial_frame_poses(meas, rig, landmarks)
    zeros = np.zeros((len(stamps), 3))
    pnp_start = DtState(
        t_ns=meas.frame_t_ns, positions=pos, rotations=rot,
        velocities=np.gradient(pos, stamps, axis=0), bias_accel=zeros,
        bias_gyro=zeros, landmarks={}, t_cam_imu=0.0, t_gps_imu=0.0)
    _, report = solve(est.build_dt_problem(meas, pnp_start, cfg, noise, rig),
                      SolveOptions(max_iter=cfg.max_iter))
    assert report.converged and out.report.converged
    assert abs(out.report.final_cost - report.final_cost) <= 1e-6 * report.final_cost


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_camera_free_estimate_draws_no_landmark_prior(mode, imu_gps_sim):
    """A camera-free run reads neither the scene's landmarks nor the
    estimator seed: with ``landmarks_true`` empty and another seed, the
    estimate is bit for bit the same."""
    gt, rig, noise, meas = imu_gps_sim
    cfg = (est.CtConfig if mode == "ct" else est.DtConfig)(use_cam=False)
    a = est.run(meas, rig, noise, cfg, mode=mode, seed=0)
    b = est.run(dataclasses.replace(meas, landmarks_true={}), rig, noise, cfg,
                mode=mode, seed=7)
    assert a.state.landmarks == {} and b.state.landmarks == {}
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.rotations, b.rotations)
    assert a.t_gps_imu == b.t_gps_imu
    assert a.report.cost_history == b.report.cost_history


def test_camera_free_run_without_frames(imu_gps_sim):
    """With no camera frames at all, a camera-free CT run fits its start to
    poses at the IMU stamps and converges, its spline within the GPS noise
    of the truth; DT, which places one state per camera frame, raises a
    DataError that says so."""
    gt, rig, noise, meas = imu_gps_sim
    bare = dataclasses.replace(meas, frames=[], landmarks_true={})
    out = est.run(bare, rig, noise, est.CtConfig(use_cam=False), mode="ct")
    assert out.report.converged and out.t_ns.size == 0
    t = bare.seconds(bare.imu_t_ns)
    err = out.state.position.sample_many(t) - gt.position.sample_many(
        bare.imu_t_ns * 1e-9)
    assert np.sqrt(np.mean(np.sum(err**2, axis=1))) < noise.gps_sigma
    with pytest.raises(DataError, match="DT places one state per camera frame"):
        est.run(bare, rig, noise, est.DtConfig(use_cam=False), mode="dt")


EPOCH_NS = 1_700_000_000 * 1_000_000_000  # a whole number of seconds


@pytest.fixture(scope="module")
def short_sim():
    """The 5 s dataset of ``_REPRO_DATA`` below: rig, noise, measurements."""
    gt = wobbly_ground_truth(duration=5.0)
    rig = sim.default_rig(t_cam_imu=0.010)
    noise = NoiseSpec(cam_hz=10, imu_hz=200, gps_hz=7, seed=3, gps_sigma=0.1)
    return rig, noise, sim.synthesize(gt, rig, noise,
                                      num_landmarks=80).measurements


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_estimates_do_not_depend_on_the_epoch(mode, short_sim):
    """Every IMU, GPS and frame stamp moved by 1.7e18 ns leaves the estimate
    bit for bit as it was: the estimators count seconds from the first IMU
    stamp, subtracted exactly.  Positions, rotations, both offsets, the cost
    history and the termination are the unshifted run's."""
    rig, noise, meas = short_sim
    shifted = dataclasses.replace(
        meas, imu_t_ns=meas.imu_t_ns + EPOCH_NS,
        gps_t_ns=meas.gps_t_ns + EPOCH_NS,
        frames=[dataclasses.replace(f, t_ns=f.t_ns + EPOCH_NS)
                for f in meas.frames])
    cfg = est.CtConfig() if mode == "ct" else est.DtConfig()
    a, b = (est.run(m, rig, noise, cfg, mode=mode, seed=0)
            for m in (meas, shifted))
    assert np.array_equal(b.t_ns, a.t_ns + EPOCH_NS)
    assert np.array_equal(b.positions, a.positions)
    assert np.array_equal(b.rotations, a.rotations)
    assert (b.t_cam_imu, b.t_gps_imu) == (a.t_cam_imu, a.t_gps_imu)
    assert b.report.cost_history == a.report.cost_history
    assert b.report.termination == a.report.termination


# A small DT and CT estimate in a fresh interpreter: the 5 s dataset, then
# in _REPRO_SCRIPT the printed poses, offsets and final costs, exact (hex
# floats and hashes of the raw bytes).
_REPRO_DATA = """
import hashlib, json
import numpy as np
from splinefusion import estimators as est, simulate as sim
from splinefusion.dataset import NoiseSpec

gt = sim.make_ground_truth("lemniscate", duration=5.0, margin=0.6, radius=2.5,
                           rate=0.7, wobble_roll=0.25, wobble_pitch=0.2,
                           wobble_rate=1.3)
rig = sim.default_rig(t_cam_imu=0.010)
noise = NoiseSpec(cam_hz=10, imu_hz=200, gps_hz=7, seed=3, gps_sigma=0.1)
data = sim.synthesize(gt, rig, noise, num_landmarks=80)
result = {}
"""
_REPRO_SCRIPT = _REPRO_DATA + """
for mode, cfg in (("dt", est.DtConfig()), ("ct", est.CtConfig())):
    out = est.run(data.measurements, rig, noise, cfg, mode=mode, seed=0)
    result[mode] = {
        "positions": hashlib.sha256(out.positions.tobytes()).hexdigest(),
        "rotations": hashlib.sha256(out.rotations.tobytes()).hexdigest(),
        "t_cam_imu": float(out.t_cam_imu).hex(),
        "t_gps_imu": float(out.t_gps_imu).hex(),
        "final_cost": float(out.report.final_cost).hex(),
        "termination": out.report.termination,
    }
print(json.dumps(result))
"""


def test_estimates_are_bit_reproducible_at_one_blas_thread():
    """Two processes with BLAS pinned to one thread give the same bytes for
    the DT and the CT poses, clock offsets and final costs."""
    src = Path(est.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    procs = [subprocess.Popen([sys.executable, "-c", _REPRO_SCRIPT], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert [outputs[0][mode]["termination"] for mode in ("dt", "ct")] == [
        "converged", "converged"]
    assert time.perf_counter() - start < 15.0


# The same estimates with their values in full and the iterations and
# termination of every stage.
_THREADS_SCRIPT = _REPRO_DATA + """
for mode, cfg in (("dt", est.DtConfig()), ("ct", est.CtConfig())):
    out = est.run(data.measurements, rig, noise, cfg, mode=mode, seed=0)
    result[mode] = {
        "positions": out.positions.tolist(),
        "rotations": out.rotations.tolist(),
        "t_cam_imu": out.t_cam_imu,
        "t_gps_imu": out.t_gps_imu,
        "stages": {stage: [rep.iterations, rep.termination]
                   for stage, rep in out.stage_reports.items()},
    }
print(json.dumps(result))
"""


def test_estimates_at_two_blas_threads_stay_near_one_thread():
    """BLAS sums in another order with two threads, so the estimates are
    not bit-equal to one thread's, but they stay within 1e-8 m in every
    position, 1e-8 in every rotation entry and 1e-9 s in each clock offset,
    with the same iterations and termination in every stage."""
    src = Path(est.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen(
        [sys.executable, "-c", _THREADS_SCRIPT],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                 MKL_NUM_THREADS=n, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for n in ("1", "2")]
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout.splitlines()[-1]))
    for mode in ("dt", "ct"):
        a, b = (out[mode] for out in outputs)
        assert a["stages"] == b["stages"], mode
        assert a["stages"]["solve"][1] == "converged", mode
        dp = np.abs(np.subtract(a["positions"], b["positions"])).max()
        dR = np.abs(np.subtract(a["rotations"], b["rotations"])).max()
        assert dp <= 1e-8 and dR <= 1e-8, mode
        assert abs(a["t_cam_imu"] - b["t_cam_imu"]) <= 1e-9, mode
        assert abs(a["t_gps_imu"] - b["t_gps_imu"]) <= 1e-9, mode
