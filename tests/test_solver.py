import numpy as np
import pytest

from splinefusion import bsplines as bs
from splinefusion.errors import InvalidArgumentError
from splinefusion.rotations import random_rotation, so3_exp, so3_log
from splinefusion.solver import (
    EUCLIDEAN,
    ROTATION,
    Factor,
    FactorGroup,
    Problem,
    Slot,
    SolveOptions,
    solve,
)


def test_linear_least_squares_exact():
    """A linear problem is solved to machine precision in one accepted step."""
    problem = Problem()
    problem.add_euclidean("x", np.zeros(2))
    A = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    problem.add_group(Factor(["x"], lambda x: A @ x - b, dim=3))
    state, report = solve(problem, SolveOptions(lm_lambda0=1e-12))
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(problem.block_value(state, "x"), x_ref, atol=1e-8)
    assert report.converged


def test_rosenbrock_converges():
    problem = Problem()
    problem.add_euclidean("x", np.array([-1.2, 1.0]))
    problem.add_group(Factor(
        ["x"], lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
        dim=2,
    ))
    state, report = solve(problem, SolveOptions(max_iter=100, rel_tol=1e-14))
    assert np.allclose(problem.block_value(state, "x"), [1.0, 1.0], atol=1e-6)


def test_rotation_block_manifold(rng):
    target = random_rotation(rng)
    problem = Problem()
    problem.add_rotation("R", np.eye(3))
    problem.add_group(Factor(
        ["R"], lambda R: so3_log(R.T @ target, validate=False), dim=3,
    ))
    state, report = solve(problem)
    assert np.allclose(problem.block_value(state, "R"), target, atol=1e-8)


def test_fixed_blocks_do_not_move():
    problem = Problem()
    problem.add_euclidean("a", np.array([1.0]), fixed=True)
    problem.add_euclidean("b", np.array([0.0]))
    problem.add_group(Factor(["a", "b"], lambda a, b: a + b - 5.0, dim=1))
    state, _ = solve(problem)
    assert problem.block_value(state, "a")[0] == 1.0
    assert np.isclose(problem.block_value(state, "b")[0], 4.0, atol=1e-8)


def test_bounds_clamped():
    problem = Problem()
    problem.add_euclidean("x", np.array([0.0]), bounds=(-0.5, 0.5))
    problem.add_group(Factor(["x"], lambda x: x - 3.0, dim=1))
    state, _ = solve(problem)
    assert problem.block_value(state, "x")[0] <= 0.5 + 1e-12


def test_no_free_blocks_raises():
    problem = Problem()
    problem.add_euclidean("x", np.zeros(1), fixed=True)
    problem.add_group(Factor(["x"], lambda x: x, dim=1))
    with pytest.raises(InvalidArgumentError):
        solve(problem)


def test_cost_history_monotone():
    problem = Problem()
    problem.add_euclidean("x", np.array([5.0, -3.0]))
    problem.add_group(Factor(
        ["x"], lambda x: np.array([np.sin(x[0]) + x[0], x[1] ** 3 - 1.0]),
        dim=2,
    ))
    _, report = solve(problem, SolveOptions(max_iter=60))
    h = report.cost_history
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))
    assert report.final_cost == h[-1]
    assert report.initial_cost == h[0]


def test_analytic_jacobian_used():
    calls = {"jac": 0}

    def jac(x):
        calls["jac"] += 1
        return [np.array([[2.0 * x[0]]])]

    problem = Problem()
    problem.add_euclidean("x", np.array([3.0]))
    problem.add_group(Factor(
        ["x"], lambda x: np.array([x[0] ** 2 - 4.0]), dim=1, jac_fn=jac,
    ))
    state, _ = solve(problem)
    assert calls["jac"] > 0
    assert np.isclose(abs(problem.block_value(state, "x")[0]), 2.0, atol=1e-8)


class _SharedGroup(FactorGroup):
    """Residuals x_i - s with a shared scalar block across all factors."""

    name = "shared"
    dim = 1

    def __init__(self, ids, shared_id, targets):
        self.ids = ids
        self.shared_id = shared_id
        self.targets = targets

    def build(self, problem, state):
        return None, [
            Slot(self.ids, EUCLIDEAN, 1),
            Slot(self.shared_id, EUCLIDEAN, 1),
        ]

    def kernel(self, ctx, gathered, jacobians=False):
        x, s = gathered
        r = x - s - self.targets[:, None]
        return (r, {}) if jacobians else r


def test_shared_slot_broadcasting():
    problem = Problem()
    ids = [problem.add_euclidean(f"x{i}", np.zeros(1)) for i in range(4)]
    shared = problem.add_euclidean("s", np.array([2.0]), fixed=True)
    targets = np.array([1.0, 2.0, 3.0, 4.0])
    problem.add_group(_SharedGroup(np.array(ids), shared, targets))
    state, _ = solve(problem)
    got = np.array([problem.block_value(state, f"x{i}")[0] for i in range(4)])
    assert np.allclose(got, targets + 2.0, atol=1e-8)


def test_fd_matches_analytic_on_group(rng):
    problem = Problem()
    ids = [problem.add_euclidean(f"x{i}", rng.normal(size=1)) for i in range(4)]
    shared = problem.add_euclidean("s", np.array([0.3]))
    group = _SharedGroup(np.array(ids), shared, rng.normal(size=4))
    problem.add_group(group)
    problem._layout()
    state = problem.initial_state()
    _, slots, jacs, _ = group.linearize(problem, state)
    assert np.allclose(jacs[0], np.ones((4, 1, 1)), atol=1e-8)
    assert np.allclose(jacs[1], -np.ones((4, 1, 1)), atol=1e-8)


def test_duplicate_block_name():
    problem = Problem()
    problem.add_euclidean("x", np.zeros(1))
    with pytest.raises(InvalidArgumentError):
        problem.add_euclidean("x", np.zeros(1))


class _SlerpGroup(FactorGroup):
    """A fixed point rotated by an order-2 (slerp) SO(3) spline at several
    fractions u; the spline's two nodes are shared by every factor."""

    name = "slerp"
    dim = 3

    def __init__(self, ids, u):
        self.ids = ids
        self.u = u

    def build(self, problem, state):
        return None, [Slot(i, ROTATION, 3) for i in self.ids]

    def kernel(self, ctx, gathered, jacobians=False):
        R = bs.so3_window_eval(np.stack(gathered, axis=-3), self.u, 2)
        r = R @ np.array([0.3, 1.0, -0.5])
        return (r, {}) if jacobians else r


def _slerp_problem(angle):
    """Nodes I and Rz(angle): the spline's Log difference is angle * z."""
    problem = Problem()
    ids = [problem.add_rotation("R0", np.eye(3)),
           problem.add_rotation("R1", so3_exp(np.array([0.0, 0.0, angle])))]
    group = _SlerpGroup(ids, np.linspace(0.1, 0.9, 5))
    problem.add_group(group)
    problem._layout()
    state = problem.initial_state()
    ctx, slots = group.build(problem, state)
    gathered = [problem.gather(state, s) for s in slots]
    return group, problem, state, ctx, slots, gathered


def _plain_central(group, ctx, gathered, si):
    h = group.fd_step
    J = np.empty((len(group.u), group.dim, 3))
    for a in range(3):
        step = np.zeros(3)
        step[a] = h
        dR = so3_exp(step)
        g_plus = list(gathered)
        g_plus[si] = gathered[si] @ dR
        g_minus = list(gathered)
        g_minus[si] = gathered[si] @ dR.T
        J[:, :, a] = (group.kernel(ctx, g_plus)
                      - group.kernel(ctx, g_minus)) / (2 * h)
    return J


def test_fd_rotation_slot_on_log_branch_cut():
    """A node pair 1e-9 below pi: a step of h about z flips the branch of
    Log(R0^T R1), so the central quotient about z is O(1/h).  The FD
    column instead matches a 100x smaller one-sided difference that moves
    the pair away from pi, on the current branch."""
    group, problem, state, ctx, slots, gathered = _slerp_problem(np.pi - 1e-9)
    r, _, jacs, jumps = group.linearize(problem, state)
    assert jumps.all()
    central = _plain_central(group, ctx, gathered, 1)
    assert np.abs(central[:, :, 2]).max() > 1e5
    assert np.abs(jacs[0]).max() < 10.0 and np.abs(jacs[1]).max() < 10.0
    # turning R1 by -h about z lowers the pair angle: same branch
    h = group.fd_step / 100
    g_minus = list(gathered)
    g_minus[1] = gathered[1] @ so3_exp(np.array([0.0, 0.0, h])).T
    one_sided = (r - group.kernel(ctx, g_minus)) / h
    assert np.allclose(jacs[1][:, :, 2], one_sided, rtol=0, atol=1e-5)
    # the axes that do not cross pi keep the central quotient
    assert np.array_equal(jacs[1][:, :, :2], central[:, :, :2])


def test_fd_rotation_slot_away_from_cut_is_plain_central():
    group, problem, state, ctx, slots, gathered = _slerp_problem(2.0)
    _, _, jacs, jumps = group.linearize(problem, state)
    assert not jumps.any()
    for si in range(2):
        assert np.array_equal(jacs[si], _plain_central(group, ctx, gathered, si))


def _log_target_problem(target_angle):
    """Residual Log(R) - target_angle * z from R = Rz(3): for a target
    beyond pi the minimum sits on the branch cut of Log, where the residual
    jumps from about (pi - target) z to (-pi - target) z."""
    target = np.array([0.0, 0.0, target_angle])
    problem = Problem()
    problem.add_rotation("R", so3_exp(np.array([0.0, 0.0, 3.0])))
    problem.add_group(Factor(
        ["R"], lambda R: so3_log(R, validate=False) - target, dim=3,
    ))
    return problem


def test_solve_reports_discontinuous_minimum():
    problem = _log_target_problem(4.0)
    state, report = solve(problem)
    assert report.termination == "discontinuous"
    assert not report.converged
    assert report.jump_rows == 1
    angle = np.linalg.norm(so3_log(problem.block_value(state, "R")))
    assert np.pi - angle < problem.groups[0].fd_step


def test_solve_smooth_minimum_still_converges():
    problem = _log_target_problem(2.0)
    state, report = solve(problem)
    assert report.termination == "converged"
    assert report.converged
    assert report.jump_rows == 0
    assert np.allclose(so3_log(problem.block_value(state, "R")),
                       [0.0, 0.0, 2.0], atol=1e-8)


class _TrialBugGroup(FactorGroup):
    """x - 1, whose kernel fails with a ValueError once x leaves its
    starting value: a bug in a kernel, not a rejected step."""

    name = "trial_bug"
    dim = 1

    def build(self, problem, state):
        return None, [Slot(problem.block_id("x"), EUCLIDEAN, 1)]

    def kernel(self, ctx, gathered, jacobians=False):
        x = gathered[0]
        if np.any(x != 0.0):
            raise ValueError("kernel bug")
        return (x - 1.0, {0: np.ones((1, 1, 1))}) if jacobians else x - 1.0


def test_kernel_error_on_trial_state_propagates():
    problem = Problem()
    problem.add_euclidean("x", np.zeros(1))
    problem.add_group(_TrialBugGroup())
    with pytest.raises(ValueError, match="kernel bug"):
        solve(problem)
