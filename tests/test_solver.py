import numpy as np
import pytest

import scipy.sparse as sp

from splinefusion import bsplines as bs
from splinefusion import estimators as est
from splinefusion import solver
from splinefusion.errors import InvalidArgumentError, NumericalFailureError
from splinefusion.rotations import hat, so3_exp, so3_log
from splinefusion.solver import (
    EUCLIDEAN,
    ROTATION,
    FactorGroup,
    Problem,
    Slot,
    SolveOptions,
    solve,
)

from block_oracle import (assemble_csr, block_normal, dense_normal, oracle_errors,
                          reference_normal)
from conftest import random_rotation


class Factor(FactorGroup):
    """A single residual over the blocks ``block_ids``.

    ``fn(*values)`` returns the raw residual; ``sqrt_info`` (optional)
    whitens it.  Jacobians are finite differences unless ``jac_fn`` returns
    a list of per-block ``(dim, tdim)`` matrices.
    """

    def __init__(self, block_ids, fn, dim, sqrt_info=None, jac_fn=None, name="factor"):
        self.block_ids = list(block_ids)
        self.fn = fn
        self.dim = dim
        self.sqrt_info = None if sqrt_info is None else np.asarray(sqrt_info, float)
        self.jac_fn = jac_fn
        self.name = name

    def build(self, problem, state):
        slots = []
        for bid in self.block_ids:
            meta = problem.blocks[bid]
            slots.append(Slot(np.array([bid]), meta.kind, meta.dim))
        return None, slots

    def kernel(self, ctx, gathered, jacobians=False):
        values = [g[0] for g in gathered]
        r = np.asarray(self.fn(*values), dtype=float).reshape(self.dim)
        if self.sqrt_info is not None:
            r = self.sqrt_info @ r
        if not jacobians:
            return r[None, :]
        jacs = {}
        for si, J in enumerate(self.jac_fn(*values) if self.jac_fn else []):
            if J is None:
                continue
            J = np.asarray(J, dtype=float)
            if self.sqrt_info is not None:
                J = self.sqrt_info @ J
            jacs[si] = J[None, :, :]
        return r[None, :], jacs


def test_linear_least_squares_exact():
    """A linear problem is solved to the least-squares solution."""
    problem = Problem()
    x = problem.add_euclidean("x", np.zeros(2))
    A = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    problem.add_group(Factor([x], lambda x: A @ x - b, dim=3))
    state, report = solve(problem)
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(problem.block_value(state, "x"), x_ref, atol=1e-8)
    assert report.converged


def test_rosenbrock_converges():
    problem = Problem()
    x = problem.add_euclidean("x", np.array([-1.2, 1.0]))
    problem.add_group(Factor(
        [x], lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
        dim=2,
    ))
    state, report = solve(problem, SolveOptions(max_iter=100, rel_tol=1e-14))
    assert np.allclose(problem.block_value(state, "x"), [1.0, 1.0], atol=1e-6)


def test_rotation_block_manifold(rng):
    target = random_rotation(rng)
    problem = Problem()
    R = problem.add_rotation("R", np.eye(3))
    problem.add_group(Factor(
        [R], lambda R: so3_log(R.T @ target, validate=False), dim=3,
    ))
    state, report = solve(problem)
    assert np.allclose(problem.block_value(state, "R"), target, atol=1e-8)


def test_fixed_blocks_do_not_move():
    problem = Problem()
    a = problem.add_euclidean("a", np.array([1.0]), fixed=True)
    b = problem.add_euclidean("b", np.array([0.0]))
    problem.add_group(Factor([a, b], lambda a, b: a + b - 5.0, dim=1))
    state, _ = solve(problem)
    assert problem.block_value(state, "a")[0] == 1.0
    assert np.isclose(problem.block_value(state, "b")[0], 4.0, atol=1e-8)


def test_bounds_clamped():
    """A factor pulls x past its upper bound: x ends on the bound and the
    report names it; y, bounded but with its minimum inside, is not named."""
    problem = Problem()
    x = problem.add_euclidean("x", np.array([0.0]), bounds=(-0.5, 0.5))
    y = problem.add_euclidean("y", np.array([0.0]), bounds=(-0.5, 0.5))
    problem.add_group(Factor([x], lambda x: x - 3.0, dim=1))
    problem.add_group(Factor([y], lambda y: y - 0.25, dim=1))
    state, report = solve(problem)
    assert problem.block_value(state, "x")[0] == 0.5
    assert report.at_bound == ["x"]
    assert report.termination == "converged"


def test_no_free_blocks_raises():
    problem = Problem()
    x = problem.add_euclidean("x", np.zeros(1), fixed=True)
    problem.add_group(Factor([x], lambda x: x, dim=1))
    with pytest.raises(InvalidArgumentError):
        solve(problem)


def test_cost_history_monotone():
    problem = Problem()
    x = problem.add_euclidean("x", np.array([5.0, -3.0]))
    problem.add_group(Factor(
        [x], lambda x: np.array([np.sin(x[0]) + x[0], x[1] ** 3 - 1.0]),
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
    x = problem.add_euclidean("x", np.array([3.0]))
    problem.add_group(Factor(
        [x], lambda x: np.array([x[0] ** 2 - 4.0]), dim=1, jac_fn=jac,
    ))
    state, _ = solve(problem)
    assert calls["jac"] > 0
    assert np.isclose(abs(problem.block_value(state, "x")[0]), 2.0, atol=1e-8)


class _SharedGroup(FactorGroup):
    """Residuals x_i - s with a shared scalar block across all factors."""

    name = "shared"
    dim = 1

    def __init__(self, ids, shared_id, targets):
        self.targets = targets
        self.slots = [Slot(ids, EUCLIDEAN, 1), Slot(shared_id, EUCLIDEAN, 1)]

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
    _, slots, jacs = group.linearize(problem, state)
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
    ctx, slots, gathered = group.inputs(problem, state)
    return group, problem, state, ctx, slots, gathered


def test_fd_rotation_slot_away_from_cut_is_plain_central():
    """Away from the cut of the Log difference no factor is on a jump, and
    the central differences of each rotation slot match the spline's exact
    node Jacobians: the point x turns by -R hat(x) JR_s per node step."""
    group, problem, state, ctx, slots, gathered = _slerp_problem(2.0)
    _, _, jacs = group.linearize(problem, state)
    assert not np.any(group.jumps(*group.inputs(problem, state)[::2]))
    windows = np.stack(gathered, axis=-3)
    R, JR = bs.so3_window_eval(windows, group.u, 2, jacobians=True)
    x = np.array([0.3, 1.0, -0.5])
    for si in range(2):
        exact = -R @ hat(x) @ JR[:, si]
        assert np.abs(jacs[si] - exact).max() < 1e-8


class _LogTargetGroup(Factor):
    """Residual Log(R) - target of rotation block ``R``; with ``declare`` it
    names itself on a jump when R is within ``fd_step`` of angle pi, the
    branch cut of Log."""

    def __init__(self, R, target, declare):
        super().__init__([R], lambda R: so3_log(R, validate=False) - target, dim=3)
        self.declare = declare

    def jumps(self, ctx, gathered):
        angle = np.linalg.norm(so3_log(gathered[0][0]))
        return self.declare and angle > np.pi - self.fd_step


def _log_target_problem(target_angle, declare=True):
    """Residual Log(R) - target_angle * z from R = Rz(3): for a target
    beyond pi the minimum sits on the branch cut of Log, where the residual
    jumps from about (pi - target) z to (-pi - target) z."""
    problem = Problem()
    R = problem.add_rotation("R", so3_exp(np.array([0.0, 0.0, 3.0])))
    problem.add_group(_LogTargetGroup(R, np.array([0.0, 0.0, target_angle]),
                                      declare))
    return problem


def test_solve_reports_discontinuous_minimum():
    """A solve that ends on a jump its group declares is discontinuous."""
    problem = _log_target_problem(4.0)
    state, report = solve(problem)
    assert report.termination == "discontinuous"
    assert not report.converged
    assert report.jump_rows == 1
    angle = np.linalg.norm(so3_log(problem.block_value(state, "R")))
    assert np.pi - angle < problem.groups[0].fd_step


def test_solve_on_undeclared_jump_stalls():
    """Nothing finds a jump a group does not declare: the central
    differences across it point no step downhill, and the solve stalls."""
    problem = _log_target_problem(4.0, declare=False)
    _, report = solve(problem)
    assert report.termination == "stalled"
    assert not report.converged
    assert report.jump_rows == 0


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
        return None, [Slot(0, EUCLIDEAN, 1)]  # the problem's only block

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


def test_nan_jacobian_raises_numerical_failure():
    """Every damped system of the iteration has NaN entries, so no finite
    step exists at any damping: a numerical failure, not a stall."""
    problem = Problem()
    x = problem.add_euclidean("x", np.zeros(1))
    problem.add_group(Factor([x], lambda x: x - 3.0, dim=1,
                             jac_fn=lambda x: [np.array([[np.nan]])]))
    with pytest.raises(NumericalFailureError):
        solve(problem)


def test_uphill_steps_stall():
    """A Jacobian with the wrong sign gives finite steps that all raise the
    cost: that is a stall."""
    problem = Problem()
    x = problem.add_euclidean("x", np.zeros(1))
    problem.add_group(Factor([x], lambda x: x - 3.0, dim=1,
                             jac_fn=lambda x: [np.array([[-1.0]])]))
    _, report = solve(problem)
    assert report.termination == "stalled"


def _reference_retract(problem, state, delta):
    """Block-by-block retraction, the definition the batched one follows."""
    new = state.copy()
    for meta in problem.blocks:
        if meta.col < 0:
            continue
        d = delta[meta.col : meta.col + meta.dim]
        if meta.kind == ROTATION:
            new.rot[meta.store] = new.rot[meta.store] @ so3_exp(d)
        else:
            seg = slice(meta.store, meta.store + meta.dim)
            new.euc[seg] = new.euc[seg] + d
            if meta.bounds is not None:
                new.euc[seg] = np.clip(new.euc[seg], meta.bounds[0], meta.bounds[1])
    return new


def _mixed_problem(rng):
    """Free, fixed, bounded, rotation and point blocks, interleaved."""
    problem = Problem()
    problem.add_euclidean("a", rng.normal(size=2))
    problem.add_euclidean("p0", rng.normal(size=3), point=True)
    problem.add_rotation("R0", random_rotation(rng))
    problem.add_euclidean("t", np.array([0.01]), bounds=(-0.05, 0.05))
    problem.add_euclidean("p_fixed", rng.normal(size=3), fixed=True, point=True)
    problem.add_euclidean("p1", rng.normal(size=3), point=True)
    problem.add_euclidean("v", rng.normal(size=3),
                          bounds=(np.array([-1.0, -2.0, -3.0]), 1.0))
    problem.add_euclidean("b_fixed", rng.normal(size=2), fixed=True)
    problem.add_rotation("R1", random_rotation(rng))
    problem.add_euclidean("p_unobserved", rng.normal(size=3), point=True)
    problem._layout()
    return problem


def test_retract_matches_block_by_block_reference(rng):
    problem = _mixed_problem(rng)
    state = problem.initial_state()
    for scale in (1e-3, 1.0, 10.0):  # 10 drives t and v onto their clamps
        delta = rng.normal(scale=scale, size=problem.num_cols)
        got = problem.retract(state, delta)
        ref = _reference_retract(problem, state, delta)
        assert np.allclose(got.euc, ref.euc, rtol=0, atol=1e-15)
        assert np.allclose(got.rot, ref.rot, rtol=0, atol=1e-15)
    assert np.array_equal(got.euc[problem._bounded_stores],
                          ref.euc[problem._bounded_stores])


def test_free_points_take_the_last_columns(rng):
    problem = _mixed_problem(rng)
    assert problem.num_point_cols == 9  # p0, p1, p_unobserved; p_fixed has none
    point_cols = sorted(m.col for m in problem.blocks if m.point and not m.fixed)
    assert point_cols == [problem.num_cols - 9, problem.num_cols - 6,
                          problem.num_cols - 3]


def _arrow_system(problem, rng, damping=1e-4):
    """Random damped normal equations H + damping * diag(H) of a Jacobian
    whose rows each see some non-point columns and at most one point; the
    last point column block is left unobserved."""
    nc = problem.num_cols - problem.num_point_cols
    m = problem.num_point_cols // 3
    rows = []
    for j in range(3 * m):
        row = np.zeros(problem.num_cols)
        row[rng.choice(nc, size=2, replace=False)] = rng.normal(size=2)
        if j < 3 * (m - 1):
            p = nc + 3 * (j % (m - 1))
            row[p : p + 3] = rng.normal(size=3)
        rows.append(row)
    rows += list(rng.normal(size=(nc, nc)) @ np.eye(nc, problem.num_cols))
    J = sp.csr_matrix(np.array(rows))
    H = (J.T @ J).tocsr()
    D = np.clip(H.diagonal(), 1e-12, None)
    return (H + sp.diags(damping * D)).tocsr(), rng.normal(size=problem.num_cols)


@pytest.mark.parametrize("lam", [0, 1, 2000])
def test_schur_solve_matches_dense_solve(rng, lam):
    """Points eliminated by Schur complement, the reduced system factored
    as a band plus an arrow, against a dense LU of the whole system; the
    unobserved point's block is its damping alone.  ``_solve_normal`` adds
    ``lam`` times the diagonal, as a damped LM trial does."""
    problem = _mixed_problem(rng)
    A, g = _arrow_system(problem, rng)
    d = lam * A.diagonal()
    x = solver._solve_normal(block_normal(A, problem.num_point_cols), d, g)
    ref = np.linalg.solve(A.toarray() + np.diag(d), -g)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_schur_solve_rejects_indefinite_point_block(rng):
    problem = _mixed_problem(rng)
    A, g = _arrow_system(problem, rng)
    A = A.tolil()
    p = problem.num_cols - 3
    A[p, p] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        solver._solve_normal(block_normal(A, problem.num_point_cols),
                             np.zeros(problem.num_cols), g)


def _chain_system(rng, n_blocks=40, n_global=2, n_points=12):
    """Damped normal equations of a chain: each row sees two neighbouring
    3-column blocks, or one block and a point that three neighbouring
    blocks see, and every row sees the ``n_global`` last non-point
    columns; then the right-hand side and the number of point columns."""
    nc = 3 * n_blocks + n_global
    n = nc + 3 * n_points
    rows = []
    for b in range(n_blocks - 1):
        row = np.zeros((6, n))
        row[:, 3 * b : 3 * b + 6] = rng.normal(size=(6, 6))
        rows.append(row)
    for p in range(n_points):
        for b in 3 * p + np.arange(3):
            row = np.zeros((2, n))
            row[:, 3 * b : 3 * b + 3] = rng.normal(size=(2, 3))
            row[:, nc + 3 * p : nc + 3 * p + 3] = rng.normal(size=(2, 3))
            rows.append(row)
    J = np.vstack(rows)
    J[:, 3 * n_blocks : nc] = rng.normal(size=(len(J), n_global))
    A = J.T @ J
    return A + 1e-4 * np.diag(np.diag(A)), rng.normal(size=n), 3 * n_points


@pytest.mark.parametrize("n_global", [2, 0])
def test_band_arrow_solve_matches_dense_solve(rng, n_global):
    """The reduced system is a band in reverse Cuthill-McKee order plus an
    arrow: the columns coupled to a point and the global columns that
    touch every block form the arrow, so the point fill stays in it, the
    uncoupled rest of the chain is a narrow band, and the step matches a
    dense LU of the whole system."""
    A, g, n_points = _chain_system(rng, n_global=n_global)
    H = block_normal(A, n_points)
    nc, nb = H.cc.order.size, H.cc.band.shape[1]
    arrow = set(np.unique(H.rows)) | set(range(nc - n_global, nc))
    assert sorted(H.cc.order[nb:]) == sorted(arrow)
    assert H.cc.arrow.shape == (nc, len(arrow)) and nb == nc - len(arrow) > 0
    assert H.cc.band.shape[0] - 1 < 20  # the uncoupled chain
    assert np.array_equal(dense_normal(H), A)
    x = solver._solve_normal(H, np.zeros(len(g)), g)
    ref = np.linalg.solve(A, -g)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("where", ["band", "arrow"])
def test_band_arrow_solve_rejects_indefinite_system(rng, where):
    """A reduced system that is not positive definite raises LinAlgError,
    whether its band or its arrow's Schur complement fails to factor."""
    A, g, n_points = _chain_system(rng)
    order = block_normal(A, n_points).cc.order
    c = order[0] if where == "band" else order[-1]
    A[c, c] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        solver._solve_normal(block_normal(A, n_points), np.zeros(len(g)), g)


class _WideSlotGroup(FactorGroup):
    """One 6-wide slot starting at point block ``p0``: its columns run into
    the next point."""

    name = "wide"
    dim = 6

    def __init__(self, p0):
        self.p0 = p0

    def build(self, problem, state):
        return None, [Slot(self.p0, EUCLIDEAN, 6)]

    def kernel(self, ctx, gathered, jacobians=False):
        r = gathered[0] - 1.0
        return (r, {0: np.eye(6)[None]}) if jacobians else r


@pytest.mark.parametrize("through", ["two slots", "one slot"])
def test_factor_joining_two_points_raises(through):
    problem = Problem()
    p0 = problem.add_euclidean("p0", np.zeros(3), point=True)
    p1 = problem.add_euclidean("p1", np.ones(3), point=True)
    c = problem.add_euclidean("c", np.zeros(1))
    problem.add_group(Factor([p0, c], lambda p, c: p - c, dim=3))
    if through == "two slots":
        problem.add_group(Factor([p0, p1], lambda a, b: a - b, dim=3))
    else:
        problem.add_group(_WideSlotGroup(p0))
    with pytest.raises(InvalidArgumentError, match="p0.*p1|p1.*p0"):
        solve(problem)


def test_point_blocks_must_be_unbounded_3_vectors():
    problem = Problem()
    with pytest.raises(InvalidArgumentError):
        problem.add_euclidean("p", np.zeros(2), point=True)
    with pytest.raises(InvalidArgumentError):
        problem.add_euclidean("q", np.zeros(3), bounds=(-1.0, 1.0), point=True)


@pytest.mark.parametrize("mode", ["ct", "dt"])
def test_estimator_step_matches_dense_lu(tiny_noiseless, mode):
    """The first damped LM step of a CT and a DT problem at their initial
    state, with the landmarks as points, against a dense LU of the same
    system."""
    gt, rig, noise, result = tiny_noiseless
    meas = result.measurements
    cfg = est.CtConfig() if mode == "ct" else est.DtConfig()
    initialize = est.initialize_ct if mode == "ct" else est.initialize_dt
    build = est.build_ct_problem if mode == "ct" else est.build_dt_problem
    init = initialize(meas, rig, cfg, seed=0)
    problem = build(meas, init, cfg, noise, rig)
    r, J, _ = problem.linearize(problem.initial_state())
    assert problem.num_point_cols == 3 * len(init.landmarks)
    _, H, g = solver._normal_equations(r, J, problem.num_point_cols)
    d = solver._LM_LAMBDA0 * np.clip(H.diagonal(), 1e-12, None)
    x = solver._solve_normal(H, d, g)
    Jc = assemble_csr(J)
    ref = np.linalg.solve((Jc.T @ Jc).toarray() + np.diag(d), -(Jc.T @ r))
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)


class _PointGroup(FactorGroup):
    """R p - a for per-factor points p, one shared rotation R and one
    shared vector a; Jacobians by finite differences."""

    name = "points"
    dim = 3

    def __init__(self, point_ids, rot_id, vec_id):
        self.slots = [Slot(point_ids, EUCLIDEAN, 3), Slot(rot_id, ROTATION, 3),
                      Slot(vec_id, EUCLIDEAN, 3)]

    def kernel(self, ctx, gathered, jacobians=False):
        p, R, a = gathered
        r = np.einsum("nij,nj->ni", R, p) - a
        return (r, {}) if jacobians else r


def _oracle_problem(rng):
    """A fixed block, a shared scalar slot, one block reached through two
    slots, free points each seen by several factors beside a fixed point,
    a factor that sees a point alone and a group of fixed blocks only."""
    problem = Problem()
    xs = [problem.add_euclidean(f"x{i}", rng.normal(size=1)) for i in range(4)]
    shared = problem.add_euclidean("s", rng.normal(size=1))
    b_fixed = problem.add_euclidean("b_fixed", rng.normal(size=2), fixed=True)
    rot = problem.add_rotation("R", random_rotation(rng))
    vec = problem.add_euclidean("a", rng.normal(size=3))
    pts = [problem.add_euclidean(f"p{i}", rng.normal(size=3), point=True)
           for i in range(3)]
    pts.append(problem.add_euclidean("p_fixed", rng.normal(size=3), fixed=True,
                                     point=True))
    problem.add_group(_SharedGroup(np.array(xs), shared, rng.normal(size=4)))
    problem.add_group(Factor([pts[3], b_fixed], lambda p, b: p * b[1], dim=3))
    problem.add_group(Factor(
        [vec, vec, b_fixed, shared],
        lambda a, a2, b, s: np.array([a @ a2, a[0] * b[1] * s[0], np.sin(a[2])]),
        dim=3))
    problem.add_group(_PointGroup(np.array(pts)[[0, 1, 0, 2, 3, 1]], rot, vec))
    problem.add_group(Factor([pts[2], b_fixed], lambda p, b: p * b[0], dim=3))
    return problem


@pytest.mark.parametrize("lam", [1, 2000])
def test_normal_equations_match_sparse_assembly(rng, lam):
    """The blockwise H and g, the reduced system a band plus an arrow,
    against J^T J and J^T r of the CSR Jacobian; and the step damped by
    ``lam`` times the diagonal against a dense solve of the CSR system."""
    problem = _oracle_problem(rng)
    problem._layout()
    assert problem.num_point_cols == 9
    state = problem.initial_state()
    h_err, g_err, nnz, csr_nnz = oracle_errors(problem, state)
    assert h_err <= 1e-12 and g_err <= 1e-12
    assert nnz == csr_nnz
    r, J, _ = problem.linearize(state)
    _, H, g = solver._normal_equations(r, J, problem.num_point_cols)
    Jc = assemble_csr(J)
    H_ref = (Jc.T @ Jc).toarray()
    d = lam * np.clip(H_ref.diagonal(), 1e-12, None)
    ref = np.linalg.solve(H_ref + np.diag(d), -(Jc.T @ r))
    x = solver._solve_normal(H, d, g)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_solve_when_every_other_column_sees_a_point(rng):
    """A plain bundle adjustment, a pose seen with points and priors on
    the points: every non-point column is in the arrow and the band is
    empty.  The step matches a dense solve of the CSR system, and the solve
    converges."""
    problem = Problem()
    rot = problem.add_rotation("R", random_rotation(rng))
    vec = problem.add_euclidean("a", rng.normal(size=3))
    pts = [problem.add_euclidean(f"p{i}", rng.normal(size=3), point=True)
           for i in range(4)]
    problem.add_group(_PointGroup(np.array(pts)[[0, 1, 2, 3, 1]], rot, vec))
    for p in pts:
        problem.add_group(Factor([p], lambda x, t=rng.normal(size=3): x - t, dim=3))
    problem._layout()
    state = problem.initial_state()
    r, J, _ = problem.linearize(state)
    _, H, g = solver._normal_equations(r, J, problem.num_point_cols)
    assert H.cc.band.shape[1] == 0 and H.cc.order.size == 6
    Jc = assemble_csr(J)
    H_ref = (Jc.T @ Jc).toarray()
    d = 1e-4 * np.clip(H_ref.diagonal(), 1e-12, None)
    ref = np.linalg.solve(H_ref + np.diag(d), -(Jc.T @ r))
    x = solver._solve_normal(H, d, g)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    _, report = solve(problem)
    assert report.converged and report.final_cost < report.initial_cost


def _chain_jacobian(rng, chain, seen, n_blocks=30, n_points=8):
    """A BlockJacobian of random values over ``n_blocks`` 3-column blocks,
    one global column and ``n_points`` points: a group whose factor i
    joins the blocks ``chain[i]``, and a group whose factor i joins block
    ``seen[i][0]``, the global column and point ``seen[i][1]``."""
    nc = 3 * n_blocks + 1
    c3 = np.arange(3)
    joins = np.array([np.r_[3 * a + c3, 3 * b + c3] for a, b in chain])
    sees = np.array([np.r_[3 * b + c3, nc - 1, nc + 3 * p + c3] for b, p in seen])
    blocks = [(rng.normal(size=(len(joins), 6, 6)), joins),
              (rng.normal(size=(len(sees), 2, 7)), sees)]
    J = solver.BlockJacobian(blocks, (8 * len(joins) + 2 * len(sees), nc + 3 * n_points))
    return rng.normal(size=J.shape[0]), J


def test_normal_equations_plan_is_reused_bit_for_bit(rng):
    """Calls that share a memo give the numbers of memo-free calls, bit for
    bit, while a group's columns change between them, as when a clock
    offset moves a sample across a knot.  The plan is kept while the
    columns repeat and redone when a group with points moves.  A group
    without points that moves within the band keeps the layout; an entry
    outside the band widens it."""
    chain = [(b, b + 1) for b in range(29)]
    seen = [(2 * p + q, p) for p in range(8) for q in range(3)]
    moved = list(seen)
    moved[4] = (seen[4][0] + 1, seen[4][1])  # still a block coupled to a point
    near = chain[:10] + [(11, 12)] + chain[11:]
    far = chain[:20] + [(20, 28)] + chain[21:]

    def same(a, b):
        (_, Ha, ga), (_, Hb, gb) = a, b
        return (np.array_equal(dense_normal(Ha), dense_normal(Hb)) and np.array_equal(ga, gb)
                and all(np.array_equal(getattr(Ha, f), getattr(Hb, f))
                        for f in ("ll", "cl", "rows", "pts")))

    memo, layouts = {}, []
    for c, v in [(chain, seen), (chain, seen), (chain, moved), (chain, seen), (near, seen),
                 (far, seen)]:
        r, J = _chain_jacobian(rng, c, v)
        assert same(solver._normal_equations(r, J, 24, memo),
                    solver._normal_equations(r, J, 24))
        layouts.append(memo["zero"])
    assert layouts[0] is layouts[1]
    assert layouts[2] is not layouts[1] and layouts[3] is not layouts[2]
    assert layouts[4] is layouts[3]
    assert layouts[5].band.shape[0] > layouts[4].band.shape[0]


def _plan_jacobian(rng, joins, sees, n_blocks=24, n_points=6):
    """A BlockJacobian of random values over ``n_blocks`` 3-column blocks,
    one global column and ``n_points`` points, block or point -1 fixed:
    factor i of the first group joins the blocks ``joins[i]`` beside a
    column fixed for every factor; factor i of the second joins block
    ``sees[i][0]``, the global column and point ``sees[i][1]``; then a
    group with no free column and a prior on each point."""
    nc, c3 = 3 * n_blocks + 1, np.arange(3)

    def cols(b, first=0):
        return first + 3 * b + c3 if b >= 0 else np.full(3, -1)

    joined = np.array([np.r_[cols(a), cols(b), -1] for a, b in joins])
    seen = np.array([np.r_[cols(b), nc - 1, cols(p, nc)] for b, p in sees])
    prior = nc + 3 * np.arange(n_points)[:, None] + c3
    blocks = [(rng.normal(size=(len(joined), 4, 7)), joined),
              (rng.normal(size=(len(seen), 2, 7)), seen),
              (np.zeros((5, 3, 0)), np.zeros((5, 0), int)),
              (rng.normal(size=(n_points, 3, 3)), prior)]
    rows = sum(M.shape[0] * M.shape[1] for M, _ in blocks)
    J = solver.BlockJacobian(blocks, (rows, nc + 3 * n_points))
    return rng.normal(size=rows), J


@pytest.mark.parametrize("seed", range(6))
def test_plan_matches_the_pair_and_unique_oracle(seed):
    """On random structures, with fixed blocks, fixed points, a column
    fixed in every factor, a group with no free column and a point prior,
    the plan gives the layout of the explicit-pair column graph and the
    places and keys of ``np.unique``: the same ``order``, band width and
    places, then the same H, g and damped step bit for bit.  A memo that
    re-plans one group in the kept layout, or plans all anew, agrees too."""
    rng = np.random.default_rng(seed)
    joins = [(b, b + 1) for b in range(23)] + [
        (b, b + 2 if rng.random() < 0.7 else -1) for b in rng.integers(0, 22, 8)]
    sees = [(b, p if rng.random() < 0.9 else -1)
            for b, p in zip(rng.integers(0, 10, 30), rng.integers(0, 6, 30))]
    moves = [(joins, sees), (joins, sees), ([joins[1]] + joins[1:], sees),
             (joins + [(0, 23)], sees), (joins + [(0, 23)], sees[::-1])]
    memo, layouts = {}, []
    for j, v in moves:
        r, J = _plan_jacobian(rng, j, v)
        kept = memo.get("zero")
        _, H, g = solver._normal_equations(r, J, 18, memo)
        layouts.append(memo["zero"])
        H_ref, g_ref, places = reference_normal(r, J, 18, kept if memo["zero"] is kept else None)
        assert np.array_equal(H.cc.order, H_ref.cc.order)
        assert H.cc.band.shape == H_ref.cc.band.shape
        for (tgt, inv), (tgt_ref, inv_ref) in zip(memo["at"], places):
            assert np.array_equal(tgt, tgt_ref) and np.array_equal(inv, inv_ref)
        for f in ("ll", "cl", "rows", "pts", "yat"):
            assert np.array_equal(getattr(H, f), getattr(H_ref, f)), f
        assert np.array_equal(H.cc.band, H_ref.cc.band) and np.array_equal(g, g_ref)
        assert np.array_equal(H.cc.arrow, H_ref.cc.arrow)
        d = 1e-3 * np.clip(H_ref.diagonal(), 1e-12, None)
        assert np.array_equal(solver._solve_normal(H, d, g),
                              solver._solve_normal(H_ref, d, g_ref))
    assert layouts[1] is layouts[0] and layouts[2] is layouts[1]  # one group re-planned
    assert layouts[4] is not layouts[3]  # a group with points moved


def test_band_solve_checks_lapack_info():
    """A banded factor with a zero on its diagonal is reported, not solved."""
    with pytest.raises(np.linalg.LinAlgError):
        solver._band_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones((2, 1)), "N")


class _SwitchGroup(FactorGroup):
    """p - x for the point p and the block x: the 3-vector c, or the point
    q once c[0] passes 1."""

    name = "switch"
    dim = 3

    def __init__(self, p, q, c):
        self.p, self.q, self.c = p, q, c

    def build(self, problem, state):
        x = self.q if problem.block_value(state, self.c)[0] > 1.0 else self.c
        return None, [Slot(self.p, EUCLIDEAN, 3), Slot(x, EUCLIDEAN, 3)]

    def kernel(self, ctx, gathered, jacobians=False):
        r = gathered[0] - gathered[1]
        return (r, {0: np.eye(3)[None], 1: -np.eye(3)[None]}) if jacobians else r


def test_linearize_keeps_columns_and_checks_each_new_structure():
    """A group's block columns are built once while its slots keep their
    block ids; slots that join two points raise when they first appear."""
    problem = Problem()
    p = problem.add_euclidean("p", np.zeros(3), point=True)
    q = problem.add_euclidean("q", np.ones(3), point=True)
    c = problem.add_euclidean("c", np.zeros(3))
    problem.add_group(_SwitchGroup(p, q, c))
    state = problem.initial_state()
    cols = problem.linearize(state)[1].blocks[0][1]
    stepped = problem.retract(state, np.full(problem.free_cols, 0.1))
    assert problem.linearize(stepped)[1].blocks[0][1] is cols
    stepped.euc[problem.blocks[c].store] = 2.0
    with pytest.raises(InvalidArgumentError, match="p.*q|q.*p"):
        problem.linearize(stepped)


def test_solve_linearizes_only_where_another_iteration_follows(monkeypatch):
    """One linearization at the start and one after each accepted step
    that another iteration follows: a solve that ends on an accepted step
    makes as many linearizations as accepted steps, one that ends without
    one makes one more.  The jumps are taken at the returned state without
    a linearization, so a discontinuous end is still reported."""
    calls = []
    linearize = Problem.linearize

    def counting(self, state):
        calls.append(state)
        return linearize(self, state)

    monkeypatch.setattr(Problem, "linearize", counting)

    def run(problem, opts=None):
        calls.clear()
        _, report = solve(problem, opts)
        return report, len(calls), len(report.cost_history) - 1

    rosenbrock = Problem()
    x = rosenbrock.add_euclidean("x", np.array([-1.2, 1.0]))
    rosenbrock.add_group(Factor(
        [x], lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]), dim=2))
    report, made, accepted = run(rosenbrock, SolveOptions(max_iter=3))
    assert report.termination == "max_iter" and accepted == 3 and made == 3

    report, made, accepted = run(rosenbrock, SolveOptions(rel_tol=1.0))
    assert report.termination == "converged" and accepted == 1 and made == 1

    report, made, accepted = run(_log_target_problem(4.0))
    assert report.termination == "discontinuous" and report.jump_rows == 1
    assert made in (accepted, accepted + 1)

    uphill = Problem()
    x = uphill.add_euclidean("x", np.zeros(1))
    uphill.add_group(Factor([x], lambda x: x - 3.0, dim=1,
                            jac_fn=lambda x: [np.array([[-1.0]])]))
    report, made, accepted = run(uphill)
    assert report.termination == "stalled" and accepted == 0 and made == 1


@pytest.mark.parametrize("kwargs", [
    dict(max_iter=0), dict(max_iter=-3), dict(max_iter=2.5), dict(max_iter=True),
    dict(max_iter="5"), dict(max_iter=None), dict(rel_tol=float("inf")),
    dict(rel_tol=float("-inf")), dict(rel_tol=float("nan")), dict(rel_tol=-1e-8)])
def test_solve_options_validation(kwargs):
    """Each setting is checked where the options are made, naming it."""
    name, = kwargs
    with pytest.raises(InvalidArgumentError, match=name):
        SolveOptions(**kwargs)


def _window_problem(rng):
    """Euclidean blocks e0..e3 (e2 held), rotation blocks R0..R3 and two
    point blocks."""
    problem = Problem()
    e = [problem.add_euclidean(f"e{i}", rng.normal(size=3), fixed=i == 2)
         for i in range(4)]
    R = [problem.add_rotation(f"R{i}", random_rotation(rng)) for i in range(4)]
    pts = [problem.add_euclidean(f"p{i}", rng.normal(size=3), point=True)
           for i in range(2)]
    problem._layout()
    return problem, np.array(e), np.array(R), pts


class _WindowGroup(FactorGroup):
    """A smooth residual of a euclidean and a rotation window, read either
    as two window slots (``windows``) or as one slot per block."""

    name = "window"
    dim = 3

    def __init__(self, e_ids, R_ids, windows):
        self.e_ids, self.R_ids, self.windows = e_ids, R_ids, windows

    def build(self, problem, state):
        if self.windows:
            return None, [Slot(self.e_ids, EUCLIDEAN, 3), Slot(self.R_ids, ROTATION, 3)]
        w = self.e_ids.shape[1]
        return None, ([Slot(self.e_ids[:, j], EUCLIDEAN, 3) for j in range(w)]
                      + [Slot(self.R_ids[:, j], ROTATION, 3) for j in range(w)])

    def kernel(self, ctx, gathered, jacobians=False):
        if self.windows:
            e, R = gathered
        else:
            w = len(gathered) // 2
            e, R = np.stack(gathered[:w], axis=1), np.stack(gathered[w:], axis=1)
        r = np.sin(e).sum(axis=1) + so3_log(R[:, 0].swapaxes(-1, -2) @ R[:, -1])
        return (r, {}) if jacobians else r


def test_window_slot_gathers_its_blocks_stacked(rng):
    problem, e, R, _ = _window_problem(rng)
    state = problem.initial_state()
    windows = np.array([[0, 1, 2], [3, 2, 1]])
    for ids, kind, axis in ((e, EUCLIDEAN, -2), (R, ROTATION, -3)):
        got = problem.gather(state, Slot(ids[windows], kind, 3))
        assert got.shape[:2] == windows.shape
        assert np.array_equal(got, np.stack(
            [problem.gather(state, Slot(ids[windows[:, j]], kind, 3))
             for j in range(3)], axis=1))
    two = problem.add_euclidean("two", np.arange(4.0))
    problem._layout()
    wide = problem.gather(problem.initial_state(), Slot([[two, two]], EUCLIDEAN, 4))
    assert np.array_equal(wide, [[np.arange(4.0)] * 2])


def test_window_slot_columns_sit_side_by_side(rng):
    """A window's columns are its blocks' one-block columns side by side,
    -1 for the held block inside it."""
    problem, e, _, _ = _window_problem(rng)
    windows = e[np.array([[0, 2, 3], [1, 0, 2]])]
    group = _WindowGroup(windows, windows, True)
    free, cols = problem._columns(group, [Slot(windows, EUCLIDEAN, 3)], 2)
    one = [problem._columns(group, [Slot(windows[:, j], EUCLIDEAN, 3)], 2)[1]
           for j in range(3)]
    assert free == [0]
    assert np.array_equal(cols, np.hstack(one))
    assert np.array_equal(cols[0, 3:6], [-1, -1, -1])
    assert np.array_equal(cols[1, 6:], [-1, -1, -1])
    assert (cols[:, :3] >= 0).all()


def test_window_slot_finite_differences_are_the_blocks_side_by_side(rng):
    """``_fd_slot`` over a window steps one block of each factor's window
    at a time: bit for bit the one-block differences side by side."""
    problem, e, R, _ = _window_problem(rng)
    state = problem.initial_state()
    e_ids, R_ids = e[np.array([[0, 1], [3, 1]])], R[np.array([[0, 2], [3, 1]])]
    win, single = _WindowGroup(e_ids, R_ids, True), _WindowGroup(e_ids, R_ids, False)
    (_, win_slots), (_, one_slots) = (g.build(problem, state) for g in (win, single))
    win_values = [problem.gather(state, s) for s in win_slots]
    one_values = [problem.gather(state, s) for s in one_slots]
    assert np.array_equal(win.kernel(None, win_values), single.kernel(None, one_values))
    for si in range(2):
        fd = win._fd_slot(None, win_values, si, win_slots[si])
        ref = np.concatenate([single._fd_slot(None, one_values, 2 * si + j,
                                              one_slots[2 * si + j])
                              for j in range(2)], axis=-1)
        assert fd.shape == (2, 3, 6)
        assert np.array_equal(fd, ref)
        assert np.abs(fd).max() > 0.1


class _RowsGroup(FactorGroup):
    """The residual of :class:`_WindowGroup` on windows that factors share,
    read from slots that carry each distinct window once with each
    factor's ``rows`` (``shared``), or from per-factor window slots."""

    name = "rows"
    dim = 3

    def __init__(self, e_ids, R_ids, rows, shared):
        self.e_ids, self.R_ids, self.rows, self.shared = e_ids, R_ids, rows, shared

    def build(self, problem, state):
        if self.shared:
            return self.rows, [Slot(self.e_ids, EUCLIDEAN, 3, self.rows),
                               Slot(self.R_ids, ROTATION, 3, self.rows)]
        return self.rows, [Slot(self.e_ids[self.rows], EUCLIDEAN, 3),
                           Slot(self.R_ids[self.rows], ROTATION, 3)]

    def kernel(self, ctx, gathered, jacobians=False):
        e, R = gathered
        if self.shared:
            e, R = e.take(ctx, axis=0), R.take(ctx, axis=0)
        r = np.sin(e).sum(axis=1) + so3_log(R[:, 0].swapaxes(-1, -2) @ R[:, -1])
        return (r, {}) if jacobians else r


def test_slots_with_rows_give_the_per_factor_block_jacobian(rng):
    """A slot with one window per distinct time and each factor's row gives
    the residuals and the BlockJacobian, columns and finite-difference
    blocks, of the slot with each factor's window, bit for bit; a new
    ``rows`` over the same windows re-expands the columns."""
    problem, e, R, _ = _window_problem(rng)
    state = problem.initial_state()
    e_ids, R_ids = e[np.array([[0, 1, 2], [2, 3, 0]])], R[np.array([[0, 1, 2], [3, 2, 1]])]
    for rows in (np.array([0, 1, 1, 0, 1]), np.array([1, 1, 0])):
        out = []
        for shared in (True, False):
            problem.groups = [_RowsGroup(e_ids, R_ids, rows, shared)]
            out.append(problem.linearize(state))
        (r, J, _), (r_ref, J_ref, _) = out
        assert np.array_equal(r, r_ref)
        (M, cols), = J.blocks
        (M_ref, cols_ref), = J_ref.blocks
        assert cols.shape == (rows.size, 18)
        assert np.array_equal(cols, cols_ref)
        assert np.array_equal(M, M_ref)
        assert np.abs(M).max() > 0.1


def test_window_joining_two_points_raises(rng):
    problem, _, _, (p0, p1) = _window_problem(rng)

    class PointWindow(FactorGroup):
        name = "point_window"
        dim = 3
        slots = [Slot([[p0, p1]], EUCLIDEAN, 3)]

        def kernel(self, ctx, gathered, jacobians=False):
            r = gathered[0][:, 0] - gathered[0][:, 1]
            return (r, {0: np.hstack([np.eye(3), -np.eye(3)])}) if jacobians else r

    problem.add_group(PointWindow())
    with pytest.raises(InvalidArgumentError, match="joins the point blocks p0 and p1"
                       "|joins the point blocks p1 and p0"):
        problem.linearize(problem.initial_state())


class _SharedWindowGroup(FactorGroup):
    """Block i minus one, for the blocks ``ids``: one factor per block
    reading its own block, or, with ``shared``, each reading the window of
    all of them, with the same ids."""

    name = "shared_window"
    dim = 3
    shared = False

    def __init__(self, ids):
        self.ids = np.asarray(ids)

    def build(self, problem, state):
        return None, [Slot(self.ids[None] if self.shared else self.ids, EUCLIDEAN, 3)]

    def kernel(self, ctx, gathered, jacobians=False):
        x = gathered[0]
        n = len(self.ids)
        r = (x[0] if self.shared else x) - 1.0
        if not jacobians:
            return r
        J = np.eye(3 * n).reshape(n, 3, 3 * n) if self.shared else np.eye(3)
        return r, {0: J}


def test_columns_memo_tells_a_window_from_a_slot_with_the_same_ids(rng):
    """An (n, w) window and an (n * w,) slot hold the same id bytes; the
    structure memo keys on their shape too."""
    problem = Problem()
    ids = [problem.add_euclidean(f"x{i}", rng.normal(size=3)) for i in range(2)]
    group = _SharedWindowGroup(ids)
    problem.add_group(group)
    state = problem.initial_state()
    r, J, _ = problem.linearize(state)
    assert np.array_equal(J.blocks[0][1], [[0, 1, 2], [3, 4, 5]])
    group.shared = True
    r_win, J_win, _ = problem.linearize(state)
    assert np.array_equal(r_win, r)
    assert np.array_equal(J_win.blocks[0][1], [[0, 1, 2, 3, 4, 5]] * 2)
    h_err, g_err, nnz, csr_nnz = oracle_errors(problem, state)
    assert h_err <= 1e-12 and g_err <= 1e-12 and nnz == csr_nnz
