"""Initialization pipeline: PnP poses, GPS and gyro poses, their
interpolation, the spline fit of the simulator's ground truth (whose
rotation fit tests its own windows for the SO(3) branch cut), and the
spline window slots the estimators share."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import lapack

from . import bsplines as bs
from .camera import project_many
from .errors import DataError, DegenerateConfigurationError, InvalidArgumentError
from .preintegration import GRAVITY
from .rotations import (Pose, hat, running_products, slerp_many, so3_exp,
                        so3_log, so3_right_jacobian_inv)
from .solver import (
    EUCLIDEAN,
    ROTATION,
    FactorGroup,
    Problem,
    Slot,
    SolveOptions,
    _levenberg_marquardt,
    solve,
    window_jacobian,
)


def _pnp_residuals(camera, R_wc, p_wc, points, pixels, jacobians=False):
    """Pixel reprojection residuals (2n,) of the n world ``points`` seen
    from the camera pose (R_wc, p_wc), against their ``pixels``, through
    :func:`project_many`; a point at or behind the camera gives zeros.

    With ``jacobians=True`` returns ``(r, J)``: J (2n, 6) is exact, with
    the right perturbation of R_wc in columns 0-2 and p_wc in columns 3-5.
    """
    pc = (points - p_wc) @ R_wc
    px, valid, *J_pi = project_many(camera, pc, jacobians)
    r = ((px - pixels) * valid[:, None]).ravel()
    if not jacobians:
        return r
    # pc = R_wc^T (X - p_wc); a right perturbation of R_wc moves it by
    # hat(pc) per unit angle
    J_pi = J_pi[0]
    return r, np.concatenate([J_pi @ hat(pc), -J_pi @ R_wc.T], axis=2).reshape(-1, 6)


def pnp_dlt(camera, points_world, pixels):
    """Camera pose from 3D-2D correspondences (DLT plus LM refinement).

    Returns the world-from-camera pose (R_wc, p_wc).  Needs >= 6 points in
    general position; solves for the projection matrix in normalized image
    coordinates, orthonormalizes the rotation part, then refines the pose
    by minimizing the pixel reprojection error with the solver's LM loop on
    the dense 6-column system of :func:`_pnp_residuals`.  A point at or
    behind the camera drops out of the refinement, as it does from every
    reprojection factor.
    """
    pts = np.asarray(points_world, dtype=float)
    px = np.asarray(pixels, dtype=float)
    n = pts.shape[0]
    if n < 6 or px.shape != (n, 2):
        raise DegenerateConfigurationError("PnP needs >= 6 correspondences")
    xn = (px[:, 0] - camera.cx) / camera.fx
    yn = (px[:, 1] - camera.cy) / camera.fy
    mu = pts.mean(axis=0)
    sc = np.linalg.norm(pts - mu, axis=1).mean()
    if sc < 1e-9:
        raise DegenerateConfigurationError("coincident PnP points")
    Xh = np.hstack([(pts - mu) / sc, np.ones((n, 1))])
    A = np.zeros((2 * n, 12))
    A[0::2, 0:4] = Xh
    A[0::2, 8:12] = -xn[:, None] * Xh
    A[1::2, 4:8] = Xh
    A[1::2, 8:12] = -yn[:, None] * Xh
    _, sv, Vt = np.linalg.svd(A, full_matrices=False)
    if sv[-2] < 1e-12 * sv[0]:
        raise DegenerateConfigurationError("degenerate PnP configuration")
    P = Vt[-1].reshape(3, 4)
    M = P[:, :3]
    # cheirality: camera-frame depths must be positive for most points
    if np.median(Xh @ P[2]) < 0:
        P = -P
        M = -M
    U, d, Vt3 = np.linalg.svd(M)
    if d[2] < 1e-9 * d[0]:
        raise DegenerateConfigurationError("rank-deficient PnP rotation")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt3) < 0:
        S[2, 2] = -1.0
    R_cw = U @ S @ Vt3
    det_scale = np.trace(np.diag(d) @ S) / 3.0
    # undo the 3D normalization: p_cam = R_cw (X - mu) + t_eff
    t_eff = sc * P[:, 3] / det_scale
    T_wc = Pose(R_cw, t_eff - R_cw @ mu).inverse()

    def linearize(pose):
        r, J = _pnp_residuals(camera, *pose, pts, px, jacobians=True)
        return r, J.T @ J, J.T @ r

    (R_wc, p_wc), _ = _levenberg_marquardt(
        (T_wc.R, T_wc.p), linearize,
        lambda pose: _pnp_residuals(camera, *pose, pts, px),
        _cholesky_step,
        lambda pose, x: (pose[0] @ so3_exp(x[:3]), pose[1] + x[3:]),
        SolveOptions(max_iter=15, rel_tol=1e-10))
    return Pose(R_wc, p_wc)


def _cholesky_step(H, d, g):
    """x of (H + diag(d)) x = -g by LAPACK dposv (dpotrf, then dpotrs, as
    ``cho_factor``/``cho_solve``); ``LinAlgError`` on a nonzero ``info``."""
    _, x, info = lapack.dposv(H + np.diag(d), -g, overwrite_a=1, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"PnP step: LAPACK info {info}")
    return x


_HEADING_MIN_RATIO = 1e-6  # least s2 / s1 of the gps_gyro_poses alignment


def gps_gyro_poses(imu_t, gyro, accel, gps_t, gps, lever, query):
    """Body positions (n, 3) and rotations (n, 3, 3) at the times ``query``
    from the IMU and GPS alone (stamps in seconds on one clock).

    The gyro, chained by the midpoint rule, gives R(t) = R0 dR(t).  With
    a = R^T (pddot + g), v(t) = v0 + R0 U(t) - g t, U the integral of dR a.
    Over each GPS interval the fixes' mean velocity plus g times its
    midpoint is then R0 A + v0, A the interval mean of U plus the lever
    arm's turn dR l over it; R0 is the Kabsch fit (one SVD) of these
    centred tracks, after Cao, Lu and Shen, "GVINS" (T-RO 2022).  The
    antenna follows the fixes, interpolated, and outside them the model
    carries the nearest fix e: p_e + v0 (t - t_e) + R0 (X(t) - X(t_e)) - g
    (t^2 - t_e^2) / 2, X = W + dR l, v0 = mean(B) - R0 mean(A), W the
    integral of U.  The body positions are the antenna's less R l.  Raises
    :class:`DataError` for fewer than four fixes in the IMU span, or when
    the fit's second singular value is below ``_HEADING_MIN_RATIO`` of its
    first: a track with no acceleration across gravity, such as a straight
    line at constant speed, whose heading the accelerometer cannot see.
    """
    dt = np.diff(imu_t)[:, None]
    dR = running_products(np.concatenate(
        [[np.eye(3)], so3_exp(0.5 * (gyro[1:] + gyro[:-1]) * dt)]))
    f = np.einsum("nij,nj->ni", dR, accel)
    U = np.vstack([np.zeros(3), np.cumsum(0.5 * (f[1:] + f[:-1]) * dt, axis=0)])
    W = np.vstack([np.zeros(3), np.cumsum(0.5 * (U[1:] + U[:-1]) * dt, axis=0)])
    inside = (gps_t >= imu_t[0]) & (gps_t <= imu_t[-1])
    t, p = gps_t[inside], gps[inside]
    if t.size < 4:
        raise DataError(f"{t.size} GPS fixes inside the IMU span: the GPS and "
                        "gyro start needs at least 4")
    h = np.diff(t)[:, None]
    X = W + dR @ lever
    X_t = _interp_positions(imu_t, X, t)
    A = np.diff(X_t, axis=0) / h
    B = np.diff(p, axis=0) / h + GRAVITY * (t[1:, None] + t[:-1, None]) / 2
    Uc, s, Vt = np.linalg.svd((B - B.mean(axis=0)).T @ (A - A.mean(axis=0)))
    if not s[1] >= _HEADING_MIN_RATIO * s[0]:
        raise DataError(
            f"heading not determined by GPS and IMU: the alignment's second "
            f"singular value is {s[1] / s[0]:.2e} of its first (need "
            f">= {_HEADING_MIN_RATIO:g}); the track has no acceleration across "
            "gravity")
    R0 = Uc @ np.diag([1.0, 1.0, np.sign(np.linalg.det(Uc @ Vt))]) @ Vt
    R = R0 @ _interp_rotations(imu_t, dR, query)
    v0 = B.mean(axis=0) - R0 @ A.mean(axis=0)
    e = np.where(query < t[0], 0, t.size - 1)
    q, t_e = query[:, None], t[e, None]
    carry = (p[e] + (q - t_e) * (v0 - GRAVITY * (q + t_e) / 2)
             + (_interp_positions(imu_t, X, query) - X_t[e]) @ R0.T)
    outside = ((query < t[0]) | (query > t[-1]))[:, None]
    return (np.where(outside, carry, _interp_positions(t, p, query))
            - R @ lever), R


# ---------------------------------------------------------------------------
# pose interpolation and spline fitting to discrete poses


def _interp_positions(times, positions, query):
    out = np.empty((len(query), 3))
    for dim in range(3):
        out[:, dim] = np.interp(query, times, positions[:, dim])
    return out


def _interp_rotations(times, rotations, query):
    idx = np.clip(np.searchsorted(times, query, side="right") - 1, 0, len(times) - 2)
    t0 = times[idx]
    t1 = times[idx + 1]
    alpha = np.clip((query - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0, 1.0)
    return slerp_many(rotations[idx], rotations[idx + 1], alpha)


def window_slot(first_block, seg, order, kind, rows=None):
    """The window slot (``rows`` as in :class:`Slot`) of the ``order`` nodes
    from node ``seg``, of the nodes whose block ids count up from ``first_block``."""
    return Slot(first_block + seg[..., None] + np.arange(order), kind, 3, rows)


def r3_window_jacobian(order, u, weight, derivative=0, dt=1.0):
    """The constant Jacobian ``w c_s I / dt^d`` of the weighted derivative
    ``d`` of an R^3 spline window slot sampled at the fractions ``u``."""
    coeffs = bs.window_node_coefficients(order, u, derivative) / dt**derivative
    return window_jacobian(weight * coeffs[..., None, None] * np.eye(3))


def add_field_blocks(problem, field, prefix, rows, add, to_value):
    """Add the rows of the state field ``field`` (a spline's nodes or a
    per-frame array) with ``add`` (``problem.add_euclidean`` or
    ``problem.add_rotation``) as consecutive blocks ``prefix0, prefix1,
    ...``, register ``problem.meta[field] = (ids, to_value)``, ``to_value``
    turning the stacked block values back into the field, and return the
    ids."""
    ids = np.array([add(f"{prefix}{i}", row) for i, row in enumerate(rows)],
                   dtype=int)
    problem.meta[field] = (ids, to_value)
    return ids


class R3FitGroup(FactorGroup):
    """Position-spline fitting residuals ``p^(d)(u(t_j)) - p_bar_j``, with
    ``d`` the time ``derivative`` of the position that is fitted."""

    name = "r3_fit"
    dim = 3

    def __init__(self, grid, first_block, seg, u, targets, weight=1.0,
                 derivative=0):
        self.grid = grid
        self.u = u
        self.targets = targets
        self.weight = weight
        self.derivative = derivative
        self.slots = [window_slot(first_block, seg, grid.order, EUCLIDEAN)]
        self._jacobian = r3_window_jacobian(grid.order, u, weight, derivative, grid.dt)

    def kernel(self, ctx, gathered, jacobians=False):
        val = bs.r3_window_eval(gathered[0], self.u, self.grid.order, self.grid.dt,
                                self.derivative)
        r = (val - self.targets) * self.weight
        return (r, {0: self._jacobian}) if jacobians else r


class SO3FitGroup(FactorGroup):
    """Rotation-spline fitting residuals ``e = Log(R(u)^T R_bar)``.  Its
    Jacobians are exact: R(u) <- R(u) Exp(JR_s delta_s) under node s's
    right perturbation (:func:`bs.so3_window_eval`) moves ``e`` by
    ``-J_r^-1(-e) JR_s delta_s``, so slot s gets ``-J_r^-1(-e) JR_s``."""

    name = "so3_fit"
    dim = 3

    def __init__(self, grid, first_block, seg, u, targets):
        self.grid = grid
        self.u = u
        self.targets = targets
        self.slots = [window_slot(first_block, seg, grid.order, ROTATION)]

    def kernel(self, ctx, gathered, jacobians=False):
        windows = gathered[0]
        if not jacobians:
            R = bs.so3_window_eval(windows, self.u, self.grid.order)
            return so3_log(np.swapaxes(R, -1, -2) @ self.targets,
                           validate=False)
        R, JR = bs.so3_window_eval(windows, self.u, self.grid.order,
                                   jacobians=True)
        e = so3_log(np.swapaxes(R, -1, -2) @ self.targets, validate=False)
        E = -so3_right_jacobian_inv(-e)
        return e, {0: window_jacobian(np.expand_dims(E, -3) @ JR)}

    def jumps(self, ctx, gathered):
        """Factors whose window is cut (:func:`bs.so3_cut_windows`)."""
        return bs.so3_cut_windows(gathered[0], self.fd_step)


@dataclass
class SplineFit:
    position: bs.SplineR3
    rotation: bs.SplineSO3
    report: object


def fit_spline_to_poses(times, positions, rotations, order, node_hz):
    """Fit position and rotation splines to timestamped poses (the
    simulator's ground truth).

    Control nodes are initialized by linear interpolation (SLERP for
    rotations) at the knot times, held at the end poses past them, and
    refined by minimizing the summed position and Log-rotation errors at
    the input pose times, with at most 25 LM iterations.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    rotations = np.asarray(rotations, dtype=float)
    if len(times) < order:
        raise InvalidArgumentError(
            f"need at least order={order} poses, got {len(times)}"
        )
    if not (np.isfinite(node_hz) and node_hz > 0):
        raise InvalidArgumentError(
            f"node rate must be finite and > 0 Hz, got {node_hz!r}")
    dt = 1.0 / node_hz
    if times[-1] - times[0] < order * dt * 0.5:
        raise InvalidArgumentError("pose span too short for the requested grid")
    grid = bs.grid_covering(times[0], times[-1], dt, order)

    node_times = grid.t0 + np.arange(grid.count) * grid.dt
    pos_nodes = _interp_positions(times, positions, node_times)
    rot_nodes = _interp_rotations(times, rotations, node_times)

    # the poses read back at their own stamps: the last rotation comes out
    # of the slerp a few ulp off, and every simulated dataset depends on
    # these targets bit for bit
    tgt_pos = _interp_positions(times, positions, times)
    tgt_rot = _interp_rotations(times, rotations, times)

    problem = Problem()
    pos_ids = add_field_blocks(problem, "position", "pos", pos_nodes,
                               problem.add_euclidean, partial(bs.SplineR3, grid))
    rot_ids = add_field_blocks(problem, "rotation", "rot", rot_nodes,
                               problem.add_rotation, partial(bs.SplineSO3, grid))

    seg, u = grid.normalized_times(times)
    problem.add_group(R3FitGroup(grid, pos_ids[0], seg, u, tgt_pos))
    problem.add_group(SO3FitGroup(grid, rot_ids[0], seg, u, tgt_rot))

    state, report = solve(problem, SolveOptions(max_iter=25, rel_tol=1e-12))
    pos_spline, rot_spline = (
        to_value(np.stack([problem.block_value(state, b) for b in ids]))
        for ids, to_value in (problem.meta["position"], problem.meta["rotation"]))
    return SplineFit(position=pos_spline, rotation=rot_spline, report=report)
