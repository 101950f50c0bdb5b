"""IMU preintegration between consecutive frames (midpoint rule).

The accelerometer model is ``a_bar = R^T (pddot + g) + b_a`` with ``g =
GRAVITY`` held fixed: the world frame is the GPS frame, where gravity is known.

The delta state is (dR, dv, dp) relative to the frame at the interval
start; its 9x9 covariance and 9x6 bias Jacobian (tangent ordering rotation,
velocity, position; bias ordering accel, gyro) are closed-form step sums.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, InvalidArgumentError
from .rotations import (hat, running_products, so3_exp, so3_log,
                        so3_right_jacobian)

GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.setflags(write=False)  # shared by both estimators and the simulator
_JITTER = 1e-16


@dataclass(frozen=True)
class PreintegratedImu:
    """Delta state over ``dt_total`` s, its covariance and bias Jacobian."""

    dR: np.ndarray  # (3, 3)
    dv: np.ndarray  # (3,)
    dp: np.ndarray  # (3,)
    dt_total: float
    covariance: np.ndarray  # (9, 9), (theta, v, p) ordering
    J_bias: np.ndarray  # (9, 6), columns (b_accel, b_gyro)
    bias_lin: tuple  # (b_accel (3,), b_gyro (3,))

    def corrected(self, b_accel, b_gyro, dR=None):
        """First-order bias-corrected (dR, dv, dp), per segment when the
        fields carry a leading segment axis (see :func:`stack`); ``dR``, if
        given, is :meth:`corrected_rotation` at ``b_gyro``."""
        db = np.concatenate([np.subtract(b_accel, self.bias_lin[0]),
                             np.subtract(b_gyro, self.bias_lin[1])], axis=-1)
        d = _matvec(self.J_bias[..., 3:9, :], db)
        dR = self.corrected_rotation(b_gyro) if dR is None else dR
        return dR, self.dv + d[..., 0:3], self.dp + d[..., 3:6]

    def corrected_rotation(self, b_gyro):
        """dR corrected to ``b_gyro`` (J_bias's rotation rows are 0 in b_accel)."""
        db_g = np.subtract(b_gyro, self.bias_lin[1])
        return self.dR @ so3_exp(_matvec(self.J_bias[..., 0:3, 3:6], db_g))

    def sqrt_info(self):
        """Matrix W with W^T W = covariance^{-1} (whitens the residual)."""
        cov = self.covariance + _JITTER * np.eye(9)
        return np.linalg.inv(np.linalg.cholesky(cov))


def _matvec(A, x):
    return np.einsum("...ij,...j->...i", A, x)


def stack(pims):
    """One PreintegratedImu whose fields stack those of ``pims`` along a
    leading segment axis."""
    def join(values):
        if isinstance(values[0], tuple):
            return tuple(join(v) for v in zip(*values))
        return np.stack(values)

    return PreintegratedImu(**{f.name: join([getattr(p, f.name) for p in pims])
                               for f in fields(PreintegratedImu)})


def integrate(times, gyro, accel, bias_lin=(np.zeros(3), np.zeros(3)),
              gyro_sigma=1e-3, accel_sigma=8e-3, t_start=None, t_end=None):
    """Midpoint-rule preintegration of an IMU slice over [t_start, t_end].

    ``gyro_sigma``/``accel_sigma`` are discrete per-sample standard
    deviations.  Boundary samples are linearly interpolated to the exact
    segment edges; the samples must cover the segment.

    Every step is evaluated at once: the deltas ``dR_n``, ``dv_n``, ``dp_n``
    at the end of step n are running products of ``Exp(phi_n)`` and
    cumulative sums, and ``R_mid,n = dR_{n-1} Exp(phi_n / 2)``.  The bias
    Jacobian ``sum C_n`` and covariance ``sum C_n Q C_n^T``, ``C_n`` what
    step n adds at the segment end, are in closed form (Forster et al.,
    "On-Manifold Preintegration for Real-Time Visual-Inertial Odometry",
    T-RO 2017).  With ``u_n = dR_n (-J_r(phi_n) dt_n)``, ``tau_n`` the time
    after step n, ``w_n = tau_n + dt_n / 2`` and ``H_n = R_mid,n [a_n]x
    J_r(phi_n / 2) dt_n^2 / 2``, the b_gyro columns of ``C_n`` are ``dR_N^T
    u_n``, ``H_n - [dv_N - dv_n]x u_n`` and ``w_n H_n - [dp_N - dp_n - tau_n
    dv_n]x u_n`` (rotation, velocity, position), its b_accel columns
    ``-R_mid,n dt_n`` and ``w_n`` times that; the later steps m sum to these
    as ``R_mid,m [a_m]x Exp(phi_m / 2)^T dR_{m-1}^T = [R_mid,m a_m]x``.
    """
    times = np.asarray(times, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    accel = np.asarray(accel, dtype=float)
    if times.size == 0:
        raise InvalidArgumentError("empty IMU slice")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise DataError("IMU timestamps are not strictly increasing")
    t_start = float(times[0] if t_start is None else t_start)
    t_end = float(times[-1] if t_end is None else t_end)
    if t_end < t_start:
        raise InvalidArgumentError("t_end before t_start")
    b_a = np.asarray(bias_lin[0], dtype=float)
    b_g = np.asarray(bias_lin[1], dtype=float)

    if t_end == t_start:
        return PreintegratedImu(
            dR=np.eye(3), dv=np.zeros(3), dp=np.zeros(3), dt_total=0.0,
            covariance=np.zeros((9, 9)), J_bias=np.zeros((9, 6)),
            bias_lin=(b_a.copy(), b_g.copy()))
    if times.size < 2 or times[0] > t_start + 1e-9 or times[-1] < t_end - 1e-9:
        raise DataError(
            f"IMU samples [{times[0]}, {times[-1]}] do not cover "
            f"[{t_start}, {t_end}]"
        )

    # (gyro, accel) rows at the samples inside and at both edges
    inner = (times > t_start) & (times < t_end)
    ts = np.concatenate([[t_start], times[inner], [t_end]])
    k = np.searchsorted(times[1:-1], ts[[0, -1]], side="right")  # bracketing rows
    f = ((ts[[0, -1]] - times[k]) / (times[k + 1] - times[k]))[:, None]
    rows = np.hstack([gyro, accel])
    at_edges = (1.0 - f) * rows[k] + f * rows[k + 1]
    samples = np.concatenate([at_edges[:1], rows[inner], at_edges[1:]])

    # one row per step n, from ts[n] to ts[n + 1]
    dt = np.diff(ts)[:, None]
    dt3 = dt[:, :, None]
    mid = 0.5 * (samples[:-1] + samples[1:]) - np.concatenate([b_g, b_a])
    a = mid[:, 3:]
    phi = mid[:, :3] * dt
    both = np.concatenate([phi, 0.5 * phi])
    E, half = so3_exp(both).reshape(2, -1, 3, 3)
    Jr, Jr_half = so3_right_jacobian(both).reshape(2, -1, 3, 3)
    chain = running_products(E)
    R_mid = np.concatenate([half[:1], chain[:-1] @ half[1:]])
    Ra = (R_mid @ a[:, :, None])[:, :, 0]
    vel = np.cumsum(Ra * dt, axis=0)  # dv at the end of each step
    dv_start = np.concatenate([np.zeros((1, 3)), vel[:-1]])
    pos = np.cumsum(dv_start * dt + 0.5 * Ra * dt * dt, axis=0)  # dp likewise

    # b_gyro columns of C_n; cov's b_accel part is kron(weights^T weights, I)
    tau = ts[-1] - ts[1:, None]
    w = tau + 0.5 * dt
    u = chain @ (-Jr * dt3)
    ha, hv, hp = hat(np.concatenate(
        [a, vel[-1] - vel, pos[-1] - pos - tau * vel])).reshape(3, -1, 3, 3)
    H = R_mid @ ha @ Jr_half * (0.5 * dt3 * dt3)
    gyro_cols = np.concatenate([chain[-1].T @ u, H - hv @ u,
                                w[:, :, None] * H - hp @ u], axis=1)
    weights = np.hstack([dt, w * dt])  # of -R_mid in the b_accel columns
    J_bias = np.zeros((9, 6))
    J_bias[3:, :3] = -(weights.T @ R_mid.reshape(-1, 9)).reshape(6, 3)
    J_bias[:, 3:] = gyro_cols.sum(axis=0)
    g = gyro_cols.transpose(1, 0, 2).reshape(9, -1)
    cov = gyro_sigma**2 * (g @ g.T)
    S = accel_sigma**2 * weights.T @ weights
    cov[3:, 3:] += (S[:, None, :, None] * np.eye(3)[:, None]).reshape(6, 6)

    return PreintegratedImu(
        dR=chain[-1], dv=vel[-1], dp=pos[-1], dt_total=t_end - t_start,
        covariance=0.5 * (cov + cov.T), J_bias=J_bias,
        bias_lin=(b_a.copy(), b_g.copy()))


def preint_residual(R_i, p_i, v_i, b_accel_i, b_gyro_i, R_j, p_j, v_j,
                    pim: PreintegratedImu):
    """9-DOF preintegration residual (rotation Log, velocity, position).

    Uses the kinematic model pddot = R(a_bar - b_a) - g implied by the
    accelerometer model, with g = ``GRAVITY``.  The states and ``pim`` may
    carry a leading segment axis; the result is then (N, 9), one row per
    segment.  It is the bias correction :meth:`PreintegratedImu.corrected`
    and three terms, each reading only its own states: :func:`rotation_term`
    (R and, through dR, b_gyro), :func:`velocity_term` (R, v and both
    biases) and :func:`position_term` (all of them).
    """
    dR, dv, dp = pim.corrected(b_accel_i, b_gyro_i)
    dt = np.asarray(pim.dt_total)[..., None]
    return np.concatenate([rotation_term(R_i, R_j, dR),
                           velocity_term(R_i, v_i, v_j, dv, dt),
                           position_term(R_i, p_i, v_i, p_j, dp, dt)], axis=-1)


def rotation_term(R_i, R_j, dR):
    """Rotation rows Log(dR^T R_i^T R_j)."""
    Rit = np.swapaxes(R_i, -1, -2)
    return so3_log(np.swapaxes(dR, -1, -2) @ Rit @ R_j, validate=False)


def velocity_term(R_i, v_i, v_j, dv, dt):
    """Velocity rows R_i^T (v_j - v_i + g dt) - dv."""
    return _matvec(np.swapaxes(R_i, -1, -2), v_j - v_i + GRAVITY * dt) - dv


def position_term(R_i, p_i, v_i, p_j, dp, dt):
    """Position rows R_i^T (p_j - p_i - v_i dt + g dt^2 / 2) - dp."""
    return _matvec(np.swapaxes(R_i, -1, -2),
                   p_j - p_i - v_i * dt + 0.5 * GRAVITY * dt**2) - dp
