"""IMU preintegration between consecutive frames (midpoint rule).

The delta state is (dR, dv, dp) relative to the frame at the interval
start.  The 9x9 covariance and the 9x6 bias Jacobian use the tangent
ordering (rotation, velocity, position) and bias ordering (accel, gyro).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, InvalidArgumentError
from .rotations import (hat, running_products, so3_exp, so3_log,
                        so3_right_jacobian)

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

    def corrected(self, b_accel, b_gyro):
        """First-order bias-corrected (dR, dv, dp), per segment when the
        fields carry a leading segment axis (see :func:`stack`)."""
        db = np.concatenate([np.subtract(b_accel, self.bias_lin[0]),
                             np.subtract(b_gyro, self.bias_lin[1])], axis=-1)
        d = _matvec(self.J_bias, db)  # its rotation rows see only b_gyro
        return (self.dR @ so3_exp(d[..., 0:3]), self.dv + d[..., 3:6],
                self.dp + d[..., 6:9])

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

    Everything one step needs from its own samples is computed for all
    steps at once: the increments ``E_n = Exp(phi_n)``, the right Jacobians,
    the midpoint rotations ``R_mid = dR_n Exp(phi_n / 2)``, the transitions
    ``A_n`` and the noise terms.  ``dv`` and ``dp`` are cumulative sums, the
    ``dR_n`` running products of ``E``.  With ``Phi_n = A_{N-1} ... A_{n+1}``
    the recurrences ``J <- A_n J + G_n`` and ``cov <- A_n cov A_n^T + G_n Q
    G_n^T`` sum to ``J = sum Phi_n G_n`` and ``cov = sum (Phi_n G_n) Q (Phi_n
    G_n)^T``.
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
    u = ((ts[[0, -1]] - times[k]) / (times[k + 1] - times[k]))[:, None]
    rows = np.hstack([gyro, accel])
    at_edges = (1.0 - u) * rows[k] + u * rows[k + 1]
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
    RH = R_mid @ hat(a)
    # R_mid a moves by -RH Exp(phi/2)^T eps when dR <- dR Exp(eps), and by
    # RH Jr(phi/2) dt/2 per unit of b_g through the half step Exp(phi/2)
    RH_rot = RH @ np.swapaxes(half, 1, 2)
    RH_bg = RH @ Jr_half * (0.5 * dt3)
    eye = np.eye(3)
    A = np.zeros((len(E), 9, 9))
    A[:, 0:3, 0:3] = np.swapaxes(E, 1, 2)
    A[:, 3:6, 0:3] = -RH_rot * dt3
    A[:, 3:6, 3:6] = eye
    A[:, 6:9, 0:3] = -0.5 * RH_rot * dt3 * dt3
    A[:, 6:9, 3:6] = eye * dt3
    A[:, 6:9, 6:9] = eye
    # G_n: what step n adds to the bias Jacobian, columns (b_accel,
    # b_gyro).  The noise map B_n is -G_n with the column blocks swapped to
    # (gyro, accel), so B_n Q B_n^T = G_n diag(accel^2, gyro^2) G_n^T.
    G = np.zeros((len(E), 9, 6))
    G[:, 0:3, 3:6] = -Jr * dt3
    G[:, 3:6, 0:3] = -R_mid * dt3
    G[:, 3:6, 3:6] = RH_bg * dt3
    G[:, 6:9, 0:3] = -0.5 * R_mid * dt3 * dt3
    G[:, 6:9, 3:6] = 0.5 * RH_bg * dt3 * dt3
    PG = G.copy()  # Phi_n G_n, Phi_{N-1} = I
    PG[:-1] = running_products(A[:0:-1])[::-1] @ G[:-1]
    q = np.array(3 * [accel_sigma**2] + 3 * [gyro_sigma**2])
    cov = (PG * q @ np.swapaxes(PG, 1, 2)).sum(axis=0)

    vel = np.cumsum(Ra * dt, axis=0)  # dv at the end of each step
    dv_start = np.concatenate([np.zeros((1, 3)), vel[:-1]])
    dp = np.cumsum(dv_start * dt + 0.5 * Ra * dt * dt, axis=0)[-1]
    return PreintegratedImu(
        dR=chain[-1], dv=vel[-1], dp=dp, dt_total=t_end - t_start,
        covariance=0.5 * (cov + cov.T), J_bias=PG.sum(axis=0),
        bias_lin=(b_a.copy(), b_g.copy()))


def preint_residual(R_i, p_i, v_i, b_accel_i, b_gyro_i, R_j, p_j, v_j,
                    gravity, pim: PreintegratedImu):
    """9-DOF preintegration residual (rotation Log, velocity, position).

    Uses the kinematic model pddot = R(a_bar - b_a) - g implied by the
    accelerometer convention a_bar = R^T (pddot + g) + b_a.  The states
    and ``pim`` may carry a leading segment axis; the result is then
    (N, 9), one row per segment.
    """
    dR, dv, dp = pim.corrected(b_accel_i, b_gyro_i)
    dt = np.asarray(pim.dt_total)[..., None]
    g = np.asarray(gravity, dtype=float)
    Rit = np.swapaxes(R_i, -1, -2)
    r_rot = so3_log(np.swapaxes(dR, -1, -2) @ Rit @ R_j, validate=False)
    r_vel = _matvec(Rit, v_j - v_i + g * dt) - dv
    r_pos = _matvec(Rit, p_j - p_i - v_i * dt + 0.5 * g * dt**2) - dp
    return np.concatenate([r_rot, r_vel, r_pos], axis=-1)
