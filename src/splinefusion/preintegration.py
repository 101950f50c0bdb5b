"""IMU preintegration between consecutive frames (midpoint rule).

The delta state is (dR, dv, dp) relative to the frame at the interval
start.  The 9x9 covariance and the 9x6 bias Jacobian use the tangent
ordering (rotation, velocity, position) and bias ordering (accel, gyro).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, InvalidArgumentError
from .rotations import hat, so3_exp, so3_log, so3_right_jacobian

_JITTER = 1e-16


@dataclass(frozen=True)
class PreintegratedImu:
    dR: np.ndarray  # (3, 3)
    dv: np.ndarray  # (3,)
    dp: np.ndarray  # (3,)
    dt_total: float
    covariance: np.ndarray  # (9, 9), (theta, v, p) ordering
    J_bias: np.ndarray  # (9, 6), columns (b_accel, b_gyro)
    bias_lin: tuple  # (b_accel (3,), b_gyro (3,))
    t_start: float
    t_end: float

    def corrected(self, b_accel, b_gyro):
        """First-order bias-corrected (dR, dv, dp), per segment when the
        fields carry a leading segment axis (see :func:`stack`)."""
        dba = np.asarray(b_accel, dtype=float) - self.bias_lin[0]
        dbg = np.asarray(b_gyro, dtype=float) - self.bias_lin[1]
        J = self.J_bias
        dR = self.dR @ so3_exp(_matvec(J[..., 0:3, 3:6], dbg))
        dv = (self.dv + _matvec(J[..., 3:6, 0:3], dba)
              + _matvec(J[..., 3:6, 3:6], dbg))
        dp = (self.dp + _matvec(J[..., 6:9, 0:3], dba)
              + _matvec(J[..., 6:9, 3:6], dbg))
        return dR, dv, dp

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


def _interp_row(times, values, t):
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0,
                    len(times) - 2))
    a = (t - times[k]) / (times[k + 1] - times[k])
    return (1.0 - a) * values[k] + a * values[k + 1]


def integrate(times, gyro, accel, bias_lin=(np.zeros(3), np.zeros(3)),
              gyro_sigma=1e-3, accel_sigma=8e-3, t_start=None, t_end=None):
    """Midpoint-rule preintegration of an IMU slice over [t_start, t_end].

    ``gyro_sigma``/``accel_sigma`` are discrete per-sample standard
    deviations.  Boundary samples are linearly interpolated to the exact
    segment edges; the samples must cover the segment.

    Everything one step needs from its own samples is computed for all
    steps at once: the increments ``E_n = Exp(phi_n)``, the right Jacobians,
    the midpoint rotations ``R_mid = dR_n Exp(phi_n / 2)``, the transitions
    ``A_n`` and the noise terms.  ``dv`` and ``dp`` are cumulative sums.
    Only the recurrences ``dR <- dR E_n``, ``cov <- A_n cov A_n^T + C_n``
    and ``J <- A_n J + G_n`` loop over the steps.
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
            bias_lin=(b_a.copy(), b_g.copy()), t_start=t_start, t_end=t_end,
        )
    if times.size < 2 or times[0] > t_start + 1e-9 or times[-1] < t_end - 1e-9:
        raise DataError(
            f"IMU samples [{times[0]}, {times[-1]}] do not cover "
            f"[{t_start}, {t_end}]"
        )

    inner = (times > t_start) & (times < t_end)
    ts = np.concatenate([[t_start], times[inner], [t_end]])
    ws = np.vstack([[_interp_row(times, gyro, t_start)], gyro[inner],
                    [_interp_row(times, gyro, t_end)]])
    accs = np.vstack([[_interp_row(times, accel, t_start)], accel[inner],
                      [_interp_row(times, accel, t_end)]])

    # one row per step n, from ts[n] to ts[n + 1]
    dt = np.diff(ts)[:, None]
    dt3 = dt[:, :, None]
    w = 0.5 * (ws[:-1] + ws[1:]) - b_g
    a = 0.5 * (accs[:-1] + accs[1:]) - b_a
    phi = w * dt
    E = so3_exp(phi)
    dRs = np.empty_like(E)  # dR at the start of each step
    dR = np.eye(3)
    for n, E_n in enumerate(E):
        dRs[n] = dR
        dR = dR @ E_n
    half = so3_exp(0.5 * phi)
    R_mid = dRs @ half
    Ra = (R_mid @ a[:, :, None])[:, :, 0]
    RH = R_mid @ hat(a)
    # R_mid a moves by -RH Exp(phi/2)^T eps when dR <- dR Exp(eps), and by
    # RH Jr(phi/2) dt/2 per unit of b_g through the half step Exp(phi/2)
    RH_rot = RH @ np.swapaxes(half, 1, 2)
    RH_bg = RH @ so3_right_jacobian(0.5 * phi) * (0.5 * dt3)
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
    # (gyro, accel), so C_n = B_n Q B_n^T = G_n diag(accel^2, gyro^2) G_n^T.
    G = np.zeros((len(E), 9, 6))
    G[:, 0:3, 3:6] = -so3_right_jacobian(phi) * dt3
    G[:, 3:6, 0:3] = -R_mid * dt3
    G[:, 3:6, 3:6] = RH_bg * dt3
    G[:, 6:9, 0:3] = -0.5 * R_mid * dt3 * dt3
    G[:, 6:9, 3:6] = 0.5 * RH_bg * dt3 * dt3
    q = np.repeat([accel_sigma**2, gyro_sigma**2], 3)
    C = (G * q) @ np.swapaxes(G, 1, 2)
    cov = np.zeros((9, 9))
    J = np.zeros((9, 6))
    for A_n, C_n, G_n in zip(A, C, G):
        cov = A_n @ cov @ A_n.T + C_n
        J = A_n @ J + G_n

    vel = np.cumsum(Ra * dt, axis=0)  # dv at the end of each step
    dv_start = np.vstack([np.zeros(3), vel[:-1]])
    dp = np.cumsum(dv_start * dt + 0.5 * Ra * dt * dt, axis=0)[-1]
    return PreintegratedImu(
        dR=dR, dv=vel[-1], dp=dp, dt_total=t_end - t_start,
        covariance=0.5 * (cov + cov.T), J_bias=J,
        bias_lin=(b_a.copy(), b_g.copy()), t_start=t_start, t_end=t_end,
    )


def compose(a: PreintegratedImu, b: PreintegratedImu):
    """Concatenate two adjacent preintegrated segments (deltas only)."""
    if abs(a.t_end - b.t_start) > 1e-9:
        raise InvalidArgumentError("segments are not adjacent")
    return PreintegratedImu(
        dR=a.dR @ b.dR,
        dv=a.dv + a.dR @ b.dv,
        dp=a.dp + a.dv * b.dt_total + a.dR @ b.dp,
        dt_total=a.dt_total + b.dt_total,
        covariance=np.zeros((9, 9)),
        J_bias=np.zeros((9, 6)),
        bias_lin=a.bias_lin,
        t_start=a.t_start,
        t_end=b.t_end,
    )


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
