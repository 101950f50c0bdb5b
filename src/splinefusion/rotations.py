"""SO(3) utilities: exponential/logarithm maps, SLERP, quaternions.

Exp and the right Jacobians are closed forms in [phi]x (Sola, Deray and
Atchuthan, arXiv:1812.01537); Log goes through the quaternion only near pi.

Conventions
-----------
Rotations are stored as 3x3 orthonormal matrices with determinant +1 and
follow the column-vector convention ``p_world = R_wb @ p_body``.  The
logarithm map returns the principal axis-angle vector with norm <= pi; at
exactly pi the axis sign is canonicalized so that its first nonzero
component (in x, y, z order) is positive.

All functions broadcast over leading axes: ``so3_exp`` accepts ``(..., 3)``
and ``so3_log`` accepts ``(..., 3, 3)``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_SMALL_ANGLE = 1e-8
_NEAR_PI_COS = -0.995  # Log goes through the quaternion below this cos(angle)


def hat(v):
    """Skew-symmetric matrix [v]_x such that hat(v) @ w = cross(v, w)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def _so3_poly(v, t2, a, b):
    """I + a [v]x + b [v]x^2, (..., 3, 3), built entry by entry from the
    components of v with [v]x^2 = v v^T - t2 I, t2 = |v|^2."""
    flat = np.einsum("...i,...j->...ij", b[..., None] * v, v).reshape(
        v.shape[:-1] + (9,))  # row-major entries
    av = a[..., None] * v
    flat[..., ::4] += (1.0 - b * t2)[..., None]
    flat[..., 7] += av[..., 0]
    flat[..., 5] -= av[..., 0]
    flat[..., 2] += av[..., 1]
    flat[..., 6] -= av[..., 1]
    flat[..., 3] += av[..., 2]
    flat[..., 1] -= av[..., 2]
    return flat.reshape(v.shape[:-1] + (3, 3))


def _angle(phi, small_angle):
    """|phi|^2, the mask |phi| < small_angle and |phi| (1 under the mask)."""
    t2 = np.vecdot(phi, phi)
    small = t2 < small_angle * small_angle
    return t2, small, np.sqrt(np.where(small, 1.0, t2))


def so3_exp(v):
    """Exponential map: axis-angle vector(s) to rotation matrix(es).

    Uses the Rodrigues formula with a Taylor expansion of the sinc terms
    below ``1e-8`` rad to avoid division by zero.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise InvalidArgumentError(f"expected (...,3) rotation vector, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("non-finite rotation vector")
    t2, small, theta = _angle(v, _SMALL_ANGLE)
    # sin(t)/t and (1-cos(t))/t^2 = 2 (sin(t/2)/t)^2 with series fallbacks
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / theta)
    b = np.where(small, 0.5 - t2 / 24.0, 2.0 * (np.sin(0.5 * theta) / theta)**2)
    return _so3_poly(v, t2, a, b)


def so3_right_jacobian(phi):
    """SO(3) right Jacobian J_r(phi), (..., 3, 3).

    To first order ``Exp(phi + d) = Exp(phi) Exp(J_r(phi) d)``.
    """
    phi = np.asarray(phi, dtype=float)
    t2, small, theta = _angle(phi, 1e-7)
    a = np.where(small, 0.5, 2.0 * (np.sin(0.5 * theta) / theta)**2)
    b = np.where(small, 1.0 / 6.0, (theta - np.sin(theta)) / theta**3)
    return _so3_poly(phi, t2, -a, b)


def so3_right_jacobian_inv(phi):
    """Inverse of :func:`so3_right_jacobian`, (..., 3, 3), for |phi| < 2 pi.

    To first order ``Log(Exp(phi) Exp(d)) = phi + J_r(phi)^-1 d``.
    """
    phi = np.asarray(phi, dtype=float)
    t2, small, theta = _angle(phi, 1e-7)
    half = 0.5 * theta
    c = np.where(small, 1.0 / 12.0, 1.0 / (theta * theta)
                 - np.cos(half) / (2.0 * theta * np.sin(half)))
    return _so3_poly(phi, t2, np.full_like(t2, 0.5), c)


def running_products(M):
    """The running products M_0, M_0 M_1, ..., M_0 M_1 ... M_{N-1} of the
    stack ``M`` (N, k, k), by doubling: ceil(log2 N) batched products."""
    P = np.array(M, dtype=float)
    step = 1
    while step < len(P):
        P[step:] = P[:-step] @ P[step:]
        step *= 2
    return P


def rotation_to_quat(R):
    """Rotation matrix(es) to unit quaternion(s) (w, x, y, z), w >= 0.

    Shepperd's method: branch on the largest of trace and diagonal entries
    for numerical stability in every angle regime.
    """
    R = np.asarray(R, dtype=float)
    shape = R.shape[:-2]
    Rf = R.reshape(-1, 3, 3)
    n = Rf.shape[0]
    q = np.empty((n, 4))
    tr = np.trace(Rf, axis1=-2, axis2=-1)
    diag = np.stack([Rf[:, 0, 0], Rf[:, 1, 1], Rf[:, 2, 2]], axis=1)
    choice = np.where(tr > np.max(diag, axis=1), 3, np.argmax(diag, axis=1))
    for c in range(4):
        idx = np.nonzero(choice == c)[0]
        if idx.size == 0:
            continue
        M = Rf[idx]
        if c == 3:
            s = np.sqrt(tr[idx] + 1.0) * 2.0
            q[idx, 0] = 0.25 * s
            q[idx, 1] = (M[:, 2, 1] - M[:, 1, 2]) / s
            q[idx, 2] = (M[:, 0, 2] - M[:, 2, 0]) / s
            q[idx, 3] = (M[:, 1, 0] - M[:, 0, 1]) / s
        else:
            i, j, k = c, (c + 1) % 3, (c + 2) % 3
            s = np.sqrt(1.0 + M[:, i, i] - M[:, j, j] - M[:, k, k]) * 2.0
            q[idx, 0] = (M[:, k, j] - M[:, j, k]) / s
            q[idx, 1 + i] = 0.25 * s
            q[idx, 1 + j] = (M[:, j, i] + M[:, i, j]) / s
            q[idx, 1 + k] = (M[:, k, i] + M[:, i, k]) / s
    # canonicalize sign: w >= 0, tie broken by first nonzero vector part > 0
    flip = q[:, 0] < 0.0
    wzero = np.abs(q[:, 0]) < 1e-14
    if np.any(wzero):
        vec = q[wzero, 1:]
        first = np.argmax(np.abs(vec) > 1e-14, axis=1)
        sign = np.take_along_axis(vec, first[:, None], axis=1)[:, 0]
        flip[wzero] = sign < 0.0
    q[flip] *= -1.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q.reshape(shape + (4,))


def quat_to_rotation(q):
    """Unit quaternion(s) (w, x, y, z) to rotation matrix(es)."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def is_rotation(R, tol=1e-6):
    """True if R is orthonormal with det +1 within tol (Frobenius)."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3) or not np.all(np.isfinite(R)):
        return False
    err = np.linalg.norm(
        np.swapaxes(R, -1, -2) @ R - np.eye(3), axis=(-2, -1)
    )
    det = np.linalg.det(R)
    return bool(np.all(err < tol) & np.all(np.abs(det - 1.0) < tol))


def so3_orthonormalize(R):
    """The nearest rotation to each of ``R``, to rounding, for matrices
    within rounding of one: one Newton step of the polar decomposition,
    ``R (3 I - R^T R) / 2``."""
    R = np.asarray(R, dtype=float)
    return 1.5 * R - 0.5 * R @ (np.swapaxes(R, -1, -2) @ R)


def so3_log(R, *, validate=True):
    """Logarithm map: rotation matrix(es) to principal axis-angle vector(s).

    With v the vee of (R - R^T) / 2, theta = atan2(|v|, (tr R - 1) / 2) and
    Log R = theta v / |v|.  Where cos theta < -0.995 the axis from v loses
    accuracy, and those rotations go through the quaternion (Shepperd's
    method) instead.  The returned norm is <= pi.
    """
    R = np.asarray(R, dtype=float)
    if validate and not is_rotation(R):
        raise InvalidArgumentError("matrix is not a rotation within tolerance")
    v = 0.5 * (R[..., [2, 0, 1], [1, 2, 0]] - R[..., [1, 2, 0], [2, 0, 1]])
    c = 0.5 * (np.einsum("...ii->...", R) - 1.0)
    s = np.sqrt(np.vecdot(v, v))
    small = s < _SMALL_ANGLE  # theta / s -> 1 there, away from pi
    scale = np.where(small, 1.0, np.arctan2(s, c) / np.where(small, 1.0, s))
    out = scale[..., None] * v
    near_pi = c < _NEAR_PI_COS
    if np.any(near_pi):
        q = rotation_to_quat(R[near_pi])
        norm_v = np.linalg.norm(q[:, 1:], axis=-1)
        out[near_pi] = (2.0 * np.arctan2(norm_v, q[:, 0]) / norm_v)[:, None] * q[:, 1:]
    return out


def slerp(Ra, Rb, u):
    """Geodesic interpolation ``Ra @ Exp(u * Log(Ra^T @ Rb))`` for u in [0, 1]."""
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise InvalidArgumentError(f"interpolation fraction {u} outside [0, 1]")
    Ra = np.asarray(Ra, dtype=float)
    Rb = np.asarray(Rb, dtype=float)
    d = so3_log(np.swapaxes(Ra, -1, -2) @ Rb, validate=False)
    return Ra @ so3_exp(u * d)


def slerp_many(Ra, Rb, u):
    """Vectorized slerp with per-pair fractions ``u`` (no input validation)."""
    d = so3_log(np.swapaxes(Ra, -1, -2) @ Rb, validate=False)
    return Ra @ so3_exp(np.asarray(u)[..., None] * d)


class Pose:
    """Rigid transform (R, p): maps child-frame points via R @ x + p."""

    __slots__ = ("R", "p")

    def __init__(self, R, p):
        self.R = np.asarray(R, dtype=float)
        self.p = np.asarray(p, dtype=float)

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.R @ other.R, self.R @ other.p + self.p)

    def inverse(self) -> "Pose":
        return Pose(self.R.T, -self.R.T @ self.p)

    def __repr__(self):
        return f"Pose(R={self.R.tolist()}, p={self.p.tolist()})"
