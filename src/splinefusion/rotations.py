"""SO(3) utilities: exponential/logarithm maps, SLERP, quaternions.

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
    theta = np.linalg.norm(v, axis=-1)
    small = theta < _SMALL_ANGLE
    # sin(t)/t and (1-cos(t))/t^2 with series fallbacks
    t2 = theta * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(
            small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, t2)
        )
    K = hat(v)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + a[..., None, None] * K + b[..., None, None] * (K @ K)


def _right_jacobian_parts(phi):
    """hat(phi), its square, the small-angle mask and theta = |phi| (1.0
    where small, so that no coefficient divides by zero)."""
    phi = np.asarray(phi, dtype=float)
    theta = np.sqrt(np.vecdot(phi, phi))
    K = hat(phi)
    small = theta < 1e-7
    return K, K @ K, small, np.where(small, 1.0, theta)


def so3_right_jacobian(phi):
    """SO(3) right Jacobian J_r(phi), (..., 3, 3).

    To first order ``Exp(phi + d) = Exp(phi) Exp(J_r(phi) d)``.
    """
    K, KK, small, theta = _right_jacobian_parts(phi)
    t2 = theta * theta
    a = np.where(small, 0.5, (1.0 - np.cos(theta)) / t2)
    b = np.where(small, 1.0 / 6.0, (theta - np.sin(theta)) / (t2 * theta))
    return np.eye(3) - a[..., None, None] * K + b[..., None, None] * KK


def so3_right_jacobian_inv(phi):
    """Inverse of :func:`so3_right_jacobian`, (..., 3, 3), for |phi| < 2 pi.

    To first order ``Log(Exp(phi) Exp(d)) = phi + J_r(phi)^-1 d``.
    """
    K, KK, small, theta = _right_jacobian_parts(phi)
    half = 0.5 * theta
    c = np.where(small, 1.0 / 12.0, 1.0 / (theta * theta)
                 - np.cos(half) / (2.0 * theta * np.sin(half)))
    return np.eye(3) + 0.5 * K + c[..., None, None] * KK


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


def require_rotation(R, tol=1e-6):
    R = np.asarray(R, dtype=float)
    if not is_rotation(R, tol):
        raise InvalidArgumentError("matrix is not a rotation within tolerance")
    return R


def so3_log(R, *, validate=True):
    """Logarithm map: rotation matrix(es) to principal axis-angle vector(s).

    Goes through the quaternion representation, which is stable both near
    the identity and near angle pi.  The returned norm is <= pi.
    """
    R = np.asarray(R, dtype=float)
    if validate:
        require_rotation(R)
    q = rotation_to_quat(R)
    vec = q[..., 1:]
    norm_v = np.linalg.norm(vec, axis=-1)
    theta = 2.0 * np.arctan2(norm_v, q[..., 0])
    small = norm_v < _SMALL_ANGLE
    scale = np.where(small, 2.0 / np.clip(q[..., 0], 1e-12, None),
                     theta / np.where(small, 1.0, norm_v))
    return scale[..., None] * vec


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

    def apply(self, x):
        return (self.R @ np.asarray(x, dtype=float).T).T + self.p

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.R @ other.R, self.R @ other.p + self.p)

    def inverse(self) -> "Pose":
        return Pose(self.R.T, -self.R.T @ self.p)

    def __repr__(self):
        return f"Pose(R={self.R.tolist()}, p={self.p.tolist()})"
