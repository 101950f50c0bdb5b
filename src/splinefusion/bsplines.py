"""Uniform cumulative B-splines over R^3 and SO(3).

A spline of order ``k`` with control nodes ``x_0..x_{N}`` on the uniform
grid ``t_i = t0 + i*dt`` is sampled on segment ``i`` (local fraction
``u in [0, 1)``) from the window ``x_i..x_{i+k-1}``:

    x(u) = x_i + sum_{j=1..k-1} lambda_j(u) * (x_{i+j} - x_{i+j-1})

and on SO(3) from

    R(u) = R_i * prod_{j=1..k-1} Exp(lambda_j(u) * Log(R_{i+j-1}^T R_{i+j})).

The cumulative blending coefficients ``lambda_j(u)`` are polynomials in
``u`` whose exact rational coefficient matrices are precomputed per order.
Time derivatives cost O(k): the difference vectors are formed once and
combined with derivative blending coefficients.  The SO(3) value and
angular-velocity kernels share one O(k) pass, which also gives the node
Jacobians and forms the node differences once per distinct window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, OutOfDomainError, require_finite, require_int
from .rotations import (
    hat,
    is_rotation,
    so3_exp,
    so3_log,
    so3_right_jacobian,
    so3_right_jacobian_inv,
)

MIN_ORDER = 2
MAX_ORDER = 8


# ---------------------------------------------------------------------------
# blending matrices


@lru_cache(maxsize=None)
def basis_matrix(order):
    """Uniform B-spline basis matrix M of shape (order, order).

    Row ``s`` holds the polynomial coefficients (in increasing powers of
    ``u``) weighting window node ``s``:  x(u) = sum_s (M[s] . u_powers) x_{i+s}.
    Entries are exact rationals converted to float.
    """
    k = _check_order(order)
    M = np.empty((k, k))
    for s in range(k):
        for n in range(k):
            acc = Fraction(0)
            for l in range(s, k):
                acc += (-1) ** (l - s) * math.comb(k, l - s) * Fraction(k - 1 - l) ** (
                    k - 1 - n
                )
            M[s, n] = float(Fraction(math.comb(k - 1, n), math.factorial(k - 1)) * acc)
    return M


@lru_cache(maxsize=None)
def cumulative_matrix(order):
    """Cumulative blending matrix C of shape (order-1, order).

    Row ``j-1`` gives the polynomial coefficients of ``lambda_j(u)`` for
    ``j = 1..k-1``:  lambda_j(u) = sum_n C[j-1, n] u^n.
    """
    M = basis_matrix(order)
    return np.cumsum(M[::-1], axis=0)[::-1][1:].copy()


def _check_order(order):
    require_int("spline order", order, MIN_ORDER, MAX_ORDER)
    return int(order)


def blending_many(order, u):
    """Vectorized blending: returns (lam, dlam, ddlam), each (..., k-1).

    Each row is one matrix-matrix product whatever the batch holds, so a
    sample does not depend on its batch.  numpy sends a one-row product to
    matrix-vector BLAS, which sums in another order; a lone ``u`` is
    therefore evaluated as two equal rows.
    """
    k = _check_order(order)
    C = cumulative_matrix(k)
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    if flat.size == 1:
        flat = np.repeat(flat, 2)
    pow0 = flat[:, None] ** np.arange(k)
    n = np.arange(k)
    lam = pow0 @ C.T
    d1 = C * n
    dlam = pow0[:, : k - 1] @ d1[:, 1:].T
    d2 = C * n * (n - 1)
    ddlam = pow0[:, : k - 2] @ d2[:, 2:].T if k > 2 else np.zeros_like(lam)
    shape = u.shape + (k - 1,)
    return tuple(x[: u.size].reshape(shape) for x in (lam, dlam, ddlam))


def window_node_coefficients(order, u, derivative=0):
    """Per-window-node coefficients c_s of the R^3 sample or its u-derivative.

    x^(d)(u) = sum_s c_s x_{i+s} (times 1/dt^d for time derivatives); shape
    (..., order).
    """
    lam, dlam, ddlam = blending_many(order, u)
    arr = (lam, dlam, ddlam)[derivative]
    head = np.ones(arr.shape[:-1] + (1,)) if derivative == 0 else np.zeros(
        arr.shape[:-1] + (1,)
    )
    full = np.concatenate([head, arr, np.zeros(arr.shape[:-1] + (1,))], axis=-1)
    return full[..., :-1] - full[..., 1:]


# ---------------------------------------------------------------------------
# knot grid


@dataclass(frozen=True)
class KnotGrid:
    """Uniform control-node grid: ``t_i = t0 + i*dt``, ``count`` nodes, order k.

    The valid half-open sampling domain is
    ``[t0, t0 + (count - order + 1) * dt)``; each sample on segment ``i``
    uses the ``order`` nodes ``i..i+order-1``.
    """

    t0: float
    dt: float
    count: int
    order: int

    def __post_init__(self):
        _check_order(self.order)
        if not (np.isfinite(self.t0) and np.isfinite(self.dt)) or self.dt <= 0:
            raise InvalidArgumentError("knot grid needs finite t0 and dt > 0")
        require_int("count", self.count, self.order)

    @property
    def num_segments(self):
        return self.count - self.order + 1

    @property
    def domain(self):
        return (self.t0, self.t0 + self.num_segments * self.dt)

    def normalized_times(self, ts):
        """Map times to ``(segment_index, u)`` with ``u`` in [0, 1).

        ``ts`` of shape (...) gives two arrays of shape (...); a Python
        float gives 0-d results.  Raises :class:`OutOfDomainError` on the
        first time outside the half-open domain.
        """
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain
        bad = ~np.isfinite(ts) | (ts < lo) | (ts >= hi)
        if np.any(bad):
            raise OutOfDomainError(float(ts[bad][0]), lo, hi)
        h = (ts - self.t0) / self.dt
        i = np.minimum(np.floor(h).astype(int), self.num_segments - 1)
        u = np.clip(h - i, 0.0, np.nextafter(1.0, 0.0))
        return i, u


def grid_covering(t_min, t_max, dt, order):
    """KnotGrid with the given spacing from ``t_min`` whose half-open domain
    covers [t_min, t_max] with ``ceil(span / dt + 1e-9) + 1`` segments, at
    least one more than covering needs; raises :class:`InvalidArgumentError`
    naming a non-finite bound or a ``dt`` that is not finite > 0."""
    require_finite("t_min", t_min)
    require_finite("t_max", t_max)
    require_finite("dt", dt, positive=True)
    span = max(t_max - t_min, 0.0)
    segments = max(int(np.ceil(span / dt + 1e-9)) + 1, 1)
    return KnotGrid(t0=t_min, dt=dt, count=segments + order - 1, order=order)


# ---------------------------------------------------------------------------
# vectorized window kernels (shared with the batch estimators)


def r3_window_eval(windows, u, order, dt, derivative=0):
    """Evaluate an R^3 spline from gathered node windows.

    windows: (..., k, 3) node windows, u: (...,) fractions.
    """
    lam, dlam, ddlam = blending_many(order, u)
    diffs = windows[..., 1:, :] - windows[..., :-1, :]
    if derivative == 0:
        return windows[..., 0, :] + np.einsum("...j,...jd->...d", lam, diffs)
    if derivative == 1:
        return np.einsum("...j,...jd->...d", dlam, diffs) / dt
    if derivative == 2:
        return np.einsum("...j,...jd->...d", ddlam, diffs) / (dt * dt)
    raise InvalidArgumentError(f"derivative order {derivative} not in (0, 1, 2)")


def so3_window_diffs(rot_windows):
    """Difference vectors Log(R_{j-1}^T R_j) along each window, (..., k-1, 3)."""
    Ra = np.swapaxes(rot_windows[..., :-1, :, :], -1, -2)
    return so3_log(Ra @ rot_windows[..., 1:, :, :], validate=False)


def _so3_window_pass(rot_windows, u, order, jacobians, at=None, memo=None):
    """The O(k) pass shared by the SO(3) window kernels: dlambda, the
    differences d_j and the steps A_j = Exp(lambda_j d_j), stacked over j on
    axis -2 (or -3).  With ``jacobians`` also P^T, G and the inverse right
    Jacobians J_r^-1(d_j) of the node Jacobians (Sommer et al., "Efficient
    Derivative Computation for Cumulative B-Splines on Lie Groups", CVPR
    2020): with P_j = A_{j+1} ... A_{k-1} (P_{k-1} = I), a change e of d_j
    turns R(u) by G_j e = P_j^T lambda_j J_r(lambda_j d_j) e on the right,
    and d_j = Log(R_{j-1}^T R_j) moves by J_r^-1(d_j) delta_j and by
    -J_r^-1(d_j)^T delta_{j-1}.  Sample n reads window ``at[n]`` (None:
    window n); d_j and J_r^-1(d_j) come once per window.  ``memo``, a dict
    for fixed ``u``, ``order``, ``at``, keeps the pass of the last windows."""
    p = {} if memo is None else memo
    if not np.array_equal(p.get("windows"), rot_windows):
        lam, dlam, _ = blending_many(order, u)
        node_d = so3_window_diffs(rot_windows)
        d = node_d if at is None else node_d.take(at, axis=0)
        p.clear()
        p.update(windows=rot_windows.copy(), lam=lam, dlam=dlam, node_d=node_d,
                 d=d, A=so3_exp(lam[..., None] * d))
    if jacobians and "G" not in p:
        lam, A = p["lam"], p["A"]
        P = np.empty(A.shape[:-3] + (order, 3, 3))
        P[..., -1, :, :] = np.eye(3)
        for j in range(order - 1, 0, -1):
            P[..., j - 1, :, :] = A[..., j - 1, :, :] @ P[..., j, :, :]
        Pt = np.swapaxes(P, -1, -2)
        Jinv = so3_right_jacobian_inv(p["node_d"])
        p.update(Pt=Pt, Jinv=Jinv if at is None else Jinv.take(at, axis=0),
                 G=Pt[..., 1:, :, :] * lam[..., None, None] @ so3_right_jacobian(
                     lam[..., None] * p["d"]))
    return tuple(p[x] for x in ("dlam", "d", "A", "Pt", "G", "Jinv")[:6 if jacobians else 3])


def _node_jacobians(M, Jinv, first=None):
    """Chain per-difference Jacobians M_j (..., k-1, a, 3) to the k nodes:
    J_s = M_s J_r^-1(d_s) - M_{s+1} J_r^-1(d_{s+1})^T (+ ``first`` at s=0)."""
    J = np.empty(M.shape[:-3] + (M.shape[-3] + 1,) + M.shape[-2:])
    J[..., 0, :, :] = 0.0
    np.matmul(M, Jinv, out=J[..., 1:, :, :])
    J[..., :-1, :, :] -= M @ np.swapaxes(Jinv, -1, -2).copy()  # contiguous: 3x faster
    if first is not None:
        J[..., 0, :, :] += first
    return J


def so3_window_eval(rot_windows, u, order, jacobians=False, at=None, memo=None):
    """R(u) (..., 3, 3) of an SO(3) cumulative spline from gathered node
    windows; with ``jacobians`` ``(R, J)``, J (..., k, 3, 3) giving
    R(u) <- R(u) Exp(J[s] delta_s) to first order under the right
    perturbation R_s <- R_s Exp(delta_s) of window node s; ``at``, ``memo``
    as in :func:`_so3_window_pass`."""
    _, _, A, *jac = _so3_window_pass(rot_windows, u, order, jacobians, at, memo)
    R = rot_windows[..., 0, :, :] if at is None else rot_windows[:, 0].take(at, axis=0)
    for j in range(order - 1):
        R = R @ A[..., j, :, :]
    if not jacobians:
        return R
    Pt, G, Jinv = jac
    return R, _node_jacobians(G, Jinv, Pt[..., 0, :, :])


def so3_window_angvel(rot_windows, u, order, dt, jacobians=False, at=None, memo=None):
    """Body-frame angular velocity omega(u) (..., 3) rad/s of the SO(3)
    spline: omega_j = A_j^T omega_{j-1} + dlambda_j d_j along the factor
    chain, linear in the order.  With ``jacobians`` ``(omega, J)``, J
    (..., k, 3, 3) = d omega / d delta_s under R_s <- R_s Exp(delta_s): a
    change e of d_j moves omega by
    (hat(P_j^T A_j^T omega_{j-1}) G_j + dlambda_j P_j^T) e / dt; ``at``,
    ``memo`` as in :func:`_so3_window_pass`."""
    dlam, d, A, *jac = _so3_window_pass(rot_windows, u, order, jacobians, at, memo)
    omega = np.zeros(A.shape[:-3] + (3,))
    if jacobians:
        Pt, G, Jinv = jac
        H = np.empty_like(G)
    for j in range(order - 1):
        x = np.einsum("...ba,...b->...a", A[..., j, :, :], omega)
        if jacobians:
            Ptj = Pt[..., j + 1, :, :]
            H[..., j, :, :] = hat(np.einsum("...ab,...b->...a", Ptj, x)) @ G[
                ..., j, :, :] + dlam[..., j, None, None] * Ptj
        omega = x + dlam[..., j, None] * d[..., j, :]
    if not jacobians:
        return omega / dt
    return omega / dt, _node_jacobians(H / dt, Jinv)


def so3_cut_windows(rot_windows, reach, memo=None):
    """(...,) mask of the node windows (..., k, 3, 3) that hold a
    consecutive control pair within ``reach`` of angle pi.

    There Log(R_i^T R_{i+1}) flips branch under a perturbation of
    ``reach``, so every spline sample whose window holds the pair jumps.
    A ``memo`` of :func:`_so3_window_pass` that holds these windows gives
    their differences; one that holds others is left as it is.
    """
    memo = {} if memo is None else memo
    d = (memo["node_d"] if np.array_equal(memo.get("windows"), rot_windows)
         else so3_window_diffs(rot_windows))
    return (np.linalg.norm(d, axis=-1) > np.pi - reach).any(-1)


# ---------------------------------------------------------------------------
# spline containers


@dataclass
class SplineR3:
    """Uniform B-spline over R^3 (positions, biases, ...)."""

    grid: KnotGrid
    nodes: np.ndarray  # (count, 3)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.shape != (self.grid.count, 3):
            raise InvalidArgumentError(
                f"nodes shape {self.nodes.shape} != ({self.grid.count}, 3)"
            )
        if not np.all(np.isfinite(self.nodes)):
            raise InvalidArgumentError("non-finite spline nodes")

    def sample_many(self, ts, derivative=0):
        """Value (derivative 0), d/dt (1) or d^2/dt^2 (2) at times ``ts``.

        ``ts`` of shape (...) gives (..., 3); a Python float gives one
        sample of shape (3,).
        """
        i, u = self.grid.normalized_times(ts)
        idx = i[..., None] + np.arange(self.grid.order)
        return r3_window_eval(self.nodes[idx], u, self.grid.order, self.grid.dt,
                              derivative)


@dataclass
class SplineSO3:
    """Uniform cumulative B-spline over SO(3)."""

    grid: KnotGrid
    nodes: np.ndarray  # (count, 3, 3)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.shape != (self.grid.count, 3, 3):
            raise InvalidArgumentError(
                f"nodes shape {self.nodes.shape} != ({self.grid.count}, 3, 3)"
            )
        if not is_rotation(self.nodes):
            raise InvalidArgumentError("spline nodes are not rotations")

    def sample_many(self, ts):
        """Rotations at times ``ts``: (..., 3, 3), or (3, 3) for a float."""
        i, u = self.grid.normalized_times(ts)
        idx = i[..., None] + np.arange(self.grid.order)
        return so3_window_eval(self.nodes[idx], u, self.grid.order)

    def angular_velocity_many(self, ts):
        """Body-frame angular velocity omega with Rdot = R [omega]_x at
        times ``ts``: (..., 3) rad/s, or (3,) for a float."""
        if self.grid.order < 3:
            raise InvalidArgumentError("angular velocity needs order >= 3")
        i, u = self.grid.normalized_times(ts)
        idx = i[..., None] + np.arange(self.grid.order)
        return so3_window_angvel(self.nodes[idx], u, self.grid.order, self.grid.dt)
