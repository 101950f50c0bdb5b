"""Trajectory evaluation: estimate/ground-truth pairs, ATE metrics, reports.

Each estimate pose is paired with the ground truth interpolated at its own
stamp; metrics are computed in the shared world frame by default, or after
a ``pos_yaw`` pre-alignment for GPS-free runs, whose gauge is free in yaw
and translation (gravity is held).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .dataset import seconds_since
from .initialization import _interp_positions, _interp_rotations
from .rotations import so3_exp, so3_log

ALIGN_MODES = ("none", "pos_yaw")


@dataclass
class AlignedPairs:
    """Matched (timestamp, estimated pose, ground-truth pose) sequence."""

    t_ns: np.ndarray  # (N,)
    est_p: np.ndarray  # (N, 3)
    est_R: np.ndarray  # (N, 3, 3)
    gt_p: np.ndarray  # (N, 3)
    gt_R: np.ndarray  # (N, 3, 3)

    def __post_init__(self):
        self.t_ns = np.asarray(self.t_ns, dtype=np.int64)
        n = self.t_ns.size
        for name in ("est_p", "est_R", "gt_p", "gt_R"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[0] != n:
                raise InvalidArgumentError(f"{name} length mismatch")

    def __len__(self):
        return self.t_ns.size


def make_pairs(est_t_ns, est_p, est_R, gt_t_ns, gt_p, gt_R):
    """AlignedPairs of each estimate stamp inside the span of the ground
    truth (stamps strictly increasing) with the ground truth there: the
    sample itself at a stamp it has, else positions interpolated linearly
    and rotations by slerp between the two samples around the stamp.  A
    stamp outside the span gets no pair.  Interpolation runs on seconds
    since the first ground-truth stamp, so epoch-scale stamps stay exact."""
    est_t = np.asarray(est_t_ns, dtype=np.int64)
    gt_t = np.asarray(gt_t_ns, dtype=np.int64)
    gt_p = np.asarray(gt_p, dtype=float)
    gt_R = np.asarray(gt_R, dtype=float)
    inside = (est_t >= gt_t[0]) & (est_t <= gt_t[-1])
    t = est_t[inside]
    at = np.searchsorted(gt_t, t)  # gt_t[at] >= t, so == t where it has t
    s_gt, s = seconds_since(gt_t, gt_t[0]), seconds_since(t, gt_t[0])
    p = _interp_positions(s_gt, gt_p, s)
    R = _interp_rotations(s_gt, gt_R, s)
    exact = gt_t[at] == t
    p[exact], R[exact] = gt_p[at[exact]], gt_R[at[exact]]
    return AlignedPairs(t, np.asarray(est_p, dtype=float)[inside],
                        np.asarray(est_R, dtype=float)[inside], p, R)


def align_pairs(pairs: AlignedPairs, mode="none"):
    """Optionally pre-align the estimate to ground truth.

    ``pos_yaw`` fits a translation and a rotation about gravity (z) to the
    positions in closed form, the 4-DoF gauge of a visual-inertial estimate.
    The rotation part of the alignment is applied to the estimated
    orientations as well.
    """
    if mode == "none":
        return pairs
    if mode != "pos_yaw":
        raise InvalidArgumentError(f"unknown alignment mode {mode!r}")
    a = pairs.est_p - pairs.est_p.mean(axis=0)
    b = pairs.gt_p - pairs.gt_p.mean(axis=0)
    c = a[:, :2].T @ b[:, :2]  # the yaw maximizes sum_i b_i . Rz a_i
    yaw = np.arctan2(c[0, 1] - c[1, 0], c[0, 0] + c[1, 1])
    R = so3_exp(np.array([0.0, 0.0, yaw]))
    t = pairs.gt_p.mean(axis=0) - R @ pairs.est_p.mean(axis=0)
    return AlignedPairs(pairs.t_ns, pairs.est_p @ R.T + t,
                        R @ pairs.est_R, pairs.gt_p, pairs.gt_R)


def ate_p(pairs: AlignedPairs):
    """Positional absolute trajectory error: RMSE of ||p_est - p_gt|| (m)."""
    if len(pairs) == 0:
        raise InvalidArgumentError("ate_p needs at least one pair")
    d2 = np.sum((pairs.est_p - pairs.gt_p) ** 2, axis=1)
    return float(np.sqrt(d2.mean()))


def ate_r(pairs: AlignedPairs):
    """Rotational absolute trajectory error: RMSE of ||Log(R_e^T R_g)|| (deg)."""
    if len(pairs) == 0:
        raise InvalidArgumentError("ate_r needs at least one pair")
    rel = np.swapaxes(pairs.est_R, -1, -2) @ pairs.gt_R
    ang = np.linalg.norm(so3_log(rel, validate=False), axis=-1)
    return float(np.degrees(np.sqrt(np.mean(ang**2))))


def metrics_dict(pairs: AlignedPairs):
    return {
        "ate_p_m": ate_p(pairs),
        "ate_r_deg": ate_r(pairs),
        "n_pairs": int(len(pairs)),
    }
