"""Trajectory evaluation: timestamp association, ATE metrics, reports.

Estimates and ground truth are associated by nearest timestamp (one-to-one,
within 1 ms); metrics are computed in the shared world frame by default,
with optional pre-alignment: ``pos_yaw`` for GPS-free runs, whose gauge is
free in yaw and translation (gravity is held), or ``sim3``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .initialization import umeyama
from .rotations import so3_exp, so3_log

ASSOCIATION_TOL_NS = 1_000_000  # 1 ms
ALIGN_MODES = ("none", "pos_yaw", "sim3")


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


def associate(est_t_ns, gt_t_ns):
    """One-to-one nearest-timestamp matching within ``ASSOCIATION_TOL_NS``.

    Returns (est_indices, gt_indices); candidate pairs are taken greedily in
    order of increasing time difference so no index is used twice.
    """
    est_t = np.asarray(est_t_ns, dtype=np.int64)
    gt_t = np.asarray(gt_t_ns, dtype=np.int64)
    if est_t.size == 0 or gt_t.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    pos = np.searchsorted(gt_t, est_t)
    cand = []
    for i, p in enumerate(pos):
        for j in (p - 1, p):
            if 0 <= j < gt_t.size:
                d = abs(int(est_t[i]) - int(gt_t[j]))
                if d <= ASSOCIATION_TOL_NS:
                    cand.append((d, i, j))
    cand.sort()
    used_e, used_g = set(), set()
    ei, gi = [], []
    for _, i, j in cand:
        if i in used_e or j in used_g:
            continue
        used_e.add(i)
        used_g.add(j)
        ei.append(i)
        gi.append(j)
    order = np.argsort([est_t[i] for i in ei]) if ei else []
    ei = np.asarray(ei, dtype=int)[order] if len(ei) else np.zeros(0, dtype=int)
    gi = np.asarray(gi, dtype=int)[order] if len(gi) else np.zeros(0, dtype=int)
    return ei, gi


def make_pairs(est_t_ns, est_p, est_R, gt_t_ns, gt_p, gt_R):
    """Associate two timestamped trajectories into AlignedPairs."""
    ei, gi = associate(est_t_ns, gt_t_ns)
    est_t_ns = np.asarray(est_t_ns, dtype=np.int64)
    return AlignedPairs(
        t_ns=est_t_ns[ei],
        est_p=np.asarray(est_p, dtype=float)[ei],
        est_R=np.asarray(est_R, dtype=float)[ei],
        gt_p=np.asarray(gt_p, dtype=float)[gi],
        gt_R=np.asarray(gt_R, dtype=float)[gi],
    )


def align_pairs(pairs: AlignedPairs, mode="none"):
    """Optionally pre-align the estimate to ground truth.

    ``pos_yaw`` fits a translation and a rotation about gravity (z) to the
    positions in closed form, the 4-DoF gauge of a visual-inertial estimate;
    ``sim3`` fits the full similarity (Umeyama).  The rotation part of the
    alignment is applied to the estimated orientations as well.
    """
    if mode == "none":
        return pairs
    if mode == "pos_yaw":
        a = pairs.est_p - pairs.est_p.mean(axis=0)
        b = pairs.gt_p - pairs.gt_p.mean(axis=0)
        c = a[:, :2].T @ b[:, :2]  # the yaw maximizes sum_i b_i . Rz a_i
        yaw = np.arctan2(c[0, 1] - c[1, 0], c[0, 0] + c[1, 1])
        s, R = 1.0, so3_exp(np.array([0.0, 0.0, yaw]))
        t = pairs.gt_p.mean(axis=0) - R @ pairs.est_p.mean(axis=0)
    elif mode == "sim3":
        fit = umeyama(pairs.est_p, pairs.gt_p)
        s, R, t = fit.s, fit.R, fit.t
    else:
        raise InvalidArgumentError(f"unknown alignment mode {mode!r}")
    return AlignedPairs(pairs.t_ns, s * (pairs.est_p @ R.T) + t,
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


def write_metrics_json(path, pairs: AlignedPairs):
    with open(path, "w") as f:
        json.dump(metrics_dict(pairs), f, indent=2)
        f.write("\n")


def _seconds_text(t_ns):
    """The stamp ``t_ns`` as exact decimal seconds, ``-0.010000000`` for
    -10 ms: its integer seconds and nanoseconds, no float between."""
    whole, frac = divmod(abs(t_ns), 1_000_000_000)
    return f"{'-' if t_ns < 0 else ''}{whole}.{frac:09d}"


def write_traj_xy_csv(path, pairs: AlignedPairs):
    """Plot-ready XY view: one row (t, est_x, est_y, gt_x, gt_y) per pair."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "est_x", "est_y", "gt_x", "gt_y"])
        for k in range(len(pairs)):
            w.writerow([
                _seconds_text(int(pairs.t_ns[k])),
                f"{pairs.est_p[k, 0]:.9f}", f"{pairs.est_p[k, 1]:.9f}",
                f"{pairs.gt_p[k, 0]:.9f}", f"{pairs.gt_p[k, 1]:.9f}",
            ])
