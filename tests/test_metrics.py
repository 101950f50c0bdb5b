import json

import numpy as np
import pytest

from splinefusion import metrics as met
from splinefusion.errors import InvalidArgumentError
from splinefusion.rotations import so3_exp, so3_log

from conftest import random_rotation


def make_pairs(rng, n=50):
    t = (np.arange(n) * 100_000_000).astype(np.int64)
    gt_p = rng.normal(size=(n, 3))
    gt_R = np.stack([random_rotation(rng) for _ in range(n)])
    return t, gt_p, gt_R


def test_ate_p_hand_value():
    t = np.array([0, 1], dtype=np.int64)
    eye = np.stack([np.eye(3)] * 2)
    pairs = met.AlignedPairs(
        t, np.array([[1.0, 0, 0], [0, 2.0, 0]]), eye,
        np.zeros((2, 3)), eye,
    )
    # sqrt((1 + 4) / 2)
    assert np.isclose(met.ate_p(pairs), np.sqrt(2.5))
    assert met.ate_r(pairs) == 0.0


def test_ate_r_known_angle(rng):
    t, p, R = make_pairs(rng, 10)
    dR = so3_exp(np.array([0.0, 0.0, np.radians(5.0)]))
    pairs = met.AlignedPairs(t, p, R @ dR, p, R)
    assert np.isclose(met.ate_r(pairs), 5.0, atol=1e-9)
    assert met.ate_p(pairs) == 0.0


def test_ate_p_invariant_under_common_rigid_transform(rng):
    t, p, R = make_pairs(rng)
    est_p = p + rng.normal(scale=0.1, size=p.shape)
    pairs = met.AlignedPairs(t, est_p, R, p, R)
    base = met.ate_p(pairs)
    Q = random_rotation(rng)
    d = rng.normal(size=3)
    moved = met.AlignedPairs(
        t, (Q @ est_p.T).T + d, Q @ R, (Q @ p.T).T + d, Q @ R
    )
    assert np.isclose(met.ate_p(moved), base, atol=1e-12)
    assert np.isclose(met.ate_r(moved), met.ate_r(pairs), atol=1e-9)


def test_ate_permutation_invariant(rng):
    t, p, R = make_pairs(rng)
    est_p = p + rng.normal(scale=0.1, size=p.shape)
    pairs = met.AlignedPairs(t, est_p, R, p, R)
    perm = rng.permutation(len(pairs))
    shuffled = met.AlignedPairs(t[perm], est_p[perm], R[perm], p[perm], R[perm])
    assert np.isclose(met.ate_p(shuffled), met.ate_p(pairs), atol=1e-12)
    assert np.isclose(met.ate_r(shuffled), met.ate_r(pairs), atol=1e-12)


def test_align_pos_yaw_removes_yaw_and_translation(rng):
    t, p, R = make_pairs(rng)
    Q = so3_exp(np.array([0.0, 0.0, 2.3]))
    d = rng.normal(size=3)
    pairs = met.AlignedPairs(t, (Q @ p.T).T + d, Q @ R, p, R)
    aligned = met.align_pairs(pairs, "pos_yaw")
    assert met.ate_p(aligned) < 1e-9
    assert met.ate_r(aligned) < 1e-7
    # a roll of the whole trajectory is observable (gravity), not a gauge
    # freedom: the yaw fit leaves at least the roll angle in ATE-R
    roll = 0.05
    Q = Q @ so3_exp(np.array([roll, 0.0, 0.0]))
    tilted = met.AlignedPairs(t, (Q @ p.T).T + d, Q @ R, p, R)
    assert met.ate_r(met.align_pairs(tilted, "pos_yaw")) >= \
        np.degrees(roll) * (1 - 1e-9)


def test_alignment_modes(rng):
    """``none`` returns the pairs themselves; a mode outside ``ALIGN_MODES``
    is rejected, ``sim3`` too, since every estimate has its metric scale
    fixed by the IMU or GPS."""
    t, p, R = make_pairs(rng)
    pairs = met.AlignedPairs(t, p + 1.0, R, p, R)
    assert met.ALIGN_MODES == ("none", "pos_yaw")
    assert met.align_pairs(pairs, "none") is pairs
    for mode in ("so3", "se3", "sim3"):
        with pytest.raises(InvalidArgumentError):
            met.align_pairs(pairs, mode)


def test_make_pairs(rng):
    """Each estimate stamp in the ground truth's span is paired with the
    ground truth there: its own sample at a stamp it has, the last one
    included, the lerp and slerp midpoint halfway between two samples; a
    stamp outside the span gets no pair.  Epoch-scale stamps give the same
    pairs."""
    gt_t, gt_p, gt_R = make_pairs(rng, 20)
    half = 50_000_000
    est_t = np.array([-1, 0, 3 * 100_000_000 + half, 7 * 100_000_000,
                      gt_t[-1], gt_t[-1] + 1], dtype=np.int64)
    est_p = rng.normal(size=(est_t.size, 3))
    est_R = np.stack([random_rotation(rng) for _ in est_t])
    pairs = met.make_pairs(est_t, est_p, est_R, gt_t, gt_p, gt_R)
    assert np.array_equal(pairs.t_ns, est_t[1:5])
    assert np.array_equal(pairs.est_p, est_p[1:5])
    assert np.array_equal(pairs.est_R, est_R[1:5])
    own = [0, 2, 3]  # the pairs at a ground-truth stamp
    assert np.array_equal(pairs.gt_p[own], gt_p[[0, 7, 19]])
    assert np.array_equal(pairs.gt_R[own], gt_R[[0, 7, 19]])
    assert np.allclose(pairs.gt_p[1], 0.5 * (gt_p[3] + gt_p[4]),
                       rtol=0, atol=1e-12)
    mid_R = gt_R[3] @ so3_exp(0.5 * so3_log(gt_R[3].T @ gt_R[4]))
    assert np.allclose(pairs.gt_R[1], mid_R, rtol=0, atol=1e-12)
    shift = 1_700_000_000 * 1_000_000_000
    moved = met.make_pairs(est_t + shift, est_p, est_R, gt_t + shift, gt_p, gt_R)
    assert np.array_equal(moved.t_ns, pairs.t_ns + shift)
    assert np.array_equal(moved.gt_p, pairs.gt_p)
    assert np.array_equal(moved.gt_R, pairs.gt_R)


def test_empty_pairs_raise():
    t = np.zeros(0, dtype=np.int64)
    empty = met.AlignedPairs(t, np.zeros((0, 3)), np.zeros((0, 3, 3)),
                             np.zeros((0, 3)), np.zeros((0, 3, 3)))
    with pytest.raises(InvalidArgumentError):
        met.ate_p(empty)
    with pytest.raises(InvalidArgumentError):
        met.ate_r(empty)


def test_metric_files(tmp_path, rng):
    t, p, R = make_pairs(rng, 5)
    pairs = met.AlignedPairs(t, p + 0.1, R, p, R)
    met.write_metrics_json(tmp_path / "metrics.json", pairs)
    with open(tmp_path / "metrics.json") as f:
        data = json.load(f)
    assert set(data) == {"ate_p_m", "ate_r_deg", "n_pairs"}
    assert data["n_pairs"] == 5
    assert np.isclose(data["ate_p_m"], np.sqrt(3) * 0.1)

