"""Full-batch continuous-time and discrete-time estimators.

Both estimators consume a MeasurementSet plus rig/noise metadata, build a
sparse least-squares problem over their respective state vectors, and run
the Levenberg-Marquardt solver.  The continuous-time state is a spline
pair with cubic bias splines; the discrete-time state is one
pose/velocity/bias tuple per camera frame.  Both add the landmarks and the
clock offsets, so both estimate the same unknowns.  Both hold gravity at
``GRAVITY``, and the camera extrinsic and the GPS lever arm at the rig's
values (``scene.json``): they are not estimated.  No trajectory block is
held, so without GPS yaw and translation are a free gauge.  Poses map body
to world, and ``t_imu = t_cam + t_cam_imu = t_gps + t_gps_imu``.

Time-offset handling: CT samples the spline at the shifted measurement
time; DT shifts image features along their track velocity (and shifts the
GPS interpolation time).  Offset blocks are bounded box constraints.

The set-up works on tables, not per observation: :func:`flatten_observations`
adds stamps and track velocities to ``MeasurementSet.observations()``, and
one id-sorted landmark table maps observations to landmark blocks and
gathers each frame's points for PnP.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bsplines as bs
from . import preintegration as pre
from .camera import project_many
from .dataset import MeasurementSet, NoiseSpec, SensorRig
from .errors import (DataError, DegenerateConfigurationError,
                     InvalidArgumentError, NumericalFailureError,
                     require_finite, require_int)
from .initialization import (R3FitGroup, _interp_positions, _interp_rotations,
                             add_field_blocks, gps_gyro_poses,
                             pnp_dlt, r3_window_jacobian, window_slot)
from .preintegration import GRAVITY
from .rotations import (hat, so3_exp, so3_log, so3_right_jacobian,
                        so3_right_jacobian_inv)
from .solver import (
    EUCLIDEAN,
    ROTATION,
    FactorGroup,
    Problem,
    Slot,
    SolveOptions,
    solve,
    window_jacobian,
)

BIAS_NODE_HZ = 1.0  # knot rate of CT's cubic bias splines


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by the continuous- and discrete-time estimators."""

    use_cam: bool = True
    use_imu: bool = True
    use_gps: bool = True
    max_iter: int = 50
    offset_bound: float = 0.05
    landmark_sigma: float = 0.1

    def __post_init__(self):
        if sum((self.use_cam, self.use_imu, self.use_gps)) < 2:
            raise InvalidArgumentError("need at least two sensor modalities")
        require_int("max_iter", self.max_iter, 1)
        require_finite("offset_bound", self.offset_bound, positive=True)
        require_finite("landmark_sigma", self.landmark_sigma, positive=False)


@dataclass(frozen=True)
class CtConfig(EstimatorConfig):
    """Continuous-time estimator settings.

    ``node_hz`` is the control-node rate of the trajectory spline.  The
    cumulative SO(3) spline needs every pair of consecutive control
    rotations to stay below angle pi apart: its Log difference flips branch
    at pi and the spline jumps there.  The node rate must therefore suit
    the motion.  A grid too sparse to follow it (say, 1 Hz nodes under a
    1.3 Hz wobble) makes the solve push control rotations apart until a pair
    sits on the cut, and the solve ends ``"discontinuous"``.
    """

    spline_order: int = 6
    node_hz: float = 10.0

    def __post_init__(self):
        super().__post_init__()
        bs._check_order(self.spline_order)
        require_finite("node_hz", self.node_hz, positive=True)
        if self.use_imu and self.spline_order < 4:
            raise InvalidArgumentError(
                "IMU factors need spline order >= 4 for C2 continuity"
            )


@dataclass(frozen=True)
class DtConfig(EstimatorConfig):
    """Discrete-time estimator settings: the shared ones, nothing of its own.
    DT reads only those, so it runs on a :class:`CtConfig` too, as the CLI
    does with the one ``estimator`` config section."""


@dataclass
class CtState:
    """Continuous-time state: the spline trajectory, cubic bias splines, the
    landmarks and the clock offsets.  Gravity is ``GRAVITY``, as in DT.  The
    splines run on seconds since the origin of the measurements ``meas``:
    sample them at stamps ``t_ns`` with ``sample_many(meas.seconds(t_ns))``."""

    position: bs.SplineR3  # body position in world
    rotation: bs.SplineSO3  # body orientation in world
    landmarks: dict  # id -> (3,) world
    t_cam_imu: float
    t_gps_imu: float
    bias_accel: bs.SplineR3  # cubic (order 4)
    bias_gyro: bs.SplineR3

    def __post_init__(self):
        for b in (self.bias_accel, self.bias_gyro):
            if b.grid.order != 4:
                raise InvalidArgumentError("bias splines must be cubic (order 4)")


@dataclass
class DtState:
    """Discrete-time state: one pose/velocity/bias per camera frame."""

    t_ns: np.ndarray  # (K,) pose stamps, IMU clock; seconds: meas.seconds(t_ns)
    positions: np.ndarray  # (K, 3)
    rotations: np.ndarray  # (K, 3, 3)
    velocities: np.ndarray  # (K, 3)
    bias_accel: np.ndarray  # (K, 3)
    bias_gyro: np.ndarray  # (K, 3)
    landmarks: dict
    t_cam_imu: float
    t_gps_imu: float

    def __post_init__(self):
        self.t_ns = np.asarray(self.t_ns, dtype=np.int64)
        k = self.t_ns.size
        for name in ("positions", "rotations", "velocities", "bias_accel",
                     "bias_gyro"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[0] != k:
                raise InvalidArgumentError(f"{name} length != number of poses")
        if k > 1 and np.any(np.diff(self.t_ns) <= 0):
            raise InvalidArgumentError("pose timestamps must strictly increase")


def shift_feature(z, v_feat, t_offset):
    """Constant-velocity feature shift: z + t_offset * v_feat (pixels)."""
    return np.asarray(z, dtype=float) + t_offset * np.asarray(v_feat, dtype=float)


def _sigma(x):
    return x if x > 0 else 1.0


def _edge_margin(cfg):
    """The offset bound plus 10 ms, in whole nanoseconds like the stamps:
    how far the CT spline domain reaches past the data, and how far the IMU
    may fall short of the DT pose span."""
    return round(cfg.offset_bound + 0.01, 9)


# ---------------------------------------------------------------------------
# observation flattening


@dataclass
class _Observations:
    stamps: np.ndarray  # (N,) seconds, camera clock
    frame_index: np.ndarray  # (N,)
    landmark_ids: np.ndarray  # (N,)
    pixels: np.ndarray  # (N, 2)
    velocities: np.ndarray  # (N, 2) px/s track velocities


def flatten_observations(meas: MeasurementSet):
    """The observation table of ``meas`` with stamps in seconds and track
    velocities for feature shifting.

    An observation's velocity is the backward difference to the one before
    it on its track, in frame order; a track's first observation takes the
    forward difference, and a single-observation track zero velocity
    (decoupled from the offset).
    """
    fidx, lids, pixels = meas.observations()
    stamps = meas.seconds(meas.frame_t_ns[fidx])
    # rows of each track, in frame order, and the pairs of consecutive ones
    order = np.argsort(lids, kind="stable")
    track = lids[order]
    pair = track[1:] == track[:-1]
    a, b = order[:-1][pair], order[1:][pair]
    vel = np.zeros_like(pixels)
    vel[b] = (pixels[b] - pixels[a]) / (stamps[b] - stamps[a])[:, None]
    first = np.r_[True, ~pair][:-1][pair]  # the pair starts its track
    vel[a[first]] = vel[b[first]]
    return _Observations(stamps, fidx, lids, pixels, vel)


# ---------------------------------------------------------------------------
# continuous-time factor groups


def _pose_window_jacobians(E_p, E_R, coeff, JR):
    """The position and rotation window slots' Jacobians of a sampled pose:
    ``coeff_s E_p`` and ``E_R JR_s`` for node s, the sampled position (or
    its derivative) being sum_s coeff_s p_s and R <- R Exp(JR_s delta_s).
    Both come in the slot's layout (:func:`window_jacobian`), as ``JR`` does."""
    Jp = coeff[..., None, :, None] * np.expand_dims(E_p, -2)
    return {0: Jp.reshape(Jp.shape[:-2] + (-1,)), 1: E_R @ JR}


class _SplineGroup(FactorGroup):
    """A continuous-time family on the pose spline pair.  Subclasses set
    ``grid`` and ``pos0``/``rot0``, the block ids of the first position and
    rotation node.  Its window slots carry one window per distinct time or
    segment; ``ctx`` starts with their first segments and each factor's row.
    :meth:`jumps` tests the gathered rotation windows, slot ``rot_slot``,
    through the ``memo`` of their SO(3) window pass, if the family keeps one.

    A family that samples the pose puts the two window slots first
    (:meth:`_pose_slots`: positions, then rotations) and states only its
    residual's derivatives in the sampled pose: ``E_p`` in the sampled
    position (or the derivative of it that it samples) and ``E_R`` in the
    right perturbation ``R <- R Exp(eps)`` of the sampled rotation.
    :func:`_pose_window_jacobians` chains them to the window nodes, after
    Sommer et al., "Efficient Derivative Computation for Cumulative
    B-Splines on Lie Groups" (CVPR 2020).  A family sampled at a
    clock-shifted time is also a :class:`_SampledPoseGroup` with the window
    as pose source (:meth:`_locate`, :meth:`_sample`); the others set fixed
    ``slots``.  :meth:`_locate` makes one window per distinct stamp (one
    offset keeps their grouping), :meth:`_sample` evaluates each once and
    repeats the rows for its factors: the features of one camera frame
    share a stamp, so CT reprojection has one window per frame.
    """

    rot_slot = 1
    memo = None

    def jumps(self, ctx, gathered):
        """Factors whose window is cut (:func:`bs.so3_cut_windows`)."""
        return bs.so3_cut_windows(gathered[self.rot_slot], self.fd_step,
                                  self.memo).take(ctx[1])

    def _pose_slots(self, seg, rows):
        k = self.grid.order
        return [window_slot(self.pos0, seg, k, EUCLIDEAN, rows),
                window_slot(self.rot0, seg, k, ROTATION, rows)]

    def _locate(self, t):
        seg, _ = self.grid.normalized_times(t.take(self._first))
        return (seg, self._each, self._first), self._pose_slots(seg, self._each)

    def _sample(self, ctx, pose, t, jacobians=False):
        k, dt = self.grid.order, self.grid.dt
        seg, each, first = ctx
        posw, rotw = pose
        u = (t.take(first) - self.grid.t0) / dt - seg
        p = bs.r3_window_eval(posw, u, k, dt).take(each, axis=0)
        if not jacobians:
            return p, bs.so3_window_eval(rotw, u, k).take(each, axis=0)
        memo = {}  # one pass for both kernels; u moves with the offset
        R, JR = bs.so3_window_eval(rotw, u, k, jacobians=True, memo=memo)
        return (p, R.take(each, axis=0), bs.r3_window_eval(posw, u, k, dt, 1).take(each, axis=0),
                bs.so3_window_angvel(rotw, u, k, dt, memo=memo).take(each, axis=0),
                partial(_pose_window_jacobians, JR=window_jacobian(JR).take(each, axis=0),
                        coeff=bs.window_node_coefficients(k, u).take(each, axis=0)))


class _SampledPoseGroup(FactorGroup):
    """A family sampling the pose at ``stamps + offset``, the offset being
    the clock-offset block ``offset_id``; its slots are the position and
    rotation window slots, the family's own slots ``own`` (a tuple, maybe
    empty), then the offset.  The
    family supplies ``_error(p, R, *own)``, the whitened residual, and with
    ``jacobians=True`` ``(e, E_p, E_R, *E_own)``.  The pose source supplies
    ``_locate(t)``, the ``ctx`` and pose slots at times ``t``, and
    ``_sample(ctx, pose, t)``, the pose ``(p, R)`` there, with
    ``jacobians=True`` also the rates ``pdot``, ``omega`` and a map of
    ``(E_p, E_R)`` to the pose-slot Jacobians.  The offset column is
    ``E_R omega + E_p pdot``.  A source may sample once per distinct time
    and repeat the rows: factors at one time have the same ``ctx`` and pose
    slots, also under the one-block steps of :meth:`FactorGroup._fd_slot`."""

    def build(self, problem, state):
        offset = state.euc[problem.blocks[self.offset_id].store]
        ctx, pose = self._locate(self.stamps + offset)
        return ctx, [*pose, *self.own, Slot(self.offset_id, EUCLIDEAN, 1)]

    def kernel(self, ctx, gathered, jacobians=False):
        pose, own = gathered[:2], gathered[2:-1]
        t = self.stamps + gathered[-1][..., 0]
        if not jacobians:
            return self._error(*self._sample(ctx, pose, t), *own)
        p, R, pdot, omega, chain = self._sample(ctx, pose, t, jacobians=True)
        e, E_p, E_R, *E_own = self._error(p, R, *own, jacobians=True)
        jacs = chain(E_p, E_R)
        jacs.update(enumerate(E_own, start=2))
        jacs[len(gathered) - 1] = E_R @ omega[..., None] + E_p @ pdot[..., None]
        return e, jacs


class _ReprojGroup(FactorGroup):
    """Camera projection shared by the CT and DT reprojection families:
    body pose (R, p) and world landmark -> camera point -> pixel."""

    dim = 2

    def __init__(self, obs, rig, weight):
        self.pixels = obs.pixels
        self.R_cb = rig.T_cam_imu.R
        self.p_cb = rig.T_cam_imu.p
        self.camera = rig.camera
        self.w = weight

    def _project(self, R, p, lm, jacobians=False):
        """Body-frame points, pixels, the valid-depth mask and, with
        ``jacobians``, the whitened d e / d landmark (N, 2, 3), zeroed where
        invalid (None without)."""
        p_body = np.einsum("nji,nj->ni", R, lm - p)
        p_cam = (p_body - self.p_cb) @ self.R_cb
        if not jacobians:
            return (p_body, *project_many(self.camera, p_cam), None)
        px, valid, J_pi = project_many(self.camera, p_cam, jacobians=True)
        # dpc/dl = R_cb^T R^T; e = z - pi so de/dl = -J_pi R_cb^T R^T,
        # zero where invalid because J_pi is
        B = np.einsum("nab,ncb,ndc->nad", -J_pi, self.R_cb[None], R)
        return p_body, px, valid, B * self.w


class CtReprojGroup(_ReprojGroup, _SplineGroup, _SampledPoseGroup):
    """Reprojection residuals sampling the spline at t_k + t_cam_imu."""

    name = "ct_reproj"

    def __init__(self, grid, pos0, rot0, lm_ids, tcam_id, obs, rig, weight):
        super().__init__(obs, rig, weight)
        self.grid = grid
        self.pos0 = pos0
        self.rot0 = rot0
        self.stamps = obs.stamps
        _, self._first, self._each = np.unique(obs.stamps, return_index=True, return_inverse=True)
        self.offset_id = tcam_id
        self.own = (Slot(lm_ids, EUCLIDEAN, 3),)

    def _error(self, p, R, lm, jacobians=False):
        p_body, px, valid, B = self._project(R, p, lm, jacobians)  # B = -d e / d p
        e = (self.pixels - px) * valid[:, None] * self.w
        if not jacobians:
            return e
        # R <- R Exp(eps) moves p_body by hat(p_body) eps
        return e, -B, B @ R @ hat(p_body), B


class _ImuStamps:
    """The (unshifted) IMU stamps of both IMU families of a problem on its
    grids: the distinct segments ``segs``, each stamp's one ``at``, and the
    ``memo`` of the last SO(3) window pass, which the families share."""

    def __init__(self, grid, bias_grid, times):
        seg, self.u = grid.normalized_times(times)
        self.segs, self.at = np.unique(seg, return_inverse=True)
        self.bseg, self.bu = bias_grid.normalized_times(times)
        self.memo = {}


class CtAccelGroup(_SplineGroup):
    """Accelerometer residuals R^T (pddot + g) + b_a - a_bar at the
    :class:`_ImuStamps`, with g = ``GRAVITY`` held as in DT's preintegration."""

    name = "ct_accel"
    dim = 3

    def __init__(self, grid, bias_grid, pos0, rot0, ba0, stamps, accel,
                 weight):
        self.grid = grid
        self.bias_grid = bias_grid
        self.pos0 = pos0
        self.rot0 = rot0
        self.stamps = stamps
        self.memo = stamps.memo
        self.accel = accel
        self.w = weight
        self.ctx = (stamps.segs, stamps.at)
        self.slots = self._pose_slots(*self.ctx) + [
            window_slot(ba0, stamps.bseg, 4, EUCLIDEAN)]
        self._c2 = bs.window_node_coefficients(grid.order, stamps.u, 2) * (
            1.0 / grid.dt**2)
        self._jb = r3_window_jacobian(4, stamps.bu, weight)

    def kernel(self, ctx, gathered, jacobians=False):
        k, dt, s = self.grid.order, self.grid.dt, self.stamps
        posw, rotw, baw = gathered
        acc = bs.r3_window_eval(posw.take(s.at, axis=0), s.u, k, dt, 2)
        R = bs.so3_window_eval(rotw, s.u, k, jacobians, s.at, s.memo)
        R, JR = R if jacobians else (R, None)
        ba = bs.r3_window_eval(baw, s.bu, 4, self.bias_grid.dt)
        f_body = np.einsum("nji,nj->ni", R, acc + GRAVITY)
        e = (f_body + ba - self.accel) * self.w
        if not jacobians:
            return e
        Rt = np.swapaxes(R, -1, -2) * self.w
        # R <- R Exp(eps) moves R^T f by hat(R^T f) eps
        JR = window_jacobian(JR)
        return e, {**_pose_window_jacobians(Rt, self.w * hat(f_body), self._c2, JR),
                   2: self._jb}


class CtGyroGroup(_SplineGroup):
    """Gyroscope residuals omega + b_w - w_bar at the :class:`_ImuStamps`."""

    name = "ct_gyro"
    dim = 3
    rot_slot = 0

    def __init__(self, grid, bias_grid, rot0, bg0, stamps, gyro, weight):
        self.grid = grid
        self.bias_grid = bias_grid
        self.rot0 = rot0
        self.stamps = stamps
        self.memo = stamps.memo
        self.gyro = gyro
        self.w = weight
        self.ctx = (stamps.segs, stamps.at)
        self.slots = [window_slot(rot0, stamps.segs, grid.order, ROTATION, stamps.at),
                      window_slot(bg0, stamps.bseg, 4, EUCLIDEAN)]
        self._jb = r3_window_jacobian(4, stamps.bu, weight)

    def kernel(self, ctx, gathered, jacobians=False):
        k, dt, s = self.grid.order, self.grid.dt, self.stamps
        rotw, bgw = gathered
        omega = bs.so3_window_angvel(rotw, s.u, k, dt, jacobians, s.at, s.memo)
        omega, JW = omega if jacobians else (omega, None)
        bg = bs.r3_window_eval(bgw, s.bu, 4, self.bias_grid.dt)
        e = (omega + bg - self.gyro) * self.w
        if not jacobians:
            return e
        return e, {0: window_jacobian(self.w * JW), 1: self._jb}


class CtBiasRateGroup(R3FitGroup):
    """Bias-spline velocity residuals w b'(t) on a uniform evaluation grid."""

    name = "ct_bias_rate"

    def __init__(self, bias_grid, b0, times, weight):
        seg, u = bias_grid.normalized_times(times)
        super().__init__(bias_grid, b0, seg, u, 0.0, weight, derivative=1)


class _GpsModel:
    """The GPS residual p_bar - (p + R l) in the sampled pose, for CT and DT,
    with offset t_gps_imu.  The lever arm l, the antenna in the body frame,
    is the rig's (``scene.json``), held like the camera extrinsic, so the
    family has no slots of its own."""

    dim = 3
    own = ()

    def __init__(self, rig, tgps_id, stamps, gps, weight):
        self.lever = rig.p_antenna_body
        self.stamps = stamps
        self.gps = gps
        self.w = weight
        self.offset_id = tgps_id

    def _error(self, p, R, jacobians=False):
        e = (self.gps - (p + np.einsum("nij,j->ni", R, self.lever))) * self.w
        if not jacobians:
            return e
        # R <- R Exp(eps) moves R l by -R hat(l) eps
        return e, -self.w * np.eye(3), self.w * R @ hat(self.lever)


class CtGpsGroup(_GpsModel, _SplineGroup, _SampledPoseGroup):
    """GPS residuals on the pose spline."""

    name = "ct_gps"

    def __init__(self, grid, pos0, rot0, rig, tgps_id, stamps, gps, weight):
        super().__init__(rig, tgps_id, stamps, gps, weight)
        self.grid = grid
        self.pos0 = pos0
        self.rot0 = rot0
        _, self._first, self._each = np.unique(stamps, return_index=True, return_inverse=True)


# ---------------------------------------------------------------------------
# discrete-time factor groups


class DtReprojGroup(_ReprojGroup):
    """Reprojection with constant-velocity feature shifting for t_cam_imu."""

    name = "dt_reproj"

    def __init__(self, p_ids, R_ids, lm_ids, tcam_id, obs, rig, weight):
        super().__init__(obs, rig, weight)
        self.vel = obs.velocities
        self.slots = [
            Slot(p_ids, EUCLIDEAN, 3),
            Slot(R_ids, ROTATION, 3),
            Slot(lm_ids, EUCLIDEAN, 3),
            Slot(tcam_id, EUCLIDEAN, 1),
        ]

    def kernel(self, ctx, gathered, jacobians=False):
        p, R, lm, t_cam = gathered
        p_body, px, valid, B = self._project(R, p, lm, jacobians)  # B = -d e / d p
        z_shift = shift_feature(self.pixels, self.vel, -t_cam[..., 0, None])
        r = (z_shift - px) * valid[:, None] * self.w
        if not jacobians:
            return r
        # R <- R Exp(eps) moves p_body by hat(p_body) eps
        B_rot = B @ R @ hat(p_body)
        Jt = -self.vel * valid[:, None] * self.w
        return r, {0: -B, 1: B_rot, 2: B, 3: Jt[:, :, None]}


def _pairs(ids):
    """The (K - 1, 2) windows of consecutive frame blocks ``ids``."""
    return np.stack([ids[:-1], ids[1:]], axis=1)


class DtPreintGroup(FactorGroup):
    """Preintegration residuals between consecutive frames: one window slot
    each for the position, rotation and velocity pair (frame i, frame j =
    i + 1), then the biases of frame i.

    Each segment is preintegrated once, here, at the biases ``bias_accel[n]``
    and ``bias_gyro[n]`` of its first frame, the build's initial state; the
    residuals correct it to the current biases to first order
    (:meth:`pre.PreintegratedImu.corrected`, exact in the accelerometer
    bias), so the cost is a function of the state alone.  A run with the
    camera preintegrates again in its final build, at the stage-1 biases; a
    camera-free run builds once.

    Its Jacobians are central finite differences, 49 kernel calls per
    linearization, of which 13 correct the biases, 20 form the rotation
    term and 37 the velocity term (:meth:`kernel`).
    """

    name = "dt_preint"
    dim = 9

    def __init__(self, ids, imu_t, gyro, accel, frame_times, bias_accel,
                 bias_gyro, gyro_sigma, accel_sigma):
        # ids: dict name -> array of block ids for p, R, v, ba, bg
        # hold-extrapolate the IMU at the edges so that pose stamps slightly
        # outside the sampled span (clock offsets) stay integrable
        if imu_t[0] > frame_times[0]:
            imu_t = np.concatenate([[frame_times[0]], imu_t])
            gyro = np.concatenate([gyro[:1], gyro])
            accel = np.concatenate([accel[:1], accel])
        if imu_t[-1] < frame_times[-1]:
            imu_t = np.concatenate([imu_t, [frame_times[-1]]])
            gyro = np.concatenate([gyro, gyro[-1:]])
            accel = np.concatenate([accel, accel[-1:]])
        pims = []
        for n, (t0, t1) in enumerate(zip(frame_times[:-1], frame_times[1:])):
            # the samples from the last one at or before the segment start to
            # the first one after its end: the ones integrate reads
            i0, i1 = np.searchsorted(imu_t, (t0, t1), side="right")
            s = slice(max(i0 - 1, 0), i1 + 1)
            pims.append(pre.integrate(
                imu_t[s], gyro[s], accel[s],
                bias_lin=(bias_accel[n], bias_gyro[n]), gyro_sigma=gyro_sigma,
                accel_sigma=accel_sigma, t_start=t0, t_end=t1))
        pim = pre.stack(pims)
        self.ctx = (pim, pim.sqrt_info())
        self._last = {}  # residual part -> (key arrays, value)
        self.slots = [
            Slot(_pairs(ids["p"]), EUCLIDEAN, 3),
            Slot(_pairs(ids["R"]), ROTATION, 3),
            Slot(_pairs(ids["v"]), EUCLIDEAN, 3),
            Slot(ids["ba"][:-1], EUCLIDEAN, 3),
            Slot(ids["bg"][:-1], EUCLIDEAN, 3),
        ]

    def kernel(self, ctx, gathered, jacobians=False):
        """The whitened :func:`pre.preint_residual`, its parts reused: the
        bias correction and the rotation and velocity terms keep their last
        value with the arrays it came from, and are recomputed only when
        one of those is not the array of this call.  :meth:`_fd_slot`
        passes the unmoved slots as the same arrays, so a one-block step of
        p recomputes the position term alone.  Arrays are compared by
        identity, so a gathered array must not be written after a call."""
        p, R, v, ba_i, bg_i = gathered
        pim, W = ctx
        dt = np.asarray(pim.dt_total)[..., None]
        dR, dv, dp = self._reuse("correction", (pim, ba_i, bg_i),
                                 pim.corrected, ba_i, bg_i)
        # dR reads b_gyro alone: the rotation rows of J_bias are zero in
        # the b_accel columns
        e = np.concatenate([
            self._reuse("rotation", (pim, R, bg_i), pre.rotation_term,
                        R[:, 0], R[:, 1], dR),
            self._reuse("velocity", (pim, R, v, ba_i, bg_i), pre.velocity_term,
                        R[:, 0], v[:, 0], v[:, 1], dv, dt),
            pre.position_term(R[:, 0], p[:, 0], v[:, 0], p[:, 1], dp, dt)], axis=-1)
        r = np.einsum("nij,nj->ni", W, e)
        return (r, {}) if jacobians else r

    def _reuse(self, part, key, compute, *args):
        """``compute(*args)``, or the value of the last call of ``part`` if
        it had the same ``key`` objects; holding them keeps their ids."""
        last = self._last.get(part)
        if last is None or any(a is not b for a, b in zip(key, last[0])):
            last = self._last[part] = (key, compute(*args))
        return last[1]


class DtBiasWalkGroup(FactorGroup):
    """Whitened bias random-walk residuals between consecutive frames, on
    the accelerometer and the gyro bias pair.  The residuals are linear in
    the biases, so the Jacobians are constants."""

    name = "dt_bias_walk"
    dim = 6

    def __init__(self, ids, frame_times, accel_rw, gyro_rw):
        self.w_a = 1.0 / (_sigma(accel_rw) * np.sqrt(np.diff(frame_times)))
        self.w_g = 1.0 / (_sigma(gyro_rw) * np.sqrt(np.diff(frame_times)))
        self.slots = [Slot(_pairs(ids["ba"]), EUCLIDEAN, 3),
                      Slot(_pairs(ids["bg"]), EUCLIDEAN, 3)]
        step = np.hstack([-np.eye(3), np.eye(3)])  # d (b_j - b_i) / d (b_i, b_j)
        self.jacobians = {0: self.w_a[:, None, None] * np.vstack([step, 0 * step]),
                          1: self.w_g[:, None, None] * np.vstack([0 * step, step])}

    def kernel(self, ctx, gathered, jacobians=False):
        ba, bg = gathered
        r = np.concatenate([(ba[:, 1] - ba[:, 0]) * self.w_a[:, None],
                            (bg[:, 1] - bg[:, 0]) * self.w_g[:, None]], axis=1)
        return (r, self.jacobians) if jacobians else r


class DtGpsGroup(_GpsModel, _SampledPoseGroup):
    """GPS residuals on the frame states k, k+1 around t_d + t_gps_imu
    (clamped to the first and last pair): p = p_k + alpha dp and the slerp
    R = R_k Exp(alpha d), d = Log(R_k^T R_{k+1}), the order-2 cumulative
    B-spline over knots at the frame times.  Its pose slots are the
    position and rotation pair windows, as CT GPS's at order 2."""

    name = "dt_gps"

    def __init__(self, ids, pose_times, rig, tgps_id, stamps, gps, weight):
        super().__init__(rig, tgps_id, stamps, gps, weight)
        self.ids = ids
        self.pose_times = pose_times

    def _locate(self, t):
        k = np.clip(np.searchsorted(self.pose_times, t, side="right") - 1,
                    0, len(self.pose_times) - 2)
        return (self.pose_times[k], self.pose_times[k + 1]), [
            Slot(_pairs(self.ids["p"])[k], EUCLIDEAN, 3),
            Slot(_pairs(self.ids["R"])[k], ROTATION, 3)]

    def _sample(self, ctx, pose, t, jacobians=False):
        (t_k, t_k1), (pw, Rw) = ctx, pose
        span = (t_k1 - t_k)[:, None]
        alpha = (t - t_k)[:, None] / span
        p_k, R_k, dp = pw[:, 0], Rw[:, 0], pw[:, 1] - pw[:, 0]
        R_rel = np.swapaxes(R_k, -1, -2) @ Rw[:, 1]
        d = so3_log(R_rel, validate=False)
        E = so3_exp(alpha * d)
        p, R = p_k + alpha * dp, R_k @ E
        if not jacobians:
            return p, R
        # R_{k+1} <- R_{k+1} Exp(eps) moves d by J_r(d)^-1 eps and R by
        # Exp(G1 eps); R_k <- R_k Exp(eps) moves d by -J_r(d)^-1 R_rel^T eps,
        # so R by Exp(G0 eps)
        G1 = alpha[..., None] * so3_right_jacobian(alpha * d) @ so3_right_jacobian_inv(d)
        G0 = np.swapaxes(E, -1, -2) - G1 @ np.swapaxes(R_rel, -1, -2)
        return p, R, dp / span, d / span, partial(
            _pose_window_jacobians, coeff=np.hstack([1.0 - alpha, alpha]),
            JR=np.concatenate([G0, G1], axis=-1))


# ---------------------------------------------------------------------------
# problem assembly


def _check_domain(grid, lo, hi, margin, what):
    dlo, dhi = grid.domain
    tol = 1e-9
    gaps = []
    if dlo > lo - margin + tol:
        gaps.append(f"start short by {dlo - (lo - margin):.4f} s")
    if dhi < hi + margin - tol:
        gaps.append(f"end short by {(hi + margin) - dhi:.4f} s")
    if gaps:
        raise InvalidArgumentError(
            f"{what} domain [{dlo:.3f}, {dhi:.3f}] does not cover measurements "
            f"with {margin * 1e3:.0f} ms margin: " + ", ".join(gaps)
        )


def _check_imu_gaps(meas: MeasurementSet):
    """Reject an IMU stream with fewer than two samples or with a spacing
    above 10x its median spacing; the gap is named by its stamps in ns."""
    t_ns = meas.imu_t_ns
    if t_ns.size < 2:
        raise DataError("IMU stream has fewer than two samples")
    d = np.diff(meas.seconds(t_ns))
    med = float(np.median(d))
    worst = int(np.argmax(d))
    if d[worst] > 10.0 * med:
        raise DataError(
            f"IMU gap of {d[worst]:.4f} s between t_ns={t_ns[worst]} and "
            f"t_ns={t_ns[worst + 1]} (median spacing {med:.4f} s)"
        )


def _stream_times(meas: MeasurementSet, cfg: EstimatorConfig):
    """IMU and GPS stamps in seconds; the IMU is checked for gaps if used."""
    if cfg.use_imu:
        _check_imu_gaps(meas)
    return meas.seconds(meas.imu_t_ns), meas.seconds(meas.gps_t_ns)


def _scalar(values):
    return float(values[0, 0])


def _add_shared_blocks(problem, init, cfg, hold_shared):
    """Landmark, t_cam and t_gps blocks of the enabled sensors, all held at
    their initial values if ``hold_shared``.

    Returns ``(lm_blocks, tcam_id, tgps_id)``, None for a block the
    sensors leave out, and registers each block with ``problem.meta`` for
    :func:`extract_state`.  ``lm_blocks`` is ``(ids, blocks)``, the sorted
    landmark ids and their blocks.  Landmarks are point blocks: each
    reprojection factor sees one, so the solver eliminates them by Schur
    complement.
    """
    bounds = (-cfg.offset_bound, cfg.offset_bound)
    lm_blocks = tcam_id = tgps_id = None
    if cfg.use_cam:
        lids, points = _landmark_table(init.landmarks)
        lm_blocks = (lids, np.array([
            problem.add_euclidean(f"lm{i}", p, fixed=hold_shared, point=True)
            for i, p in zip(lids.tolist(), points)], dtype=int))
        tcam_id = problem.add_euclidean(
            "t_cam", np.array([init.t_cam_imu]), fixed=hold_shared,
            bounds=bounds)
        problem.meta["landmarks"] = (
            lm_blocks[1], lambda v: dict(zip(lids.tolist(), v)))
        problem.meta["t_cam_imu"] = ([tcam_id], _scalar)
    if cfg.use_gps:
        tgps_id = problem.add_euclidean(
            "t_gps", np.array([init.t_gps_imu]), fixed=hold_shared,
            bounds=bounds)
        problem.meta["t_gps_imu"] = ([tgps_id], _scalar)
    return lm_blocks, tcam_id, tgps_id


def _landmark_table(landmarks):
    """The sorted ids (L,) of a landmark dict and their points (L, 3)."""
    ids = np.array(sorted(landmarks), dtype=int)
    return ids, np.array([landmarks[i] for i in ids.tolist()]).reshape(-1, 3)


def _landmark_ids(lm_blocks, obs):
    """The landmark block of each observation."""
    lids, blocks = lm_blocks
    return blocks[np.searchsorted(lids, obs.landmark_ids)]


def build_ct_problem(meas: MeasurementSet, init: CtState, cfg: CtConfig,
                     noise: NoiseSpec, rig: SensorRig, hold_shared=False):
    """Assemble the continuous-time batch problem at the given initial state;
    ``hold_shared`` holds the landmarks and both clock offsets (stage 1 of
    :func:`run`).

    Returns the Problem; factor counts are attached as
    ``problem.factor_counts``.
    """
    grid = init.position.grid
    if init.rotation.grid != grid:
        raise InvalidArgumentError("position and rotation grids must match")
    imu_t, gps_t = _stream_times(meas, cfg)
    streams = [t for t, used in ((meas.seconds(meas.frame_t_ns), cfg.use_cam),
                                 (imu_t, cfg.use_imu), (gps_t, cfg.use_gps))
               if used and t.size]
    if not streams:
        raise InvalidArgumentError("no enabled measurement streams")
    _check_domain(grid, min(t[0] for t in streams), max(t[-1] for t in streams),
                  _edge_margin(cfg), "trajectory spline")

    problem = Problem()
    pos0 = add_field_blocks(problem, "position", "pos", init.position.nodes,
                            problem.add_euclidean, partial(bs.SplineR3, grid))[0]
    rot0 = add_field_blocks(problem, "rotation", "rot", init.rotation.nodes,
                            problem.add_rotation, partial(bs.SplineSO3, grid))[0]

    counts = {}
    if cfg.use_imu:
        bias_grid = init.bias_accel.grid
        _check_domain(bias_grid, imu_t[0], imu_t[-1], 0.0, "bias spline")
        to_bias = partial(bs.SplineR3, bias_grid)
        ba0 = add_field_blocks(problem, "bias_accel", "ba", init.bias_accel.nodes,
                               problem.add_euclidean, to_bias)[0]
        bg0 = add_field_blocks(problem, "bias_gyro", "bg", init.bias_gyro.nodes,
                               problem.add_euclidean, to_bias)[0]

    lm_blocks, tcam_id, tgps_id = _add_shared_blocks(
        problem, init, cfg, hold_shared)

    if cfg.use_cam:
        obs = flatten_observations(meas)
        problem.add_group(
            CtReprojGroup(grid, pos0, rot0, _landmark_ids(lm_blocks, obs),
                          tcam_id, obs, rig, 1.0 / _sigma(noise.pixel_sigma))
        )
        counts["reprojection"] = obs.pixels.shape[0]
    if cfg.use_imu:
        stamps = _ImuStamps(grid, bias_grid, imu_t)
        problem.add_group(
            CtAccelGroup(grid, bias_grid, pos0, rot0, ba0, stamps, meas.accel,
                         1.0 / _sigma(noise.accel_sigma))
        )
        problem.add_group(
            CtGyroGroup(grid, bias_grid, rot0, bg0, stamps, meas.gyro,
                        1.0 / _sigma(noise.gyro_sigma))
        )
        counts["accel"] = counts["gyro"] = imu_t.size
        blo, bhi = bias_grid.domain
        F = bias_grid.count - 1
        bt = blo + (np.arange(F) + 0.5) * (bhi - blo) / F
        dtb = (bhi - blo) / F
        problem.add_group(CtBiasRateGroup(
            bias_grid, ba0, bt, np.sqrt(dtb) / _sigma(noise.accel_bias_rw)))
        problem.add_group(CtBiasRateGroup(
            bias_grid, bg0, bt, np.sqrt(dtb) / _sigma(noise.gyro_bias_rw)))
        counts["bias_rate"] = 2 * F
    if cfg.use_gps:
        problem.add_group(
            CtGpsGroup(grid, pos0, rot0, rig, tgps_id, gps_t, meas.gps,
                       1.0 / _sigma(noise.gps_sigma))
        )
        counts["gps"] = gps_t.size
    counts["total"] = sum(counts.values())
    problem.factor_counts = counts
    return problem


def build_dt_problem(meas: MeasurementSet, init: DtState, cfg: DtConfig,
                     noise: NoiseSpec, rig: SensorRig, hold_shared=False):
    """Assemble the discrete-time batch problem at the given initial state;
    ``hold_shared`` as in :func:`build_ct_problem`."""
    K = init.t_ns.size
    if K < 2:
        raise InvalidArgumentError("need at least two pose states")
    pose_times = meas.seconds(init.t_ns)
    imu_t, gps_t = _stream_times(meas, cfg)
    if cfg.use_imu:
        slack = _edge_margin(cfg)
        for side, gap in (("start", imu_t[0] - pose_times[0]),
                          ("end", pose_times[-1] - imu_t[-1])):
            if gap > slack:
                raise DataError(
                    f"IMU does not cover the pose span: its {side} lies "
                    f"{gap:.4f} s inside the frames', more than the allowed "
                    f"slack of {slack:.4f} s (offset_bound + 10 ms; a larger "
                    f"offset_bound widens it)")

    problem = Problem()
    # (block name prefix, state field, adder); no block is held, as in CT
    table = [("p", "positions", problem.add_euclidean),
             ("R", "rotations", problem.add_rotation)]
    if cfg.use_imu:
        table += [("v", "velocities", problem.add_euclidean),
                  ("ba", "bias_accel", problem.add_euclidean),
                  ("bg", "bias_gyro", problem.add_euclidean)]
    ids = {key: add_field_blocks(problem, name, key, getattr(init, name), add,
                                 np.asarray)
           for key, name, add in table}

    lm_blocks, tcam_id, tgps_id = _add_shared_blocks(
        problem, init, cfg, hold_shared)

    counts = {}
    if cfg.use_cam:
        if len(meas.frames) != K:
            raise InvalidArgumentError("need one pose state per camera frame")
        obs = flatten_observations(meas)
        problem.add_group(
            DtReprojGroup(ids["p"][obs.frame_index], ids["R"][obs.frame_index],
                          _landmark_ids(lm_blocks, obs), tcam_id, obs, rig,
                          1.0 / _sigma(noise.pixel_sigma))
        )
        counts["reprojection"] = obs.pixels.shape[0]
    if cfg.use_imu:
        problem.add_group(
            DtPreintGroup(ids, imu_t, meas.gyro, meas.accel, pose_times,
                          init.bias_accel, init.bias_gyro,
                          _sigma(noise.gyro_sigma), _sigma(noise.accel_sigma))
        )
        problem.add_group(
            DtBiasWalkGroup(ids, pose_times, noise.accel_bias_rw,
                            noise.gyro_bias_rw)
        )
        counts["preintegration"] = K - 1
        counts["bias_walk"] = K - 1
    if cfg.use_gps:
        margin = cfg.offset_bound + 0.001
        keep = (gps_t + margin >= pose_times[0]) & (
            gps_t - margin + 1e-12 <= pose_times[-1]
        )
        problem.add_group(
            DtGpsGroup(ids, pose_times, rig, tgps_id, gps_t[keep],
                       meas.gps[keep], 1.0 / _sigma(noise.gps_sigma))
        )
        counts["gps"] = int(keep.sum())
    counts["total"] = sum(counts.values())
    problem.factor_counts = counts
    return problem


def extract_state(problem, state, init):
    """``init`` with every block of ``problem`` read back from ``state``.

    ``problem.meta`` maps a state field to its block ids and to a function
    that turns their stacked values into the field.  Fields the problem has
    no blocks for keep their value from ``init``.  Read values are copies,
    not views into ``state``.
    """
    return dataclasses.replace(init, **{
        name: to_value(np.stack([problem.block_value(state, b) for b in ids]))
        for name, (ids, to_value) in problem.meta.items()
    })


# ---------------------------------------------------------------------------
# initialization and pipeline


def _perturbed_landmarks(meas, sigma, rng):
    """The true landmarks plus N(0, sigma^2) noise, drawn in the dict's
    order."""
    true = meas.landmarks_true
    noisy = np.reshape(list(true.values()), (-1, 3)) + rng.normal(
        scale=sigma, size=(len(true), 3))
    return dict(zip(map(int, true), noisy))


def initial_frame_poses(meas: MeasurementSet, rig: SensorRig, landmarks):
    """PnP body poses at each frame stamp from the landmark prior.

    A frame with fewer than 6 observations, or whose PnP is degenerate or
    fails numerically, takes the pose of the nearest frame with a PnP pose;
    of two equally near frames, the earlier one.
    """
    stamps = meas.seconds(meas.frame_t_ns)
    K = len(meas.frames)
    positions = np.full((K, 3), np.nan)
    rotations = np.zeros((K, 3, 3))
    T_bc = rig.T_cam_imu
    got = np.zeros(K, dtype=bool)
    lids, points = _landmark_table(landmarks)
    for k, fr in enumerate(meas.frames):
        if fr.landmark_ids.size < 6:
            continue
        pts = points[np.searchsorted(lids, fr.landmark_ids)]
        try:
            T_wc = pnp_dlt(rig.camera, pts, fr.pixels)
        except (DegenerateConfigurationError, NumericalFailureError,
                np.linalg.LinAlgError):
            continue
        T_wb = T_wc.compose(T_bc.inverse())
        positions[k] = T_wb.p
        rotations[k] = T_wb.R
        got[k] = True
    if not np.any(got):
        raise DataError("PnP initialization failed on every frame")
    good = np.flatnonzero(got)
    nearest = good[np.argmin(np.abs(np.arange(K)[:, None] - good), axis=1)]
    return stamps, positions[nearest], rotations[nearest]


def _start_poses(meas: MeasurementSet, rig: SensorRig, cfg, seed, stamps):
    """``(landmarks, stamps, positions, rotations)`` of a start: with the
    camera, the landmark prior drawn from ``seed`` and the PnP poses at the
    frame stamps; without it, no landmarks and :func:`gps_gyro_poses` at
    ``stamps``."""
    if not cfg.use_cam:
        return ({}, stamps, *gps_gyro_poses(
            meas.seconds(meas.imu_t_ns), meas.gyro, meas.accel,
            meas.seconds(meas.gps_t_ns), meas.gps, rig.p_antenna_body, stamps))
    landmarks = _perturbed_landmarks(meas, cfg.landmark_sigma,
                                     np.random.default_rng(seed))
    return (landmarks, *initial_frame_poses(meas, rig, landmarks))


def initialize_ct(meas: MeasurementSet, rig: SensorRig, cfg: CtConfig, seed=0):
    """The initial CtState.  Each trajectory node takes the
    :func:`_start_poses` track (without the camera at the IMU stamps) at the
    peak of its basis function, t_i - (k - 2) dt / 2, interpolated (slerp
    for rotations) and held past the track's ends: Schoenberg's
    variation-diminishing rule (de Boor, "A Practical Guide to Splines",
    ch. XI), with no solve."""
    landmarks, stamps, pos, rot = _start_poses(meas, rig, cfg, seed,
                                               meas.seconds(meas.imu_t_ns))
    lo, hi = meas.seconds(meas.time_span_ns())
    t_lo, t_hi = lo - _edge_margin(cfg), hi + _edge_margin(cfg)
    grid = bs.grid_covering(t_lo, t_hi, 1.0 / cfg.node_hz, cfg.spline_order)
    peaks = grid.t0 + (np.arange(grid.count) - (grid.order - 2) / 2) * grid.dt
    bias_grid = bs.grid_covering(t_lo, t_hi, 1.0 / BIAS_NODE_HZ, 4)
    zeros = np.zeros((bias_grid.count, 3))
    return CtState(
        position=bs.SplineR3(grid, _interp_positions(stamps, pos, peaks)),
        rotation=bs.SplineSO3(grid, _interp_rotations(stamps, rot, peaks)),
        landmarks=landmarks, t_cam_imu=0.0, t_gps_imu=0.0,
        bias_accel=bs.SplineR3(bias_grid, zeros),
        bias_gyro=bs.SplineR3(bias_grid, zeros.copy()),
    )


def initialize_dt(meas: MeasurementSet, rig: SensorRig, cfg: DtConfig, seed=0):
    """The initial DtState, from the :func:`_start_poses` at the frame
    stamps."""
    if not meas.frames:
        raise DataError("DT places one state per camera frame, and the data "
                        "has no camera frames")
    landmarks, stamps, pos, rot = _start_poses(meas, rig, cfg, seed,
                                               meas.seconds(meas.frame_t_ns))
    vel = np.gradient(pos, stamps, axis=0)
    K = len(stamps)
    return DtState(
        t_ns=meas.frame_t_ns, positions=pos, rotations=rot, velocities=vel,
        bias_accel=np.zeros((K, 3)), bias_gyro=np.zeros((K, 3)),
        landmarks=landmarks, t_cam_imu=0.0, t_gps_imu=0.0,
    )


@dataclass
class RunResult:
    """A run's estimate.  A CT ``state``'s splines run on seconds since
    ``meas``'s origin: sample them at ``meas.seconds(t_ns)``."""

    mode: str
    state: object  # final CtState or DtState
    report: object  # SolveReport
    t_ns: np.ndarray  # estimate timestamps (camera frame stamps)
    positions: np.ndarray
    rotations: np.ndarray
    t_cam_imu: float
    t_gps_imu: float
    factor_counts: dict
    stage_seconds: dict = field(default_factory=dict)
    # the SolveReport of each stage that solves, keyed as in stage_seconds:
    # stage 1 ("solve_fixed_offsets", run with the camera only) and the
    # final solve
    stage_reports: dict = field(default_factory=dict)


def run(meas: MeasurementSet, rig: SensorRig, noise: NoiseSpec, cfg,
        mode="ct", seed=0):
    """Full pipeline: initialize, build, solve, sample at camera times.

    An IMU gap is rejected before the initialization, which is the slow
    part of a failed run.
    """
    require_int("seed", seed, 0)
    mode = mode.lower()
    if mode not in ("ct", "dt"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if cfg.use_imu:
        _check_imu_gaps(meas)
    stages, reports = {}, {}
    initialize = initialize_ct if mode == "ct" else initialize_dt
    build = build_ct_problem if mode == "ct" else build_dt_problem
    opts = SolveOptions(max_iter=cfg.max_iter)

    t0 = time.perf_counter()
    init = initialize(meas, rig, cfg, seed=seed)
    stages["initialize"] = time.perf_counter() - t0

    # Stage 1, with the camera only: offsets held at zero and landmarks held
    # at their prior so the trajectory and bias states settle without
    # absorbing the time offsets into a deformed trajectory/landmark
    # geometry.  A camera-free run has neither landmarks nor a camera
    # offset to hold; it builds one problem and solves it once.
    if cfg.use_cam:
        t1 = time.perf_counter()
        problem1 = build(meas, init, cfg, noise, rig, hold_shared=True)
        opts1 = dataclasses.replace(opts, max_iter=min(opts.max_iter, 25))
        state1, reports["solve_fixed_offsets"] = solve(problem1, opts1)
        init = extract_state(problem1, state1, init)
        del problem1, state1  # the final solve needs neither
        stages["solve_fixed_offsets"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    problem = build(meas, init, cfg, noise, rig)
    stages["build"] = time.perf_counter() - t2
    t3 = time.perf_counter()
    state, reports["solve"] = solve(problem, opts)
    stages["solve"] = time.perf_counter() - t3
    final = extract_state(problem, state, init)
    if mode == "ct":
        stamps = meas.seconds(meas.frame_t_ns)
        positions = final.position.sample_many(stamps)
        rotations = final.rotation.sample_many(stamps)
    else:
        positions = final.positions
        rotations = final.rotations
    return RunResult(
        mode=mode,
        state=final,
        report=reports["solve"],
        t_ns=meas.frame_t_ns,
        positions=positions,
        rotations=rotations,
        t_cam_imu=final.t_cam_imu,
        t_gps_imu=final.t_gps_imu,
        factor_counts=problem.factor_counts,
        stage_seconds=stages,
        stage_reports=reports,
    )
