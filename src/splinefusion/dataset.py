"""Dataset types and ASL-style CSV / JSON serialization.

Directory layout written by the simulator and consumed by the estimators:

    imu.csv       t_ns,wx,wy,wz,ax,ay,az        (IMU clock)
    gps.csv       t_ns,x,y,z                    (GPS clock)
    features.csv  t_ns,frame_id,landmark_id,u_px,v_px   (camera clock)
    gt.csv        t_ns,x,y,z,qw,qx,qy,qz        (IMU clock, body pose in world)
    scene.json    landmarks, rig, noise (with its seed), row counts

Timestamps are integer nanoseconds in every file; only this module turns
them into float seconds, since an integer origin subtracted exactly in int64
(:func:`seconds_since`).  The estimators' origin is the first IMU stamp, else
the first frame's or GPS fix's (:meth:`MeasurementSet.seconds`).

``MeasurementSet.observations()`` is the one flat table of the camera
observations: frame index, landmark id and pixel, frame by frame.
Validation, the ``features.csv`` writer and the estimators derive every
per-observation quantity from it; ``frames_from_observations`` turns such
a table back into frames for the reader and the simulator.
``build_section`` reads one config or ``scene.json`` section, checked.
"""

from __future__ import annotations

import dataclasses
import json
import os
import reprlib
import warnings
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel
from .errors import DataError, InvalidArgumentError, require_finite, require_int
from .rotations import Pose, is_rotation, quat_to_rotation, rotation_to_quat

# the values a field of each type accepts (YAML and JSON give bool, int,
# float or str; a bool is no number here)
_ACCEPTS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def build_section(klass, values, source, name):
    """``klass(**values)`` for the section ``name`` of ``source`` (a config
    or a file), or a DataError naming both when ``values`` is no mapping,
    names a field ``klass`` lacks, misses one without a default, gives a
    value not of its field's type or one ``klass`` rejects.  ``None`` is an
    empty section."""
    values = {} if values is None else values
    if not isinstance(values, dict):
        raise DataError(
            f"{source} section {name!r} must be a mapping, got {values!r}")
    fields = dataclasses.fields(klass)
    types = {f.name: f.type for f in fields}
    bad = set(values) - set(types)
    if bad:
        raise DataError(f"unknown keys in {source} section {name!r}: {sorted(bad)}")
    missing = [f.name for f in fields if f.name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise DataError(f"missing keys in {source} section {name!r}: {missing}")
    for key, value in values.items():
        if not _ACCEPTS[types[key]](value):
            raise DataError(
                f"{source} key {key!r} in section {name!r} must be "
                f"{types[key]}, got {value!r}")
    try:
        return klass(**values)
    except InvalidArgumentError as e:
        raise DataError(f"{source} section {name!r}: {e}") from None


def _array(value, shape, source, key, kind="float"):
    """``value`` as a finite array of ``shape`` (``None`` for any length)
    whose entries are all of ``kind`` (a key of ``_ACCEPTS``), or a DataError
    naming ``source`` and ``key``.  ``shape`` ``()`` is one value."""
    arr = np.asarray(value, dtype=object)
    if (arr.ndim == len(shape)
            and all(n in (None, m) for n, m in zip(shape, arr.shape))
            and all(map(_ACCEPTS[kind], arr.flat))):
        arr = arr.astype(float if kind == "float" else np.int64)
        if np.all(np.isfinite(arr)):
            return arr
    want = " x ".join("n" if n is None else str(n) for n in shape)
    want = f"{want} finite {kind}s" if shape else f"a finite {kind}"
    raise DataError(f"{source} key {key!r} must be {want}, got "
                    f"{reprlib.repr(value)}")


def _require(d, keys, where):
    """A DataError naming ``where`` unless the mapping ``d`` has ``keys``."""
    missing = [k for k in keys if k not in d] if isinstance(d, dict) else keys
    if missing:
        raise DataError(f"{where}: missing keys {list(missing)}")


@dataclass(frozen=True)
class SensorRig:
    """Extrinsic and temporal calibration of the camera/IMU/GPS rig.

    ``T_cam_imu`` is the pose of the camera in the IMU (body) frame:
    ``p_body = R @ p_cam + p``.  Time offsets follow the convention
    ``t_imu = t_cam + t_cam_imu`` and ``t_imu = t_gps + t_gps_imu``.
    """

    T_cam_imu: Pose
    p_antenna_body: np.ndarray
    t_cam_imu: float
    t_gps_imu: float
    camera: CameraModel

    def __post_init__(self):
        if not is_rotation(self.T_cam_imu.R):
            raise InvalidArgumentError("extrinsic rotation is not orthonormal")
        require_finite("t_cam_imu", self.t_cam_imu)
        require_finite("t_gps_imu", self.t_gps_imu)
        if abs(self.t_cam_imu) >= 1.0 or abs(self.t_gps_imu) >= 1.0:
            raise InvalidArgumentError("time offsets must be below 1 s")
        object.__setattr__(
            self, "p_antenna_body", np.asarray(self.p_antenna_body, dtype=float)
        )

    def to_dict(self):
        return {
            "q_cam_imu_wxyz": rotation_to_quat(self.T_cam_imu.R).tolist(),
            "p_cam_imu": self.T_cam_imu.p.tolist(),
            "p_antenna_body": self.p_antenna_body.tolist(),
            "t_cam_imu": self.t_cam_imu,
            "t_gps_imu": self.t_gps_imu,
            "camera": dataclasses.asdict(self.camera),
        }

    @classmethod
    def from_dict(cls, d, source):
        """The rig of ``to_dict``'s mapping ``d``, read from ``source``; a
        DataError naming ``source`` and the key for a malformed value."""
        _require(d, ("q_cam_imu_wxyz", "p_cam_imu", "p_antenna_body",
                     "t_cam_imu", "t_gps_imu", "camera"), f"{source} section 'rig'")
        q, p_cam, p_ant, t_cam, t_gps = (
            _array(d[key], shape, source, f"rig.{key}") for key, shape in (
                ("q_cam_imu_wxyz", (4,)), ("p_cam_imu", (3,)),
                ("p_antenna_body", (3,)), ("t_cam_imu", ()),
                ("t_gps_imu", ())))
        camera = build_section(CameraModel, d["camera"], source, "rig.camera")
        try:
            return cls(T_cam_imu=Pose(quat_to_rotation(q), p_cam),
                       p_antenna_body=p_ant, t_cam_imu=float(t_cam),
                       t_gps_imu=float(t_gps), camera=camera)
        except InvalidArgumentError as e:
            raise DataError(f"{source} section 'rig': {e}") from None


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise configuration.

    ``accel_sigma``/``gyro_sigma`` are per-sample standard deviations of
    the IMU white noise (m/s^2 and rad/s), whatever ``imu_hz`` is.  The bias
    random-walk densities scale with ``sqrt(dt)`` per step.
    """

    pixel_sigma: float = 1.0
    accel_sigma: float = 8e-3
    gyro_sigma: float = 1e-3
    accel_bias_rw: float = 1e-4
    gyro_bias_rw: float = 1e-5
    gps_sigma: float = 0.1
    cam_hz: float = 20.0
    imu_hz: float = 200.0
    gps_hz: float = 10.0
    seed: int = 0

    def __post_init__(self):
        for name in ("pixel_sigma", "accel_sigma", "gyro_sigma",
                     "accel_bias_rw", "gyro_bias_rw", "gps_sigma"):
            require_finite(name, getattr(self, name), positive=False)
        for name in ("cam_hz", "imu_hz", "gps_hz"):
            require_finite(name, getattr(self, name), positive=True)
        if self.imu_hz < self.cam_hz:
            raise InvalidArgumentError("imu rate must be >= camera rate")
        require_int("seed", self.seed, 0)


@dataclass
class Frame:
    """One camera frame: timestamp plus (landmark_id, pixel) observations."""

    t_ns: int
    landmark_ids: np.ndarray  # (n,) int
    pixels: np.ndarray  # (n, 2)


@dataclass
class MeasurementSet:
    """All sensor streams of one dataset plus the withheld true landmarks."""

    imu_t_ns: np.ndarray  # (M,) int
    gyro: np.ndarray  # (M, 3) rad/s
    accel: np.ndarray  # (M, 3) m/s^2
    gps_t_ns: np.ndarray  # (D,) int
    gps: np.ndarray  # (D, 3) m
    frames: list  # list[Frame]
    landmarks_true: dict  # id -> (3,) m

    def observations(self):
        """The flat observation table, frame by frame in frame order:
        (frame_index (N,) int, landmark_ids (N,) int, pixels (N, 2))."""
        fr = self.frames
        return (np.repeat(np.arange(len(fr)), [f.landmark_ids.size for f in fr]),
                np.concatenate([np.zeros(0, int)] + [f.landmark_ids for f in fr]),
                np.concatenate([np.zeros((0, 2))] + [f.pixels for f in fr]))

    def validate(self):
        for name, ts in (("imu", self.imu_t_ns), ("gps", self.gps_t_ns)):
            if ts.size > 1 and np.any(np.diff(ts) <= 0):
                raise DataError(f"{name} timestamps are not strictly increasing")
        ft = self.frame_t_ns
        if ft.size > 1 and np.any(np.diff(ft) <= 0):
            raise DataError("frame timestamps are not strictly increasing")
        fidx, lids, pixels = self.observations()
        o = np.lexsort((lids, fidx))
        twice = o[1:][(np.diff(fidx[o]) == 0) & (np.diff(lids[o]) == 0)]
        if twice.size:
            raise DataError(f"frame t_ns={ft[fidx[twice[0]]]} observes landmark "
                            f"{lids[twice[0]]} twice")
        missing = lids[~np.isin(lids, list(self.landmarks_true))]
        if missing.size:
            raise DataError(f"observed landmark {missing[0]} missing from scene")
        if np.any(np.unique(lids, return_counts=True)[1] < 2):
            raise DataError("every retained landmark needs >= 2 observations")
        if not all(np.all(np.isfinite(a)) for a in (self.gyro, self.accel,
                                                    self.gps, pixels)):
            raise DataError("non-finite measurement values")
        return self

    @property
    def frame_t_ns(self):
        return np.array([f.t_ns for f in self.frames], dtype=np.int64)

    def seconds(self, t_ns):
        """``t_ns`` in seconds since the first IMU (else frame, else GPS) stamp."""
        return seconds_since(t_ns, next(t[0] for t in (
            self.imu_t_ns, self.frame_t_ns, self.gps_t_ns, [0]) if len(t)))

    def time_span_ns(self):
        ts = [t for t in (self.imu_t_ns, self.gps_t_ns, self.frame_t_ns) if t.size]
        return min(int(t[0]) for t in ts), max(int(t[-1]) for t in ts)


def seconds_since(t_ns, origin_ns):
    """Seconds from ``origin_ns`` to ``t_ns``, differenced in int64: exact."""
    return (np.asarray(t_ns, dtype=np.int64) - np.int64(origin_ns)) * 1e-9


def frames_from_observations(t_ns, frame_index, landmark_ids, pixels):
    """The frames of an observation table grouped by frame: frame ``k`` is
    stamped ``t_ns[k]`` and holds, in table order, the rows whose
    ``frame_index`` is ``k``.  ``frame_index`` is non-decreasing; the
    inverse of :meth:`MeasurementSet.observations` with ``frame_t_ns``."""
    cuts = np.searchsorted(frame_index, np.arange(1, len(t_ns)))
    return [Frame(int(t), ids, pix) for t, ids, pix in
            zip(t_ns, np.split(landmark_ids, cuts), np.split(pixels, cuts))]


# ---------------------------------------------------------------------------
# CSV helpers

_HEADERS = {
    "imu": "t_ns,wx,wy,wz,ax,ay,az",
    "gps": "t_ns,x,y,z",
    "features": "t_ns,frame_id,landmark_id,u_px,v_px",
    "pose": "t_ns,x,y,z,qw,qx,qy,qz",
}


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")


def _stamped_rows(t_ns, values):
    """CSV fields of the rows ``t_ns, values[i]...``, floats to round trip."""
    return ([str(int(t))] + [f"{v:.17g}" for v in row]
            for t, row in zip(t_ns, values))


def _read_csv(path, expect):
    """(t_ns (N,) int64, the other columns (N, C) float) of a CSV whose
    header must be ``expect``, of C + 1 columns; a float64 would hold an
    epoch-scale t_ns only to within 128 ns."""
    if not os.path.exists(path):
        raise DataError(f"missing required file {path}")
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].strip() if lines else ""
    if header != expect:
        raise DataError(f"{path}: unexpected header {header!r} (want {expect!r})")
    dtype = np.dtype([("t_ns", np.int64), ("values", float, (expect.count(","),))])
    with warnings.catch_warnings():
        # a file with a header and no rows has no rows, nothing to warn of
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(lines[1:], dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
        except ValueError:
            # numpy's row count is not the line number; find the line
            for lineno, line in enumerate(lines[1:], start=2):
                try:
                    np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
                except ValueError as e:
                    reason = str(e).split(" at row")[0]
                    raise DataError(f"{path}:{lineno}: {reason}") from None
            raise
    return rows["t_ns"], rows["values"]


def write_pose_csv(path, t_ns, positions, rotations):
    """Write body poses as ``t_ns,x,y,z,qw,qx,qy,qz`` rows (the layout of
    ``gt.csv`` and of an estimate's ``estimate.csv``)."""
    _write_csv(path, _HEADERS["pose"], _stamped_rows(
        t_ns, np.hstack([positions, rotation_to_quat(rotations)])))


def read_pose_csv(path):
    """Read ``t_ns,x,y,z,qw,qx,qy,qz`` rows; returns (t_ns (N,) int64,
    positions (N, 3), rotations (N, 3, 3)).  Raises on a file under
    another header or without rows, with a non-finite value or a
    quaternion of zero norm, or with stamps that do not strictly increase."""
    t_ns, rows = _read_csv(path, _HEADERS["pose"])
    if t_ns.size == 0:
        raise DataError(f"{path}: no pose rows")
    for bad, what in ((~np.all(np.isfinite(rows), axis=1), "a non-finite value"),
                      (np.linalg.norm(rows[:, 3:7], axis=1) == 0,
                       "a quaternion of zero norm")):
        if bad.any():
            raise DataError(f"{path}:{np.argmax(bad) + 2}: {what}")
    back = np.flatnonzero(np.diff(t_ns) <= 0)
    if back.size:
        i = back[0] + 1  # the first row out of order; rows start on line 2
        raise DataError(f"{path}:{i + 2}: stamp {t_ns[i]} is not after the "
                        f"previous row's {t_ns[i - 1]}")
    return t_ns, rows[:, :3], quat_to_rotation(rows[:, 3:7])


def write_dataset(out_dir, meas: MeasurementSet, rig: SensorRig, noise: NoiseSpec,
                  gt=None):
    """Write the full CSV/JSON dataset layout.

    ``gt`` is an optional tuple ``(t_ns (N,), positions (N,3), rotations
    (N,3,3))`` of body poses on the IMU clock.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "imu.csv"), _HEADERS["imu"],
               _stamped_rows(meas.imu_t_ns, np.hstack([meas.gyro, meas.accel])))
    _write_csv(os.path.join(out_dir, "gps.csv"), _HEADERS["gps"],
               _stamped_rows(meas.gps_t_ns, meas.gps))

    fidx, obs_ids, pixels = meas.observations()
    _write_csv(os.path.join(out_dir, "features.csv"), _HEADERS["features"], (
        [str(t), str(k), str(i), f"{u:.17g}", f"{v:.17g}"]
        for t, k, i, (u, v) in zip(meas.frame_t_ns[fidx].tolist(), fidx.tolist(),
                                   obs_ids.tolist(), pixels)))
    if gt is not None:
        write_pose_csv(os.path.join(out_dir, "gt.csv"), *gt)
    lids = sorted(meas.landmarks_true)
    scene = {
        "noise": dataclasses.asdict(noise),
        "rig": rig.to_dict(),
        "landmark_ids": lids,
        "landmarks": [meas.landmarks_true[i].tolist() for i in lids],
        "counts": {
            "imu": int(meas.imu_t_ns.size),
            "gps": int(meas.gps_t_ns.size),
            "frames": len(meas.frames),
            "observations": int(fidx.size),
        },
    }
    with open(os.path.join(out_dir, "scene.json"), "w") as f:
        json.dump(scene, f, indent=1)


def read_dataset(data_dir, require_gps=True):
    """Read a dataset directory; returns (MeasurementSet, rig, noise, gt|None).

    Validates headers, monotone timestamps, finiteness, and cross-checks the
    stream sizes against scene.json.
    """
    scene_path = os.path.join(data_dir, "scene.json")
    if not os.path.exists(scene_path):
        raise DataError(f"missing required file {scene_path}")
    with open(scene_path) as f:
        try:
            scene = json.load(f)
        except json.JSONDecodeError as e:
            raise DataError(f"{scene_path}: invalid JSON ({e})") from None
    _require(scene, ("rig", "noise", "landmark_ids", "landmarks"), scene_path)
    rig = SensorRig.from_dict(scene["rig"], scene_path)
    noise = build_section(NoiseSpec, scene["noise"], scene_path, "noise")
    lids = _array(scene["landmark_ids"], (None,), scene_path, "landmark_ids",
                  "int")
    ids, counts = np.unique(lids, return_counts=True)
    if np.any(counts > 1):
        raise DataError(f"{scene_path}: 'landmark_ids' repeats id "
                        f"{ids[counts > 1][0]}")
    points = scene["landmarks"]
    if not isinstance(points, list):
        raise DataError(f"{scene_path} key 'landmarks' must be a list, got "
                        f"{reprlib.repr(points)}")
    if len(lids) != len(points):
        raise DataError(f"{scene_path}: 'landmark_ids' has {len(lids)} "
                        f"entries but 'landmarks' has {len(points)}")

    imu_t_ns, imu = _read_csv(os.path.join(data_dir, "imu.csv"), _HEADERS["imu"])
    gps_path = os.path.join(data_dir, "gps.csv")
    have_gps = require_gps or os.path.exists(gps_path)
    if have_gps:
        gps_t_ns, gps = _read_csv(gps_path, _HEADERS["gps"])
    else:
        gps_t_ns, gps = np.zeros(0, dtype=np.int64), np.zeros((0, 3))
    feat_path = os.path.join(data_dir, "features.csv")
    feat_t_ns, feats = _read_csv(feat_path, _HEADERS["features"])
    for col, name in enumerate(("frame_id", "landmark_id")):
        v = feats[:, col]
        bad = ~np.isfinite(v) | (v != np.round(v))
        if bad.any():
            i = np.argmax(bad)
            raise DataError(f"{feat_path}:{i + 2}: {name} {v[i]:g} is not an "
                            f"integer")

    # one stable sort groups the rows by frame, each in its file order
    frame_ids = feats[:, 0].astype(int)
    order = np.argsort(frame_ids, kind="stable")
    frame_ids, feat_t_ns, feats = frame_ids[order], feat_t_ns[order], feats[order]
    _, starts, frame_index = np.unique(frame_ids, return_index=True,
                                       return_inverse=True)
    stamps = feat_t_ns[starts]
    mixed = feat_t_ns != stamps[frame_index]
    if mixed.any():
        raise DataError(
            f"features.csv: frame {frame_ids[mixed][0]} has mixed timestamps")
    frames = frames_from_observations(stamps, frame_index,
                                      feats[:, 1].astype(int),
                                      feats[:, 2:4].copy())
    landmarks = {int(i): _array(p, (3,), scene_path, f"landmarks[{n}]")
                 for n, (i, p) in enumerate(zip(lids, points))}
    meas = MeasurementSet(
        imu_t_ns=imu_t_ns, gyro=imu[:, :3], accel=imu[:, 3:6], gps_t_ns=gps_t_ns,
        gps=gps, frames=frames, landmarks_true=landmarks).validate()
    counts = scene.get("counts", {})
    checks = {"imu": meas.imu_t_ns.size, "frames": len(frames)}
    if have_gps:
        checks["gps"] = meas.gps_t_ns.size
    for key, val in checks.items():
        if key in counts and counts[key] != val:
            raise DataError(
                f"scene.json count mismatch for {key}: {counts[key]} != {val}"
            )

    gt_path = os.path.join(data_dir, "gt.csv")
    gt = read_pose_csv(gt_path) if os.path.exists(gt_path) else None
    return meas, rig, noise, gt
