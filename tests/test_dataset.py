import json
import os
import warnings

import numpy as np
import pytest

from splinefusion.dataset import (
    Frame,
    MeasurementSet,
    NoiseSpec,
    SensorRig,
    _read_csv,
    frames_from_observations,
    read_dataset,
    read_pose_csv,
    write_dataset,
    write_pose_csv,
)
from splinefusion.camera import CameraModel
from splinefusion.errors import DataError, InvalidArgumentError
from splinefusion.rotations import Pose

from conftest import random_rotation


def make_meas():
    frames = [
        Frame(t_ns=0, landmark_ids=np.array([1, 2]),
              pixels=np.array([[100.0, 200.0], [300.0, 400.0]])),
        Frame(t_ns=100_000_000, landmark_ids=np.array([1, 2]),
              pixels=np.array([[110.0, 210.0], [310.0, 410.0]])),
    ]
    return MeasurementSet(
        imu_t_ns=np.arange(0, 200_000_000, 10_000_000, dtype=np.int64),
        gyro=np.linspace(0, 1, 20 * 3).reshape(20, 3),
        accel=np.linspace(-1, 1, 20 * 3).reshape(20, 3),
        gps_t_ns=np.array([0, 100_000_000], dtype=np.int64),
        gps=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
        frames=frames,
        landmarks_true={1: np.array([1.0, 2.0, 3.0]), 2: np.array([4.0, 5.0, 6.0])},
    )


def make_rig(rng):
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    return SensorRig(
        T_cam_imu=Pose(random_rotation(rng), np.array([0.05, 0.0, 0.02])),
        p_antenna_body=np.array([0.1, -0.05, 0.15]),
        t_cam_imu=0.01,
        t_gps_imu=0.02,
        camera=cam,
    )


def test_roundtrip(tmp_path, rng):
    meas = make_meas()
    rig = make_rig(rng)
    noise = NoiseSpec(seed=7)
    gt_t = meas.imu_t_ns.copy()
    gt_p = np.linspace(0, 1, 20 * 3).reshape(20, 3)
    gt_R = np.stack([random_rotation(rng) for _ in range(20)])
    write_dataset(tmp_path, meas, rig, noise, gt=(gt_t, gt_p, gt_R))
    for name in ("imu.csv", "gps.csv", "features.csv", "gt.csv", "scene.json"):
        assert (tmp_path / name).exists()
    meas2, rig2, noise2, gt2 = read_dataset(tmp_path)
    assert np.array_equal(meas2.imu_t_ns, meas.imu_t_ns)
    assert np.allclose(meas2.gyro, meas.gyro, atol=0)
    assert np.allclose(meas2.accel, meas.accel, atol=0)
    assert np.array_equal(meas2.gps_t_ns, meas.gps_t_ns)
    assert np.allclose(meas2.gps, meas.gps, atol=0)
    assert len(meas2.frames) == 2
    for fa, fb in zip(meas.frames, meas2.frames):
        assert fa.t_ns == fb.t_ns
        assert np.array_equal(fa.landmark_ids, fb.landmark_ids)
        assert np.allclose(fa.pixels, fb.pixels, atol=0)
    assert set(meas2.landmarks_true) == {1, 2}
    assert noise2 == noise
    assert np.allclose(rig2.T_cam_imu.R, rig.T_cam_imu.R, atol=1e-12)
    assert rig2.t_cam_imu == rig.t_cam_imu
    assert gt2 is not None
    assert np.array_equal(gt2[0], gt_t)
    assert np.allclose(gt2[1], gt_p, atol=0)
    assert np.max(np.abs(gt2[2] - gt_R)) < 1e-12


EPOCH_NS = 1_700_000_000_123_456_789


def test_epoch_stamps_round_trip_exactly(tmp_path, rng):
    """Stamps near 1.7e18 ns, 1 ns apart, come back to the nanosecond from
    every CSV: a float64 parse would move them by up to 128 ns."""
    meas = make_meas()
    meas.imu_t_ns = EPOCH_NS + np.arange(meas.imu_t_ns.size, dtype=np.int64)
    meas.gps_t_ns = EPOCH_NS + np.arange(meas.gps_t_ns.size, dtype=np.int64)
    for k, fr in enumerate(meas.frames):
        fr.t_ns = EPOCH_NS + k
    gt_R = np.stack([random_rotation(rng) for _ in range(3)])
    gt = (EPOCH_NS + np.arange(3, dtype=np.int64), rng.normal(size=(3, 3)), gt_R)
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec(), gt=gt)
    meas2, _, _, gt2 = read_dataset(tmp_path)
    assert np.array_equal(meas2.imu_t_ns, meas.imu_t_ns)
    assert np.array_equal(meas2.gps_t_ns, meas.gps_t_ns)
    assert [f.t_ns for f in meas2.frames] == [EPOCH_NS, EPOCH_NS + 1]
    assert np.array_equal(gt2[0], gt[0])
    write_pose_csv(tmp_path / "poses.csv", gt[0], gt[1], gt_R)
    t_ns, pos, _ = read_pose_csv(tmp_path / "poses.csv")
    assert t_ns.dtype == np.int64
    assert np.array_equal(t_ns, gt[0])
    assert np.array_equal(pos, gt[1])


def test_pose_stamps_must_strictly_increase(tmp_path, rng):
    """A pose CSV with two rows swapped or a stamp repeated is a DataError
    naming the file and the line of the first row out of order; a dataset's
    gt.csv is read the same way."""
    t = np.arange(5, dtype=np.int64) * 100_000_000
    pos = rng.normal(size=(5, 3))
    R = np.stack([random_rotation(rng) for _ in range(5)])
    path = tmp_path / "poses.csv"
    for order, line in (([0, 1, 3, 2, 4], 5), ([0, 1, 1, 3, 4], 4)):
        write_pose_csv(path, t[order], pos, R)
        with pytest.raises(DataError, match=rf"poses\.csv:{line}: stamp"):
            read_pose_csv(path)
    write_dataset(tmp_path / "data", make_meas(), make_rig(rng), NoiseSpec(),
                  gt=(t[[0, 1, 1, 3, 4]], pos, R))
    with pytest.raises(DataError, match=r"gt\.csv:4: stamp"):
        read_dataset(tmp_path / "data")


def test_pose_csv_rejects_values_it_cannot_hold(tmp_path, rng):
    """A non-finite value or a quaternion of zero norm in a pose CSV is a
    DataError naming the file and the line, not a NaN pose; a dataset's
    gt.csv is read the same way."""
    t = np.arange(4, dtype=np.int64) * 100_000_000
    pos = rng.normal(size=(4, 3))
    R = np.stack([random_rotation(rng) for _ in range(4)])
    path = tmp_path / "poses.csv"
    write_pose_csv(path, t, pos, R)
    lines = path.read_text().splitlines()
    for lineno, fields, what in (
            (3, {2: "nan"}, "a non-finite value"),
            (4, {1: "inf"}, "a non-finite value"),
            (2, {7: "-inf"}, "a non-finite value"),
            (5, {4: "0", 5: "0", 6: "0", 7: "0"}, "a quaternion of zero norm")):
        row = lines[lineno - 1].split(",")
        for k, v in fields.items():
            row[k] = v
        path.write_text("\n".join(lines[:lineno - 1] + [",".join(row)]
                                  + lines[lineno:]) + "\n")
        with pytest.raises(DataError, match=rf"poses\.csv:{lineno}: {what}$"):
            read_pose_csv(path)
    write_dataset(tmp_path / "data", make_meas(), make_rig(rng), NoiseSpec(),
                  gt=(t, pos, R))
    gt_path = tmp_path / "data" / "gt.csv"
    gt_lines = gt_path.read_text().splitlines()
    row = gt_lines[2].split(",")
    row[1] = "nan"
    gt_lines[2] = ",".join(row)
    gt_path.write_text("\n".join(gt_lines) + "\n")
    with pytest.raises(DataError, match=r"gt\.csv:3: a non-finite value$"):
        read_dataset(tmp_path / "data")


@pytest.mark.parametrize("col, value, name", [
    (2, "1.7", "landmark_id"), (1, "0.5", "frame_id"), (2, "nan", "landmark_id"),
    (1, "inf", "frame_id")])
def test_feature_ids_must_be_integers(tmp_path, rng, col, value, name):
    """A features.csv id that is not an integer is a DataError naming the
    file and the line, not an id truncated to the integer below it."""
    write_dataset(tmp_path, make_meas(), make_rig(rng), NoiseSpec())
    path = tmp_path / "features.csv"
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[col] = value
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match=rf"features\.csv:4: {name} {value} is not an integer$"):
        read_dataset(tmp_path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        read_dataset(tmp_path)


def test_bad_header(tmp_path, rng):
    meas = make_meas()
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec())
    path = tmp_path / "imu.csv"
    body = path.read_text().splitlines()
    body[0] = "time,wx,wy,wz,ax,ay,az"
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(DataError):
        read_dataset(tmp_path)


def test_malformed_row(tmp_path, rng):
    """A row with too few columns, or with a field that is no number, is a
    DataError naming the file and the line."""
    write_dataset(tmp_path, make_meas(), make_rig(rng), NoiseSpec())
    path = tmp_path / "imu.csv"
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    for lineno, row in ((3, lines[2].rsplit(",", 1)[0]),
                        (5, ",".join(fields[:2] + ["abc"] + fields[3:]))):
        body = list(lines)
        body[lineno - 1] = row
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(DataError, match=rf"imu\.csv:{lineno}: "):
            read_dataset(tmp_path)


def test_header_without_rows(tmp_path):
    """A file with a header and no rows has zero rows, and says nothing."""
    path = tmp_path / "gps.csv"
    path.write_text("t_ns,x,y,z\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_ns, rows = _read_csv(str(path), 4)
    assert t_ns.shape == (0,) and t_ns.dtype == np.int64
    assert rows.shape == (0, 3)


def test_count_mismatch(tmp_path, rng):
    meas = make_meas()
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec())
    path = tmp_path / "gps.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError):
        read_dataset(tmp_path)


def test_optional_gps(tmp_path, rng):
    meas = make_meas()
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec())
    os.remove(tmp_path / "gps.csv")
    with pytest.raises(DataError):
        read_dataset(tmp_path, require_gps=True)
    meas2, _, _, _ = read_dataset(tmp_path, require_gps=False)
    assert meas2.gps_t_ns.size == 0


def test_validate_monotone():
    meas = make_meas()
    meas.imu_t_ns = meas.imu_t_ns[::-1].copy()
    with pytest.raises(DataError):
        meas.validate()


def test_validate_unknown_landmark():
    meas = make_meas()
    del meas.landmarks_true[2]
    with pytest.raises(DataError, match="^observed landmark 2 missing from scene$"):
        meas.validate()


def test_validate_track_length():
    meas = make_meas()
    meas.frames[1].landmark_ids = np.array([1])
    meas.frames[1].pixels = meas.frames[1].pixels[:1]
    with pytest.raises(DataError,
                       match="^every retained landmark needs >= 2 observations$"):
        meas.validate()


def test_validate_names_the_first_unknown_landmark_before_short_tracks():
    """An unknown landmark is reported before a short track, and of two
    unknown ones the first observed, in frame order."""
    meas = make_meas()
    meas.frames[0].landmark_ids = np.array([9, 1])
    meas.frames[1].landmark_ids = np.array([1, 8])
    with pytest.raises(DataError, match="^observed landmark 9 missing"):
        meas.validate()


def test_observations_concatenate_the_frames():
    meas = interleaved_meas()
    fidx, lids, pixels = meas.observations()
    assert fidx.tolist() == [0, 0, 0, 1, 1, 2, 2, 2]
    assert lids.tolist() == [7, 3, 12, 3, 12, 12, 3, 7]
    assert np.array_equal(pixels, np.vstack([f.pixels for f in meas.frames]))
    empty = MeasurementSet(meas.imu_t_ns, meas.gyro, meas.accel, meas.gps_t_ns,
                           meas.gps, [], {})
    assert [a.shape for a in empty.observations()] == [(0,), (0,), (0, 2)]


def interleaved_meas():
    """Three frames of different sizes whose tracks interleave, with the
    landmark ids unsorted within each frame."""
    rng = np.random.default_rng(3)
    ids = [[7, 3, 12], [3, 12], [12, 3, 7]]
    frames = [Frame(t_ns=t, landmark_ids=np.array(i),
                    pixels=rng.uniform(0.0, 640.0, size=(len(i), 2)))
              for t, i in zip((0, 50_000_000, 150_000_000), ids)]
    meas = make_meas()
    meas.frames = frames
    meas.landmarks_true = {i: rng.normal(size=3) for i in (12, 3, 7)}
    return meas.validate()


def test_frames_from_observations_inverts_the_table():
    """The observation table with the frame stamps gives back the frames,
    a frame without observations included."""
    meas = interleaved_meas()
    meas.frames.insert(1, Frame(20_000_000, np.zeros(0, int), np.zeros((0, 2))))
    back = frames_from_observations(meas.frame_t_ns, *meas.observations())
    assert len(back) == len(meas.frames)
    for fa, fb in zip(meas.frames, back):
        assert type(fb.t_ns) is int and fb.t_ns == fa.t_ns
        assert np.array_equal(fb.landmark_ids, fa.landmark_ids)
        assert np.array_equal(fb.pixels, fa.pixels)


def test_roundtrip_frame_by_frame(tmp_path, rng):
    """Frames come back one by one, rows in their file order, also when the
    rows of the frames interleave in features.csv."""
    meas = interleaved_meas()
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec())
    path = tmp_path / "features.csv"
    header, *rows = path.read_text().splitlines()
    # rows 0-2 are frame 0, 3-4 frame 1, 5-7 frame 2: interleave them
    order = [5, 0, 3, 6, 1, 4, 7, 2]
    for shuffle in (False, True):
        if shuffle:
            path.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        back = read_dataset(tmp_path)[0]
        assert len(back.frames) == len(meas.frames)
        for fa, fb in zip(meas.frames, back.frames):
            assert fb.t_ns == fa.t_ns
            assert np.array_equal(fb.landmark_ids, fa.landmark_ids)
            assert np.array_equal(fb.pixels, fa.pixels)


def test_mixed_frame_stamps_rejected(tmp_path, rng):
    meas = interleaved_meas()
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec())
    path = tmp_path / "features.csv"
    lines = path.read_text().splitlines()
    assert lines[5].startswith("50000000,1,")
    lines[5] = lines[5].replace("50000000,1,", "50000001,1,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError,
                       match="^features.csv: frame 1 has mixed timestamps$"):
        read_dataset(tmp_path)


def test_repeated_observation_rejected(tmp_path, rng):
    """A frame that observes one landmark twice is a data error naming the
    frame's stamp and the landmark: its track velocity would divide by a
    zero stamp difference."""
    meas = interleaved_meas()
    write_dataset(tmp_path, meas, make_rig(rng), NoiseSpec())
    path = tmp_path / "features.csv"
    lines = path.read_text().splitlines()
    assert lines[4].startswith("50000000,1,3,")
    path.write_text("\n".join(lines + [lines[4]]) + "\n")
    with pytest.raises(DataError,
                       match="^frame t_ns=50000000 observes landmark 3 twice$"):
        read_dataset(tmp_path)


def test_time_span():
    meas = make_meas()
    lo, hi = meas.time_span_ns()
    assert lo == 0 and hi == 190_000_000


def test_noise_spec_validation():
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(pixel_sigma=-1.0)
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(imu_hz=0.0)
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(cam_hz=300.0, imu_hz=200.0)
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -1"):
        NoiseSpec(seed=-1)
    # non-finite sigmas and rates are named, not left to fail later
    for key in ("pixel_sigma", "accel_sigma", "gyro_sigma", "accel_bias_rw",
                "gyro_bias_rw", "gps_sigma", "cam_hz", "imu_hz", "gps_hz"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError, match=key):
                NoiseSpec(**{key: value})


def test_rig_validation(rng):
    cam = CameraModel(fx=400.0, fy=400.0, cx=320.0, cy=240.0,
                      width=640, height=480)
    with pytest.raises(InvalidArgumentError):
        SensorRig(T_cam_imu=Pose(np.eye(3) * 2, np.zeros(3)),
                  p_antenna_body=np.zeros(3), t_cam_imu=0.0, t_gps_imu=0.0,
                  camera=cam)
    with pytest.raises(InvalidArgumentError):
        SensorRig(T_cam_imu=Pose(np.eye(3), np.zeros(3)),
                  p_antenna_body=np.zeros(3), t_cam_imu=1.5, t_gps_imu=0.0,
                  camera=cam)
    # NaN passes a test of |t| >= 1 s, so it is named instead
    for key in ("t_cam_imu", "t_gps_imu"):
        offsets = {"t_cam_imu": 0.0, "t_gps_imu": 0.0, key: float("nan")}
        with pytest.raises(InvalidArgumentError, match=f"{key} must be finite"):
            SensorRig(T_cam_imu=Pose(np.eye(3), np.zeros(3)),
                      p_antenna_body=np.zeros(3), camera=cam, **offsets)


@pytest.mark.parametrize("edit, match", [
    (lambda s: s.pop("rig"), r"scene\.json: missing keys \['rig'\]$"),
    (lambda s: s["noise"].update(bogus=1.0),
     r"unknown keys in \S+scene\.json section 'noise': \['bogus'\]$"),
    (lambda s: s["noise"].update(cam_hz=float("nan")),
     r"scene\.json section 'noise': cam_hz must be finite and > 0, got nan$"),
    (lambda s: s["noise"].update(gps_sigma="x"),
     r"scene\.json key 'gps_sigma' in section 'noise' must be float, got 'x'$"),
    (lambda s: s["rig"]["camera"].pop("fx"),
     r"missing keys in \S+scene\.json section 'rig.camera': \['fx'\]$"),
    (lambda s: s["rig"]["camera"].update(fx=float("nan")),
     r"scene\.json section 'rig\.camera': fx must be finite and > 0, got nan$"),
    (lambda s: s["rig"]["camera"].update(fy=float("inf")),
     r"scene\.json section 'rig\.camera': fy must be finite and > 0, got inf$"),
    (lambda s: s["landmarks"].pop(),
     r"scene\.json: 'landmark_ids' has 2 entries but 'landmarks' has 1$"),
    (lambda s: s["rig"].update(p_antenna_body=[0.1, 0.2]),
     r"scene\.json key 'rig\.p_antenna_body' must be 3 finite floats, "
     r"got \[0\.1, 0\.2\]$"),
    (lambda s: s["rig"].update(t_cam_imu="abc"),
     r"scene\.json key 'rig\.t_cam_imu' must be a finite float, got 'abc'$"),
    (lambda s: s["rig"]["q_cam_imu_wxyz"].pop(),
     r"scene\.json key 'rig\.q_cam_imu_wxyz' must be 4 finite floats, got "),
    (lambda s: s["rig"].update(p_cam_imu="x"),
     r"scene\.json key 'rig\.p_cam_imu' must be 3 finite floats, got 'x'$"),
    (lambda s: s["rig"].update(t_gps_imu=1.5),
     r"scene\.json section 'rig': time offsets must be below 1 s$"),
    (lambda s: s["landmarks"][0].pop(),
     r"scene\.json key 'landmarks\[0\]' must be 3 finite floats, "
     r"got \[1\.0, 2\.0\]$"),
    (lambda s: s["landmark_ids"].__setitem__(0, "a"),
     r"scene\.json key 'landmark_ids' must be n finite ints, got \['a', 2\]$"),
    (lambda s: s.update(landmarks=5),
     r"scene\.json key 'landmarks' must be a list, got 5$"),
    (lambda s: s["landmark_ids"].__setitem__(1, 1),
     r"scene\.json: 'landmark_ids' repeats id 1$"),
], ids=["no_rig", "extra_noise_key", "noise_nan", "noise_type", "no_camera_fx",
        "camera_fx_nan", "camera_fy_inf", "landmark_count", "lever_arm_length", "t_cam_type", "quat_length",
        "p_cam_type", "offset_range", "landmark_length", "landmark_id_type",
        "landmarks_type", "landmark_id_repeat"])
def test_malformed_scene_rejected(tmp_path, rng, edit, match):
    write_dataset(tmp_path, make_meas(), make_rig(rng), NoiseSpec())
    path = tmp_path / "scene.json"
    scene = json.loads(path.read_text())
    edit(scene)
    path.write_text(json.dumps(scene))
    with pytest.raises(DataError, match=match):
        read_dataset(tmp_path)


def test_invalid_scene_json_rejected(tmp_path, rng):
    write_dataset(tmp_path, make_meas(), make_rig(rng), NoiseSpec())
    path = tmp_path / "scene.json"
    path.write_text(path.read_text()[:-2])
    with pytest.raises(DataError, match=r"scene\.json: invalid JSON"):
        read_dataset(tmp_path)
