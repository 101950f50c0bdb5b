import filecmp
import json
import os
import shutil

import numpy as np
import pytest
import yaml

from splinefusion import cli
from splinefusion import estimators as est
from splinefusion.config import load_config
from splinefusion.dataset import read_dataset, read_pose_csv, write_pose_csv
from splinefusion.solver import SolveReport


CONFIG_SMALL = """\
simulate:
  duration: 6.0
  num_landmarks: 120
noise:
  cam_hz: 10.0
  imu_hz: 100.0
  gps_hz: 5.0
"""


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    out = root / "data"
    rc = cli.main(["simulate", "--config", str(cfg), "--seed", "3",
                   "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_deterministic(tmp_path, capsys):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["simulate", "--profile", "circle", "--seed", "7",
                       "--config", str(cfg), "--out", str(out)])
        assert rc == 0
    assert "wrote dataset" in capsys.readouterr().out
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert {"imu.csv", "gps.csv", "features.csv", "gt.csv",
            "scene.json", "config.yaml"} <= set(names)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_usage_errors(tmp_path, capsys):
    cases = (["simulate"],  # missing --out
             ["no-such-command"],
             ["simulate", "--profile", "zigzag", "--out", str(tmp_path / "x")],
             # ``fit`` and ``--align sim3`` are no choices of this CLI
             ["fit", "--poses", str(tmp_path / "gt.csv"),
              "--out", str(tmp_path / "fit")],
             ["evaluate", "--est", str(tmp_path / "estimate.csv"),
              "--gt", str(tmp_path / "gt.csv"), "--out", str(tmp_path / "eval"),
              "--align", "sim3"])
    for argv in cases:
        assert cli.main(argv) == 1, argv
        assert "usage error" in capsys.readouterr().err, argv
    assert os.listdir(tmp_path) == []


def test_missing_dataset_is_data_error(tmp_path, capsys):
    rc = cli.main(["estimate-ct", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_malformed_config_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    for text in ("estimator: 5\n", "estimator: abc\n", "seed: x\n",
                 "simulate: {duration: x}\n", "estimator: {spline_order: x}\n",
                 "noise: {pixel_sigma: x}\n", 'estimator: {use_cam: "no"}\n',
                 "estimator: {node_hz: abc}\n", "bogus: 1\n",
                 "estimator: {margin: 0.1}\n", "noise: {cam_hz: .nan}\n",
                 "noise: {gps_sigma: .inf}\n"):
        cfg.write_text(text)
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 2, text
        assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["radius", "duration", "t_cam_imu_ms",
                                 "t_gps_imu_ms"])
def test_non_finite_profile_value_exits_2(key, tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"simulate: {{{key}: .nan}}\n")
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config section 'simulate'" in err and key in err


@pytest.mark.parametrize("setting", ["num_landmarks: -5", "num_landmarks: 2.5",
                                     "landmark_spread: .nan",
                                     "landmark_spread: .inf",
                                     "landmark_spread: -1.0"])
def test_bad_landmark_setting_exits_2(setting, tmp_path, capsys):
    """A landmark count that is no int >= 0 or a spread that is not finite
    and >= 0 exits 2 naming the key."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"simulate: {{{setting}}}\n")
    rc = cli.main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "section 'simulate'" in err and setting.split(":")[0] in err


def test_simulate_without_landmarks(tmp_path):
    """0 landmarks is valid: it makes a dataset without camera frames."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL.replace("num_landmarks: 120", "num_landmarks: 0"))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    meas, _, _, _ = read_dataset(tmp_path / "out", require_gps=True)
    assert meas.frames == [] and meas.imu_t_ns.size > 0


def test_imu_gap_reported(small_dataset, tmp_path, capsys):
    gappy = tmp_path / "gappy"
    shutil.copytree(small_dataset, gappy)
    lines = (gappy / "imu.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    # remove a one second chunk from the middle of the IMU stream
    t = np.array([int(r.split(",")[0]) for r in rows])
    mid = t[len(t) // 2]
    kept = [r for r, ti in zip(rows, t) if ti < mid or ti > mid + 1_000_000_000]
    (gappy / "imu.csv").write_text("\n".join([header] + kept) + "\n")
    scene = json.loads((gappy / "scene.json").read_text())
    scene["counts"]["imu"] = len(kept)
    (gappy / "scene.json").write_text(json.dumps(scene))

    rc = cli.main(["estimate-ct", "--data", str(gappy),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "IMU gap" in err and "median spacing" in err


def test_malformed_scene_is_data_error(small_dataset, tmp_path, capsys):
    bad = tmp_path / "bad"
    shutil.copytree(small_dataset, bad)
    scene = json.loads((bad / "scene.json").read_text())
    del scene["rig"]
    (bad / "scene.json").write_text(json.dumps(scene))
    rc = cli.main(["estimate-dt", "--data", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "missing keys ['rig']" in capsys.readouterr().err


def test_repeated_observation_is_data_error(small_dataset, tmp_path, capsys):
    bad = tmp_path / "bad"
    shutil.copytree(small_dataset, bad)
    path = bad / "features.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    rc = cli.main(["estimate-dt", "--data", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    t_ns, _, lid = lines[1].split(",")[:3]
    assert f"frame t_ns={t_ns} observes landmark {lid} twice" in \
        capsys.readouterr().err


def test_evaluate_command(small_dataset, tmp_path, capsys):
    """``evaluate`` writes the ATEs and the pair count to metrics.json: zero
    for the ground truth against itself, 0.1 sqrt(3) m for it shifted by
    0.1 m on each axis, and zero after a ``pos_yaw`` alignment."""
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--est", str(small_dataset / "gt.csv"),
                   "--gt", str(small_dataset / "gt.csv"), "--out", str(out)])
    assert rc == 0
    assert "ate_p=0.0000" in capsys.readouterr().out
    m = json.loads((out / "metrics.json").read_text())
    assert set(m) == {"ate_p_m", "ate_r_deg", "n_pairs"}
    assert m["ate_p_m"] == 0.0 and m["ate_r_deg"] == 0.0
    t_ns, p, R = read_pose_csv(small_dataset / "gt.csv")
    assert m["n_pairs"] == len(t_ns)
    shifted = tmp_path / "shifted.csv"
    write_pose_csv(shifted, t_ns, p + 0.1, R)
    assert cli.main(["evaluate", "--est", str(shifted), "--gt",
                     str(small_dataset / "gt.csv"), "--out", str(out)]) == 0
    m = json.loads((out / "metrics.json").read_text())
    assert np.isclose(m["ate_p_m"], np.sqrt(3) * 0.1)
    rc = cli.main(["evaluate", "--est", str(small_dataset / "gt.csv"),
                   "--gt", str(small_dataset / "gt.csv"), "--out", str(out),
                   "--align", "pos_yaw"])
    assert rc == 0
    m = json.loads((out / "metrics.json").read_text())
    assert m["ate_p_m"] < 1e-9 and m["ate_r_deg"] < 1e-7


def test_compare_rejects_bad_offsets(tmp_path, capsys):
    rc = cli.main(["compare", "--offsets", "a,b", "--out", str(tmp_path)])
    assert rc == 1
    assert "--offsets" in capsys.readouterr().err


def test_estimate_ct_end_to_end(small_dataset, tmp_path, capsys):
    # the dataset's config.yaml records how the data were made, with no
    # estimator section, and an estimate reads it as its config
    made = yaml.safe_load((small_dataset / "config.yaml").read_text())
    assert set(made) == {"seed", "simulate", "noise"}
    out = tmp_path / "est"
    rc = cli.main(["estimate-ct", "--config",
                   str(small_dataset / "config.yaml"),
                   "--data", str(small_dataset), "--out", str(out)])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "ct"
    assert report["converged"] is True
    assert report["termination"] == "converged"
    # no clock offset of this dataset ends on its offset_bound clamp
    assert report["at_bound"] == []
    # GPS noise is 0.1 m, so the unaligned ATE sits at that order
    assert report["ate_p_m"] < 0.3
    assert report["align"] == "none"  # GPS fixes the gauge
    assert set(report["factor_counts"]) == {
        "reprojection", "accel", "gyro", "bias_rate", "gps", "total"
    }
    stages = report["stage_seconds"]
    assert set(stages) == {"initialize", "solve_fixed_offsets", "build", "solve"}
    assert all(v > 0 for v in stages.values())
    assert sum(stages.values()) <= report["wall_ms"] * 1e-3
    lines = (out / "estimate.csv").read_text().splitlines()
    assert lines[0] == "t_ns,x,y,z,qw,qx,qy,qz"
    assert len(lines) > 50


def test_runs_off_the_imu_stamps_are_scored(tmp_path, capsys):
    """With a 7 ms camera offset every frame stamp lies 3 ms from the
    nearest ground-truth (IMU) stamp; both estimates are scored against
    the ground truth interpolated at their stamps, and ``compare`` runs
    at that offset too."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL.replace("noise:", "  t_cam_imu_ms: 7.0\nnoise:"))
    data = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "3",
                     "--out", str(data)]) == 0
    meas, _, _, (gt_t, _, _) = read_dataset(data)
    assert not np.isin(meas.frame_t_ns, gt_t).any()
    for mode in ("ct", "dt"):
        out = tmp_path / mode
        rc = cli.main([f"estimate-{mode}", "--config", str(data / "config.yaml"),
                       "--data", str(data), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["ate_p_m"] < 0.3
        if mode == "ct":
            assert abs(report["t_cam_imu_ms"] - 7.0) < 2.0
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(tmp_path / "config.yaml"),
                     "--seed", "3", "--offsets", "7", "--out", str(out)]) == 0
    assert len((out / "compare.csv").read_text().splitlines()) == 3


def test_compare_runs_both_modes_with_one_offset_bound(tmp_path, capsys):
    """At a 70 ms camera offset the frames reach past the IMU stream by more
    than the default 60 ms slack; one ``offset_bound`` in the ``estimator``
    section widens it for CT and DT alike, and both rows are written."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL + "estimator: {offset_bound: 0.1}\n")
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(cfg), "--seed", "3",
                   "--offsets", "70", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["70", "ct"], ["70", "dt"]]


def test_compare_keeps_finished_rows_and_warns_on_a_clamped_offset(tmp_path,
                                                                  capsys):
    """At the default 50 ms offset bound a 70 ms camera offset ends CT's
    t_cam on its clamp, and DT's frames reach past the IMU stream: the CT
    row and the rows of the 0 ms runs are written, the clamp gets a warning
    line, and the data error exits 2."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(cfg), "--seed", "3",
                   "--offsets", "0,70", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[0] == "offset_true_ms,mode,ate_p_m,ate_r_deg,offset_est_ms"
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["0", "ct"], ["0", "dt"], ["70", "ct"]]
    warnings = [line for line in err.splitlines()
                if line.startswith("warning:")]
    assert sum("t_cam" in line for line in warnings) == 1


def test_gps_free_run_is_scored_in_its_gauge(tmp_path):
    """Without GPS a run is aligned in yaw and translation before its ATE,
    which is then that of ``evaluate --align pos_yaw`` on its estimate."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    data, out = tmp_path / "data", tmp_path / "dt"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "3",
                     "--out", str(data)]) == 0
    # the dataset's own config with GPS switched off for the estimate
    est_cfg = tmp_path / "estimate.yaml"
    est_cfg.write_text((data / "config.yaml").read_text()
                       + "estimator: {use_gps: false}\n")
    assert cli.main(["estimate-dt", "--config", str(est_cfg),
                     "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["align"] == "pos_yaw"
    assert cli.main(["evaluate", "--est", str(out / "estimate.csv"),
                     "--gt", str(data / "gt.csv"), "--align", "pos_yaw",
                     "--out", str(tmp_path / "eval")]) == 0
    m = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert m["ate_p_m"] == report["ate_p_m"]
    # estimate.csv holds the rotations as quaternions
    assert np.isclose(m["ate_r_deg"], report["ate_r_deg"], rtol=1e-9, atol=0)


def test_nan_offset_and_negative_seed_exit_2(tmp_path, capsys):
    """A NaN camera offset to ``compare`` and a negative seed, in a config
    or on the command line, exit 2 naming the key instead of a traceback."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text("seed: -2\n")
    out = str(tmp_path / "out")
    for argv, key in ((["compare", "--offsets", "nan"], "t_cam_imu_ms"),
                      (["simulate", "--config", str(cfg)], "seed"),
                      (["simulate", "--seed", "-1"], "seed"),
                      (["estimate-dt", "--seed", "-1", "--data", out], "seed")):
        assert cli.main(argv + ["--out", out]) == 2, argv
        assert key in capsys.readouterr().err, argv


def test_ct_initial_spline_follows_the_data_span(small_dataset):
    """The CT start placed on the PnP track stays near the truth over the
    whole data span, also past the last camera frame, where the spline's
    margin nodes have no frame of their own."""
    cfg = load_config(small_dataset / "config.yaml")
    meas, rig, _, (gt_t, gt_p, _) = read_dataset(small_dataset)
    init = est.initialize_ct(meas, rig, cfg.estimator, seed=cfg.seed)
    lo, hi = meas.time_span_ns()
    span = (gt_t >= lo) & (gt_t <= hi)
    assert gt_t[span][-1] > meas.frame_t_ns[-1]
    err = np.linalg.norm(init.position.sample_many(gt_t[span] * 1e-9)
                         - gt_p[span], axis=1)
    assert err.max() < 1.0


def test_estimate_ct_at_estimator_seed_0(small_dataset, tmp_path):
    """CT on the CLI data with ``CONFIG_SMALL``, which has no ``seed`` key,
    so the landmark prior is drawn at estimator seed 0: the run keeps the
    trajectory, with ATE-P below 50 mm."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    out = tmp_path / "est"
    assert cli.main(["estimate-ct", "--config", str(cfg),
                     "--data", str(small_dataset), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ate_p_m"] < 0.05


def test_report_gives_every_solving_stage(small_dataset, tmp_path):
    """report.json gives the termination and iterations of each stage that
    solves, stage 1 and the final solve, in both modes: neither start
    solves."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text("estimator:\n  max_iter: 2\n")
    for mode in ("ct", "dt"):
        out = tmp_path / mode
        cli.main([f"estimate-{mode}", "--config", str(cfg),
                  "--data", str(small_dataset), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        stages = report["stage_reports"]
        assert list(stages) == ["solve_fixed_offsets", "solve"]
        assert stages["solve"] == {"termination": report["termination"],
                                   "iterations": report["iterations"]}
        assert all(0 < s["iterations"] <= 2 for s in stages.values())


def _fake_run(small_dataset, **report_fields):
    """A stand-in for ``est.run`` that returns the ground-truth poses with a
    SolveReport made of ``report_fields``."""
    t_ns, pos, rot = read_pose_csv(small_dataset / "gt.csv")

    def fake_run(meas, rig, noise, cfg, mode="ct", seed=0):
        report = SolveReport(iterations=2, initial_cost=2.0, final_cost=1.0,
                             **report_fields)
        return est.RunResult(mode=mode, state=None, report=report, t_ns=t_ns,
                             positions=pos, rotations=rot, t_cam_imu=0.0,
                             t_gps_imu=0.0, factor_counts={"total": 0},
                             stage_seconds={"solve": 0.5})

    return fake_run


@pytest.mark.parametrize("termination, rc_expected", [
    ("converged", 0), ("max_iter", 0), ("stalled", 3), ("discontinuous", 3),
])
def test_estimate_exit_code_follows_termination(small_dataset, tmp_path,
                                                monkeypatch, capsys,
                                                termination, rc_expected):
    """A final solve that stalled or stopped on a discontinuity is a solver
    failure: the estimate and report are written, and the exit code is 3."""
    monkeypatch.setattr(cli.est, "run",
                        _fake_run(small_dataset, termination=termination))
    for command in ("estimate-ct", "estimate-dt"):
        out = tmp_path / command
        rc = cli.main([command, "--data", str(small_dataset),
                       "--out", str(out)])
        assert rc == rc_expected
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == termination
        assert report["stage_seconds"] == {"solve": 0.5}
        assert (out / "estimate.csv").exists()
        err = capsys.readouterr().err
        assert ("solver failure" in err) == (rc_expected == 3)


def test_compare_exits_3_after_writing_every_row_of_a_stalled_grid(
        small_dataset, tmp_path, monkeypatch, capsys):
    """``compare`` runs the whole grid when a final solve stalls, writes
    every row, and then exits 3 with a solver-failure line per run."""
    monkeypatch.setattr(cli.est, "run",
                        _fake_run(small_dataset, termination="stalled"))
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(cfg), "--seed", "3",
                   "--offsets", "0,10", "--out", str(out)])
    assert rc == 3
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [
        ["0", "ct"], ["0", "dt"], ["10", "ct"], ["10", "dt"]]
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("solver failure:")]
    assert failures == ["solver failure: the final solve ended stalled"] * 4


def test_compare_makes_the_ground_truth_once(small_dataset, tmp_path,
                                             monkeypatch):
    """The camera offset moves only the rig, so ``compare`` makes the
    ground truth once for its whole grid, not once per offset."""
    monkeypatch.setattr(cli.est, "run",
                        _fake_run(small_dataset, termination="converged"))
    calls = []
    make = cli.make_ground_truth

    def counting(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(cli, "make_ground_truth", counting)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(CONFIG_SMALL)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(cfg), "--seed", "3",
                   "--offsets", "0,10", "--out", str(out)])
    assert rc == 0
    assert len((out / "compare.csv").read_text().splitlines()) == 5
    assert len(calls) == 1


def test_estimate_warns_for_each_block_on_its_bound(small_dataset, tmp_path,
                                                     monkeypatch, capsys):
    """Offsets that end on their clamp are listed in report.json and get a
    warning line each; the run still counts as converged."""
    monkeypatch.setattr(cli.est, "run", _fake_run(
        small_dataset, termination="converged", at_bound=["t_cam", "t_gps"]))
    out = tmp_path / "est"
    rc = cli.main(["estimate-dt", "--data", str(small_dataset), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["at_bound"] == [
        "t_cam", "t_gps"]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 2
    assert "t_cam" in warnings[0] and "t_gps" in warnings[1]


def test_out_of_range_settings_are_errors(small_dataset, tmp_path, capsys):
    """An out-of-range estimator setting in a config exits 2 naming the
    setting instead of a traceback, a misleading message or a run of 0
    steps."""
    cfg = tmp_path / "bad.yaml"
    for text, key in (("estimator: {node_hz: 0.0}", "node_hz"),
                      ("estimator: {node_hz: .nan}", "node_hz"),
                      ("estimator: {landmark_sigma: -1.0}", "landmark_sigma"),
                      ("estimator: {offset_bound: -0.05}", "offset_bound"),
                      ("estimator: {max_iter: 0}", "max_iter")):
        cfg.write_text(text + "\n")
        rc = cli.main(["estimate-ct", "--config", str(cfg),
                       "--data", str(small_dataset),
                       "--out", str(tmp_path / "out")])
        assert rc == 2, text
        assert key in capsys.readouterr().err, text


def test_out_of_order_poses_are_data_errors(small_dataset, tmp_path, capsys):
    """A pose file with two rows swapped or a stamp repeated is a data error
    (exit 2) naming the file and line."""
    gt = small_dataset / "gt.csv"
    lines = gt.read_text().splitlines()
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    repeated = lines[:4] + [lines[3]] + lines[5:]
    for name, body in (("swapped.csv", swapped), ("repeated.csv", repeated)):
        path = tmp_path / name
        path.write_text("\n".join(body) + "\n")
        rc = cli.main(["evaluate", "--est", str(path), "--gt", str(gt),
                       "--out", str(tmp_path / "out")])
        assert rc == 2, name
        assert f"{name}:5: stamp" in capsys.readouterr().err


def test_non_finite_pose_is_a_data_error(small_dataset, tmp_path, capsys):
    """``evaluate`` on an estimate with a NaN position exits 2 naming the
    file and line, and writes no ``metrics.json`` (a NaN is not JSON)."""
    lines = (small_dataset / "gt.csv").read_text().splitlines()
    row = lines[3].split(",")
    row[2] = "nan"
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--est", str(path),
                   "--gt", str(small_dataset / "gt.csv"), "--out", str(out)])
    assert rc == 2
    assert "nan.csv:4: a non-finite value" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_evaluate_rejects_a_pose_file_under_another_header(small_dataset, tmp_path,
                                                        capsys):
    """``evaluate --est`` on a pose file whose header orders the quaternion
    ``qx,qy,qz,qw`` exits 2 naming the file and the header, not a silently
    reordered estimate."""
    lines = (small_dataset / "gt.csv").read_text().splitlines()
    path = tmp_path / "estimate.csv"
    path.write_text("\n".join(["t_ns,x,y,z,qx,qy,qz,qw"] + lines[1:]) + "\n")
    rc = cli.main(["evaluate", "--est", str(path),
                   "--gt", str(small_dataset / "gt.csv"), "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert "estimate.csv: unexpected header" in capsys.readouterr().err


SHIFT_NS = 1_700_000_000 * 1_000_000_000


def test_outputs_do_not_depend_on_the_epoch(small_dataset, tmp_path):
    """With every stamp of the dataset moved by 1.7e18 ns, a whole number of
    seconds, ``estimate-dt`` writes the same poses, offsets and ATE, and
    ``evaluate`` of each estimate against its ground truth the same
    metrics; only the stamps move, by exactly the shift."""
    shifted = tmp_path / "shifted"
    shutil.copytree(small_dataset, shifted)
    for name in ("imu.csv", "gps.csv", "features.csv", "gt.csv"):
        header, *rows = (shifted / name).read_text().splitlines()
        rows = [f"{int(t) + SHIFT_NS},{rest}"
                for t, rest in (row.split(",", 1) for row in rows)]
        (shifted / name).write_text("\n".join([header] + rows) + "\n")
    outs = []
    for k, data in enumerate((small_dataset, shifted)):
        out = tmp_path / f"out{k}"
        assert cli.main(["estimate-dt", "--data", str(data),
                         "--out", str(out)]) == 0
        assert cli.main(["evaluate", "--est", str(out / "estimate.csv"),
                         "--gt", str(data / "gt.csv"), "--out", str(out)]) == 0
        outs.append(out)
    rows0, rows1 = ([row.split(",", 1) for row in
                     (out / "estimate.csv").read_text().splitlines()[1:]]
                    for out in outs)
    assert [pose for _, pose in rows1] == [pose for _, pose in rows0]
    assert [int(t) for t, _ in rows1] == [int(t) + SHIFT_NS for t, _ in rows0]
    report0, report1 = (json.loads((out / "report.json").read_text())
                        for out in outs)
    for key in ("t_cam_imu_ms", "t_gps_imu_ms", "ate_p_m", "ate_r_deg"):
        assert report1[key] == report0[key], key
    metrics0, metrics1 = ((out / "metrics.json").read_text() for out in outs)
    assert metrics1 == metrics0
