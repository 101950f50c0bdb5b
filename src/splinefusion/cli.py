"""Command-line entry points tying the pipeline together.

Subcommands: ``simulate`` (write a synthetic dataset), ``estimate-ct`` /
``estimate-dt`` (batch estimation), ``evaluate`` (ATE metrics), ``compare``
(both modes across an injected camera-offset grid).

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure
(including an estimate whose final solve ended ``stalled`` or
``discontinuous``; its outputs are still written).  ``compare`` writes each
row of ``compare.csv`` as its run ends, so a failing run keeps the rows
before it, and exits 3 after the grid when any run ended so.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import partial

import numpy as np
import yaml

from . import estimators as est
from . import metrics as met
from .config import RunConfig, load_config
from .dataset import read_dataset, read_pose_csv, write_dataset, write_pose_csv
from .errors import DataError, NumericalFailureError, SplineFusionError
from .simulate import default_rig, make_ground_truth, synthesize
from .solver import DISCONTINUOUS, STALLED


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared helpers


def _ground_truth(cfg: RunConfig):
    sim = cfg.simulate
    return make_ground_truth(sim.profile_params(), duration=sim.duration)


def _simulate_dataset(cfg: RunConfig, gt):
    sim = cfg.simulate
    rig = default_rig(t_cam_imu=sim.t_cam_imu_ms * 1e-3,
                      t_gps_imu=sim.t_gps_imu_ms * 1e-3)
    noise = dataclasses.replace(cfg.noise, seed=cfg.seed)
    result = synthesize(gt, rig, noise, num_landmarks=sim.num_landmarks,
                        landmark_spread=sim.landmark_spread)
    return rig, noise, result


def _gauge(cfg: RunConfig):
    """The alignment for the gauge the run's sensors leave free: none with
    GPS, yaw and translation without (gravity holds roll and pitch)."""
    return "none" if cfg.estimator.use_gps else "pos_yaw"


def _pairs_against_gt(est_poses, gt, align):
    """The aligned pairs of the (t_ns, positions, rotations) of an estimate
    and of the ground truth; a DataError when no estimate stamp falls in
    the ground truth's span."""
    pairs = met.make_pairs(*est_poses, *gt)
    if len(pairs) == 0:
        raise DataError("no estimate stamp inside the ground truth's span")
    return met.align_pairs(pairs, align)


def _report(result, wall_s, align, pairs=None):
    return {
        "mode": result.mode,
        "ate_p_m": met.ate_p(pairs) if pairs is not None else None,
        "ate_r_deg": met.ate_r(pairs) if pairs is not None else None,
        "align": align,
        "t_cam_imu_ms": result.t_cam_imu * 1e3,
        "t_gps_imu_ms": result.t_gps_imu * 1e3,
        "iterations": result.report.iterations,
        "converged": bool(result.report.converged),
        "termination": result.report.termination,
        "at_bound": list(result.report.at_bound),
        "wall_ms": wall_s * 1e3,
    }


def _run_scored(cfg: RunConfig, mode, meas, rig, noise, gt):
    """Run the ``mode`` estimator on the data and time it; returns the
    RunResult and its :func:`_report`, scored in the run's gauge against
    the ground truth ``gt`` (t_ns, positions, rotations) unless it is None.
    Prints a warning for each offset that ended on its bound."""
    t0 = time.perf_counter()
    result = est.run(meas, rig, noise, cfg.estimator, mode=mode,
                     seed=cfg.seed)
    wall = time.perf_counter() - t0
    align = _gauge(cfg)
    pairs = (_pairs_against_gt((result.t_ns, result.positions, result.rotations),
                               gt, align) if gt is not None else None)
    report = _report(result, wall, align, pairs)
    for name in report["at_bound"]:
        print(f"warning: {name} ended on its bound; the estimate is clamped there",
              file=sys.stderr)
    return result, report


def _exit_code(reports):
    """3, after a solver-failure line for each run whose final solve ended
    ``stalled`` or ``discontinuous``, else 0."""
    failed = [r["termination"] for r in reports
              if r["termination"] in (STALLED, DISCONTINUOUS)]
    for termination in failed:
        print(f"solver failure: the final solve ended {termination}",
              file=sys.stderr)
    return 3 if failed else 0


def _write_json(path, data):
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args):
    cfg = load_config(args.config)
    if args.profile:
        cfg = dataclasses.replace(
            cfg, simulate=dataclasses.replace(cfg.simulate, profile=args.profile))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    rig, noise, result = _simulate_dataset(cfg, _ground_truth(cfg))
    os.makedirs(args.out, exist_ok=True)
    write_dataset(
        args.out, result.measurements, rig, noise,
        gt=(result.gt_t_ns, result.gt_positions, result.gt_rotations))
    # how the data were made; the estimator settings do not change the data
    data = cfg.to_dict()
    with open(os.path.join(args.out, "config.yaml"), "w") as f:
        yaml.safe_dump({k: data[k] for k in ("seed", "simulate", "noise")}, f,
                       sort_keys=False)
    print(f"wrote dataset to {args.out}: "
          f"{len(result.measurements.frames)} frames, "
          f"{result.measurements.imu_t_ns.size} IMU samples, "
          f"{result.measurements.gps_t_ns.size} GPS fixes")
    return 0


def _cmd_estimate(args, mode):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    meas, rig, noise, gt = read_dataset(
        args.data, require_gps=cfg.estimator.use_gps
    )
    result, report = _run_scored(cfg, mode, meas, rig, noise, gt)
    os.makedirs(args.out, exist_ok=True)
    write_pose_csv(os.path.join(args.out, "estimate.csv"), result.t_ns,
                   result.positions, result.rotations)
    report["factor_counts"] = result.factor_counts
    report["stage_seconds"] = result.stage_seconds
    report["stage_reports"] = {
        stage: {"termination": rep.termination, "iterations": rep.iterations}
        for stage, rep in result.stage_reports.items()}
    _write_json(os.path.join(args.out, "report.json"), report)
    ate_txt = (f" ate_p={report['ate_p_m']:.4f} m" if gt is not None else "")
    print(f"{mode}: {result.report.iterations} iterations, "
          f"converged={report['converged']},"
          f"{ate_txt} t_cam={report['t_cam_imu_ms']:.2f} ms "
          f"t_gps={report['t_gps_imu_ms']:.2f} ms "
          f"({report['wall_ms'] * 1e-3:.1f} s)")
    return _exit_code([report])


def cmd_evaluate(args):
    pairs = _pairs_against_gt(read_pose_csv(args.est), read_pose_csv(args.gt),
                              args.align)
    os.makedirs(args.out, exist_ok=True)
    m = met.metrics_dict(pairs)
    _write_json(os.path.join(args.out, "metrics.json"), m)
    print(f"ate_p={m['ate_p_m']:.4f} m ate_r={m['ate_r_deg']:.4f} deg "
          f"({m['n_pairs']} pairs)")
    return 0


def cmd_compare(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    try:
        offsets_ms = [float(x) for x in args.offsets.split(",") if x.strip()]
    except ValueError as e:
        raise UsageError(f"bad --offsets value: {args.offsets!r}") from e
    if not offsets_ms:
        raise UsageError("--offsets must list at least one value")
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "compare.csv")
    reports = []
    gt = _ground_truth(cfg)  # the offset moves only the rig
    # each row is written as it is made, so a failing run keeps the rows before it
    with open(out_csv, "w") as f:
        f.write("offset_true_ms,mode,ate_p_m,ate_r_deg,offset_est_ms\n")
        for off in offsets_ms:
            run_cfg = dataclasses.replace(
                cfg, simulate=dataclasses.replace(cfg.simulate, t_cam_imu_ms=off))
            rig, noise, sim_result = _simulate_dataset(run_cfg, gt)
            gt_tuple = (sim_result.gt_t_ns, sim_result.gt_positions,
                        sim_result.gt_rotations)
            for mode in ("ct", "dt"):
                _, report = _run_scored(run_cfg, mode, sim_result.measurements,
                                        rig, noise, gt_tuple)
                reports.append(report)
                f.write(f"{off:g},{mode},{report['ate_p_m']:.9f},"
                        f"{report['ate_r_deg']:.9f},"
                        f"{report['t_cam_imu_ms']:.6f}\n")
                f.flush()
                print(f"offset {off:g} ms {mode}: ate_p={report['ate_p_m']:.4f} m "
                      f"offset_est={report['t_cam_imu_ms']:.3f} ms")
    print(f"wrote {out_csv}")
    return _exit_code(reports)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    p = _Parser(prog="splinefusion",
                description="Continuous-time vs discrete-time batch "
                            "trajectory estimation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None, help="YAML config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("simulate", help="write a synthetic dataset")
    add_common(sp)
    sp.add_argument("--profile", default=None,
                    choices=("line", "circle", "lemniscate"))
    sp.set_defaults(fn=cmd_simulate)

    for name, mode in (("estimate-ct", "ct"), ("estimate-dt", "dt")):
        sp = sub.add_parser(name, help=f"run the {mode.upper()} estimator")
        add_common(sp)
        sp.add_argument("--data", required=True, help="dataset directory")
        sp.set_defaults(fn=partial(_cmd_estimate, mode=mode))

    sp = sub.add_parser("evaluate", help="ATE metrics for an estimate CSV")
    sp.add_argument("--est", required=True, help="estimate.csv path")
    sp.add_argument("--gt", required=True, help="ground-truth CSV path")
    sp.add_argument("--align", default="none", choices=met.ALIGN_MODES)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("compare",
                        help="run CT and DT across an injected-offset grid")
    add_common(sp)
    sp.add_argument("--offsets", default="0,10,20",
                    help="comma-separated injected camera offsets in ms")
    sp.set_defaults(fn=cmd_compare)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailureError, np.linalg.LinAlgError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except SplineFusionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
