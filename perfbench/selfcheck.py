"""Fast self-check of the benchmark harness (a few seconds).

    python3 perfbench/selfcheck.py

Estimates a small DT dataset once with the tracer installed and once
through the untraced measurement path.  It checks that the estimate checks
accept the estimate and reject broken copies of it, that the tracer wraps
a function under every name that imports it and restores them all, that
its counts match the dataset, and that both paths report exactly the
metrics BENCHMARK.json names.  Exits 0 when every check holds.
"""

import dataclasses
import json
import sys

import run


def main():
    run.pin_threads()
    wl, tracing = run.import_program()
    import numpy as np
    from splinefusion import bsplines, estimators, rotations

    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    results = []

    def expect(what, ok):
        results.append((what, bool(ok)))

    tiny = wl.Workload("tiny_dt", "dt", 5.0, estimators.DtConfig(), "imu",
                       landmarks=80)
    a = wl.make_inputs(tiny, 1)
    expect("the same seed gives the same inputs",
           wl.same_inputs(a, wl.make_inputs(tiny, 1)))
    expect("another seed gives other inputs",
           not wl.same_inputs(a, wl.make_inputs(tiny, 2)))

    orig_log = rotations.so3_log
    tracer = tracing.Tracer()
    with tracer:
        tracing.install(tracer)
        expect("so3_log is wrapped under every name that imports it",
               rotations.so3_log is not orig_log
               and bsplines.so3_log is rotations.so3_log
               and estimators.so3_log is rotations.so3_log)
        out = wl.estimate(tiny, a)
    expect("the tracer restores what it wrapped",
           rotations.so3_log is orig_log and bsplines.so3_log is orig_log
           and "linearize" not in vars(estimators.DtPreintGroup))

    m = {k: v["value"] for k, v in tracing.layer_metrics(tracer).items()}
    K = len(a.meas.frames)
    expect("per-layer metrics are those of BENCHMARK.json",
           set(m) == {x["name"] for x in spec["per_layer"]})
    expect("one PnP per camera frame", m["initialization.pnp_frames"] == K)
    expect("each of the two builds preintegrates every frame gap",
           m["preintegration.segments"] >= 2 * (K - 1))
    expect("49 dt_preint kernel calls per linearization (8 FD slots)",
           m["estimators.dt_preint.kernel_calls"]
           == 49 * m["estimators.dt_preint.linearize_calls"] > 0)
    expect("one linearization of each family per solver linearization",
           m["estimators.dt_reproj.linearize_calls"]
           == m["solver.linearize_calls"])
    expect("no CT factor and no spline kernel in a DT estimation",
           m["estimators.ct_reproj.linearize_calls"] == 0
           and m["bsplines.so3_window_eval_windows"] == 0)
    expect("final iterations match the solve report",
           m["solver.iterations_final"] == out.report.iterations)
    expect("self time of the solves lies within their inclusive time",
           0 < m["solver.normal_eq_s"]
           < m["estimators.solve_stage1_s"] + m["estimators.solve_final_s"])
    expect("accepted steps do not exceed trials",
           0 < m["solver.accepted_steps"] <= m["solver.trials"])

    values, failures = wl.check(tiny, a, out)
    expect("the estimate passes every check", not failures)
    gt = a.ground_truth
    truth = dataclasses.replace(
        out, positions=gt.position.sample_many(out.t_ns * 1e-9),
        rotations=gt.rotation.sample_many(out.t_ns * 1e-9))
    expect("ATE of the ground truth itself is zero",
           max(wl.ate(gt, truth)) < 1e-6)
    tilted = out.rotations.copy()
    tilted[0] *= 1.0 + 1e-6
    nan_pos = out.positions.copy()
    nan_pos[1, 2] = np.nan
    rep = out.report
    broken = {
        "termination": dict(report=dataclasses.replace(rep, termination="max_iter")),
        "raised the cost": dict(report=dataclasses.replace(
            rep, cost_history=[3.0, 1.0, 2.0])),
        "not below initial": dict(report=dataclasses.replace(
            rep, final_cost=rep.initial_cost)),
        "one pose per camera frame": dict(positions=out.positions[:-1]),
        "non-finite": dict(positions=nan_pos),
        "orthonormal": dict(rotations=tilted),
        "t_gps": dict(t_gps_imu=tiny.config.offset_bound),
        "GPS sigma": dict(positions=out.positions + 0.2),
    }
    for text, change in broken.items():
        _, fails = wl.check(tiny, a, dataclasses.replace(out, **change))
        expect(f"a broken estimate fails the {text!r} check",
               any(text in f for f in fails))
    late = dataclasses.replace(out, t_cam_imu=wl.T_CAM + 0.0025)
    ct = dataclasses.replace(tiny, mode="ct")
    expect("a CT t_cam 2.5 ms off fails, a DT one does not",
           any("t_cam off" in f for f in wl.check(ct, a, late)[1])
           and not any("t_cam off" in f for f in wl.check(tiny, a, late)[1]))

    metrics, ops, consistent, _ = run.measure(wl, tiny, 1, 1e-3)
    expect("the untraced run reports the end-to-end metrics of BENCHMARK.json",
           set(metrics) == {x["name"] for x in spec["end_to_end"]}
           and consistent and len(ops) == 1 and ops[0]["ok"])
    expect("the untraced run gives the traced run's estimate",
           metrics["ate_p_mm"]["value"] == values["ate_p_mm"])

    for what, ok in results:
        print(("ok    " if ok else "FAIL  ") + what)
    failed = sum(not ok for _, ok in results)
    print(f"selfcheck: {len(results) - failed} of {len(results)} checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
