"""Time-to-estimate benchmark of splinefusion.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from ``src``).
One operation is one batch estimation through ``estimators.run``.  An
untraced run sets the inputs up several times, then estimates in whole
rounds until ``--seconds`` have passed (at least once), checks every
estimate and reports the end-to-end metrics.  A traced run (``--trace 1``)
sets up once and estimates once with every layer boundary wrapped by the
tracer, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also appends its full record to
``perfbench/results/<workload>.jsonl``; a traced run writes its spans next
to it.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated and its median reported, so that one slow repetition
# does not move setup_s.
SETUP_REPEATS = 3


def pin_threads():
    """Pin BLAS/OpenMP to one thread; must run before numpy is imported,
    because OpenBLAS reads the variables when it loads.  Results depend on
    the thread count (summation order) and two threads contend for the
    machine's cores with the rest of the run."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Put ``src`` on the path and import the program and the benchmark's
    modules that use it."""
    if not (SRC / "splinefusion" / "__init__.py").is_file():
        raise FileNotFoundError(f"no splinefusion sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    return workloads, tracing


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(numpy),
    }


def _openblas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
        "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_operation(wl, workload, inputs):
    """One estimation and its checks; an exception fails the operation."""
    t0 = time.perf_counter()
    try:
        out = wl.estimate(workload, inputs)
    except Exception:
        return {"run_s": time.perf_counter() - t0, "ok": False,
                "failures": [traceback.format_exc(limit=4)]}
    run_s = time.perf_counter() - t0
    values, failures = wl.check(workload, inputs, out)
    return {"run_s": run_s, "ok": not failures, "failures": failures, **values}


def measure(wl, workload, seed, seconds):
    """Untraced run: repeated set-up, then estimations for ``seconds``.

    Returns the end-to-end metrics, the operations, whether the set-ups and
    estimations agreed with each other, and details for the record."""
    import_s = time.perf_counter() - START
    setup_times = []
    inputs = None
    consistent = True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        again = wl.make_inputs(workload, seed)
        setup_times.append(time.perf_counter() - t0)
        if inputs is not None and not wl.same_inputs(inputs, again):
            consistent = False
        inputs = again

    ops = []
    t_start = time.perf_counter()
    while True:
        ops.append(run_operation(wl, workload, inputs))
        if time.perf_counter() - t_start >= seconds:
            break
    good = [op for op in ops if op["ok"]]
    # every estimation of the same inputs must give the same estimate
    consistent &= len({(op["ate_p_mm"], op["ate_r_deg"]) for op in good}) <= 1
    metrics = {
        "run_s": {"value": statistics.median(op["run_s"] for op in ops),
                  "unit": "s"},
        "setup_s": {"value": import_s + statistics.median(setup_times),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    if good:
        metrics["ate_p_mm"] = {"value": good[0]["ate_p_mm"], "unit": "mm"}
        metrics["ate_r_deg"] = {"value": good[0]["ate_r_deg"], "unit": "deg"}
    detail = {"import_s": import_s, "setup_times_s": setup_times,
              "inputs": inputs.stats}
    return metrics, ops, consistent, detail


def measure_traced(wl, tracing, workload, seed, stamp):
    """Traced run: one set-up and one estimation, every layer wrapped."""
    tracer = tracing.Tracer()
    with tracer:
        tracing.install(tracer)
        inputs = wl.make_inputs(workload, seed)
        op = run_operation(wl, workload, inputs)
    metrics = tracing.layer_metrics(tracer)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"trace-{workload.name}-seed{seed}-{stamp}.json.gz"
    tracer.save(spans)
    detail = {"spans_file": str(spans.relative_to(HERE.parent)),
              "spans": len(tracer.names), "inputs": inputs.stats,
              "tracing_overhead": _tracing_overhead(workload.name, op["run_s"])}
    return metrics, [op], True, detail


def _tracing_overhead(name, traced_run_s):
    """Traced run_s minus the median untraced run_s recorded so far for
    this workload, or None when there is none."""
    path = RESULTS / f"{name}.jsonl"
    if not path.is_file():
        return None
    times = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if not rec["trace"] and "run_s" in rec["metrics"]:
                times.append(rec["metrics"]["run_s"]["value"])
    if not times:
        return None
    median = statistics.median(times)
    return {"seconds": traced_run_s - median, "share": traced_run_s / median - 1.0,
            "untraced_runs": len(times)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        wl, tracing = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    if args.trace:
        metrics, ops, consistent, detail = measure_traced(
            wl, tracing, workload, args.seed, stamp)
    else:
        metrics, ops, consistent, detail = measure(
            wl, workload, args.seed, args.seconds)
    failed = sum(not op["ok"] for op in ops)
    correct = consistent and failed < len(ops)
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed,
              "seeds": {workload.seeded: args.seed,
                        "other_streams": wl.SCENE_SEED,
                        "estimator": wl.ESTIMATOR_SEED},
              "seconds": args.seconds, "trace": bool(args.trace),
              "time": stamp, "environment": environment(), **result,
              "operations": ops, **detail}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload.name}.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")

    for op in ops:
        if op["failures"]:
            print("FAILED: " + "; ".join(op["failures"]))
        if "ate_p_mm" in op:
            print(f"estimate: {op['termination']} after {op['iterations_final']} "
                  f"final iterations, t_cam {op['t_cam_ms']:.4f} ms "
                  f"(error {op['t_cam_error_ms']:.4f} ms), "
                  f"t_gps {op['t_gps_ms']:.4f} ms")
    if detail.get("tracing_overhead"):
        o = detail["tracing_overhead"]
        print(f"tracing overhead: {o['seconds']:.2f} s ({100 * o['share']:.1f} %) "
              f"against the median of {o['untraced_runs']} untraced runs")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
