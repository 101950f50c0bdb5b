"""Call tracing for the benchmark's traced run.

The tracer replaces public functions of the ``splinefusion`` modules, and a
few methods of its classes, by timing wrappers.  Each call becomes one span:
name, start, end, the span that was open when it began (its parent), and an
item count (rotations, windows, points) where the function takes a batch.
Functions are replaced under every module-level name bound to them, so a
function that other modules import with ``from .rotations import so3_log``
is counted wherever it is called from.

Spans stay in memory; :meth:`Tracer.save` writes them out at the end and
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Factor families of the two estimators, named as their ``FactorGroup.name``.
FAMILIES = ("ct_reproj", "ct_accel", "ct_gyro", "ct_gps", "ct_bias_rate",
            "dt_reproj", "dt_preint", "dt_bias_walk", "dt_gps")


def _batch(arg_index, tail):
    """Item count of a batched argument: elements / prod(trailing dims)."""
    def count(args):
        a = np.asarray(args[arg_index])
        return a.size // tail
    return count


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.items = []
        self.notes = {}  # span index -> dict noted from the call's result
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn, items=None, note=None):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.items.append(items(args) if items else 1)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if note is not None:
                self.notes[idx] = note(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_function(self, module, attr, name, items=None, note=None):
        """Replace ``module.attr`` under every name that binds it in a
        loaded ``splinefusion`` module."""
        orig = getattr(module, attr)
        traced = self._wrap(name, orig, items, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "splinefusion"
                                   or mod_name.startswith("splinefusion.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, orig, True))

    def wrap_method(self, cls, attr, name, items=None, note=None):
        """Replace ``cls.attr`` (possibly inherited) on ``cls`` alone."""
        own = attr in vars(cls)
        orig = vars(cls)[attr] if own else getattr(cls, attr)
        setattr(cls, attr, self._wrap(name, orig, items, note))
        self._undo.append((cls, attr, orig, own))

    def uninstall(self):
        for owner, key, orig, own in reversed(self._undo):
            if own:
                setattr(owner, key, orig)
            else:
                delattr(owner, key)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def save(self, path):
        """Write every span as gzipped JSON (parallel arrays, times in s)."""
        t0 = min(self.start) if self.start else 0.0
        data = {
            "names": self.names,
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
            "parent": self.parent,
            "items": self.items,
            "notes": {str(k): v for k, v in self.notes.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(data, f)


def install(tracer: Tracer):
    """Wrap the layer boundaries the per-layer metrics are built from."""
    from splinefusion import (bsplines, camera, estimators, initialization,
                              preintegration, rotations, simulate, solver)

    fn = tracer.wrap_function
    fn(simulate, "make_ground_truth", "simulate.make_ground_truth")
    fn(simulate, "synthesize", "simulate.synthesize")
    fn(estimators, "run", "estimators.run")
    for attr in ("initialize_ct", "initialize_dt"):
        fn(estimators, attr, "estimators.initialize")
    for attr in ("build_ct_problem", "build_dt_problem"):
        fn(estimators, attr, "estimators.build")
    fn(solver, "solve", "solver.solve", note=_note_solve)
    fn(initialization, "pnp_dlt", "initialization.pnp_dlt")
    fn(initialization, "fit_spline_to_poses",
       "initialization.fit_spline_to_poses")
    fn(preintegration, "integrate", "preintegration.integrate")
    fn(camera, "project_many", "camera.project_many", items=_batch(1, 3))
    fn(bsplines, "so3_window_eval", "bsplines.so3_window_eval",
       items=_window_count)
    fn(bsplines, "so3_window_angvel", "bsplines.so3_window_angvel",
       items=_window_count)
    fn(bsplines, "r3_window_eval", "bsplines.r3_window_eval")
    fn(rotations, "so3_log", "rotations.so3_log", items=_batch(0, 9))
    fn(rotations, "so3_exp", "rotations.so3_exp", items=_batch(0, 3))

    meth = tracer.wrap_method
    meth(solver.Problem, "linearize", "solver.linearize", note=_note_linearize)
    meth(solver.Problem, "residual_vector", "solver.residual_vector")
    meth(solver.Problem, "retract", "solver.retract")
    for cls in _family_classes(estimators):
        meth(cls, "linearize", f"{cls.name}.linearize")
        meth(cls, "kernel", f"{cls.name}.kernel")
        meth(cls, "residuals", f"{cls.name}.residuals")


def _family_classes(estimators):
    found = {}
    for value in vars(estimators).values():
        if (isinstance(value, type) and issubclass(value, estimators.FactorGroup)
                and value.__dict__.get("name") in FAMILIES):
            found[value.name] = value
    missing = set(FAMILIES) - set(found)
    if missing:
        raise RuntimeError(f"factor families not found: {sorted(missing)}")
    return [found[n] for n in FAMILIES]


def _window_count(args):
    windows = np.asarray(args[0])
    return int(np.prod(windows.shape[:-3], dtype=np.int64))


def _note_solve(out):
    _, report = out
    return {"iterations": report.iterations,
            "accepted": len(report.cost_history) - 1,
            "termination": report.termination}


def _note_linearize(out):
    _, J, _ = out
    return {"columns": int(J.shape[1]), "nnz": int(J.nnz)}


# ---------------------------------------------------------------------------
# per-layer metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tr: Tracer):
    """Per-layer metrics from the spans of one traced set-up and estimation.

    ``simulate.*`` time the set-up; every other metric counts only calls
    made inside ``estimators.run``.  The ``solver.*`` metrics cover only
    the two solves that ``estimators.run`` makes itself (stage 1 and
    final), not the small solves inside PnP and spline fitting, which the
    ``initialization.*`` metrics time.
    """
    n = len(tr.names)
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]

    # spans of the estimation: estimators.run and everything below it
    in_run = [False] * n
    for i in range(n):
        p = tr.parent[i]
        in_run[i] = tr.names[i] == "estimators.run" or (p >= 0 and in_run[p])

    total = defaultdict(float)
    calls = defaultdict(int)
    items = defaultdict(int)
    for i in range(n):
        if not (in_run[i] or tr.names[i].startswith("simulate.")):
            continue
        total[tr.names[i]] += dur[i]
        calls[tr.names[i]] += 1
        items[tr.names[i]] += tr.items[i]

    # the estimator's own solves, and every span made inside them
    est_solves = [i for i in range(n) if tr.names[i] == "solver.solve"
                  and tr.parent[i] >= 0
                  and tr.names[tr.parent[i]] == "estimators.run"]
    solve_set = set(est_solves)
    owner = [-1] * n
    for i in range(n):
        if i in solve_set:
            owner[i] = i
        elif tr.parent[i] >= 0:
            owner[i] = owner[tr.parent[i]]
    in_solve = defaultdict(float)
    in_solve_calls = defaultdict(int)
    for i in range(n):
        if owner[i] >= 0:
            in_solve[tr.names[i]] += dur[i]
            in_solve_calls[tr.names[i]] += 1

    m = {}
    m["estimators.run_s"] = _metric(total["estimators.run"], "s")
    m["estimators.initialize_s"] = _metric(total["estimators.initialize"], "s")
    m["estimators.build_s"] = _metric(total["estimators.build"], "s")
    stage1 = est_solves[0] if len(est_solves) > 1 else None
    final = est_solves[-1] if est_solves else None
    m["estimators.solve_stage1_s"] = _metric(
        dur[stage1] if stage1 is not None else 0.0, "s")
    m["estimators.solve_final_s"] = _metric(
        dur[final] if final is not None else 0.0, "s")
    kernels_in_linearize = defaultdict(int)
    for i in range(n):
        p = tr.parent[i]
        if p >= 0 and tr.names[i].endswith(".kernel") and \
                tr.names[p] == tr.names[i][:-len("kernel")] + "linearize":
            kernels_in_linearize[tr.names[i]] += 1
    for fam in FAMILIES:
        m[f"estimators.{fam}.linearize_s"] = _metric(total[f"{fam}.linearize"], "s")
        m[f"estimators.{fam}.linearize_calls"] = _metric(
            calls[f"{fam}.linearize"], "count")
        m[f"estimators.{fam}.kernel_calls"] = _metric(
            kernels_in_linearize[f"{fam}.kernel"], "count")
        m[f"estimators.{fam}.trial_s"] = _metric(total[f"{fam}.residuals"], "s")

    accepted = sum(tr.notes[i]["accepted"] for i in est_solves)
    trials = in_solve_calls["solver.residual_vector"]
    final_lin = [i for i in range(n) if owner[i] == final
                 and tr.names[i] == "solver.linearize"] if final is not None else []
    last_lin = tr.notes[final_lin[-1]] if final_lin else {"columns": 0, "nnz": 0}
    m["solver.linearize_s"] = _metric(in_solve["solver.linearize"], "s")
    m["solver.linearize_calls"] = _metric(in_solve_calls["solver.linearize"], "count")
    m["solver.trial_s"] = _metric(in_solve["solver.residual_vector"], "s")
    m["solver.trials"] = _metric(trials, "count")
    m["solver.retract_s"] = _metric(in_solve["solver.retract"], "s")
    m["solver.normal_eq_s"] = _metric(
        sum(dur[i] - child[i] for i in est_solves), "s")
    m["solver.accepted_steps"] = _metric(accepted, "count")
    m["solver.accept_ratio"] = _metric(accepted / trials if trials else 0.0, "ratio")
    m["solver.iterations_stage1"] = _metric(
        tr.notes[stage1]["iterations"] if stage1 is not None else 0, "count")
    m["solver.iterations_final"] = _metric(
        tr.notes[final]["iterations"] if final is not None else 0, "count")
    m["solver.columns_final"] = _metric(last_lin["columns"], "count")
    m["solver.jacobian_nnz_final"] = _metric(last_lin["nnz"], "count")

    m["bsplines.so3_window_eval_s"] = _metric(total["bsplines.so3_window_eval"], "s")
    m["bsplines.so3_window_eval_windows"] = _metric(
        items["bsplines.so3_window_eval"], "count")
    m["bsplines.so3_window_angvel_s"] = _metric(
        total["bsplines.so3_window_angvel"], "s")
    m["bsplines.so3_window_angvel_windows"] = _metric(
        items["bsplines.so3_window_angvel"], "count")
    m["bsplines.r3_window_eval_s"] = _metric(total["bsplines.r3_window_eval"], "s")
    m["rotations.so3_log_s"] = _metric(total["rotations.so3_log"], "s")
    m["rotations.so3_log_items"] = _metric(items["rotations.so3_log"], "count")
    m["rotations.so3_exp_s"] = _metric(total["rotations.so3_exp"], "s")
    m["rotations.so3_exp_items"] = _metric(items["rotations.so3_exp"], "count")
    m["preintegration.integrate_s"] = _metric(total["preintegration.integrate"], "s")
    m["preintegration.segments"] = _metric(calls["preintegration.integrate"], "count")
    m["initialization.pnp_s"] = _metric(total["initialization.pnp_dlt"], "s")
    m["initialization.pnp_frames"] = _metric(calls["initialization.pnp_dlt"], "count")
    m["initialization.fit_spline_s"] = _metric(
        total["initialization.fit_spline_to_poses"], "s")
    m["camera.project_many_s"] = _metric(total["camera.project_many"], "s")
    m["camera.points_projected"] = _metric(items["camera.project_many"], "count")
    m["simulate.ground_truth_s"] = _metric(total["simulate.make_ground_truth"], "s")
    m["simulate.synthesize_s"] = _metric(total["simulate.synthesize"], "s")
    return m
