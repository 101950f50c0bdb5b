"""Package-level guards: the public names and the benchmark's call hooks."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import splinefusion
from splinefusion import estimators


def test_every_public_name_resolves():
    missing = [n for n in splinefusion.__all__ if not hasattr(splinefusion, n)]
    assert missing == []


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_hooks_install_and_uninstall():
    """The benchmark's traced run wraps functions and factor families by
    name; a rename in the package makes ``install`` raise."""
    tracing = _load_tracing()
    run = estimators.run
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert estimators.run is not run
    finally:
        tracer.uninstall()
    assert estimators.run is run
    for cls in (estimators.CtReprojGroup, estimators.DtPreintGroup):
        assert "linearize" not in vars(cls)


def test_benchmark_selfcheck_passes():
    """``perfbench/selfcheck.py`` estimates a small DT dataset and checks the
    counts the benchmark's per-layer metrics rely on: one ``pnp_dlt`` call
    per camera frame, ``integrate`` calls per frame gap and 49
    ``dt_preint`` kernel calls per linearization.  It pins its own BLAS
    threads, writes no files and exits 0 when every check holds."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selfcheck.py")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
