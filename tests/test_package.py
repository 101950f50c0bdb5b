"""Package-level guards: the public names and the benchmark's call hooks."""

import importlib.util
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
