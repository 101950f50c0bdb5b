"""The demos keep working: the spline demo runs, and every ``splinefusion``
name the two estimation demos use still resolves (they take minutes, so
they are read, not run)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_splines_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(DEMOS / "01_splines.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "velocity vs finite difference" in out.stdout


def package_references(source):
    """``(owner, name)`` for every name a script imports from
    ``splinefusion`` or reads off an imported ``splinefusion`` module."""
    tree = ast.parse(source)
    modules = {}  # local name -> imported splinefusion module
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "splinefusion":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = importlib.import_module(
                        alias.name if alias.asname else "splinefusion")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "splinefusion"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                refs.append((owner, alias.name))
                value = getattr(owner, alias.name, None)
                if isinstance(value, type(owner)):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return refs


@pytest.mark.parametrize("demo", ["02_simulate_and_estimate.py",
                                  "03_ct_vs_dt.py"])
def test_demo_names_resolve(demo):
    refs = package_references((DEMOS / demo).read_text())
    assert len(refs) >= 5
    missing = [f"{owner.__name__}.{name}" for owner, name in refs
               if not hasattr(owner, name)]
    assert missing == []


def test_unresolved_demo_name_is_reported():
    refs = package_references(
        "from splinefusion import estimators as est\nest.no_such_name()\n")
    assert [(o.__name__, n) for o, n in refs if not hasattr(o, n)] == [
        ("splinefusion.estimators", "no_such_name")]
