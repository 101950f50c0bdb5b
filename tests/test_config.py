import argparse
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from splinefusion import cli
from splinefusion import metrics as met
from splinefusion.config import (
    RunConfig,
    SimulateConfig,
    load_config,
    save_config,
)
from splinefusion.dataset import NoiseSpec
from splinefusion.errors import DataError, InvalidArgumentError
from splinefusion.estimators import CtConfig, DtConfig


def test_defaults_roundtrip():
    cfg = RunConfig()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert RunConfig.from_dict(None) == cfg
    assert RunConfig.default_dict() == cfg.to_dict()


def test_unknown_keys_rejected():
    with pytest.raises(DataError, match="unknown config keys"):
        RunConfig.from_dict({"speling": 1})
    with pytest.raises(DataError, match="unknown config keys"):
        RunConfig.from_dict({"mode": "dt"})  # the subcommand picks the mode
    with pytest.raises(DataError, match="unknown keys"):
        RunConfig.from_dict({"estimator": {"spline_ordre": 6}})
    with pytest.raises(DataError, match="noise"):
        RunConfig.from_dict({"noise": {"pixel_sgima": 1.0}})
    with pytest.raises(DataError, match="section 'estimator'"):
        RunConfig.from_dict({"estimator": {"spline_ordre": 6}})
    # a section that is not a mapping and a seed that is not an integer
    with pytest.raises(DataError, match="section 'estimator' must be a mapping"):
        RunConfig.from_dict({"estimator": 5})
    with pytest.raises(DataError, match="section 'estimator' must be a mapping"):
        RunConfig.from_dict({"estimator": "abc"})
    with pytest.raises(DataError, match="section 'noise' must be a mapping"):
        RunConfig.from_dict({"noise": [1.0]})
    for seed in ("x", 1.5, True):
        with pytest.raises(DataError, match="'seed'.* must be an int"):
            RunConfig.from_dict({"seed": seed})
    # a value of the wrong type inside a section
    for name, key, value in [("simulate", "duration", "x"),
                             ("estimator", "spline_order", "x"),
                             ("estimator", "spline_order", 6.5),
                             ("estimator", "node_hz", "abc"),
                             ("estimator", "max_iter", True),
                             ("noise", "pixel_sigma", "x"),
                             ("estimator", "use_cam", "no"),
                             ("simulate", "profile", 3)]:
        with pytest.raises(DataError, match=f"'{key}' in section '{name}'"):
            RunConfig.from_dict({name: {key: value}})


def test_offset_switches_rejected(tmp_path, capsys):
    """Both clock offsets are unknowns of every run: a switch to hold one
    is an unknown key, in Python and on the command line."""
    for key, value in (("estimate_t_cam", True), ("estimate_t_gps", False)):
        with pytest.raises(DataError,
                           match=f"section 'estimator': \\['{key}'\\]"):
            RunConfig.from_dict({"estimator": {key: value}})
    cfg = tmp_path / "config.yaml"
    cfg.write_text("estimator: {estimate_t_cam: true}\n")
    rc = cli.main(["estimate-ct", "--config", str(cfg),
                   "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "estimate_t_cam" in capsys.readouterr().err


def test_readme_schema_is_the_default_config():
    """The YAML block after "The full schema (defaults shown) is:" in the
    README is ``RunConfig.default_dict()``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text.split("The full schema (defaults shown) is:", 1)[1]
    block = after.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == RunConfig.default_dict()


def test_readme_cli_block_is_the_parser():
    """The README's CLI block names exactly the subcommands of
    ``cli.build_parser()`` and, on its ``evaluate`` line, the ``--align``
    choices of ``metrics.ALIGN_MODES``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = text.split("All subcommands are under one entry point:", 1)[1]
    lines = after.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    commands = [line.split()[1] for line in lines]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(commands) == sorted(sub.choices)
    (evaluate,) = [line for line in lines if line.split()[1] == "evaluate"]
    modes = re.search(r"--align ([\w|]+)", evaluate).group(1).split("|")
    assert tuple(modes) == met.ALIGN_MODES


def test_partial_overrides():
    cfg = RunConfig.from_dict(
        {"noise": {"gps_sigma": 0.02}, "simulate": {"duration": 8.0}}
    )
    assert cfg.noise.gps_sigma == 0.02
    assert cfg.noise.pixel_sigma == 1.0  # untouched default
    assert cfg.simulate.duration == 8.0


class _Handed(Exception):
    pass


def _configs_handed_to_run(cfg, monkeypatch):
    """The estimator config the CLI hands ``estimators.run`` in each mode."""
    seen = {}

    def run(meas, rig, noise, est_cfg, mode, seed):
        seen[mode] = est_cfg
        raise _Handed

    monkeypatch.setattr(cli.est, "run", run)
    for mode in ("ct", "dt"):
        with pytest.raises(_Handed):
            cli._run_scored(cfg, mode, None, None, None, None)
    return seen


def test_estimator_config_applies_sensor_flags(monkeypatch):
    cfg = RunConfig.from_dict({"estimator": {"use_gps": False}})
    for mode, handed in _configs_handed_to_run(cfg, monkeypatch).items():
        assert (handed.use_gps, handed.use_cam, handed.use_imu) == (
            False, True, True), mode


def test_align_key_rejected(tmp_path, capsys):
    """A run aligns by the gauge its sensors leave free, so ``align`` is an
    unknown key, in Python and on the command line."""
    with pytest.raises(DataError, match=r"unknown config keys: \['align'\]"):
        RunConfig.from_dict({"align": "pos_yaw"})
    cfg = tmp_path / "config.yaml"
    cfg.write_text("align: none\n")
    rc = cli.main(["estimate-ct", "--config", str(cfg),
                   "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'align'" in capsys.readouterr().err


def test_noise_seed_is_rejected_for_the_top_level_seed(tmp_path, capsys):
    """The top-level ``seed`` drives the noise, so a ``noise.seed`` key,
    which would do nothing, is a data error naming both; no written config
    carries one."""
    with pytest.raises(DataError, match=r"'noise\.seed'.*top-level 'seed'"):
        RunConfig.from_dict({"noise": {"seed": 5}})
    assert "seed" not in RunConfig.default_dict()["noise"]
    cfg = tmp_path / "config.yaml"
    cfg.write_text("noise: {seed: 5}\n")
    rc = cli.main(["simulate", "--config", str(cfg), "--seed", "3",
                   "--out", str(tmp_path / "data")])
    assert rc == 2
    assert "noise.seed" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_validation_errors():
    with pytest.raises(InvalidArgumentError):
        SimulateConfig(profile="spiral")
    with pytest.raises(InvalidArgumentError):
        SimulateConfig(duration=2.0)
    with pytest.raises(InvalidArgumentError, match="two sensor modalities"):
        CtConfig(use_cam=True, use_imu=False, use_gps=False)
    # out-of-range settings are named, not left to fail later
    nan, inf = float("nan"), float("inf")
    for klass, key, value in (
            (SimulateConfig, "t_cam_imu_ms", nan),
            (SimulateConfig, "t_gps_imu_ms", inf), (RunConfig, "seed", -1),
            (CtConfig, "node_hz", 0.0), (CtConfig, "node_hz", nan),
            (CtConfig, "node_hz", inf), (CtConfig, "node_hz", -10.0),
            (CtConfig, "landmark_sigma", -1.0), (DtConfig, "landmark_sigma", nan),
            (CtConfig, "offset_bound", -0.05), (DtConfig, "offset_bound", 0.0),
            (DtConfig, "offset_bound", inf), (CtConfig, "max_iter", 0),
            (DtConfig, "max_iter", -1)):
        with pytest.raises(InvalidArgumentError, match=key):
            klass(**{key: value})
    assert CtConfig(landmark_sigma=0.0).landmark_sigma == 0.0


def test_yaml_roundtrip(tmp_path):
    cfg = RunConfig.from_dict(
        {"seed": 7, "estimator": {"node_hz": 5.0}}
    )
    path = tmp_path / "config.yaml"
    save_config(path, cfg)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.estimator.node_hz == 5.0


def test_load_config_edge_cases(tmp_path):
    assert load_config(None) == RunConfig()
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config(empty) == RunConfig()
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(DataError, match="mapping"):
        load_config(bad)
    broken = tmp_path / "broken.yaml"
    broken.write_text("mode: [unclosed\n")
    with pytest.raises(DataError, match="YAML"):
        load_config(broken)
    with pytest.raises(DataError, match="not found"):
        load_config(tmp_path / "missing.yaml")


def test_one_estimator_section_reaches_both_modes(monkeypatch):
    """CT and DT read the one ``estimator`` section: the CLI hands that
    section itself to the estimator of either mode."""
    cfg = RunConfig.from_dict(
        {"estimator": {"use_gps": False, "offset_bound": 0.1, "max_iter": 7}})
    handed = _configs_handed_to_run(cfg, monkeypatch)
    assert handed["ct"] is cfg.estimator and handed["dt"] is cfg.estimator
    assert (cfg.estimator.use_gps, cfg.estimator.offset_bound,
            cfg.estimator.max_iter) == (False, 0.1, 7)


@pytest.mark.parametrize("section", ["sensors", "ct", "dt"])
def test_old_estimator_sections_are_unknown_keys(section):
    """The sensor switches and both estimators' settings live in
    ``estimator``; a ``sensors``, ``ct`` or ``dt`` section is an unknown
    key, also when it is empty."""
    for body in ({}, {"max_iter": 5}):
        with pytest.raises(DataError,
                           match=rf"unknown config keys: \['{section}'\]"):
            RunConfig.from_dict({section: body})


def test_seed_must_be_a_non_negative_int():
    """A seed that is no int, a bool or negative is named where it is set,
    not left to numpy's RNG."""
    for seed in (1.5, True, -1, "3"):
        for make in (RunConfig, NoiseSpec):
            with pytest.raises(InvalidArgumentError, match="seed"):
                make(seed=seed)
    assert NoiseSpec(seed=np.int64(4)).seed == 4

