"""Run configuration: one YAML file describing simulation, noise, and both
estimator modes.

Every key has a default; an empty file (or no ``--config``) is a valid
configuration.  The full schema with defaults is documented in the README
and reproducible via :func:`RunConfig.default_dict`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

import yaml

from .dataset import NoiseSpec, build_section
from .errors import DataError, InvalidArgumentError, require_finite
from .estimators import CtConfig, DtConfig
from .simulate import ProfileParams

# CtConfig/DtConfig fields that RunConfig takes from ``sensors`` instead
_SENSOR_SWITCHES = ("use_cam", "use_imu", "use_gps")


@dataclass(frozen=True)
class SimulateConfig:
    """Trajectory and scene parameters for the synthetic dataset."""

    profile: str = "lemniscate"
    duration: float = 15.0
    radius: float = 2.5
    rate: float = 0.7
    height: float = 0.0
    height_rate: float = 0.7
    wobble_roll: float = 0.25
    wobble_pitch: float = 0.2
    wobble_rate: float = 1.3
    static_prefix: float = 0.0
    num_landmarks: int = 500
    landmark_spread: float = 3.0
    t_cam_imu_ms: float = 0.0  # injected true camera-IMU offset
    t_gps_imu_ms: float = 0.0  # injected true GPS-IMU offset

    def __post_init__(self):
        self.profile_params()
        require_finite("t_cam_imu_ms", self.t_cam_imu_ms)
        require_finite("t_gps_imu_ms", self.t_gps_imu_ms)
        if not self.duration >= 5.0:
            raise InvalidArgumentError(f"duration must be >= 5 s, got {self.duration}")

    def profile_params(self):
        """The trajectory shape as :class:`ProfileParams`, which checks it."""
        return ProfileParams(kind=self.profile, **{
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(ProfileParams) if f.name != "kind"})


@dataclass(frozen=True)
class SensorFlags:
    camera: bool = True
    imu: bool = True
    gps: bool = True

    def __post_init__(self):
        if sum((self.camera, self.imu, self.gps)) < 2:
            raise InvalidArgumentError("need at least two sensor modalities")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run reads besides its data; the subcommand picks the
    estimator (CT or DT)."""

    seed: int = 0
    sensors: SensorFlags = field(default_factory=SensorFlags)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    ct: CtConfig = field(default_factory=CtConfig)
    dt: DtConfig = field(default_factory=DtConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        # estimator_config takes the switches from ``sensors``, so a switch
        # set in ``ct``/``dt`` would be ignored
        for name in ("ct", "dt"):
            section = getattr(self, name)
            moved = sorted(f.name for f in dataclasses.fields(section)
                           if f.name in _SENSOR_SWITCHES
                           and getattr(section, f.name) != f.default)
            if moved:
                raise DataError(
                    f"{moved} in config section {name!r}: sensors are "
                    f"switched in the 'sensors' section (camera, imu, gps)"
                )

    def estimator_config(self, mode):
        """The CtConfig/DtConfig for ``mode`` ("ct" or "dt") with sensor
        flags applied."""
        base = self.ct if mode == "ct" else self.dt
        return dataclasses.replace(
            base,
            use_cam=self.sensors.camera,
            use_imu=self.sensors.imu,
            use_gps=self.sensors.gps,
        )

    @staticmethod
    def default_dict():
        return RunConfig().to_dict()

    def to_dict(self):
        return {
            "seed": self.seed,
            "sensors": dataclasses.asdict(self.sensors),
            "simulate": dataclasses.asdict(self.simulate),
            "noise": dataclasses.asdict(self.noise),
            "ct": _estimator_dict(self.ct),
            "dt": _estimator_dict(self.dt),
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data or {})
        known = {"seed", "sensors", "simulate", "noise", "ct", "dt"}
        unknown = set(data) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")

        def build(klass, name):
            return build_section(klass, data.get(name), "config", name)

        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise DataError(f"config key 'seed' must be an integer, got {seed!r}")
        return cls(
            seed=seed,
            sensors=build(SensorFlags, "sensors"),
            simulate=build(SimulateConfig, "simulate"),
            noise=build(NoiseSpec, "noise"),
            ct=build(CtConfig, "ct"),
            dt=build(DtConfig, "dt"),
        )


def _estimator_dict(cfg):
    d = dataclasses.asdict(cfg)
    for key in _SENSOR_SWITCHES:
        del d[key]
    return d


def load_config(path=None):
    """Read a YAML RunConfig; ``None`` yields all defaults."""
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    with open(path) as f:
        try:
            data = yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise DataError(f"{path}: invalid YAML ({e})") from e
    if data is None:
        return RunConfig()
    if not isinstance(data, dict):
        raise DataError(f"{path}: top level must be a mapping")
    return RunConfig.from_dict(data)


def save_config(path, config: RunConfig, sections=None):
    """Write ``config`` as YAML, only its top-level ``sections`` if given."""
    data = config.to_dict()
    with open(path, "w") as f:
        yaml.safe_dump({k: data[k] for k in sections or data}, f, sort_keys=False)
