"""Run configuration: one YAML file for simulation, noise and estimator.

``seed``, ``simulate`` and ``noise`` say how a synthetic dataset is made;
the top-level ``seed`` drives the noise, so ``noise`` has no ``seed`` key.
The one ``estimator`` section is a :class:`CtConfig` that CT and DT both
read: the sensor switches, ``max_iter``, ``offset_bound`` and
``landmark_sigma`` for both, and ``spline_order`` and ``node_hz`` for CT
only.

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
from .errors import DataError, InvalidArgumentError, require_finite, require_int
from .estimators import CtConfig
from .simulate import ProfileParams


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
        require_int("num_landmarks", self.num_landmarks, 0)
        require_finite("landmark_spread", self.landmark_spread, positive=False)
        if not self.duration >= 5.0:
            raise InvalidArgumentError(f"duration must be >= 5 s, got {self.duration}")

    def profile_params(self):
        """The trajectory shape as :class:`ProfileParams`, which checks it."""
        return ProfileParams(kind=self.profile, **{
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(ProfileParams) if f.name != "kind"})


@dataclass(frozen=True)
class RunConfig:
    """Everything a run reads besides its data; the subcommand picks the
    estimator (CT or DT), and both read the one ``estimator`` section."""

    seed: int = 0
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    estimator: CtConfig = field(default_factory=CtConfig)

    def __post_init__(self):
        require_int("seed", self.seed, 0)

    @staticmethod
    def default_dict():
        return RunConfig().to_dict()

    def to_dict(self):
        data = dataclasses.asdict(self)
        del data["noise"]["seed"]  # the top-level seed drives the noise
        return data

    @classmethod
    def from_dict(cls, data):
        data = dict(data or {})
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("noise"), dict) and "seed" in data["noise"]:
            raise DataError("config key 'noise.seed' is not read; the "
                            "top-level 'seed' drives the noise")

        def build(klass, name):
            return build_section(klass, data.get(name), "config", name)

        sections = dict(simulate=build(SimulateConfig, "simulate"),
                        noise=build(NoiseSpec, "noise"),
                        estimator=build(CtConfig, "estimator"))
        try:
            return cls(seed=data.get("seed", 0), **sections)
        except InvalidArgumentError as e:
            raise DataError(f"config key 'seed': {e}") from None


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
