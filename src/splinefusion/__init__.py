"""splinefusion: batch trajectory estimation with continuous-time
(cumulative B-spline) and discrete-time representations, fusing camera,
IMU, and GPS measurements with camera-IMU and GPS-IMU time-offset
estimation.
"""

from .errors import (
    DataError,
    DegenerateConfigurationError,
    InvalidArgumentError,
    NumericalFailureError,
    OutOfDomainError,
    SplineFusionError,
)
from .rotations import Pose, slerp, so3_exp, so3_log
from .bsplines import KnotGrid, SplineR3, SplineSO3, grid_covering
from .camera import CameraModel
from .dataset import (
    Frame,
    MeasurementSet,
    NoiseSpec,
    SensorRig,
    read_dataset,
    write_dataset,
)
from .simulate import (
    GroundTruth,
    ProfileParams,
    SimulationResult,
    default_rig,
    make_ground_truth,
    synthesize,
)
from .preintegration import GRAVITY, PreintegratedImu, integrate, preint_residual
from .initialization import fit_spline_to_poses, pnp_dlt
from .solver import Problem, SolveOptions, SolveReport, solve
from .estimators import (
    CtConfig,
    CtState,
    DtConfig,
    DtState,
    RunResult,
    build_ct_problem,
    build_dt_problem,
    initialize_ct,
    initialize_dt,
    run,
    shift_feature,
)
from .metrics import AlignedPairs, align_pairs, ate_p, ate_r, make_pairs
from .config import RunConfig, load_config

__version__ = "1.0.0"

__all__ = [
    "AlignedPairs",
    "CameraModel",
    "CtConfig",
    "CtState",
    "DataError",
    "DegenerateConfigurationError",
    "DtConfig",
    "DtState",
    "Frame",
    "GRAVITY",
    "GroundTruth",
    "InvalidArgumentError",
    "KnotGrid",
    "MeasurementSet",
    "NoiseSpec",
    "NumericalFailureError",
    "OutOfDomainError",
    "Pose",
    "PreintegratedImu",
    "Problem",
    "ProfileParams",
    "RunConfig",
    "RunResult",
    "SensorRig",
    "SimulationResult",
    "SolveOptions",
    "SolveReport",
    "SplineFusionError",
    "SplineR3",
    "SplineSO3",
    "align_pairs",
    "ate_p",
    "ate_r",
    "build_ct_problem",
    "build_dt_problem",
    "default_rig",
    "fit_spline_to_poses",
    "grid_covering",
    "initialize_ct",
    "initialize_dt",
    "integrate",
    "load_config",
    "make_ground_truth",
    "make_pairs",
    "pnp_dlt",
    "preint_residual",
    "read_dataset",
    "run",
    "shift_feature",
    "slerp",
    "so3_exp",
    "so3_log",
    "solve",
    "synthesize",
    "write_dataset",
]
