import numpy as np
import pytest

from splinefusion import simulate as sim
from splinefusion.dataset import NoiseSpec
from splinefusion.rotations import quat_to_rotation


def noiseless_spec(cam_hz=10.0, imu_hz=100.0, gps_hz=5.0, seed=0):
    return NoiseSpec(
        pixel_sigma=0.0, accel_sigma=0.0, gyro_sigma=0.0,
        accel_bias_rw=0.0, gyro_bias_rw=0.0, gps_sigma=0.0,
        cam_hz=cam_hz, imu_hz=imu_hz, gps_hz=gps_hz, seed=seed,
    )


def concatenate(a, b):
    """The deltas (dR, dv, dp) of the preintegrated segment ``a`` followed by
    the adjacent segment ``b``, in closed form."""
    return a.dR @ b.dR, a.dv + a.dR @ b.dv, a.dp + a.dv * b.dt_total + a.dR @ b.dp


def random_rotation(rng):
    """Uniform random rotation from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    return quat_to_rotation(q / np.linalg.norm(q))


def wobbly_ground_truth(duration=8.0, margin=0.6, rate=0.7):
    """A lemniscate with roll/pitch wobble: time-varying body rates make the
    clock offsets observable."""
    return sim.make_ground_truth(
        "lemniscate", duration=duration, margin=margin, radius=2.5, rate=rate,
        wobble_roll=0.25, wobble_pitch=0.2, wobble_rate=1.3,
    )


@pytest.fixture(scope="session")
def tiny_noiseless():
    """Small noiseless dataset with injected clock offsets, shared by tests
    that only need residual evaluation (no solving)."""
    gt = wobbly_ground_truth(duration=6.0)
    rig = sim.default_rig(t_cam_imu=0.010, t_gps_imu=0.020)
    noise = noiseless_spec()
    result = sim.synthesize(gt, rig, noise, num_landmarks=150)
    return gt, rig, noise, result


@pytest.fixture
def rng():
    """A generator seeded afresh for each test, so a test's data do not
    depend on which tests ran before it."""
    return np.random.default_rng(42)
