"""Simulate a visual-inertial-GPS dataset with a hidden 10 ms camera clock
offset and recover it with the continuous-time estimator.

Run: python3 demos/02_simulate_and_estimate.py   (takes ~1 minute)
"""

import numpy as np

from splinefusion import estimators as est
from splinefusion import simulate as sim
from splinefusion.dataset import NoiseSpec

# A wobbling lemniscate: aggressive enough that clock offsets are observable.
gt = sim.make_ground_truth(
    "lemniscate", duration=12.0, radius=2.5, rate=0.7,
    wobble_roll=0.25, wobble_pitch=0.2, wobble_rate=1.3, margin=0.6,
)
print(f"peak angular rate: {sim.peak_angular_rate(gt):.2f} rad/s")

rig = sim.default_rig(t_cam_imu=0.010)  # the hidden truth: 10 ms
noise = NoiseSpec(pixel_sigma=1.0, gps_sigma=0.02,
                  cam_hz=10, imu_hz=200, gps_hz=7, seed=4)
data = sim.synthesize(gt, rig, noise, num_landmarks=500)
meas = data.measurements
print(f"{len(meas.frames)} frames, {meas.imu_t_ns.size} IMU samples, "
      f"{meas.gps_t_ns.size} GPS fixes")

out = est.run(meas, rig, noise, est.CtConfig(), mode="ct")

stamps = meas.seconds(out.t_ns)
err = out.positions - gt.position.sample_many(stamps)
ate = np.sqrt(np.mean(np.sum(err**2, axis=1)))
print(f"converged in {out.report.iterations} iterations")
print(f"estimated camera-IMU offset: {out.t_cam_imu * 1e3:.3f} ms (true 10)")
print(f"ATE: {ate * 1e3:.1f} mm")
