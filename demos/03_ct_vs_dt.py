"""Continuous-time vs discrete-time estimation under a clock offset.

The DT estimator can only approximate a camera clock offset by shifting
features along their image-plane velocities; under aggressive motion that
approximation breaks down while the CT spline simply samples at the right
instant. This script shows the gap.

Run: python3 demos/03_ct_vs_dt.py   (takes ~1-2 minutes)
"""

import numpy as np

from splinefusion import estimators as est
from splinefusion import simulate as sim
from splinefusion.dataset import NoiseSpec

gt = sim.make_ground_truth(
    "lemniscate", duration=12.0, radius=2.5, rate=0.7,
    wobble_roll=0.25, wobble_pitch=0.2, wobble_rate=1.3, margin=0.6,
)
rig = sim.default_rig(t_cam_imu=0.010)
noise = NoiseSpec(pixel_sigma=1.0, gps_sigma=0.02,
                  cam_hz=10, imu_hz=200, gps_hz=7, seed=3)
meas = sim.synthesize(gt, rig, noise, num_landmarks=500).measurements

for mode, cfg in (("ct", est.CtConfig()), ("dt", est.DtConfig())):
    out = est.run(meas, rig, noise, cfg, mode=mode)
    err = out.positions - gt.position.sample_many(meas.seconds(out.t_ns))
    ate = np.sqrt(np.mean(np.sum(err**2, axis=1)))
    print(f"{mode}: offset {out.t_cam_imu * 1e3:6.3f} ms (true 10), "
          f"ATE {ate * 1e3:6.1f} mm, {out.report.iterations} iterations")
