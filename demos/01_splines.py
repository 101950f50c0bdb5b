"""Cumulative B-splines on R^3 and SO(3): sampling, derivatives, angular rate.

Run: python3 demos/01_splines.py
"""

import numpy as np

from splinefusion import bsplines as bs
from splinefusion.rotations import so3_exp

rng = np.random.default_rng(0)

# A 2-second order-5 spline with knots every 100 ms.
grid = bs.grid_covering(0.0, 2.0, 0.1, order=5)
pos = bs.SplineR3(grid, rng.normal(size=(grid.count, 3)))

t = 0.7
p = pos.sample_many(t)  # a float gives one sample; an array, one per time
v = pos.sample_many(t, derivative=1)
a = pos.sample_many(t, derivative=2)
print(f"position {p}\nvelocity {v}\nacceleration {a}")

# Check the analytic velocity against a central difference.
h = 1e-6
fd = (pos.sample_many(t + h) - pos.sample_many(t - h)) / (2 * h)
print("velocity vs finite difference:", np.max(np.abs(v - fd)))

# An orientation spline: perturb identity nodes with small rotations.
nodes = np.stack([so3_exp(0.3 * rng.normal(size=3)) for _ in range(grid.count)])
rot = bs.SplineSO3(grid, nodes)
R = rot.sample_many(t)
w = rot.angular_velocity_many(t)  # body-frame rad/s
print("R det:", np.linalg.det(R), " angular velocity:", w)
