# Why the choice of metric matters on a spiral.
#
# Two points sitting on adjacent turns of the spiral are a hair apart in the
# plane but dozens of arc-length units apart along the curve.  A novelty
# score built on the Euclidean metric treats them as neighbors; the geodesic
# metric does not.

import math

import numpy as np

from spiralns import GenotypeSpace, SpiralParams, map_genotypes

ANGLE, ARC_LENGTH = GenotypeSpace.ANGLE, GenotypeSpace.ARC_LENGTH
params = SpiralParams()  # a = 0.01, t in [0, 30*pi]

# One full turn apart, same ray.  map_genotypes returns the curve parameter,
# the plane coordinates and the arc length from the origin of each point.
_, x, y, arc = map_genotypes(np.array([20 * math.pi, 22 * math.pi]), ANGLE, params)

d_euc = math.hypot(x[1] - x[0], y[1] - y[0])
d_geo = abs(arc[1] - arc[0])

print(f"p1 = ({x[0]:+.4f}, {y[0]:+.4f})   at t = 20*pi")
print(f"p2 = ({x[1]:+.4f}, {y[1]:+.4f})   at t = 22*pi")
print(f"euclidean distance: {d_euc:.4f}   (the gap between turns, 2*pi*a)")
print(f"geodesic distance:  {d_geo:.4f}   (a full lap along the curve)")
print(f"ratio: {d_geo / d_euc:.1f}x")

# The same contradiction in the other direction: the same arc-length step
# spans a much smaller straight-line distance on the tight inner turns than
# out on the rim, so euclidean novelty systematically under-prices them.
print()
print("fixed 2.0 arc-length step, measured straight-line:")
ts = np.array([2.0, 10.0, 20.0, 28.0]) * math.pi
_, x0, y0, s = map_genotypes(ts, ANGLE, params)
_, x1, y1, _ = map_genotypes(s + 2.0, ARC_LENGTH, params)  # 2.0 further along
for t, d in zip(ts, np.hypot(x1 - x0, y1 - y0)):
    print(f"  from t = {t / math.pi:4.0f}*pi   euclidean = {d:.4f}")
