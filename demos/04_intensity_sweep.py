#!/usr/bin/env python3
"""Sweep the magnetic intensity across the hyperbolicity threshold.

On a constant-curvature surface (K = -1, genus 2) with constant
intensity b, the curvature along every orbit is b^2 - 1. The flow stays
uniformly hyperbolic while b < 1, with transversality gap 2*sqrt(1-b^2);
at b = 1 the gap closes (the orbit foliation degenerates) and beyond it
conjugate points appear. The necessary integral inequality
b^2 * area < -2 pi chi fails from b = 1 on as well.
"""

import logging
import math
import sys

from magflow.cli import sweep

config = {
    "model": {"kind": "constant", "K": -1.0, "b": 1.0, "chi": -2,
              "area": 4 * math.pi},
    "ensemble": {"count": 4, "seed": 0, "horizon": 60.0},
    "sweep": {"parameter": "model.b",
              "grid": [round(0.1 * k, 10) for k in range(2, 15)]},
    "output_dir": "sweep_demo",
}

# the sweep logs one line per grid point to the "magflow" logger
logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
sweep(config)

print()
print("closed form for comparison: gap(b) = 2*sqrt(1 - b^2)")
with open("sweep_demo/sweep.csv") as fh:
    next(fh)
    for line in fh:
        parts = line.strip().split(",")
        b = float(parts[0])
        if parts[2]:
            exact = 2 * math.sqrt(max(0.0, 1 - b * b))
            print("  b = %.2f   gap = %.9f   exact %.9f" % (b, float(parts[2]), exact))
print("full table in sweep_demo/sweep.csv")
