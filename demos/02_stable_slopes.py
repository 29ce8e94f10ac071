#!/usr/bin/env python3
"""Stable and unstable slope construction, step by step.

The derivative at zero of the boundary solution (value 1 at time 0,
value 0 at time r) increases monotonically in r. Its limit is the stable
slope; the unstable one comes from the time-reflected profile. The gap
between them is the transversality margin that certification rests on.
"""

import math

import numpy as np

from magflow import CurvatureProfile, green_both, green_slope, solve_boundary

print("constant curvature -1: boundary slopes approach -coth(r) -> -1")
p = CurvatureProfile.constant(-1.0)
for r in (1.0, 2.0, 5.0, 10.0, 20.0):
    s = solve_boundary(p, r, cross_check=False).slope0
    print("  r = %5.1f   slope = %+.12f   (-coth(r) = %+.12f)"
          % (r, s, -1.0 / math.tanh(r)))

est = green_both(p)
print("converged: u+ = %+.10f, u- = %+.10f, gap = %.10f"
      % (est.u_plus0, est.u_minus0, est.gap))
print()

print("half-wave curvature -max(0, sin t)^2: flat half the time, still hyperbolic")
hw = CurvatureProfile(
    evaluator=lambda t: -np.maximum(0.0, np.sin(np.asarray(t, dtype=float))) ** 2,
    k_bound=1.0,
)
side = green_slope(hw, "+").plus
for r, s in zip(side.r_schedule, side.slopes):
    print("  r = %5.1f   slope = %+.12f" % (r, s))
est = green_both(hw)
print("gap = %.6f (converged = %s)" % (est.gap, est.converged))
print()

print("flat curvature: slopes -1/r creep toward zero, no spectral gap")
flat = CurvatureProfile.constant(0.0)
est = green_both(flat)
print("gap = %.3g after r = %g (converged by successive-difference rule: %s)"
      % (est.gap, est.plus.r_schedule[-1], est.converged))
