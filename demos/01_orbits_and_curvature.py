#!/usr/bin/env python3
"""Magnetic orbits on a bumpy torus and the curvature they see.

A charged particle on a conformally flat torus follows a path whose
geodesic curvature equals the local magnetic intensity. Along each orbit
we read off the combined curvature (Gaussian term, intensity gradient
term, squared intensity) that drives the transverse linearization.
"""

import numpy as np

from magflow import (
    ConformalTorus,
    FourierSeries2D,
    UnitTangent,
    integrate_orbit,
)

# a torus with two metric bumps and a tilted intensity pattern
torus = ConformalTorus(
    phi=FourierSeries2D(cos_coeffs={(1, 0): 0.08, (0, 1): 0.05}),
    b=FourierSeries2D(const=0.4, sin_coeffs={(1, 1): 0.2}),
)

print("flat-chart torus, periods 1 x 1")
print("phi bumps: cos modes (1,0)=0.08, (0,1)=0.05; b = 0.4 + 0.2 sin(1,1)")
print()

for i, theta0 in enumerate((0.0, 1.3, 2.6)):
    v0 = UnitTangent(0.1 * i, 0.2, theta0)
    # the curvature profile along the orbit and the orbit trace it was read from
    profile, orbit = torus.profile(v0, horizon=40.0, tol=1e-10, keep=True)
    kappa = orbit.kappa_samples
    print(
        "orbit %d  theta0=%.1f  curvature along orbit: min %+.4f  mean %+.4f  "
        "max %+.4f  (k bound %.4f)"
        % (i, theta0, kappa.min(), kappa.mean(), kappa.max(), profile.k_bound)
    )
    orbit.to_csv("orbit_demo_%d.csv" % i)

print()
print("wrote orbit_demo_*.csv (columns t, x, y, theta, kappa)")
print("unit-speed parameterization is structural: defect =",
      integrate_orbit(torus, UnitTangent(), 5.0).unit_speed_defect())
