"""The scalar Riccati equation u' + u^2 + kappa(t) = 0 and its envelopes.

Logarithmic derivatives of non-vanishing transverse Jacobi fields solve
this equation, which is what makes it the workhorse for slope bounds:
with kappa > -k^2, every solution alive on the positive half-line is
pinched between -k and k*coth(k t), and every globally defined solution
satisfies |u| <= k.

A solution is read from the profile's Jacobi propagator rather than
integrated: u = J'/J for the Jacobi solution J = A + u0 Z with slope u0,
so u(t) = (A' + Z' u0) / (A + Z u0), the Moebius image of u0 under the
fundamental matrix. It blows up exactly where J has its first zero,
found by the zero scan the conjugate scan runs (``jacobi._first_root``),
which reads J at the propagator's knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientDataError
from .flow import CurvatureProfile
from .jacobi import JACOBI_TOL, _first_root, _local_time, propagator

N_SAMPLES = 2001


@dataclass
class RiccatiTrace:
    """Sampled Riccati solution, with the blow-up time if one occurred.

    The blow-up time is the first zero of the Jacobi solution A + Z u0,
    refined to 1e-12 relative. When it is set, the samples cover the
    half-open span from the start up to the pole.
    """

    t_samples: np.ndarray
    u_samples: np.ndarray
    blowup_time: Optional[float]


def integrate_riccati(profile: CurvatureProfile, u0: float, t_span: tuple) -> RiccatiTrace:
    """The solution with u(t0) = u0 over t_span, sampled at N_SAMPLES uniform
    times, read from a propagator.

    The span is read in the local time s = sign (t - t0) of
    ``jacobi._local_time``, where the slope is sign u. Blow-up is not an
    error: it is the first zero of A + Z u0, found by the zero scan
    ``jacobi._first_root`` that ``jacobi.first_zero`` runs, and the samples
    stop short of it. A point span returns its data alone, with no scan,
    even on a window end. Reading past a spline profile's window raises
    ``InsufficientDataError``, and so does a sample before the pole where
    |A + u0 Z| <= JACOBI_TOL (|A| + |u0 Z|) in stored scale: J is lost to
    the roundoff of its terms there, as on a start at a computed stable
    slope past the mixing horizon, and a sign change it shows is noise.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    local, sign = _local_time(profile, t0, t1)
    if t1 == t0:
        return RiccatiTrace(np.full(N_SAMPLES, t0), np.full(N_SAMPLES, float(u0)), None)
    prop = propagator(local)
    v0, span = sign * u0, abs(t1 - t0)
    pole = _first_root(prop, 1.0, v0, span)
    ss = (np.linspace(0.0, span, N_SAMPLES) if pole is None
          else np.linspace(0.0, pole, N_SAMPLES, endpoint=False))
    (a, da, z, dz), _e = prop._stored(ss)
    j, dj = a + z * v0, da + dz * v0
    lost = np.abs(j) <= JACOBI_TOL * (np.abs(a) + np.abs(z * v0))
    if lost.any():
        raise InsufficientDataError(
            "the Riccati solution is lost to cancellation at t = %g: A + u0 Z is "
            "within the roundoff of its terms" % (t0 + sign * ss[np.argmax(lost)]))
    return RiccatiTrace(
        t_samples=t0 + sign * ss,
        u_samples=sign * (dj / j),
        blowup_time=None if pole is None else t0 + sign * pole,
    )


def comparison_envelope(k: float, t: float) -> dict:
    """Bounds for Riccati solutions alive on the positive half-line with
    kappa > -k^2: lower = -k, upper = k*coth(k t). Only defined for t > 0."""
    if k <= 0:
        raise ValueError("k must be positive")
    if t <= 0:
        raise ValueError("the envelope is defined on the open positive half-line")
    return {"lower": -k, "upper": k / math.tanh(k * t)}
