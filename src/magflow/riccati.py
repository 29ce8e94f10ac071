"""The scalar Riccati equation u' + u^2 + kappa(t) = 0 and its envelopes.

Logarithmic derivatives of non-vanishing transverse Jacobi fields solve
this equation, which is what makes it the workhorse for slope bounds:
with kappa > -k^2, every solution alive on the positive half-line is
pinched between -k and k*coth(k t), and every globally defined solution
satisfies |u| <= k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationFailure
from .flow import CurvatureProfile

BLOWUP_MAGNITUDE = 1e7
RICCATI_TOL = 1e-12
N_SAMPLES = 2001


@dataclass
class RiccatiTrace:
    """Sampled Riccati solution, with the blow-up time if one occurred.

    When ``blowup_time`` is set the samples cover only the interval up to
    the terminal threshold crossing; the reported time carries a bracket
    of width ~1e-8 obtained from the pole asymptotics of the last step.
    """

    t_samples: np.ndarray
    u_samples: np.ndarray
    blowup_time: Optional[float]

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "u"])
            for t, u in zip(self.t_samples, self.u_samples):
                writer.writerow([repr(float(t)), repr(float(u))])


def integrate_riccati(profile: CurvatureProfile, u0: float, t_span: tuple) -> RiccatiTrace:
    """Integrate the Riccati equation from u(t0) = u0 over t_span and sample
    it at N_SAMPLES uniform times.

    Blow-up is not an error: the integration stops at a large-magnitude
    threshold and the pole time is recovered from the 1/(t - t*)
    asymptotics, which brackets it far tighter than the requested 1e-8.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    ev = profile.evaluator

    def rhs(t, y):
        return [-y[0] * y[0] - float(ev(t))]

    def hit_threshold(t, y):
        return abs(y[0]) - BLOWUP_MAGNITUDE

    hit_threshold.terminal = True

    sol = solve_ivp(
        rhs, (t0, t1), [u0], method="DOP853", rtol=RICCATI_TOL, atol=RICCATI_TOL,
        dense_output=True, events=hit_threshold,
    )
    if not sol.success and sol.status != 1:
        raise IntegrationFailure(
            "riccati integration failed: %s" % sol.message,
            last_time=float(sol.t[-1]),
        )

    blowup = None
    t_end = float(sol.t[-1])
    if sol.status == 1 and len(sol.t_events[0]) > 0:
        te = float(sol.t_events[0][0])
        ue = float(sol.sol(te)[0])
        # near the pole u ~ -1/(t - t*) + O(kappa * (t - t*)), so the
        # correction at |u| = 1e7 is far below the reported bracket
        direction = 1.0 if t1 >= t0 else -1.0
        blowup = te + direction / abs(ue)
        t_end = te

    ts = np.linspace(t0, t_end, N_SAMPLES)
    return RiccatiTrace(t_samples=ts, u_samples=sol.sol(ts)[0], blowup_time=blowup)


def comparison_envelope(k: float, t: float) -> dict:
    """Bounds for Riccati solutions alive on the positive half-line with
    kappa > -k^2: lower = -k, upper = k*coth(k t). Only defined for t > 0."""
    if k <= 0:
        raise ValueError("k must be positive")
    if t <= 0:
        raise ValueError("the envelope is defined on the open positive half-line")
    return {"lower": -k, "upper": k / math.tanh(k * t)}


def riccati_residual(profile: CurvatureProfile, trace: RiccatiTrace) -> float:
    """Max defect |u' + u^2 + kappa| at interior collocation points,
    with u' taken from a spline through the samples."""
    from scipy.interpolate import CubicSpline

    ts, us = trace.t_samples, trace.u_samples
    if ts[0] > ts[-1]:
        ts, us = ts[::-1], us[::-1]
    spline = CubicSpline(ts, us)
    interior = ts[2:-2]
    du = spline(interior, 1)
    kap = np.asarray(profile.evaluator(interior), dtype=float)
    return float(np.max(np.abs(du + spline(interior) ** 2 + kap)))
