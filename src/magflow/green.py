"""Asymptotic slopes of the stable and unstable bundles.

For a curvature profile without conjugate points, the derivative at zero
of the boundary solution (value one at zero, zero at time r) increases
monotonically in r and converges as r -> +infinity; the limit is the
slope of the stable line at time zero. The unstable slope is obtained
from the time-reflected profile: reversing time swaps the roles of the
two bundles and flips the slope sign.

The schedule below reads the boundary slope on a doubling sequence of r
values from the profile's fundamental-matrix propagator, whose
breakpoints are the default schedule points. Convergence is declared when
two successive slopes differ by less than the tolerance; profiles whose
slopes converge slower than the work budget allows are flagged, never
extrapolated.

The work budget counts curvature evaluations (``GreenSide.nfev``,
``Propagator.nfev_to``). A Fourier profile spends one period's
evaluations, whatever r, and a constant one, read in closed form, none;
so ``WORK_BUDGET`` bounds only spline and callable profiles. For Fourier
and constant ones ``R_CAP`` bounds the schedule, at a cost of O(log r)
matrix products per read for a Fourier profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ConjugatePointError,
    InsufficientDataError,
    NumericalInconsistencyError,
)
from .flow import CurvatureProfile
from .jacobi import FIRST_BREAK, first_zero, propagator

DEFAULT_GREEN_TOL = 1e-9
R0 = FIRST_BREAK
R_CAP = 5.0 * 2.0**31
WORK_BUDGET = 3_000_000
SLOPE_BOUND_SLACK = 1e-6
MONOTONE_SLACK = 1e-10


@dataclass
class GreenSide:
    """One-sided slope estimate with its schedule diagnostics. ``nfev``
    counts the propagator's curvature evaluations up to the last r,
    one period's for a Fourier profile and none for a constant one."""

    slope: float
    converged: bool
    residual: float
    r_schedule: list = field(default_factory=list)
    slopes: list = field(default_factory=list)
    nfev: int = 0

    def reflected(self) -> "GreenSide":
        """The stable side of a time-reflected profile read as the unstable
        side of the profile itself: every slope changes sign."""
        return replace(self, slope=-self.slope, slopes=[-s for s in self.slopes])


@dataclass
class GreenEstimate:
    """Stable/unstable slope estimates at time zero."""

    k_bound: float
    plus: Optional[GreenSide] = None
    minus: Optional[GreenSide] = None

    def __post_init__(self):
        if self.converged and self.gap is not None and self.gap < -1e-8:
            raise NumericalInconsistencyError(
                "negative transversality gap %g on a converged estimate" % self.gap
            )

    @property
    def u_plus0(self) -> Optional[float]:
        return self.plus.slope if self.plus is not None else None

    @property
    def u_minus0(self) -> Optional[float]:
        return self.minus.slope if self.minus is not None else None

    @property
    def gap(self) -> Optional[float]:
        if self.plus is None or self.minus is None:
            return None
        return self.minus.slope - self.plus.slope

    @property
    def converged(self) -> bool:
        sides = [s for s in (self.plus, self.minus) if s is not None]
        return bool(sides) and all(s.converged for s in sides)

    def to_dict(self) -> dict:
        def side_dict(s):
            if s is None:
                return None
            return {
                "slope": s.slope,
                "converged": s.converged,
                "residual": s.residual,
                "r_last": s.r_schedule[-1] if s.r_schedule else None,
                "n_schedule": len(s.r_schedule),
            }

        return {
            "u_plus0": self.u_plus0,
            "u_minus0": self.u_minus0,
            "gap": self.gap,
            "converged": self.converged,
            "k_bound": self.k_bound,
            "plus": side_dict(self.plus),
            "minus": side_dict(self.minus),
        }


def _run_schedule(profile: CurvatureProfile, tol: float) -> GreenSide:
    r_limit = min(R_CAP, profile.t_max)
    if r_limit < R0:
        raise InsufficientDataError("profile window too short for the slope "
                                    "schedule (ends at t = %g)" % r_limit)

    z = first_zero(profile, R0)
    if z is not None:
        raise ConjugatePointError(
            "conjugate point at t = %.12g blocks the slope schedule" % z,
            conjugate_time=z,
        )

    prop = propagator(profile)
    r_prev, r = 0.0, R0
    rs, slopes = [], []
    converged = False
    residual = math.inf

    while True:
        seg = np.linspace(r_prev, r, 65)[1:]
        zs = prop._stored(seg)[0][2]
        if np.any(zs <= 0.0):
            bad = float(seg[np.nonzero(zs <= 0.0)[0][0]])
            raise ConjugatePointError(
                "conjugate point near t = %.6g on the schedule" % bad,
                conjugate_time=bad,
            )
        s = prop.slope(r)
        nfev = prop.nfev_to(r)
        rs.append(r)
        slopes.append(s)

        if len(slopes) >= 2:
            step = s - slopes[-2]
            if step < -MONOTONE_SLACK:
                raise NumericalInconsistencyError(
                    "slope sequence decreased by %g at r = %g" % (-step, r)
                )
            residual = abs(step)
            if residual < tol:
                converged = True
                break

        if nfev > WORK_BUDGET:
            break
        r_next = min(2.0 * r, r_limit)
        if r_next <= r * (1.0 + 1e-12):
            break
        r_prev, r = r, r_next

    side = GreenSide(
        slope=slopes[-1], converged=converged, residual=residual,
        r_schedule=rs, slopes=slopes, nfev=nfev,
    )
    if converged and abs(side.slope) > profile.k_bound + SLOPE_BOUND_SLACK:
        raise NumericalInconsistencyError(
            "converged slope %g exceeds the curvature bound k = %g"
            % (side.slope, profile.k_bound)
        )
    return side


def green_slope(profile: CurvatureProfile, direction: str,
                tol: float = DEFAULT_GREEN_TOL) -> GreenEstimate:
    """Estimate the stable ('+') or unstable ('-') slope at time zero.

    The unstable side always goes through the time reflection and reuses
    the monotone forward schedule, so both sides share one code path and
    one set of tolerances.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    if direction == "+":
        return GreenEstimate(profile.k_bound, plus=_run_schedule(profile, tol))
    return GreenEstimate(profile.k_bound,
                         minus=_run_schedule(profile.flipped(), tol).reflected())


def green_both(profile: CurvatureProfile) -> GreenEstimate:
    """Both slopes at DEFAULT_GREEN_TOL; a converged pair with a negative
    gap raises (``GreenEstimate``)."""
    return GreenEstimate(profile.k_bound, plus=green_slope(profile, "+").plus,
                         minus=green_slope(profile, "-").minus)


def invariance_residual(profile: CurvatureProfile, t: float) -> float:
    """Flow invariance of the stable and unstable lines between times 0 and t.

    The fundamental matrix [A, A', Z, Z'] at t (determinant one) carries
    the slopes of both ends into each other. The stable line of the shifted
    profile is pulled back to time zero and compared with the stable slope
    of the profile; the unstable line of the profile is pushed forward to
    time t and compared with the unstable slope of the shifted profile.
    Each direction contracts errors, so double precision suffices, and the
    pair sees an error in either end: the pull-back alone is blind to the
    shifted estimate. Returns the larger residual. A negative t swaps the
    roles of the two base points.
    """
    if t < 0:
        return invariance_residual(profile.shifted(t), -t)
    base = green_both(profile)
    sh = green_both(profile.shifted(t))
    if not (base.converged and sh.converged):
        raise InsufficientDataError(
            "invariance check needs converged slopes at both ends")
    prop = propagator(profile)
    pulled = prop.pull_back(t, sh.u_plus0)
    j, dj = prop.carry(t, base.u_minus0)
    pushed = dj[0] / j[0]
    return float(max(abs(pulled - base.u_plus0), abs(pushed - sh.u_minus0)))
