"""Asymptotic slopes of the stable and unstable bundles.

For a curvature profile without conjugate points, the derivative at zero
of the boundary solution (value one at zero, zero at time r) increases
monotonically in r and converges as r -> +infinity; the limit is the
slope of the stable line at time zero. The unstable slope is obtained
from the time-reflected profile: reversing time swaps the roles of the
two bundles and flips the slope sign.

The schedule below reads the boundary slope on a doubling sequence of r
values from the profile's fundamental-matrix propagator, whose
breakpoints are the default schedule points. Before each read it asks the
conjugate scan (``jacobi.first_zero``) whether the unit-slope solution
vanishes on (0, r]; a zero there ends the schedule with a
``ConjugatePointError`` at the exact conjugate time. Convergence is
declared when two successive slopes differ by less than
``DEFAULT_GREEN_TOL``; profiles whose slopes converge slower than the work
budget allows are flagged, never extrapolated.

A periodic (non-constant Fourier) profile ends it once the reads reach its
period T, before any convergence test: with its stable eigen-slope where
its monodromy decides it (``jacobi.floquet``), a converged side with the
one r = T, else with its conjugate point, read at an infinite horizon. A
flipped profile reads its mirror's monodromy.

The work budget counts curvature evaluations (``Propagator.nfev_to``), so
``WORK_BUDGET`` bounds every schedule but a constant profile's, read in
closed form, whose slopes converge by themselves (the flat one, the
slowest, at r near 1.3e9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import (
    ConjugatePointError,
    InsufficientDataError,
    NumericalInconsistencyError,
)
from .flow import CurvatureProfile
from .jacobi import FIRST_BREAK, first_zero, floquet, monodromy, propagator

DEFAULT_GREEN_TOL = 1e-9
R0 = FIRST_BREAK
WORK_BUDGET = 3_000_000
SLOPE_BOUND_SLACK = 1e-6
MONOTONE_SLACK = 1e-10


@dataclass
class GreenSide:
    """One-sided slope estimate with its schedule diagnostics."""

    slope: float
    converged: bool
    residual: float
    r_schedule: list = field(default_factory=list)
    slopes: list = field(default_factory=list)

    def reflected(self) -> "GreenSide":
        """The stable side of a time-reflected profile read as the unstable
        side of the profile itself: every slope changes sign."""
        return replace(self, slope=-self.slope, slopes=[-s for s in self.slopes])


@dataclass
class GreenEstimate:
    """Stable/unstable slope estimates at time zero."""

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


def _run_schedule(profile: CurvatureProfile) -> GreenSide:
    if profile.t_max < R0:
        raise InsufficientDataError("profile window too short for the slope "
                                    "schedule (ends at t = %g)" % profile.t_max)
    side = _doubling(profile)
    if side.converged and abs(side.slope) > profile.k_bound + SLOPE_BOUND_SLACK:
        raise NumericalInconsistencyError("converged slope %g exceeds the curvature "
                                          "bound k = %g" % (side.slope, profile.k_bound))
    return side


def _doubling(profile: CurvatureProfile) -> GreenSide:
    """The boundary slopes on the doubling schedule R0, 2 R0, ... up to the
    profile's window end, until two agree to DEFAULT_GREEN_TOL, the work
    budget is spent or the monodromy is held (see above); a zero of Z
    before r raises."""
    prop = propagator(profile)
    r, rs, slopes, residual = R0, [], [], math.inf
    while True:
        held = monodromy(profile, r) is not None
        hill = floquet(profile, r)
        if hill is not None:
            return GreenSide(slope=hill.stable, converged=True, residual=0.0,
                             r_schedule=[hill.period], slopes=[hill.stable])
        z = first_zero(profile, math.inf if held else r)
        if z is not None:
            raise ConjugatePointError("conjugate point at t = %.12g blocks the slope "
                                      "schedule" % z, conjugate_time=z)
        if held:
            raise NumericalInconsistencyError("the monodromy decides no slope and no zero")
        rs.append(r)
        slopes.append(prop.slope(r))
        if len(slopes) >= 2:
            step = slopes[-1] - slopes[-2]
            if step < -MONOTONE_SLACK:
                raise NumericalInconsistencyError("slope sequence decreased by %g at "
                                                  "r = %g" % (-step, r))
            residual = abs(step)
        nfev = prop.nfev_to(r)
        r_next = min(2.0 * r, profile.t_max)
        converged = residual < DEFAULT_GREEN_TOL
        if converged or nfev > WORK_BUDGET or r_next <= r * (1.0 + 1e-12):
            return GreenSide(slope=slopes[-1], converged=converged, residual=residual,
                             r_schedule=rs, slopes=slopes)
        r = r_next


def green_slope(profile: CurvatureProfile, direction: str) -> GreenEstimate:
    """Estimate the stable ('+') or unstable ('-') slope at time zero.

    The unstable side always goes through the time reflection and reuses
    the monotone forward schedule, so both sides share one code path and
    one tolerance.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    if direction == "+":
        return GreenEstimate(plus=_run_schedule(profile))
    return GreenEstimate(minus=_run_schedule(profile.flipped()).reflected())


def green_both(profile: CurvatureProfile) -> GreenEstimate:
    """Both slopes; a converged pair with a negative gap raises
    (``GreenEstimate``)."""
    return GreenEstimate(plus=green_slope(profile, "+").plus,
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
