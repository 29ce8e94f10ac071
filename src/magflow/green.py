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
from .jacobi import FIRST_BREAK, first_zero, propagator, solve_boundary
from .riccati import integrate_riccati

DEFAULT_GREEN_TOL = 1e-9
DEFAULT_R0 = FIRST_BREAK
DEFAULT_R_CAP = 5.0 * 2.0**31
DEFAULT_WORK_BUDGET = 3_000_000
JACOBI_TOL = 1e-12
SLOPE_BOUND_SLACK = 1e-6
MONOTONE_SLACK = 1e-10


def boundary_slope(profile: CurvatureProfile, r: float, tol: float = JACOBI_TOL) -> float:
    """Derivative at time zero of the boundary solution for target r."""
    return solve_boundary(profile, r, tol=tol, cross_check=False).slope0


@dataclass
class GreenSide:
    """One-sided slope estimate with its schedule diagnostics."""

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


def _run_schedule(
    profile: CurvatureProfile,
    tol: float,
    r0: float,
    r_cap: float,
    work_budget: int,
    jac_tol: float,
) -> GreenSide:
    r_limit = min(r_cap, profile.t_max)
    if not math.isfinite(r0) or r_limit < r0:
        raise InsufficientDataError("profile window too short for the slope "
                                    "schedule (ends at t = %g)" % r_limit)

    z = first_zero(profile, r0, step=0.01, tol=jac_tol)
    if z is not None:
        raise ConjugatePointError(
            "conjugate point at t = %.12g blocks the slope schedule" % z,
            conjugate_time=z,
        )

    prop = propagator(profile, jac_tol)
    r_prev, r = 0.0, float(r0)
    rs, slopes = [], []
    converged = False
    residual = math.inf

    while True:
        seg = np.linspace(r_prev, r, 65)[1:]
        zs = prop(seg)[2]
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

        if nfev > work_budget:
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


def green_slope(
    profile: CurvatureProfile,
    direction: str = "+",
    tol: float = DEFAULT_GREEN_TOL,
    r0: float = DEFAULT_R0,
    r_cap: float = DEFAULT_R_CAP,
    work_budget: int = DEFAULT_WORK_BUDGET,
    jac_tol: float = JACOBI_TOL,
) -> GreenEstimate:
    """Estimate the stable ('+') or unstable ('-') slope at time zero.

    The unstable side always goes through the time reflection and reuses
    the monotone forward schedule, so both sides share one code path and
    one set of tolerances.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    est = GreenEstimate(k_bound=profile.k_bound)
    if direction == "+":
        est.plus = _run_schedule(profile, tol, r0, r_cap, work_budget, jac_tol)
    else:
        est.minus = _run_schedule(
            profile.flipped(), tol, r0, r_cap, work_budget, jac_tol
        ).reflected()
    return est


def green_both(profile: CurvatureProfile, tol: float = DEFAULT_GREEN_TOL,
               **kwargs) -> GreenEstimate:
    """Both slopes; raises if the converged estimates violate gap >= 0."""
    plus = green_slope(profile, "+", tol, **kwargs)
    minus = green_slope(profile, "-", tol, **kwargs)
    est = GreenEstimate(k_bound=profile.k_bound, plus=plus.plus, minus=minus.minus)
    if est.converged and est.gap < -1e-8:
        raise NumericalInconsistencyError(
            "negative transversality gap %g on a converged estimate" % est.gap
        )
    return est


# ---------------------------------------------------------------------------
# Invariance of the stable slope under the flow.
#
# Propagating the stable slope forward through the Riccati equation is an
# exact identity with re-estimating it at the shifted profile, but the
# forward propagation amplifies any input error by exp(2 * integral |u|),
# about 3e8 over ten time units at unit hyperbolicity. Checking the
# identity to 1e-6 at t = 10 therefore needs working precision well beyond
# double; profiles with an exact (constant or Fourier) representation are
# handled in mpmath arithmetic, everything else falls back to double with
# the accuracy it can support.
# ---------------------------------------------------------------------------


def _mp_stable_slope(profile: CurvatureProfile, span: float, dps: int = 20) -> "object":
    """Stable slope at time zero in mpmath arithmetic.

    Integrates the Riccati equation backward from time ``span`` (as a
    forward equation in reversed time), which contracts onto the stable
    solution. Two different seeds must agree, otherwise the contraction
    is too weak for the requested precision.
    """
    import mpmath as mp

    with mp.workdps(dps):
        T = mp.mpf(span)

        def run(w0):
            def f(tau, w):
                return w * w + profile.eval_mp(T - tau)

            w = mp.odefun(f, 0, mp.mpf(w0), tol=mp.mpf(10) ** (-dps + 2))
            return w(T)

        k = max(profile.k_bound, 0.1)
        a = run(-k)
        b = run(-0.5 * k)
        if abs(a - b) > mp.mpf(10) ** (-dps + 8):
            raise NumericalInconsistencyError(
                "backward contraction too weak for extended-precision slope"
            )
        return a


def _mp_riccati_forward(profile: CurvatureProfile, u0, t: float, dps: int = 20):
    import mpmath as mp

    with mp.workdps(dps):
        def f(s, u):
            return -u * u - profile.eval_mp(s)

        u = mp.odefun(f, 0, u0, tol=mp.mpf(10) ** (-dps + 2))
        return u(mp.mpf(t))


def invariance_residual(
    profile: CurvatureProfile,
    t: float,
    tol: float = 1e-6,
    green_tol: float = DEFAULT_GREEN_TOL,
    dps: int = 20,
) -> float:
    """|u_prop(t) - u_shift(0)|: the stable slope pushed forward through
    the Riccati equation against the slope re-estimated at the shifted
    profile. Requires converged slope estimates at both base points.
    """
    base = green_slope(profile, "+", tol=green_tol)
    shifted_profile = profile.shifted(t)
    shifted = green_slope(shifted_profile, "+", tol=green_tol)
    if not (base.converged and shifted.converged):
        raise ValueError("invariance check needs converged slopes at both ends")

    if profile.supports_mp:
        k_eff = max(abs(base.u_plus0), 0.1)
        span = min(200.0, max(22.0, 24.0 / k_eff))
        u0 = _mp_stable_slope(profile, span, dps)
        u_prop = _mp_riccati_forward(profile, u0, t, dps)
        u_shift = _mp_stable_slope(shifted_profile, span, dps)
        return abs(float(u_prop - u_shift))

    # double-precision fallback; accuracy degrades like exp(2 k t)
    trace = integrate_riccati(profile, base.u_plus0, (0.0, t), tol=1e-13)
    if trace.blowup_time is not None:
        raise NumericalInconsistencyError(
            "riccati propagation of the stable slope blew up before t = %g" % t
        )
    return abs(float(trace.u_samples[-1]) - shifted.u_plus0)
