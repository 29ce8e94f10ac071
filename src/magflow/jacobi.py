"""Scalar transverse Jacobi machinery.

Everything here concerns the second-order equation

    J''(t) + kappa(t) * J(t) = 0

for a curvature profile kappa along an orbit, together with the two
distinguished solutions used throughout:

* the unit-slope solution, vanishing at time zero with derivative one;
* the boundary solution for a target time r, with value one at zero and
  value zero at r.

All of these, the conjugate scan and the slope schedules in ``green`` read
one fundamental-matrix ``Propagator`` per profile. Every integration here
runs at the one tolerance ``JACOBI_TOL``.
``integrate_jacobi`` launches other initial data directly, because
``A + u Z`` cancels catastrophically along the stable line.

The boundary solution is computed two independent ways (a shooting
combination of fundamental solutions, and the reduction-of-order integral
against the unit-slope solution) and the disagreement is reported as a
first-class cross-check residual.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import (
    ConjugatePointError,
    InsufficientDataError,
    IntegrationFailure,
    NumericalInconsistencyError,
)
from .flow import CurvatureProfile

JACOBI_TOL = 1e-12
CROSS_CHECK_TOL = 1e-7
FIRST_BREAK = 5.0
RESCALE_THRESHOLD = 1e100


@dataclass(frozen=True)
class JacobiState:
    """Value and derivative of a transverse Jacobi field at one time."""

    value: float
    deriv: float


@dataclass(frozen=True)
class QuotientVector:
    """A transverse variation encoded by its Jacobi data at time zero."""

    jperp0: float
    djperp0: float


def sasaki_norm(xi: QuotientVector) -> float:
    """Norm induced by the Sasaki metric: the Euclidean length of the
    (value, derivative) pair."""
    return math.hypot(xi.jperp0, xi.djperp0)


def wronskian(a: JacobiState, b: JacobiState) -> float:
    """a'b - b'a; constant in time for solutions of the same profile."""
    return a.deriv * b.value - b.deriv * a.value


class JacobiTrace:
    """Dense solution of the Jacobi equation on one time span.

    Initial data is normalized before integrating and the scale is
    reapplied at readout, so rescaling the input rescales the output
    exactly up to roundoff.
    """

    def __init__(self, sol, scale: float, t0: float, t1: float):
        self._sol = sol
        self._scale = scale
        self.t0 = t0
        self.t1 = t1

    def _check(self, t):
        lo, hi = min(self.t0, self.t1), max(self.t0, self.t1)
        if np.any(np.asarray(t) < lo - 1e-12) or np.any(np.asarray(t) > hi + 1e-12):
            raise ValueError("query time outside the integrated span")

    def at(self, t: float) -> JacobiState:
        self._check(t)
        v, d = self._sol(t)
        return JacobiState(self._scale * float(v), self._scale * float(d))

    def values(self, ts) -> np.ndarray:
        self._check(ts)
        return self._scale * self._sol(ts)[0]

    def derivs(self, ts) -> np.ndarray:
        self._check(ts)
        return self._scale * self._sol(ts)[1]

    def to_csv(self, path, n: int = 1001):
        import csv

        ts = np.linspace(self.t0, self.t1, n)
        vals, ders = self.values(ts), self.derivs(ts)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "J", "dJ"])
            for t, v, d in zip(ts, vals, ders):
                writer.writerow([repr(float(t)), repr(float(v)), repr(float(d))])


def _launch(ev: Callable, y0, t_span: tuple):
    """One dense DOP853 run of J'' + ev(t) J = 0 for one (value, derivative)
    pair, or for two stacked pairs."""

    def rhs(t, y):
        k, v = -float(ev(t)), y.tolist()
        if len(v) == 2:
            return [v[1], k * v[0]]
        return [v[1], k * v[0], v[3], k * v[2]]

    sol = solve_ivp(
        rhs, t_span, y0, method="DOP853", rtol=JACOBI_TOL, atol=JACOBI_TOL,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationFailure(
            "jacobi integration failed: %s" % sol.message,
            last_time=float(sol.t[-1]),
        )
    return sol


def integrate_jacobi(profile: CurvatureProfile, state0: JacobiState,
                     t_span: tuple) -> JacobiTrace:
    """Integrate J'' + kappa(t) J = 0 with dense output over t_span.

    The span may run forward or backward in time.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    scale = math.hypot(state0.value, state0.deriv)
    if scale == 0.0:
        return JacobiTrace(lambda ts: np.zeros((2,) + np.shape(ts)), 0.0, t0, t1)
    y0 = [state0.value / scale, state0.deriv / scale]
    sol = _launch(profile.evaluator, y0, (t0, t1))
    return JacobiTrace(sol.sol, scale, t0, t1)


class Propagator:
    """Dense fundamental matrix [A, A', Z, Z'] from data (1, 0, 0, 1) at zero.

    Integrated segment by segment, only as far as callers ask, between the
    fixed breakpoints 0, FIRST_BREAK * 2**k (capped at the profile's window
    end), so every readout is a pure function of the profile whatever
    the order of requests. An end state past RESCALE_THRESHOLD is divided
    by a power of two before the next segment, and readouts multiply it
    back exactly.
    """

    def __init__(self, profile: CurvatureProfile):
        # no reference to the profile itself, which caches the propagator
        self.evaluator, self.t_max = profile.evaluator, profile.t_max
        self.breaks = [0.0]
        # segment k ends at breaks[k]: (dense output, end state, scale
        # exponent, total nfev); entry 0 holds the initial data
        self._segs = [(None, np.array([1.0, 0.0, 0.0, 1.0]), 0, 0)]

    def _grow(self):
        t0 = self.breaks[-1]
        if t0 >= self.t_max:
            raise InsufficientDataError("the profile window ends at t = %g" % t0)
        _dense, y0, exp, nfev = self._segs[-1]
        m = float(np.max(np.abs(y0)))
        if m > RESCALE_THRESHOLD:
            e = math.frexp(m)[1]
            y0, exp = np.ldexp(y0, -e), exp + e
        t1 = min(2.0 * t0 if t0 > 0.0 else FIRST_BREAK, self.t_max)
        sol = _launch(self.evaluator, y0, (t0, t1))
        self._segs.append((sol.sol, sol.y[:, -1], exp, nfev + sol.nfev))
        self.breaks.append(t1)

    def segment(self, t: float) -> int:
        """Index k of the segment (breaks[k - 1], breaks[k]] holding the time
        t >= 0 (k = 1 at t = 0), integrating up to it first."""
        while self.breaks[-1] < t:
            self._grow()
        return max(bisect.bisect_left(self.breaks, t), 1)

    def __call__(self, ts) -> np.ndarray:
        """[A, A', Z, Z'] at the time ts (shape (4,)) or times ts (shape (4, n))."""
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        if t.min() < 0.0:
            raise ValueError("the propagator starts at time zero")
        last = self.segment(float(t.max()))
        ks = np.clip(np.searchsorted(self.breaks, t), 1, last)
        out = np.empty((4, t.size))
        for k in np.unique(ks):
            dense, _end, exp, _nfev = self._segs[k]
            out[:, ks == k] = np.ldexp(dense(t[ks == k]), exp)
        return out[:, 0] if np.ndim(ts) == 0 else out

    def slope(self, r: float) -> float:
        """-A(r)/Z(r), the boundary slope for r, read in stored scale so that
        it stays finite where A and Z overflow."""
        y = self._segs[self.segment(r)][0](r)
        return -float(y[0]) / float(y[2])

    def nfev_to(self, t: float) -> int:
        """Right-hand-side evaluations spent integrating up to t."""
        return self._segs[self.segment(t)][3]


def propagator(profile: CurvatureProfile) -> Propagator:
    """The profile's propagator, built at the first request and shared by
    every caller."""
    if profile._propagator is None:
        # the profile is frozen; its cache slot is not a compared field
        object.__setattr__(profile, "_propagator", Propagator(profile))
    return profile._propagator


def solve_unit_slope(profile: CurvatureProfile, t: float) -> JacobiState:
    """The solution with value zero and slope one at time zero, read at t."""
    if t < 0.0:
        st = solve_unit_slope(profile.flipped(), -t)
        return JacobiState(-st.value, st.deriv)
    _a, _da, z, dz = propagator(profile)(t)
    return JacobiState(float(z), float(dz))


def unit_slope_trace(profile: CurvatureProfile, horizon: float) -> JacobiTrace:
    """The unit-slope solution on [0, horizon], read from the propagator."""
    prop = propagator(profile)
    return JacobiTrace(lambda ts: prop(ts)[2:], 1.0, 0.0, float(horizon))


def first_zero(profile: CurvatureProfile, horizon: float,
               step: float = 0.01) -> Optional[float]:
    """First positive zero of the unit-slope solution on (0, horizon].

    Scans a uniform grid for sign changes, then refines the bracket by
    bisection to 1e-9. Returns None when the solution keeps its sign.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    prop = propagator(profile)
    ts = np.arange(step, horizon + 0.5 * step, step)
    if len(ts) == 0:
        # a horizon shorter than half a step: scan the horizon alone
        ts = np.array([float(horizon)])
    ts[-1] = min(ts[-1], horizon)
    # scan one segment at a time, so integration stops at the breakpoint
    # past the first zero
    vals = np.empty(0)
    while len(vals) < len(ts) and not np.any(vals <= 0.0):
        end = prop.breaks[prop.segment(ts[len(vals)])]
        chunk = ts[len(vals):int(np.searchsorted(ts, end, side="right"))]
        vals = np.concatenate([vals, prop(chunk)[2]])
    sign_change = np.nonzero(vals <= 0.0)[0]
    if len(sign_change) == 0:
        return None
    i = int(sign_change[0])
    if vals[i] == 0.0:
        return float(ts[i])
    lo = ts[i - 1] if i > 0 else 0.5 * ts[0]
    hi = ts[i]
    f = lambda t: float(prop(t)[2])
    if f(lo) <= 0.0:
        # zero sits inside the first scan cell
        lo = 1e-8
    return float(brentq(f, lo, hi, xtol=1e-9))


@dataclass
class BoundarySolution:
    """Solution with value one at time zero and value zero at time r.

    ``slope0`` is its derivative at zero. ``cross_residual`` is the largest
    disagreement between the shooting construction and the
    reduction-of-order integral over the probe set.
    """

    r: float
    slope0: float
    cross_residual: float
    _eval: Callable

    def at(self, t: float) -> JacobiState:
        v, d = self._eval(t)
        return JacobiState(float(v), float(d))


def solve_boundary(profile: CurvatureProfile, r: float,
                   cross_check: bool = True) -> BoundarySolution:
    """Solve the two-point problem J(0) = 1, J(r) = 0.

    Requires the unit-slope solution to have no zero strictly between 0
    and r; otherwise the problem is singular and a conjugate-point error
    is raised. Negative r is handled through the time-reflected profile.

    The primary construction is the shooting combination
    A(t) + s * Z(t) of the fundamental solutions with s = -A(r)/Z(r).
    When ``cross_check`` is on, the reduction-of-order integral
    Z(t) * integral_t^r du / Z(u)^2 is evaluated at probe times bounded
    away from zero and compared against the shooting values; disagreement
    beyond the tolerance raises a numerical-inconsistency error.
    """
    if r == 0.0:
        raise ValueError("the boundary time r must be nonzero")
    if r < 0.0:
        flipped = solve_boundary(profile.flipped(), -r, cross_check)

        def ev_neg(t):
            st = flipped.at(-t)
            return st.value, -st.deriv

        return replace(flipped, r=r, slope0=-flipped.slope0, _eval=ev_neg)

    z = first_zero(profile, r, step=min(0.01, r / 8))
    if z is not None and z < r * (1.0 - 1e-12):
        raise ConjugatePointError(
            "conjugate point at t = %.12g inside (0, %g)" % (z, r),
            conjugate_time=z,
        )

    prop = propagator(profile)
    Ar, _, Zr, _ = prop(r)
    if Zr == 0.0:
        raise ConjugatePointError("unit-slope solution vanishes at r", conjugate_time=r)
    s = -float(Ar) / float(Zr)

    def ev(t):
        a, da, zz, dz = prop(t)
        return a + s * zz, da + s * dz

    residual = 0.0
    if cross_check:
        t_lo = min(0.1, r / 10.0)
        candidates = np.linspace(max(t_lo, 0.05 * r), 0.9 * r, 9)
        # skip probes where the unit-slope solution is huge: multiplying
        # the tiny reduction-of-order integral by it amplifies the
        # double-precision floor past the agreement bound
        probes = [tp for tp in candidates if abs(float(prop(tp)[2])) <= 1e5]
        if not probes:
            probes = [candidates[0]]

        def inv_z_sq(u):
            zu = float(prop(u)[2])
            return 1.0 / (zu * zu)

        for tp in probes:
            integral, _err = quad(
                inv_z_sq, tp, r, epsabs=1e-14, epsrel=1e-11, limit=200
            )
            v_quad = float(prop(tp)[2]) * integral
            v_shoot = float(ev(tp)[0])
            residual = max(residual, abs(v_quad - v_shoot))
        if residual > CROSS_CHECK_TOL:
            raise NumericalInconsistencyError(
                "boundary solve routes disagree by %g at r = %g" % (residual, r)
            )

    return BoundarySolution(r=r, slope0=s, cross_residual=residual, _eval=ev)


def tangential_component(
    b_along_orbit: Callable[[float], float],
    perp: JacobiTrace,
    JT0: float = 0.0,
) -> Callable[[float], float]:
    """The along-flow component slaved to the transverse one.

    Returns t -> JT0 + integral_0^t b(s) * J(s) ds, evaluated by adaptive
    quadrature over the dense transverse trace. Queries must stay inside
    the trace span.
    """

    def jt(t: float) -> float:
        perp._check(t)

        def integrand(s):
            return float(b_along_orbit(s)) * float(perp.values(np.array([s]))[0])

        val, _err = quad(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-10, limit=200)
        return JT0 + val

    return jt


def flip_profile(profile: CurvatureProfile) -> CurvatureProfile:
    """Curvature seen by the time-reversed field: t -> kappa(-t)."""
    return profile.flipped()
