"""Scalar transverse Jacobi machinery.

Everything here concerns the second-order equation

    J''(t) + kappa(t) * J(t) = 0

for a curvature profile kappa along an orbit, together with the two
distinguished solutions used throughout:

* the unit-slope solution, vanishing at time zero with derivative one;
* the boundary solution for a target time r, with value one at zero and
  value zero at r.

All of these, the conjugate scan, the slope schedules in ``green``, the
Riccati solutions in ``riccati`` and every solution with given data
(``integrate_jacobi``) read one fundamental-matrix ``Propagator`` per
profile, so each profile is integrated once. A constant profile's
propagator is read in closed form, with no launch; a solution with given
data on a constant kappa < 0 reads its own closed form, because on the
stable line the read ``A + u Z`` of the matrix cancels catastrophically.
A Fourier profile is periodic, and its propagator
integrates one period and reads every later time from the monodromy;
spline and callable profiles are integrated as far as callers ask. The
conjugate scan is skipped where the Sturm comparison theorem excludes a
zero (``first_zero``).

Every launch (``_launch``, called by ``Propagator`` alone) runs magflow's
own DOP853 loop on [A, A', Z, Z'] at the one tolerance ``JACOBI_TOL``:
the Dormand-Prince 8(5,3) tableau is scipy's, the step control is the one
``flow`` shares with the orbit loop, the curvature is read in one array
call per step attempt, and the dense output is kept as arrays. Results
agree with scipy's DOP853 solver at roundoff level, not bitwise.

The boundary solution is computed two independent ways (a shooting
combination of fundamental solutions, and the reduction-of-order integral
against the unit-slope solution) and the disagreement is reported as a
first-class cross-check residual.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, replace
from operator import mul
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.optimize import brentq

from .errors import (
    ConjugatePointError,
    InsufficientDataError,
    NumericalInconsistencyError,
)
from .flow import CurvatureProfile, _first_step, _march

JACOBI_TOL = 1e-12
CROSS_CHECK_TOL = 1e-7
FIRST_BREAK = 5.0
RESCALE_THRESHOLD = 1e100
# curvature points one launch may evaluate (its nfev, 14 per step attempt
# plus 2 for the first step): a spline profile read along a strong-field
# orbit makes the DOP853 step shrink like 1/sqrt(|kappa|). The largest launch
# in the tests, demos and benchmark evaluates 18,160 (a Riccati test's
# reference launch over [3, 24] on a torus spline profile; the largest
# propagator segment, [0, 5] on a torus spline profile, evaluates 9,270);
# this is 55x that.
JACOBI_NFEV_BUDGET = 1_000_000
SCAN_STEP = 0.01          # grid of the conjugate and blow-up scans
# lam t past which a constant profile's propagator reads cosh = sinh =
# exp(lam t) / 2 in stored scale; cosh overflows past 710
HYPERBOLIC_SWITCH = 700.0


@dataclass(frozen=True)
class JacobiState:
    """Value and derivative of a transverse Jacobi field at one time."""

    value: float
    deriv: float


class JacobiTrace:
    """Dense solution of the Jacobi equation on one time span.

    ``sol`` reads (J, dJ/ds) in the span's local time s = sign (t - t0)
    (``_local_time``). Initial data is normalized before reading and the
    scale is reapplied at readout, so rescaling the input rescales the
    output exactly up to roundoff.
    """

    def __init__(self, sol, scale: float, sign: float, t0: float, t1: float):
        self._sol = sol
        self._scale = scale
        self._sign = sign
        self.t0 = t0
        self.t1 = t1

    def at(self, t: float) -> JacobiState:
        v, d = self.states(t)
        return JacobiState(float(v), float(d))

    def states(self, ts) -> np.ndarray:
        """(J, J') at the times ts from one read of the solution. Raises
        ``InsufficientDataError`` naming the first of the times, in the
        direction of the span, where J or J' is past the double range. A
        time less than 1e-12 outside the span reads the span's end."""
        s = self._sign * (np.asarray(ts, dtype=float) - self.t0)
        length = abs(self.t1 - self.t0)
        if np.any(s < -1e-12) or np.any(s > length + 1e-12):
            raise ValueError("query time outside the integrated span")
        s = np.clip(s, 0.0, length)
        with np.errstate(over="ignore", invalid="ignore"):
            j, dj = self._scale * self._sol(s)
        out = ~(np.isfinite(j) & np.isfinite(dj))
        if np.any(out):
            first = float(np.min(np.atleast_1d(s)[np.atleast_1d(out)]))
            raise InsufficientDataError("the Jacobi solution is past the double "
                                        "range at t = %g" % (self.t0 + self._sign * first))
        return np.array([j, self._sign * dj])

    def values(self, ts) -> np.ndarray:
        return self.states(ts)[0]

    def derivs(self, ts) -> np.ndarray:
        return self.states(ts)[1]


# The Dormand-Prince 8(5,3) pair with its 7th-order dense output (Hairer,
# Norsett and Wanner, Solving ODEs I, sec. II.5-II.6), read from the module
# scipy's DOP853 reads. Row s of A weights stages 0..s-1 for stage s; stage
# 12 is the derivative at the step end, and stages 13-15 feed the dense
# output only. One step attempt reads the curvature at the nodes of stages
# 1-11 and 13-15; stage 11 sits at c = 1, so stage 12 reuses its value.
_A = [row[:s] for s, row in enumerate(_dop853.A.tolist())]
_B, _E3, _E5 = _dop853.B.tolist(), _dop853.E3.tolist(), _dop853.E5.tolist()
_NODES = _dop853.C[[*range(1, 12), 13, 14, 15]]


def _rate(k, v):
    """y' for J'' + k J = 0 on the stacked pairs y = (A, A', Z, Z'): a list,
    or an array of shape (4, m) with k of shape (m,)."""
    return [v[1], -k * v[0], v[3], -k * v[2]]


@dataclass(frozen=True)
class _Run:
    """One ``_launch``: the step ends ``t`` in integration order, the states
    ``y`` there (shape (4, steps + 1)), the dense-output coefficients ``F``
    of every step (shape (7, 4, steps)) and ``nfev``, the curvature points
    evaluated."""

    t: np.ndarray
    y: np.ndarray
    F: np.ndarray
    nfev: int

    def sol(self, ts) -> np.ndarray:
        """The state at the time ts (shape (4,)) or times ts (shape (4, m)).

        Each time is read from the step that ends at or after it in the
        direction of integration, by Horner's rule in x and 1 - x on the
        step's coefficients, as scipy's ``Dop853DenseOutput`` does; a time
        on a step end reads that end state."""
        tq = np.atleast_1d(np.asarray(ts, dtype=float))
        d = 1.0 if self.t[-1] >= self.t[0] else -1.0
        i = np.minimum(np.searchsorted(d * self.t[1:], d * tq), self.F.shape[2] - 1)
        t0, t1 = self.t[i], self.t[i + 1]
        x = (tq - t0) / (t1 - t0)
        powers = (x, 1.0 - x)
        out = self.F[6][:, i] * x
        for j in range(5, -1, -1):
            out += self.F[j][:, i]
            out *= powers[j % 2]
        out = np.where(tq == t1, self.y[:, i + 1], out + self.y[:, i])
        return out[:, 0] if np.ndim(ts) == 0 else out


def _launch(ev: Callable, y0, t_span: tuple) -> _Run:
    """One dense DOP853 run of J'' + ev(t) J = 0 over the non-empty t_span
    (either direction) for the two stacked pairs y0 = [A, A', Z, Z'];
    ``Propagator._grow`` is its one caller.

    The step control is scipy's DOP853 at rtol = atol = JACOBI_TOL, run by
    ``flow._first_step`` and ``flow._march`` for an error estimator of order
    7; the error norm is the combined 5th/3rd-order one. The stage sums run
    on Python floats, and the dense output of the accepted steps is formed
    in one array pass at the end, so the results agree with scipy's to
    roundoff, not bitwise. kappa does not depend on the state, so each step
    attempt reads ``ev`` once, at the 14 nodes of its stages. Fails as
    ``flow._march`` does, the budget being ``JACOBI_NFEV_BUDGET`` curvature
    points.
    """
    tol = JACOBI_TOL
    t, t_end = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]
    f = _rate(float(ev(t)), y)
    h_abs = _first_step(lambda s, v: _rate(float(ev(s)), v), t, y, f, t_end - t, 7, tol)

    def attempt(t, y, f, h):
        a, da, z, dz = y
        kv = np.asarray(ev(t + h * _NODES), dtype=float).tolist()
        # the stage derivatives of each component, stage by stage
        ks = ka, kda, kz, kdz = [f[0]], [f[1]], [f[2]], [f[3]]
        for row, k in zip(_A[1:12], kv):
            stage_a = a + sum(map(mul, row, ka)) * h
            stage_z = z + sum(map(mul, row, kz)) * h
            ka.append(da + sum(map(mul, row, kda)) * h)
            kda.append(-k * stage_a)
            kz.append(dz + sum(map(mul, row, kdz)) * h)
            kdz.append(-k * stage_z)
        y_new = [v + h * sum(map(mul, _B, c)) for v, c in zip(y, ks)]
        f_new = _rate(kv[10], y_new)
        e5 = e3 = 0.0
        for v, w, c, r in zip(y, y_new, ks, f_new):
            c.append(r)
            sc = tol + max(abs(v), abs(w)) * tol
            p, q = sum(map(mul, _E5, c)) / sc, sum(map(mul, _E3, c)) / sc
            e5, e3 = e5 + p * p, e3 + q * q
        err = (0.0 if e5 == 0 and e3 == 0
               else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 4))
        return y_new, f_new, err, (ks, kv[11:])

    # per accepted step: its end time and end state, and the stage
    # derivatives and dense-output curvatures as packed doubles
    ts, ys, ks_all, kx = [t], array("d", y), array("d"), array("d")

    def keep(t_new, y_new, stages):
        ks, kv_dense = stages
        for c in ks:
            ks_all.extend(c)
        kx.extend(kv_dense)
        ts.append(t_new)
        ys.extend(y_new)

    nfev, _rejected = _march(attempt, keep, t, t_end, y, f, h_abs, 2, len(_NODES),
                             JACOBI_NFEV_BUDGET, 7, "jacobi")

    # the dense output of every accepted step in one array pass: stages
    # 13-15, then scipy's coefficients (dy, h f_old - dy,
    # 2 dy - h (f_old + f_new), h D K)
    ts, y = np.array(ts), np.frombuffer(ys).reshape(-1, 4).T  # y: (4, steps + 1)
    h = np.diff(ts)  # each step's t_new - t, as the loop took it
    k = list(np.frombuffer(ks_all).reshape(-1, 4, 13).transpose(2, 1, 0))
    for s, kappa in zip((13, 14, 15), np.frombuffer(kx).reshape(-1, 3).T):
        stage = y[:, :-1] + h * np.tensordot(_dop853.A[s, :s], k, 1)
        k.append(np.array(_rate(kappa, stage)))
    dy = y[:, 1:] - y[:, :-1]
    F = np.concatenate([[dy, h * k[0] - dy, 2 * dy - h * (k[12] + k[0])],
                        h * np.tensordot(_dop853.D, k, 1)])
    return _Run(ts, y, F, nfev)


def _constant_matrix(k: float, t: np.ndarray) -> tuple:
    """[A, A', Z, Z'] of J'' + k J = 0 from (1, 0, 0, 1) at zero, read at the
    times t >= 0 in stored scale: the values, shape (4, n), are the
    mantissas and the binary exponents, shape (n,), scale them.

    For k = w**2 > 0 it is (cos, -w sin, sin / w, cos)(w t), and for k = 0
    (1, 0, t, 1), all with exponent 0. For k = -lam**2 < 0 it is (cosh,
    lam sinh, sinh / lam, cosh)(lam t) while lam t <= HYPERBOLIC_SWITCH;
    past it cosh = sinh = exp(lam t) / 2 to double precision, and both read
    as exp(lam t - e log 2) / 2 with the exponent e = floor(lam t / log 2),
    so the ratios of A, A', Z and Z' stay exact however far t goes.
    """
    e = np.zeros(t.size, dtype=np.int64)
    if k > 0.0:
        w = math.sqrt(k)
        c, s = np.cos(w * t), np.sin(w * t)
        return np.array([c, -w * s, s / w, c]), e
    if k == 0.0:
        one = np.ones_like(t)
        return np.array([one, 0.0 * t, t, one]), e
    lam = math.sqrt(-k)
    x = lam * t
    far = x > HYPERBOLIC_SWITCH
    e[far] = np.floor(x[far] / math.log(2.0))
    near = np.where(far, 0.0, x)
    half = 0.5 * np.exp(np.where(far, x - e * math.log(2.0), 0.0))
    ch = np.where(far, half, np.cosh(near))
    sh = np.where(far, half, np.sinh(near))
    return np.array([ch, lam * sh, sh / lam, ch]), e


def _constant_solution(k: float, j0: float, d0: float) -> Callable:
    """ss -> (J, J') at the times ss >= 0 for J'' + k J = 0 with k = -lam**2
    < 0 and (J, J') = (j0, d0) at zero, in closed form.

    The solution is c+ e^(lam s) + c- e^(-lam s) with c+- = (j0 +- d0 / lam)
    / 2. It is read as j0 e^(-lam s) + 2 c+ sinh(lam s): the stable line
    (c+ = 0) then reads its decaying exponential alone, with no
    cancellation, and a tiny lam reads j0 + d0 s.
    """
    lam = math.sqrt(-k)
    c = 0.5 * (j0 + d0 / lam)

    def sol(ss):
        x = lam * np.asarray(ss, dtype=float)
        decay = np.exp(-x)
        if c == 0.0:  # no growing part, even where sinh overflows
            return np.array([j0 * decay, -lam * (j0 * decay)])
        return np.array([j0 * decay + 2.0 * c * np.sinh(x),
                         lam * (2.0 * c * np.cosh(x) - j0 * decay)])
    return sol


def _local_time(profile: CurvatureProfile, t0: float, t1: float) -> tuple:
    """(local, sign): the profile in the local time s = sign (t - t0), in
    which the span from t0 to t1 runs forward from zero, with sign = -1 for
    a backward span, where derivatives and slopes change sign. From t0 = 0
    forward it is the profile itself, with its cached propagator. A span
    leaving the profile's window raises ``InsufficientDataError``."""
    profile.check_span(t0, t1)
    sign = 1.0 if t1 >= t0 else -1.0
    local = profile.shifted(t0) if t0 != 0.0 else profile
    return (local if sign > 0.0 else local.flipped()), sign


def integrate_jacobi(profile: CurvatureProfile, state0: JacobiState,
                     t_span: tuple) -> JacobiTrace:
    """The solution of J'' + kappa(t) J = 0 with (J, J') = state0 at
    t_span[0], read densely over t_span, forward or backward.

    It is read in the local time of ``_local_time`` from the data (v, d) =
    (J, sign J') at t0, as J = v A + d Z from the local profile's
    propagator, with no launch of its own; a constant kappa < 0 reads the
    closed form ``_constant_solution``, since on its stable line that sum
    cancels catastrophically. A span leaving the profile's window raises
    ``InsufficientDataError``, and so does a read past the double range
    (``JacobiTrace.states``).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    local, sign = _local_time(profile, t0, t1)
    scale = math.hypot(state0.value, state0.deriv)
    if scale == 0.0 or t1 == t0:  # zero data, or a point span: the data alone
        y0 = np.array([state0.value, state0.deriv])
        return JacobiTrace(lambda ss: np.multiply.outer(y0, np.ones(np.shape(ss))),
                           1.0, 1.0, t0, t1)
    v, d = state0.value / scale, sign * (state0.deriv / scale)
    if local.const_value is not None and local.const_value < 0.0:
        sol = _constant_solution(local.const_value, v, d)
    else:
        prop = propagator(local)

        def sol(ss):
            a, da, z, dz = prop(ss)
            return np.array([v * a + d * z, v * da + d * dz])
    return JacobiTrace(sol, scale, sign, t0, t1)


def exact_period(profile: CurvatureProfile) -> Optional[float]:
    """A period T with kappa(t + T) = kappa(t) for every t, or None.

    A Fourier series with harmonics has T = 2*pi/|omega|; one without has
    every T, and FIRST_BREAK is taken. Spline and callable profiles have
    none, and constant profiles need none: their propagator is read in
    closed form.
    """
    s = profile.series
    if s is None:
        return None
    if s.omega != 0.0 and (s.cos_coeffs or s.sin_coeffs):
        return 2.0 * math.pi / abs(s.omega)
    return FIRST_BREAK


def _compose(p, q):
    """The product of two fundamental matrices, each given as ([A, A', Z, Z']
    mantissa, binary exponent), with the mantissa renormalised."""
    (a1, da1, z1, dz1), e1 = p
    (a2, da2, z2, dz2), e2 = q
    y = (a1 * a2 + z1 * da2, da1 * a2 + dz1 * da2,
         a1 * z2 + z1 * dz2, da1 * z2 + dz1 * dz2)
    f = math.frexp(max(abs(v) for v in y))[1]
    return tuple(math.ldexp(v, -f) for v in y), e1 + e2 + f


class Propagator:
    """Dense fundamental matrix [A, A', Z, Z'] from data (1, 0, 0, 1) at zero.

    A constant profile reads it in closed form (``_constant_matrix``): one
    segment covers every t >= 0, and ``nfev_to`` is 0. Any other profile is
    integrated segment by segment, only as far as callers ask, between the
    fixed breakpoints 0, FIRST_BREAK * 2**k (capped at the profile's window
    end), so every readout is a pure function of the profile whatever
    the order of requests. An end state past RESCALE_THRESHOLD is divided
    by a power of two before the next segment, and readouts multiply it
    back exactly.

    A profile with an exact period T (``exact_period``) is integrated over
    [0, T] only, and the last segment of the period runs on to T whenever
    the doubling would stop short of T / 2 before it (so periods up to
    2 * FIRST_BREAK take one launch). Every later time t = k T + tau reads
    F(tau) M**k with the monodromy M = F(T), since F(t + T) = F(t) M for a
    periodic profile (Floquet). The powers M**k come from binary squaring
    and are kept as a mantissa matrix and a binary exponent.
    """

    def __init__(self, profile: CurvatureProfile):
        # no reference to the profile itself, which caches the propagator
        self.evaluator = profile.evaluator
        self.const = profile.const_value
        self.period = exact_period(profile)
        self.t_end = profile.t_max if self.period is None else self.period
        self.breaks = [0.0]
        # segment k ends at breaks[k]: (dense output, end state, scale
        # exponent, total nfev); entry 0 holds the initial data, and a
        # periodic profile's last entry, with no dense output, covers
        # (T, inf) from the monodromy
        self._segs = [(None, np.array([1.0, 0.0, 0.0, 1.0]), 0, 0)]
        if self.const is not None:
            # one segment, read in closed form, covers every t >= 0
            self.breaks.append(math.inf)
            self._segs.append((None, None, None, 0))
        # M**(2**j) and M**k, each as (mantissa, exponent)
        self._squares = []
        self._powers = {}

    def _grow(self):
        t0 = self.breaks[-1]
        _dense, y0, exp, nfev = self._segs[-1]
        if t0 >= self.t_end:
            if self.period is None:
                raise InsufficientDataError("the profile window ends at t = %g" % t0)
            f = math.frexp(float(np.max(np.abs(y0))))[1]
            self._squares.append((tuple(np.ldexp(y0, -f).tolist()), exp + f))
            self._segs.append((None, None, None, nfev))
            self.breaks.append(math.inf)
            return
        m = float(np.max(np.abs(y0)))
        if m > RESCALE_THRESHOLD:
            e = math.frexp(m)[1]
            y0, exp = np.ldexp(y0, -e), exp + e
        t1 = 2.0 * t0 if t0 > 0.0 else FIRST_BREAK
        if self.period is not None and 2.0 * t1 > self.period:
            t1 = self.period
        t1 = min(t1, self.t_end)
        sol = _launch(self.evaluator, y0, (t0, t1))
        self._segs.append((sol.sol, sol.y[:, -1], exp, nfev + sol.nfev))
        self.breaks.append(t1)

    def segment(self, t: float) -> int:
        """Index k of the segment (breaks[k - 1], breaks[k]] holding the time
        t >= 0 (k = 1 at t = 0), integrating up to it first."""
        while len(self.breaks) == 1 or self.breaks[-1] < t:
            self._grow()
        return max(bisect.bisect_left(self.breaks, t), 1)

    def _power(self, k: int):
        """M**k as (mantissa, exponent): the squares M**(2**j) of the set bits
        of k multiplied in increasing j, so the result depends on k alone."""
        if k not in self._powers:
            out = ((1.0, 0.0, 0.0, 1.0), 0)
            j = 0
            while k >> j:
                if j == len(self._squares):
                    self._squares.append(_compose(self._squares[-1], self._squares[-1]))
                if (k >> j) & 1:
                    out = _compose(out, self._squares[j])
                j += 1
            self._powers[k] = out
        return self._powers[k]

    def _stored(self, t: np.ndarray):
        """[A, A', Z, Z'] at the times t >= 0 as stored values, shape (4, n),
        and the binary exponents that scale them, shape (n,)."""
        if self.const is not None:
            return _constant_matrix(self.const, t)
        last = self.segment(float(t.max()))
        ks = np.clip(np.searchsorted(self.breaks, t), 1, last)
        y, e = np.empty((4, t.size)), np.zeros(t.size, dtype=int)
        for k in np.unique(ks):
            sel = ks == k
            dense, _end, exp, _nfev = self._segs[k]
            if dense is not None:
                y[:, sel], e[sel] = dense(t[sel]), exp
                continue
            # t = n T + tau past the period: F(tau) M**n
            n = np.floor(t[sel] / self.period)
            tau = np.clip(t[sel] - n * self.period, 0.0, self.period)
            (a, da, z, dz), e_tau = self._stored(tau)
            ns, inv = np.unique(n, return_inverse=True)
            powers = [self._power(int(v)) for v in ns]
            pa, pda, pz, pdz = np.array([p[0] for p in powers])[inv].T
            y[:, sel] = (a * pa + z * pda, da * pa + dz * pda,
                         a * pz + z * pdz, da * pz + dz * pdz)
            e[sel] = e_tau + np.array([p[1] for p in powers])[inv]
        return y, e

    def __call__(self, ts) -> np.ndarray:
        """[A, A', Z, Z'] at the time ts (shape (4,)) or times ts (shape (4, n))."""
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        if t.min() < 0.0:
            raise ValueError("the propagator starts at time zero")
        y, e = self._stored(t)
        out = np.ldexp(y, e)
        return out[:, 0] if np.ndim(ts) == 0 else out

    def slope(self, r: float) -> float:
        """-A(r)/Z(r), the boundary slope for r, read in stored scale so that
        it stays finite where A and Z overflow."""
        y, _e = self._stored(np.array([float(r)]))
        return -float(y[0, 0]) / float(y[2, 0])

    def carry(self, ts, u0: float) -> tuple:
        """(J, J') at the times ts >= 0 for the solution J = A + u0 Z with
        slope u0 at time zero, both divided by one power of two per time
        (stored scale). So the sign of J and the slope
        J'/J = (A' + Z' u0) / (A + Z u0), the Moebius image of u0, stay
        exact where A and Z overflow."""
        (a, da, z, dz), _e = self._stored(np.atleast_1d(np.asarray(ts, dtype=float)))
        return a + z * u0, da + dz * u0

    def pull_back(self, t: float, w: float) -> float:
        """The slope at time zero of the solution with slope w at time t >= 0:
        the inverse Moebius map (A w - A') / (Z' - Z w), read in stored scale
        like ``carry``."""
        (a, da, z, dz), _e = self._stored(np.array([float(t)]))
        return float((a[0] * w - da[0]) / (dz[0] - z[0] * w))

    def nfev_to(self, t: float) -> int:
        """Curvature points evaluated integrating up to t. A periodic
        profile spends at most one period's, whatever t, and a constant
        one none."""
        return self._segs[self.segment(t)][3]


def propagator(profile: CurvatureProfile) -> Propagator:
    """The profile's propagator, built at the first request and shared by
    every caller."""
    if profile._propagator is None:
        # the profile is frozen; its cache slot is not a compared field
        object.__setattr__(profile, "_propagator", Propagator(profile))
    return profile._propagator


def _first_root(prop: Propagator, f: Callable, horizon: float,
                step: float) -> tuple:
    """First zero on (0, horizon] of a function that is positive just after
    time zero, with the last scan time before it (0.0 in the first cell),
    or (None, horizon) when it keeps its sign.

    ``f`` reads the propagator ``prop`` at an array of times and returns the
    values as mantissas and the binary exponents that scale them. The scan
    reads the signs of the mantissas at the multiples of ``step`` below the
    horizon and at the horizon itself, one propagator segment at a time, so
    integration stops at the breakpoint past the first zero and nothing
    overflows; bisection refines a sign change on the scaled values to
    1e-12 of the bracket's upper end, a relative tolerance.
    """
    ts = np.arange(step, horizon, step)
    ts = np.append(ts[ts < horizon], float(horizon))
    vals = np.empty(0)
    while len(vals) < len(ts) and not np.any(vals <= 0.0):
        end = prop.breaks[prop.segment(ts[len(vals)])]
        chunk = ts[len(vals):int(np.searchsorted(ts, end, side="right"))]
        vals = np.concatenate([vals, f(chunk)[0]])
    sign_change = np.nonzero(vals <= 0.0)[0]
    if len(sign_change) == 0:
        return None, float(horizon)
    i = int(sign_change[0])
    before = float(ts[i - 1]) if i > 0 else 0.0
    if vals[i] == 0.0:
        return float(ts[i]), before
    lo = before if i > 0 else 0.5 * ts[0]
    hi = ts[i]
    g = lambda t: float(np.ldexp(*f(np.array([t])))[0])
    if g(lo) <= 0.0:
        # zero sits inside the first scan cell: bracket it from 1e-8, or
        # from zero where f is positive there (the unit-slope solution
        # vanishes at zero itself)
        lo = 1e-8 if g(1e-8) > 0.0 else 0.0
    return float(brentq(g, lo, hi, xtol=1e-12 * hi)), before


def first_zero(profile: CurvatureProfile, horizon: float,
               step: float = SCAN_STEP) -> Optional[float]:
    """First positive zero of the unit-slope solution on (0, horizon], or
    None when the solution keeps its sign (``_first_root``).

    Where kappa <= K+ everywhere, the Sturm comparison theorem puts the
    first zero at or past pi / sqrt(K+) (Hartman, Ordinary Differential
    Equations, ch. XI). So a profile with K+ * horizon**2 < pi**2, K+ being
    its ``kappa_ceiling``, has none, and the propagator is not read;
    otherwise the scan steps by ``_scan_step``."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if profile.kappa_ceiling * horizon**2 < math.pi**2:
        return None
    prop = propagator(profile)

    def z(ts):
        y, e = prop._stored(ts)
        return y[2], e

    return _first_root(prop, z, horizon, _scan_step(profile, step))[0]


def _scan_step(profile: CurvatureProfile, step: float) -> float:
    """step, capped at pi / (2 sqrt(K+)) for a profile whose ``kappa_ceiling``
    K+ is finite and positive: the zeros of any solution lie at least
    pi / sqrt(K+) apart (Sturm), so no scan cell holds two of them."""
    k_plus = profile.kappa_ceiling
    if 0.0 < k_plus < math.inf:
        return min(step, 0.5 * math.pi / math.sqrt(k_plus))
    return step


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


def solve_boundary(profile: CurvatureProfile, r: float,
                   cross_check: bool) -> BoundarySolution:
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
        return replace(flipped, r=r, slope0=-flipped.slope0)

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
            a, _da, z_tp, _dz = prop(tp)
            v_quad = float(z_tp) * integral
            v_shoot = float(a + s * z_tp)
            residual = max(residual, abs(v_quad - v_shoot))
        if residual > CROSS_CHECK_TOL:
            raise NumericalInconsistencyError(
                "boundary solve routes disagree by %g at r = %g" % (residual, r)
            )

    return BoundarySolution(r=r, slope0=s, cross_residual=residual)
