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
profile, so each profile is integrated once. A constant profile (a
Fourier series without harmonics, or with omega = 0) has its propagator
read in closed form, with no launch; a solution with given data on a
constant kappa < 0 reads its own closed form, because on the stable line
the read ``A + u Z`` of the matrix cancels catastrophically. Every other
profile is integrated only as far as its reads reach. Any other Fourier
profile is periodic: once the reads reach its period T, later times read
the monodromy M (``monodromy``), which may decide the profile outright
(Hill's equation, ``floquet``): no conjugate point, the slopes its
eigen-slopes and the contraction rate its exponent, for the time-reflected
profile too. One zero scan (``_first_root``), read at the propagator's
knots, serves that check, the conjugate point and the Riccati pole,
reading past two periods only the one Floquet predicts (``_predict``);
``first_zero`` skips it where Sturm comparison or the monodromy excludes a
zero. A sign change is refined by ``_brent``, a port of scipy's Brent root
finder that returns scipy's root bit for bit.

Every launch (``_launch``, called by ``Propagator`` alone) runs magflow's
own DOP853 loop on [A, A', Z, Z'] at the one tolerance ``JACOBI_TOL``. It
shares with the orbit loop of ``flow`` the Dormand-Prince 8(5,3) tableau
(``_dop853``, a literal copy of scipy's, its nonzero weights named in
``flow``), the step control and the dense-output type ``flow._Run``. A
step attempt reads the curvature at its 14 node times as Python floats, in
one list read, with no numpy call: a Fourier series from ``math.cos`` and
``math.sin`` (``FourierSeries1D.at``), a callable once per node
(``flow._Pointwise``), each bitwise its array read, and a spline through
its array read. The stage sums of one pair (J, J') are written out over
the tableau's nonzero weights (``_pair``, run on (A, A') and on (Z, Z')),
and the dense-output stages of the accepted steps are formed in one array
pass. Results agree with scipy's DOP853 solver at roundoff level, not
bitwise.

The boundary solution is computed two independent ways (a shooting
combination of fundamental solutions, and the reduction-of-order integral
against the unit-slope solution) and the disagreement is reported as a
first-class cross-check residual. That integral is scipy's ``quad``, the
one scipy routine the module calls, imported where the cross-check runs.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import _dop853
from .errors import (
    ConjugatePointError,
    InsufficientDataError,
    NumericalInconsistencyError,
)
from .flow import (
    _A1_0, _A2_0, _A2_1, _A3_0, _A3_2, _A4_0, _A4_2, _A4_3, _A5_0, _A5_3, _A5_4, _A6_0,
    _A6_3, _A6_4, _A6_5, _A7_0, _A7_3, _A7_4, _A7_5, _A7_6, _A8_0, _A8_3, _A8_4, _A8_5,
    _A8_6, _A8_7, _A9_0, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8, _A10_0, _A10_3,
    _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9, _A11_0, _A11_3, _A11_4, _A11_5,
    _A11_6, _A11_7, _A11_8, _A11_9, _A11_10, _B0, _B5, _B6, _B7, _B8, _B9, _B10, _B11,
    _E3_0, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E5_0, _E5_5, _E5_6,
    _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, CurvatureProfile, _first_step, _march,
    _OrbitKappa, _Pointwise, _Run,
)
from .fourier import FourierSeries1D

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
# Brent's root finder (``_brent``) at scipy's brentq defaults: relative
# tolerance 4 eps and at most 100 iterations
BRENT_RTOL = 4.0 * 2.0**-52
BRENT_MAXITER = 100
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


# One DOP853 step attempt reads the curvature at the nodes of stages 1-11
# and 13-15 (``flow``'s tableau, ``_dop853``); stage 11 sits at c = 1, so
# stage 12 reuses its value. ``_attempt`` forms the node times from the
# Python floats of _NODE_LIST.
_NODES = _dop853.C[[*range(1, 12), 13, 14, 15]]
_NODE_LIST = _NODES.tolist()


def _rate(k, v):
    """y' for J'' + k J = 0 on the stacked pairs y = (A, A', Z, Z'): a list,
    or an array of shape (4, m) with k of shape (m,)."""
    return [v[1], -k * v[0], v[3], -k * v[2]]


def _pair(j, dj, p0, q0, h, kv, e5, e3):
    """One DOP853 step attempt of signed size h for one pair (J, J') of
    J'' + kappa J = 0, from (j, dj) with derivatives (p0, q0) = (J', J''),
    kappa being kv at ``_NODES``.

    Returns J and J' at the step end, the stage slopes (p0, ..., p12) of J
    and (q0, ..., q12) of J' (stage 12 being the derivative at the step
    end), and e5 and e3 with the pair's squared 5th- and 3rd-order error
    terms added, J's first. Each sum adds its products left to right over
    the nonzero weights, as the list form's dot products over the full rows
    did (``sum(map(mul, row, stages))`` up to Python 3.11). The zero weights
    add only zeros, which can change a sum in the sign of a zero total
    alone; every sum is added to a state or squared, and no state is -0.0
    from initial data without one (x + y is -0.0 only where both are). So
    the step is bitwise that of the list form.
    """
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, _k13, _k14, _k15 = kv
    p1 = dj + (_A1_0 * q0) * h
    q1 = -k1 * (j + (_A1_0 * p0) * h)
    p2 = dj + (_A2_0 * q0 + _A2_1 * q1) * h
    q2 = -k2 * (j + (_A2_0 * p0 + _A2_1 * p1) * h)
    p3 = dj + (_A3_0 * q0 + _A3_2 * q2) * h
    q3 = -k3 * (j + (_A3_0 * p0 + _A3_2 * p2) * h)
    p4 = dj + (_A4_0 * q0 + _A4_2 * q2 + _A4_3 * q3) * h
    q4 = -k4 * (j + (_A4_0 * p0 + _A4_2 * p2 + _A4_3 * p3) * h)
    p5 = dj + (_A5_0 * q0 + _A5_3 * q3 + _A5_4 * q4) * h
    q5 = -k5 * (j + (_A5_0 * p0 + _A5_3 * p3 + _A5_4 * p4) * h)
    p6 = dj + (_A6_0 * q0 + _A6_3 * q3 + _A6_4 * q4 + _A6_5 * q5) * h
    q6 = -k6 * (j + (_A6_0 * p0 + _A6_3 * p3 + _A6_4 * p4 + _A6_5 * p5) * h)
    p7 = dj + (_A7_0 * q0 + _A7_3 * q3 + _A7_4 * q4 + _A7_5 * q5 + _A7_6 * q6) * h
    q7 = -k7 * (j + (_A7_0 * p0 + _A7_3 * p3 + _A7_4 * p4 + _A7_5 * p5
                     + _A7_6 * p6) * h)
    p8 = dj + (_A8_0 * q0 + _A8_3 * q3 + _A8_4 * q4 + _A8_5 * q5 + _A8_6 * q6
               + _A8_7 * q7) * h
    q8 = -k8 * (j + (_A8_0 * p0 + _A8_3 * p3 + _A8_4 * p4 + _A8_5 * p5
                     + _A8_6 * p6 + _A8_7 * p7) * h)
    p9 = dj + (_A9_0 * q0 + _A9_3 * q3 + _A9_4 * q4 + _A9_5 * q5 + _A9_6 * q6
               + _A9_7 * q7 + _A9_8 * q8) * h
    q9 = -k9 * (j + (_A9_0 * p0 + _A9_3 * p3 + _A9_4 * p4 + _A9_5 * p5
                     + _A9_6 * p6 + _A9_7 * p7 + _A9_8 * p8) * h)
    p10 = dj + (_A10_0 * q0 + _A10_3 * q3 + _A10_4 * q4 + _A10_5 * q5
                + _A10_6 * q6 + _A10_7 * q7 + _A10_8 * q8 + _A10_9 * q9) * h
    q10 = -k10 * (j + (_A10_0 * p0 + _A10_3 * p3 + _A10_4 * p4 + _A10_5 * p5
                       + _A10_6 * p6 + _A10_7 * p7 + _A10_8 * p8
                       + _A10_9 * p9) * h)
    p11 = dj + (_A11_0 * q0 + _A11_3 * q3 + _A11_4 * q4 + _A11_5 * q5
                + _A11_6 * q6 + _A11_7 * q7 + _A11_8 * q8 + _A11_9 * q9
                + _A11_10 * q10) * h
    q11 = -k11 * (j + (_A11_0 * p0 + _A11_3 * p3 + _A11_4 * p4 + _A11_5 * p5
                       + _A11_6 * p6 + _A11_7 * p7 + _A11_8 * p8 + _A11_9 * p9
                       + _A11_10 * p10) * h)
    j_new = j + h * (_B0 * p0 + _B5 * p5 + _B6 * p6 + _B7 * p7 + _B8 * p8
                     + _B9 * p9 + _B10 * p10 + _B11 * p11)
    dj_new = dj + h * (_B0 * q0 + _B5 * q5 + _B6 * q6 + _B7 * q7 + _B8 * q8
                       + _B9 * q9 + _B10 * q10 + _B11 * q11)
    sc = JACOBI_TOL + max(abs(j), abs(j_new)) * JACOBI_TOL
    u = (_E5_0 * p0 + _E5_5 * p5 + _E5_6 * p6 + _E5_7 * p7 + _E5_8 * p8
         + _E5_9 * p9 + _E5_10 * p10 + _E5_11 * p11) / sc
    w = (_E3_0 * p0 + _E3_5 * p5 + _E3_6 * p6 + _E3_7 * p7 + _E3_8 * p8
         + _E3_9 * p9 + _E3_10 * p10 + _E3_11 * p11) / sc
    e5, e3 = e5 + u * u, e3 + w * w
    sc = JACOBI_TOL + max(abs(dj), abs(dj_new)) * JACOBI_TOL
    u = (_E5_0 * q0 + _E5_5 * q5 + _E5_6 * q6 + _E5_7 * q7 + _E5_8 * q8
         + _E5_9 * q9 + _E5_10 * q10 + _E5_11 * q11) / sc
    w = (_E3_0 * q0 + _E3_5 * q5 + _E3_6 * q6 + _E3_7 * q7 + _E3_8 * q8
         + _E3_9 * q9 + _E3_10 * q10 + _E3_11 * q11) / sc
    return (j_new, dj_new,
            (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, dj_new),
            (q0, q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, -k11 * j_new),
            e5 + u * u, e3 + w * w)


def _attempt(read: Callable, t: float, y, f, h: float) -> tuple:
    """One DOP853 step attempt of signed size h from the state y = [A, A',
    Z, Z'] with derivative f at t, for ``flow._march``: (y_new, f_new, err,
    stages), stages being the 13 stage slopes of each component and the
    curvature at the three dense-output nodes. kappa does not depend on the
    state, so the attempt reads it once, with the list reader ``read`` of
    ``_launch``, at the 14 node times t + h c of its stages, formed as
    Python floats, and runs ``_pair`` on (A, A') and then on (Z, Z'); err
    is the combined 5th/3rd-order error norm. No numpy call is made."""
    kv = read([t + h * c for c in _NODE_LIST])
    a, da, ka, kda, e5, e3 = _pair(y[0], y[1], f[0], f[1], h, kv, 0.0, 0.0)
    z, dz, kz, kdz, e5, e3 = _pair(y[2], y[3], f[2], f[3], h, kv, e5, e3)
    err = (0.0 if e5 == 0 and e3 == 0
           else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 4))
    return [a, da, z, dz], [da, kda[12], dz, kdz[12]], err, ((ka, kda, kz, kdz), kv[11:])


def _launch(ev: Callable, y0, t_span: tuple) -> _Run:
    """One dense DOP853 run of J'' + ev(t) J = 0 over the non-empty t_span
    (either direction) for the two stacked pairs y0 = [A, A', Z, Z'];
    ``Propagator._grow`` is its one caller.

    The step control is scipy's DOP853 at rtol = atol = JACOBI_TOL, run by
    ``flow._first_step`` and ``flow._march`` for an error estimator of order
    7, with ``_attempt`` taking the steps. kappa is read at lists of times
    as lists of floats: a Fourier series and a callable profile's
    ``flow._Pointwise`` read them themselves (their ``at``), bitwise their
    array reads, and any other evaluator (a spline) reads them as an array.
    The stage sums are written out per pair on Python floats (``_pair``),
    and the dense output of the accepted steps is formed in one array pass
    at the end, so the results agree with scipy's to roundoff, not bitwise.
    Fails as ``flow._march`` does, the budget being ``JACOBI_NFEV_BUDGET``
    curvature points.
    """
    read = (ev.at if isinstance(ev, (FourierSeries1D, _Pointwise))
            else lambda ts: np.asarray(ev(np.array(ts)), dtype=float).tolist())
    t, t_end = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]
    f = _rate(read([t])[0], y)
    h_abs = _first_step(lambda s, v: _rate(read([s])[0], v), t, y, f, t_end - t, 7,
                        JACOBI_TOL)

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

    *_end, nfev, rejected = _march(partial(_attempt, read), keep, (t, y, f, h_abs, 2, 0),
                                   t_end, t_end, len(_NODES), 0, JACOBI_NFEV_BUDGET, 7,
                                   "jacobi")

    # the dense-output stages 13-15 of every accepted step in one array pass
    ts, y = np.array(ts), np.frombuffer(ys).reshape(-1, 4).T  # y: (4, steps + 1)
    h = np.diff(ts)  # each step's t_new - t, as the loop took it
    k = list(np.frombuffer(ks_all).reshape(-1, 4, 13).transpose(2, 1, 0))
    for s, kappa in zip((13, 14, 15), np.frombuffer(kx).reshape(-1, 3).T):
        stage = y[:, :-1] + h * np.tensordot(_dop853.A[s, :s], k, 1)
        k.append(np.array(_rate(kappa, stage)))
    return _Run.dense(ts, y, k, nfev, rejected)


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


def _product(p, q) -> tuple:
    """The products of fundamental matrices p and q, each ([A, A', Z, Z']
    mantissas of shape (4,) or (4, n), binary exponents), the mantissas
    renormalised by the power of two that puts the largest entry in [0.5, 1)."""
    ((a1, da1, z1, dz1), e1), ((a2, da2, z2, dz2), e2) = p, q
    y = np.array([a1 * a2 + z1 * da2, da1 * a2 + dz1 * da2,
                  a1 * z2 + z1 * dz2, da1 * z2 + dz1 * dz2])
    f = np.frexp(abs(y).max(0))[1].astype(np.int64)
    return np.ldexp(y, -f), e1 + e2 + f


class Propagator:
    """Dense fundamental matrix [A, A', Z, Z'] from data (1, 0, 0, 1) at zero.

    A constant profile reads it in closed form (``_constant_matrix``): one
    segment covers every t >= 0, and ``nfev_to`` is 0. Any other profile is
    integrated segment by segment, only as far as callers ask, between the
    fixed breakpoints 0, FIRST_BREAK * 2**k (capped at the profile's window
    end), so every readout is a pure function of the profile whatever
    the order of requests. An orbit profile's leg is integrated past the
    end of each segment before the segment is launched (``_grow``), so each
    segment is launched once. An end state past RESCALE_THRESHOLD is divided
    by a power of two before the next segment, and readouts multiply it
    back exactly.

    A Fourier profile that is not constant has the exact period
    T = 2*pi/|omega| (kappa(t + T) = kappa(t)) and is integrated over
    [0, T] at most, and the last segment of the period runs on to T whenever
    the doubling would stop short of T / 2 before it (so periods up to
    2 * FIRST_BREAK take one launch). Every later time t = k T + tau reads
    F(tau) M**k with the monodromy M = F(T), since F(t + T) = F(t) M for a
    periodic profile (Floquet). The powers M**k come from binary squaring;
    only the squares M**(2**j) are kept, as mantissas and an exponent.
    """

    def __init__(self, profile: CurvatureProfile):
        # no reference to the profile itself, which caches the propagator
        self.evaluator = profile.evaluator
        self.const = profile.const_value
        self.ceiling = profile.kappa_ceiling
        s = profile.series
        self.period = (2.0 * math.pi / abs(s.omega)
                       if s is not None and self.const is None else None)
        self.t_end = profile.t_max if self.period is None else self.period
        self.breaks = [0.0]
        # segment k ends at breaks[k]: (launch, end state, scale exponent,
        # total nfev); entry 0 holds the initial data, and a periodic
        # profile's last entry, with no launch, covers (T, inf) from the
        # monodromy
        self._segs = [(None, np.array([1.0, 0.0, 0.0, 1.0]), 0, 0)]
        if self.const is not None:
            # one segment, read in closed form, covers every t >= 0
            self.breaks.append(math.inf)
            self._segs.append((None, None, None, 0))
        self._squares = []  # M**(2**j) as (mantissa, exponent)
        self.hill = None  # floquet's readout, formed where M is stored
        self.zero = None  # see first_zero_of_z

    def _grow(self):
        """Launch the next segment, an orbit profile's orbit covering its end
        first (``flow._LegKappa.cover``); past a periodic profile's period,
        store the monodromy instead."""
        t0 = self.breaks[-1]
        _run, y0, exp, nfev = self._segs[-1]
        if t0 >= self.t_end:
            if self.period is None:
                raise InsufficientDataError("the profile window ends at t = %g" % t0)
            f = math.frexp(float(np.max(np.abs(y0))))[1]
            self._squares.append((tuple(np.ldexp(y0, -f).tolist()), exp + f))
            self._segs.append((None, None, None, nfev))
            self.breaks.append(math.inf)
            self.hill = _readout(self)
            return
        m = float(np.max(np.abs(y0)))
        if m > RESCALE_THRESHOLD:
            e = math.frexp(m)[1]
            y0, exp = np.ldexp(y0, -e), exp + e
        t1 = self._next_break(t0)
        ev = self.evaluator
        if isinstance(ev, _OrbitKappa):
            # the leg ahead is integrated past the segment's end first, so
            # the launch reads final pieces of its spline alone
            ev.ahead.cover(t1)
            ev = ev.ahead.spline
        sol = _launch(ev, y0, (t0, t1))
        self._segs.append((sol, sol.y[:, -1], exp, nfev + sol.nfev))
        self.breaks.append(t1)

    def _next_break(self, t0: float) -> float:
        t1 = 2.0 * t0 if t0 > 0.0 else FIRST_BREAK
        if self.period is not None and 2.0 * t1 > self.period:
            t1 = self.period
        return min(t1, self.t_end)

    def segment(self, t: float) -> int:
        """Index k of the segment (breaks[k - 1], breaks[k]] holding the time
        t >= 0 (k = 1 at t = 0), integrating up to it first."""
        while len(self.breaks) == 1 or self.breaks[-1] < t:
            self._grow()
        return max(bisect.bisect_left(self.breaks, t), 1)

    def _power(self, n: np.ndarray) -> tuple:
        """M**n for each whole number of the array n, as (mantissas, shape (4,
        n.size), exponents): the identity times the squares M**(2**j) of the
        set bits of n in increasing j, so each power depends on its n alone.
        Several n are formed once per distinct value."""
        ns, inv = n.astype(np.int64), slice(None)
        if n.size > 1:
            ns, inv = np.unique(ns, return_inverse=True)
        y, e = np.repeat([[1.0], [0.0], [0.0], [1.0]], ns.size, 1), np.zeros(ns.size, np.int64)
        for j in range(int(ns[-1]).bit_length()):
            if j == len(self._squares):
                self._squares.append(_product(self._squares[-1], self._squares[-1]))
            bit = (ns >> j) & 1 == 1
            y[:, bit], e[bit] = _product((y[:, bit], e[bit]), self._squares[j])
        return y[:, inv], e[inv]

    def _stored(self, t: np.ndarray):
        """[A, A', Z, Z'] at the times t >= 0 as stored values, shape (4, n),
        and the binary exponents that scale them, shape (n,)."""
        if self.const is not None:
            return _constant_matrix(self.const, t)
        last = self.segment(float(t.max()))
        ks = np.clip(np.searchsorted(self.breaks, t), 1, last)
        y, e = np.empty((4, t.size)), np.zeros(t.size, dtype=int)
        for k in (ks if t.size == 1 else np.unique(ks)):
            sel = ks == k
            run, _end, exp, _nfev = self._segs[k]
            if run is not None:
                y[:, sel], e[sel] = run.sol(t[sel]), exp
            else:  # t = n T + tau past the period: F(tau) M**n
                n = np.floor(t[sel] / self.period)
                tau = np.clip(t[sel] - n * self.period, 0.0, self.period)
                y[:, sel], e[sel] = _product(self._stored(tau), self._power(n))
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
        """Curvature points evaluated integrating up to t, none for a constant
        profile: the work count of the doubling schedule (``green``)."""
        return self._segs[self.segment(t)][3]

    def _knots(self, horizon: float):
        """The scan times of (0, horizon] in batches, the last one ending at
        the horizon or at 2T: the accepted step ends of the segments
        launched already, in one batch, then those of each segment launched
        for the scan, one batch each, then past the period T the period's
        ones shifted by T; on a constant k > 0 the first three multiples of
        pi / (2 sqrt(k)), half the spacing of the zeros of any solution
        (Sturm); on a constant k <= 0, where a solution has at most one
        zero, the horizon alone. So a rescan to a longer horizon reads what
        it has read before in one batch."""
        k, periods, cell = 1, [0], horizon
        while self.const is None:
            if k == len(self.breaks):
                self._grow()
            j = k
            while j < len(self._segs) and self._segs[j][0] is not None:
                j += 1
            if j == k:  # past the period
                periods, cell = [1], self.period
                break
            ts = np.concatenate([seg[0].t[1:] for seg in self._segs[k:j]])
            if ts[-1] >= horizon:
                yield np.append(ts[ts < horizon], horizon)
                return
            yield ts
            k = j
        if self.const is not None and self.const > 0.0:
            periods, cell = [0, 1, 2], 0.5 * math.pi / math.sqrt(self.const)
        taus = np.concatenate([seg[0].t[1:] for seg in self._segs[1:k]] or [[cell]])
        ts = (np.array(periods)[:, None] * cell + taus).ravel()
        yield np.append(ts[ts < horizon], horizon) if ts[-1] >= horizon else ts

    def first_zero_of_z(self, horizon: float) -> Optional[float]:
        """The first zero of Z on (0, horizon] (``_first_root``), or None. A
        zero found is kept, and answers every horizon."""
        if self.zero is None:
            self.zero = _first_root(self, 0.0, 1.0, horizon)
        return self.zero if self.zero is not None and self.zero <= horizon else None


def propagator(profile: CurvatureProfile) -> Propagator:
    """The profile's propagator, built at the first request and shared by
    every caller."""
    if profile._propagator is None:
        # the profile is frozen; its cache slot is not a compared field
        object.__setattr__(profile, "_propagator", Propagator(profile))
    return profile._propagator


@dataclass(frozen=True)
class Floquet:
    """A periodic profile's slopes and growth read from its monodromy: the
    period T, the eigen-slopes at time zero of the stable solution J_s and
    the unstable one J_u (J_s(t + T) = J_s(t) / lambda, J_u(t + T) =
    lambda J_u(t)), and log lambda with lambda > 1."""

    period: float
    stable: float
    unstable: float
    log_growth: float


def monodromy(profile: CurvatureProfile, horizon: float) -> Optional[Propagator]:
    """The propagator (a reflected profile's mirror's) of a non-constant
    Fourier profile of period T once the breakpoint that holds min(horizon,
    T) is T: grown to T, it reads M = F(T). Else None, launching nothing."""
    prop = propagator(profile if profile._mirror is None else profile._mirror)
    t = prop.breaks[-1]
    while prop.period is not None and t < min(horizon, prop.period):
        t = prop._next_break(t)
    if prop.period is None or t < prop.period:
        return None
    prop.segment(math.inf)  # reads M and forms floquet's readout
    return prop


def floquet(profile: CurvatureProfile, horizon: float) -> Optional[Floquet]:
    """The monodromy readout (``monodromy``) of a non-constant Fourier
    profile, or None where M is not held or does not decide the profile.

    With kappa of period T, J'' + kappa J = 0 is Hill's equation (Magnus and
    Winkler, 1966). Where tr M > 2 for M = F(T) = [A, A', Z, Z'], the
    eigen-solutions A + u Z have the slopes u with Z u**2 + (A - Z') u = A',
    the stable one the smaller where Z(T) > 0. The equation is disconjugate
    iff Z has no zero on (0, 2T] (Sturm separation: a zero of J_s at tau
    recurs at tau + T with one of Z between, and a J_s without zeros leaves
    Z none past 0), read by ``Propagator.first_zero_of_z`` where
    ``kappa_ceiling`` > 0, which keeps a zero it finds for ``first_zero``;
    for |tr M| < 2 ``_predict`` finds one past 2T. The readout is formed
    once, where the propagator reads M, in stored scale. A reflected profile
    (``flipped``) reads its mirror's, negated and swapped: its monodromy is
    D M^-1 D = [Z', A', Z, A], D = diag(1, -1).
    """
    prop = monodromy(profile, horizon)
    hill = None if prop is None else prop.hill
    if hill is None or profile._mirror is None:
        return hill
    return replace(hill, stable=-hill.unstable, unstable=-hill.stable)


def _readout(prop: Propagator) -> Optional[Floquet]:
    """``floquet``'s readout of a periodic propagator that holds M."""
    (a, da, z, dz), e = prop._squares[0]
    tr, b = a + dz, a - dz
    disc = b * b + 4.0 * z * da  # tr**2 - 4 det M, which roundoff may sink below 0
    if not (tr > math.ldexp(2.0, -e) and z > 0.0 and disc > 0.0) or (
            prop.ceiling > 0.0 and prop.first_zero_of_z(2.0 * prop.period) is not None):
        return None
    root = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(root, b))  # the roots q / z, -da / q
    stable, unstable = sorted((q / z, -da / q))
    return Floquet(period=prop.period, stable=stable, unstable=unstable,
                   log_growth=math.log(0.5 * (tr + root)) + e * math.log(2.0))


def _first_root(prop: Propagator, v: float, d: float, horizon: float) -> Optional[float]:
    """First zero on (0, horizon] of the solution J = v A + d Z of the
    propagator ``prop``, positive just after zero, or None.

    J is read in stored scale (``Propagator._stored``) at the propagator's
    knots (``Propagator._knots``), one batch at a time, so integration stops
    at the breakpoint past the first zero and nothing overflows. No solution
    changes sign twice between two knots: a step the DOP853 control accepts
    resolves every solution, all being combinations of A and Z; so the
    unit-slope solution, zero at time zero, has no other zero before the
    first knot. Past 2T a periodic profile reads periods n - 2 to n + 1
    alone, n from ``_predict``, at the knots a read of every period would
    read; a first period with J <= 0, or an elliptic window with no sign
    change, raises ``NumericalInconsistencyError``. ``_brent`` refines a
    sign change to 1e-12 of the bracket's upper end, a relative tolerance,
    on J rescaled by the one power of two read at that end.
    """
    def j(ts):
        (a, _da, z, _dz), e = prop._stored(ts)
        return v * a + d * z, e

    lo = 0.0  # the last knot before those read
    for ts in prop._knots(horizon):
        vals, exps = j(ts)
        if np.any(vals <= 0.0):
            break
        lo = float(ts[-1])
    else:
        if prop.period is None or horizon <= 2.0 * prop.period:
            return None
        n, taus, trace = _predict(prop, j)
        if n is None:
            return None
        window = (np.arange(n - 2, n + 2)[:, None] * prop.period + taus).ravel()
        ts = window if window[-1] < horizon else np.append(window[window < horizon], horizon)
        vals, exps = j(ts)
        below = vals <= 0.0
        # no sign change: a zero past the horizon, or one tr M > 2 puts in noise
        if not below.any() and (ts is not window or trace > 2.0):
            return None
        if not below.any() or below[:taus.size].any():
            raise NumericalInconsistencyError(
                "the reads of periods %d to %d do not confirm the zero that the "
                "monodromy (tr M = %r) puts in period %d" % (n - 2, n + 1, trace, n))
    i = int(np.argmax(vals <= 0.0))
    lo, hi, scale = float(ts[i - 1]) if i else lo, float(ts[i]), int(exps[i])
    if vals[i] == 0.0:
        return hi

    def g(t):
        y, e = j(np.array([t]))
        return math.ldexp(float(y[0]), int(e[0]) - scale)

    return _brent(g, lo, hi, 1e-12 * hi)


def _predict(prop: Propagator, j: Callable) -> tuple:
    """(n, taus, tr M) for a J read in stored scale by ``j``, positive on
    (0, 2T]: the period's step ends taus, and the first period n >= 2 with a
    knot n T + tau where J <= 0 (None where J has no zero), from
    q = J(T + tau) / J(tau) and J((n + 1) T + tau) = tr M J(n T + tau)
    - J((n - 1) T + tau) (Cayley-Hamilton, det M = 1): J(n T + tau) is a
    multiple of sin(n theta + psi) for tr M = 2 cos theta, and
    a e^(n mu) + b e^(-n mu), with a zero only where q < e^-mu, for
    tr M = 2 cosh mu. Only |tr M - 2| > JACOBI_TOL (|A(T)| + |Z'(T)|), the
    trace's error, is decided; elsewhere, and where tr M <= -2 (Sturm
    separation then puts a zero on (0, 2T]), NumericalInconsistencyError.
    """
    (a, da, z, dz), e = prop._squares[0]
    tr, two, delta = a + dz, math.ldexp(2.0, -e), JACOBI_TOL * (abs(a) + abs(dz))
    trace = math.ldexp(tr, e) if e < 1000 else math.copysign(math.inf, tr)
    disc = (a - dz) ** 2 + 4.0 * z * da  # tr**2 - 4 det M
    taus = np.concatenate([seg[0].t[1:] for seg in prop._segs[1:-1]])
    x, f = j(np.concatenate([taus, prop.period + taus]))
    q = np.ldexp(x[taus.size:] / x[:taus.size], f[taus.size:] - f[:taus.size])
    if tr - two > delta and disc > 0.0:
        mu = math.log(0.5 * (tr + math.sqrt(disc))) + e * math.log(2.0)
        s = math.exp(-mu)
        q = q[q < s]
        n = 0.5 * (1.0 + (np.log(1.0 - q * s) - np.log(s - q)) / mu)
    elif -two < tr < two - delta and disc < 0.0:
        theta = math.atan2(math.sqrt(-disc), tr)
        n = (math.pi - np.arctan2(math.sin(theta), q - math.cos(theta))) / theta
    else:
        raise NumericalInconsistencyError("the monodromy (tr M = %r, within its error "
                                          "of 2 or at most -2) predicts no zero" % trace)
    return (max(2, math.ceil(n.min())) if n.size else None), taus, trace


def _brent(f: Callable, lo: float, hi: float, xtol: float) -> float:
    """A zero of f in the bracket [lo, hi], where f changes sign, to within
    xtol + BRENT_RTOL |x| by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4): inverse quadratic
    interpolation or the secant step where it makes good progress, else
    bisection. A line-for-line port of scipy's ``brentq.c``, so it returns
    scipy's ``brentq(f, lo, hi, xtol=xtol)`` bit for bit after the same
    evaluations of f. Where scipy raises (f of one sign at both ends, f NaN,
    or no convergence in BRENT_MAXITER iterations) it raises
    ``NumericalInconsistencyError`` naming the bracket."""
    xpre, xcur = float(lo), float(hi)
    bracket = "root bracket [%r, %r]" % (xpre, xcur)

    def at(x):
        y = float(f(x))
        if math.isnan(y):
            raise NumericalInconsistencyError("%s: the function is NaN at %r" % (bracket, x))
        return y

    xblk = fblk = spre = scur = 0.0
    fpre, fcur = at(xpre), at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalInconsistencyError("%s: the function has one sign at both ends "
                                          "(%g, %g)" % (bracket, fpre, fcur))
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    # f(xpre) = f(xblk), or the product underflows: C reads an
                    # inf or a NaN here, which fails the test below
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = at(xcur)
    raise NumericalInconsistencyError("%s: no convergence in %d iterations, last "
                                      "x = %r" % (bracket, BRENT_MAXITER, xcur))


def first_zero(profile: CurvatureProfile, horizon: float) -> Optional[float]:
    """First positive zero of the unit-slope solution Z on (0, horizon], or
    None when the solution keeps its sign (``Propagator.first_zero_of_z``).

    Where kappa <= K+ everywhere, the Sturm comparison theorem puts the
    first zero at or past pi / sqrt(K+) (Hartman, Ordinary Differential
    Equations, ch. XI). So a profile with K+ <= 0 or K+ * horizon**2 < pi**2,
    K+ being its ``kappa_ceiling``, has none, and the propagator is not read.
    Nor has one whose monodromy, held once reads to the horizon reach the
    period, shows it disconjugate (``floquet``); on any other the scan past
    2T reads the period ``_predict`` names, so every horizon costs about the
    same. Where the period spans more than one segment, a first read scans
    the first segment before ``floquet`` launches the rest, and a zero there
    answers."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    k_plus = profile.kappa_ceiling
    if k_plus <= 0.0 or k_plus * horizon**2 < math.pi**2:
        return None
    prop = propagator(profile)
    first = prop._next_break(0.0)
    if len(prop.breaks) == 1 and prop.period is not None and first < prop.period:
        z = prop.first_zero_of_z(min(horizon, first))
        if z is not None or horizon <= first:
            return z
    if floquet(profile, horizon) is not None:
        return None
    return prop.first_zero_of_z(horizon)


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

    z = first_zero(profile, r)
    if z is not None and z < r * (1.0 - 1e-12):
        raise ConjugatePointError(
            "conjugate point at t = %.12g inside (0, %g)" % (z, r),
            conjugate_time=z,
        )

    prop = propagator(profile)
    try:
        s = prop.slope(r)
    except ZeroDivisionError:
        raise ConjugatePointError("unit-slope solution vanishes at r",
                                  conjugate_time=r) from None

    residual = 0.0
    if cross_check:
        def inv_z_sq(u):
            # from the mantissa and exponent of Z(u), where Z may overflow
            (_a, _da, z, _dz), e = prop._stored(np.array([float(u)]))
            m, f = math.frexp(float(z[0]))
            return math.ldexp(1.0 / (m * m), -2 * (f + int(e[0])))

        t_lo = min(0.1, r / 10.0)
        candidates = np.linspace(max(t_lo, 0.05 * r), 0.9 * r, 9)
        # skip probes where the unit-slope solution is huge (|Z| > 1e5):
        # multiplying the tiny reduction-of-order integral by it amplifies
        # the double-precision floor past the agreement bound
        probes = [tp for tp in candidates if inv_z_sq(tp) >= 1e-10]
        if not probes:
            # |Z| passes 1e5 before the first candidate: probe on a geometric
            # grid below it, down to t_lo, where |Z| is still small
            below = np.geomspace(t_lo, candidates[0], 9)[:-1]
            probes = [tp for tp in below if inv_z_sq(tp) >= 1e-10] or [t_lo]

        from scipy.integrate import quad  # the one scipy import, for this check

        diffs = []
        for tp in probes:
            integral, _err = quad(
                inv_z_sq, tp, r, epsabs=1e-14, epsrel=1e-11, limit=200
            )
            a, _da, z_tp, _dz = prop(tp)
            diffs.append(abs(float(z_tp) * integral - float(a + s * z_tp)))
        # a NaN disagreement fails the check too
        residual = float(np.max(diffs))
        if not residual <= CROSS_CHECK_TOL:
            raise NumericalInconsistencyError(
                "boundary solve routes disagree by %g at r = %g" % (residual, r)
            )

    return BoundarySolution(r=r, slope0=s, cross_residual=residual)
