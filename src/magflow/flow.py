"""Unit tangent vectors, orbit integration and curvature profiles.

A unit tangent vector is stored as (x, y, theta): a point in a chart of
the surface and the frame angle of the velocity there. A chart model
supplies its orbit equations as a right-hand side on that triple and its
deck step, which brings a state back into the fundamental domain;
``integrate_orbit`` runs them through one DOP853 loop (``_integrate``),
whatever the surface, and reads its samples from the 7th-order dense
output; the loop can stop short of the horizon and resume from the
controller's state (``OrbitTrace.advance``). This module holds what that
loop shares with the Jacobi launches of ``jacobi``: the written-out weights
of the one tableau, ``_dop853``, the one step controller (``_first_step``,
``_march``) and the one dense-output type (``_Run``). A
``CurvatureProfile`` is the curvature kappa read along one orbit as a
function of time, which is all the Jacobi layer sees of the surface; that of
a chart orbit reads its two legs, each grown as far as read (``_OrbitKappa``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import _dop853
from .errors import (InsufficientDataError, IntegrationFailure,
                     NumericalInconsistencyError)
from .fourier import FourierSeries1D

DEFAULT_TOL = 1e-10
SAMPLE_DT = 0.01
# right-hand-side evaluations one orbit integration may spend, the dense
# output's included: the DOP853 step shrinks like 1/|b|, so a strong field
# would otherwise run without end. A horizon-200 orbit of the benchmark
# torus takes at most ~26,000.
ORBIT_NFEV_BUDGET = 500_000
# added under the square root of every k_bound read from a minimum
K_MARGIN = 1e-9
# how far past the latest time read each leg of a chart orbit is integrated
# (``_LegKappa``): a stopped run's last samples differ from the whole
# run's at roundoff (BLAS sums the dense output's last columns in another
# order), and appending knots to the not-a-knot spline moves the reads of
# its last pieces only. Over 24 orbits of three tori stopped at 51, 81 and 161,
# the samples differed within 0.28 of the stop and the spline pieces within
# 0.25 (about 25 knots), so a margin of 100 knots keeps every read below it
# final (tests/test_flow.py, TestGrowingProfile)
SPLINE_MARGIN = 1.0


@dataclass(frozen=True)
class UnitTangent:
    """A unit tangent vector (x, y, theta) in a chart; the fields may be
    arrays of samples."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0


@dataclass
class OrbitTrace:
    """A sampled unit-speed magnetic orbit with its curvature readout; one
    that ``integrate_orbit`` stopped short of its horizon holds the samples
    up to the stop until ``advance`` or ``finish`` integrates it on."""

    t_samples: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray
    kappa_samples: np.ndarray
    step_controls: dict = field(default_factory=dict)
    # the rest of an orbit stopped short of its horizon (``integrate_orbit``'s
    # stop): a call that integrates it on to a later stop and returns its
    # trace up to there and whether that is the horizon, or the exception
    # that call raised
    _rest: Optional[object] = field(default=None, init=False, repr=False,
                                    compare=False)

    def state(self, i: int) -> UnitTangent:
        return UnitTangent(float(self.xs[i]), float(self.ys[i]), float(self.thetas[i]))

    def advance(self, stop: float) -> bool:
        """Integrate an orbit that stopped short of its horizon on to the
        first sample time at or past ``stop`` (at most the horizon,
        ``integrate_orbit``), and hold its trace up to there: the steps are
        those of one run to the horizon, and the samples that run's below
        the last few tenths of a time unit. True where it did so, False
        where the trace reaches the stop or its horizon already. A failure
        raises, as a run to the horizon would have, leaves the trace where
        it stopped, and is raised again by every later call that would
        integrate. Until it reaches its horizon, a trace holds the loop's
        state, which does not pickle."""
        rest = self._rest
        if rest is None or stop <= self.t_samples[-1]:
            return False
        if isinstance(rest, Exception):
            raise rest
        try:
            grown, whole = rest(stop)
        except Exception as exc:
            self._rest = exc
            raise
        vars(self).update(vars(grown))
        self._rest = None if whole else rest
        return True

    def finish(self) -> bool:
        """``advance`` to the horizon: the whole trace, samples and step
        counts, of one run to the horizon, for export."""
        return self.advance(math.inf)

    def to_csv(self, path):
        # the bytes csv.writer gives (no float repr needs quoting), formatted
        # in blocks of rows so the Python floats never hold a whole column
        cols = (self.t_samples, self.xs, self.ys, self.thetas, self.kappa_samples)
        with open(path, "w", newline="") as fh:
            fh.write("t,x,y,theta,kappa\r\n")
            for i in range(0, len(self.t_samples), 2048):
                block = [map(repr, np.asarray(c[i:i + 2048], dtype=float).tolist())
                         for c in cols]
                fh.write("\r\n".join(map(",".join, zip(*block))))
                fh.write("\r\n")


# The Dormand-Prince 8(5,3) pair with its 7th-order dense output (Hairer,
# Norsett and Wanner, Solving ODEs I, sec. II.5-II.6), read from ``_dop853``,
# a literal copy of the module scipy's DOP853 reads: the one tableau of both
# loops, the orbits' (``_integrate``) and the Jacobi launches'
# (``jacobi._launch``). Row s of A weights stages 0..s-1 for stage s; stage
# 12 is the derivative at the step end, its row the 8th-order weights B, and
# stages 13-15 feed the dense output only. The written-out stage sums read
# the nonzero weights alone: _A<s>_<i> of rows 1-11 and 13-15 of A (column 1
# of rows 3-15 and column 2 of rows 5-15 are zero), and _B<i>, _E5_<i> and
# _E3_<i> of B, E5 and E3, which weight none of stages 1-4 and, for E5 and
# E3, not stage 12. Nor does the dense output, so an orbit step keeps
# stages 0 and 5-15 alone (_DENSE_STAGES).
((_A1_0,), (_A2_0, _A2_1), (_A3_0, _A3_2), (_A4_0, _A4_2, _A4_3),
 (_A5_0, _A5_3, _A5_4), (_A6_0, _A6_3, _A6_4, _A6_5),
 (_A7_0, _A7_3, _A7_4, _A7_5, _A7_6), (_A8_0, _A8_3, _A8_4, _A8_5, _A8_6, _A8_7),
 (_A9_0, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8),
 (_A10_0, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9),
 (_A11_0, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10),
 (_B0, _B5, _B6, _B7, _B8, _B9, _B10, _B11),
 (_A13_0, _A13_6, _A13_7, _A13_8, _A13_9, _A13_10, _A13_11, _A13_12),
 (_A14_0, _A14_5, _A14_6, _A14_7, _A14_10, _A14_11, _A14_12, _A14_13),
 (_A15_0, _A15_5, _A15_6, _A15_7, _A15_8, _A15_12, _A15_13, _A15_14)) = [
    [w for w in row[:s] if w != 0.0] for s, row in enumerate(_dop853.A.tolist()[1:], 1)]
((_E5_0, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11),
 (_E3_0, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11)) = [
    [w for w in v.tolist() if w != 0.0] for v in (_dop853.E5, _dop853.E3)]
_DENSE_STAGES = [0, *range(5, 16)]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / math.sqrt(len(v))


@dataclass(frozen=True)
class _Run:
    """One dense DOP853 run: the step ends ``t`` in integration order, the
    states ``y`` there (shape (n, steps + 1)), the dense-output coefficients
    ``F`` of every step (shape (7, n, steps)), ``nfev``, the right-hand-side
    evaluations spent, and the rejected step attempts."""

    t: np.ndarray
    y: np.ndarray
    F: np.ndarray
    nfev: int
    rejected: int

    @staticmethod
    def dense(t, y, k, nfev: int, rejected: int) -> "_Run":
        """The run with step ends t, states y and the 16 stage derivatives
        k of every accepted step (shape (16, n, steps)), its coefficients
        scipy's (dy, h f_old - dy, 2 dy - h (f_old + f_new), h D K), h being
        each step's t_new - t as the loop took it."""
        h = np.diff(t)
        dy = y[:, 1:] - y[:, :-1]
        F = np.concatenate([[dy, h * k[0] - dy, 2 * dy - h * (k[12] + k[0])],
                            h * np.tensordot(_dop853.D, k, 1)])
        return _Run(t, y, F, nfev, rejected)

    def sol(self, ts) -> np.ndarray:
        """The state at the time ts (shape (n,)) or times ts (shape (n, m)).

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


# One step control for both loops. It is scipy's, which apart from the order
# of the error estimator does not depend on the tableau (Hairer, Norsett and
# Wanner, Solving ODEs I, sec. II.4).

def _first_step(rate: Callable, t: float, y: list, f: list, span: float,
                order: int, tol: float) -> float:
    """scipy's ``select_initial_step`` for y' = rate(t, y) at rtol = atol =
    tol, from the state y with derivative f at t, over the signed span
    t_end - t and for an error estimator of the given order; the norms run
    over every component of y. Evaluates ``rate`` once."""
    d = -1.0 if span < 0 else 1.0
    scale = [tol + abs(v) * tol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([k / sc for k, sc in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(span))
    f1 = rate(t + h0 * d, [v + h0 * d * k for v, k in zip(y, f)])
    # h0 is 0 where |f| is past the double range, and so is the step returned
    d2 = _rms([(a - k) / sc for a, k, sc in zip(f1, f, scale)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, abs(span))


def _march(attempt: Callable, keep: Callable, state: tuple, t_end: float,
           stop: float, cost: int, keep_cost: int, budget: int, order: int,
           what: str) -> tuple:
    """Step from ``state`` = (t, y, f, h_abs, nfev, rejected), the state y
    with derivative f at t, the next step size, the evaluations spent and
    the rejected attempts so far, towards t_end, in either direction, until
    a step ends at or past ``stop`` (t_end itself, or a time before it).

    ``attempt(t, y, f, h)`` takes one step of signed size h and returns
    (y_new, f_new, err, stages), err being the error norm against the
    tolerance; each attempt costs ``cost`` evaluations. ``keep(t_new,
    y_new, stages)`` stores an accepted step and costs ``keep_cost``. A
    step is accepted at err < 1, and the next one is scaled by
    0.9 * err**(-1/(order + 1)) clipped to [0.2, 10], with no growth right
    after a rejection; only t_end clips a step, so a march resumed from the
    state it returns takes the steps of one march to t_end. Raises
    ``IntegrationFailure``, its message beginning with ``what``, when the
    step falls below 10 float spacings of t, at the first non-finite error
    estimate, or before an attempt and its keeping would take the
    evaluations past ``budget``. Returns the state where it stopped.
    """
    t, y, f, h_abs, nfev, rejected = state
    d = -1.0 if t_end < t else 1.0
    exponent = -1 / (order + 1)
    while d * (t - stop) < 0:
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        after_rejection = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailure(
                    "%s integration failed: the step size fell below the "
                    "spacing of floats at t = %.6g" % (what, t), last_time=t)
            if nfev + cost + keep_cost > budget:
                raise IntegrationFailure(
                    "%s integration exceeded %d right-hand-side evaluations at "
                    "t = %.6g" % (what, budget, t), last_time=t)
            t_new = t + h_abs * d
            if d * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err, stages = attempt(t, y, f, h)
            nfev += cost
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** exponent))
                h_abs *= min(1, factor) if after_rejection else factor
                break
            if not math.isfinite(err):
                raise IntegrationFailure(
                    "%s integration failed: non-finite error estimate at "
                    "t = %.6g" % (what, t), last_time=t)
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** exponent)
            after_rejection = True
            rejected += 1
        keep(t_new, y_new, stages)
        nfev += keep_cost
        t, y, f = t_new, y_new, f_new
    return t, y, f, h_abs, nfev, rejected


def _integrate(f: Callable, y0, t_end: float, tol: float) -> Callable:
    """A dense DOP853 run of the autonomous system (x, y, theta)' =
    f(x, y, theta) from y0 at time 0 to t_end, forward or backward, taken in
    stages: returns ``advance(stop)``, which steps on until a step ends at
    or past ``stop`` (at most t_end) and returns the ``_Run`` of every step
    so far. Only t_end clips a step, so the steps are those of one run to
    t_end whatever the stops, and a run advanced to t_end is that run.

    ``f`` maps three floats to a 3-tuple of floats. The step control is
    scipy's DOP853 with rtol = atol = tol, run by ``_first_step`` and
    ``_march`` for an error estimator of order 7, and its error norm is
    scipy's, with the scale tol + tol * max(|y|, |y_new|). The stage sums,
    the update, the error terms and the three dense-output stages of each
    accepted step are written out per component on Python floats over the
    tableau's nonzero weights, so the results agree with scipy's to
    roundoff, not bitwise. f is called twice for the first step, here, 12
    times per step attempt and 3 times per accepted step, and the run fails
    as ``_march`` does, the budget being ``ORBIT_NFEV_BUDGET`` over all its
    stages.
    """
    y = [float(v) for v in y0]
    k0 = f(*y)
    h_abs = _first_step(lambda t, v: f(*v), 0.0, y, k0, t_end, 7, tol)

    def attempt(t, state, k0, h):
        # (u_s, v_s, w_s) is the slope of stage s; each component's sum keeps
        # the operation order and association of the stage-vector form
        x, y, th = state
        u0, v0, w0 = k0
        u1, v1, w1 = f(x + (_A1_0 * u0) * h, y + (_A1_0 * v0) * h, th + (_A1_0 * w0) * h)
        u2, v2, w2 = f(x + (_A2_0 * u0 + _A2_1 * u1) * h, y + (_A2_0 * v0 + _A2_1 * v1) * h,
                       th + (_A2_0 * w0 + _A2_1 * w1) * h)
        u3, v3, w3 = f(x + (_A3_0 * u0 + _A3_2 * u2) * h, y + (_A3_0 * v0 + _A3_2 * v2) * h,
                       th + (_A3_0 * w0 + _A3_2 * w2) * h)
        u4, v4, w4 = f(x + (_A4_0 * u0 + _A4_2 * u2 + _A4_3 * u3) * h,
                       y + (_A4_0 * v0 + _A4_2 * v2 + _A4_3 * v3) * h,
                       th + (_A4_0 * w0 + _A4_2 * w2 + _A4_3 * w3) * h)
        u5, v5, w5 = f(x + (_A5_0 * u0 + _A5_3 * u3 + _A5_4 * u4) * h,
                       y + (_A5_0 * v0 + _A5_3 * v3 + _A5_4 * v4) * h,
                       th + (_A5_0 * w0 + _A5_3 * w3 + _A5_4 * w4) * h)
        u6, v6, w6 = f(x + (_A6_0 * u0 + _A6_3 * u3 + _A6_4 * u4 + _A6_5 * u5) * h,
                       y + (_A6_0 * v0 + _A6_3 * v3 + _A6_4 * v4 + _A6_5 * v5) * h,
                       th + (_A6_0 * w0 + _A6_3 * w3 + _A6_4 * w4 + _A6_5 * w5) * h)
        u7, v7, w7 = f(
            x + (_A7_0 * u0 + _A7_3 * u3 + _A7_4 * u4 + _A7_5 * u5 + _A7_6 * u6) * h,
            y + (_A7_0 * v0 + _A7_3 * v3 + _A7_4 * v4 + _A7_5 * v5 + _A7_6 * v6) * h,
            th + (_A7_0 * w0 + _A7_3 * w3 + _A7_4 * w4 + _A7_5 * w5 + _A7_6 * w6) * h)
        u8, v8, w8 = f(
            x + (_A8_0 * u0 + _A8_3 * u3 + _A8_4 * u4 + _A8_5 * u5 + _A8_6 * u6
                 + _A8_7 * u7) * h,
            y + (_A8_0 * v0 + _A8_3 * v3 + _A8_4 * v4 + _A8_5 * v5 + _A8_6 * v6
                 + _A8_7 * v7) * h,
            th + (_A8_0 * w0 + _A8_3 * w3 + _A8_4 * w4 + _A8_5 * w5 + _A8_6 * w6
                  + _A8_7 * w7) * h)
        u9, v9, w9 = f(
            x + (_A9_0 * u0 + _A9_3 * u3 + _A9_4 * u4 + _A9_5 * u5 + _A9_6 * u6
                 + _A9_7 * u7 + _A9_8 * u8) * h,
            y + (_A9_0 * v0 + _A9_3 * v3 + _A9_4 * v4 + _A9_5 * v5 + _A9_6 * v6
                 + _A9_7 * v7 + _A9_8 * v8) * h,
            th + (_A9_0 * w0 + _A9_3 * w3 + _A9_4 * w4 + _A9_5 * w5 + _A9_6 * w6
                  + _A9_7 * w7 + _A9_8 * w8) * h)
        u10, v10, w10 = f(
            x + (_A10_0 * u0 + _A10_3 * u3 + _A10_4 * u4 + _A10_5 * u5 + _A10_6 * u6
                 + _A10_7 * u7 + _A10_8 * u8 + _A10_9 * u9) * h,
            y + (_A10_0 * v0 + _A10_3 * v3 + _A10_4 * v4 + _A10_5 * v5 + _A10_6 * v6
                 + _A10_7 * v7 + _A10_8 * v8 + _A10_9 * v9) * h,
            th + (_A10_0 * w0 + _A10_3 * w3 + _A10_4 * w4 + _A10_5 * w5 + _A10_6 * w6
                  + _A10_7 * w7 + _A10_8 * w8 + _A10_9 * w9) * h)
        u11, v11, w11 = f(
            x + (_A11_0 * u0 + _A11_3 * u3 + _A11_4 * u4 + _A11_5 * u5 + _A11_6 * u6
                 + _A11_7 * u7 + _A11_8 * u8 + _A11_9 * u9 + _A11_10 * u10) * h,
            y + (_A11_0 * v0 + _A11_3 * v3 + _A11_4 * v4 + _A11_5 * v5 + _A11_6 * v6
                 + _A11_7 * v7 + _A11_8 * v8 + _A11_9 * v9 + _A11_10 * v10) * h,
            th + (_A11_0 * w0 + _A11_3 * w3 + _A11_4 * w4 + _A11_5 * w5 + _A11_6 * w6
                  + _A11_7 * w7 + _A11_8 * w8 + _A11_9 * w9 + _A11_10 * w10) * h)
        xn = x + h * (_B0 * u0 + _B5 * u5 + _B6 * u6 + _B7 * u7 + _B8 * u8
                      + _B9 * u9 + _B10 * u10 + _B11 * u11)
        yn = y + h * (_B0 * v0 + _B5 * v5 + _B6 * v6 + _B7 * v7 + _B8 * v8
                      + _B9 * v9 + _B10 * v10 + _B11 * v11)
        thn = th + h * (_B0 * w0 + _B5 * w5 + _B6 * w6 + _B7 * w7 + _B8 * w8
                        + _B9 * w9 + _B10 * w10 + _B11 * w11)
        k12 = u12, v12, w12 = f(xn, yn, thn)
        sc = tol + max(abs(x), abs(xn)) * tol
        x5 = (_E5_0 * u0 + _E5_5 * u5 + _E5_6 * u6 + _E5_7 * u7 + _E5_8 * u8
              + _E5_9 * u9 + _E5_10 * u10 + _E5_11 * u11) / sc
        x3 = (_E3_0 * u0 + _E3_5 * u5 + _E3_6 * u6 + _E3_7 * u7 + _E3_8 * u8
              + _E3_9 * u9 + _E3_10 * u10 + _E3_11 * u11) / sc
        sc = tol + max(abs(y), abs(yn)) * tol
        y5 = (_E5_0 * v0 + _E5_5 * v5 + _E5_6 * v6 + _E5_7 * v7 + _E5_8 * v8
              + _E5_9 * v9 + _E5_10 * v10 + _E5_11 * v11) / sc
        y3 = (_E3_0 * v0 + _E3_5 * v5 + _E3_6 * v6 + _E3_7 * v7 + _E3_8 * v8
              + _E3_9 * v9 + _E3_10 * v10 + _E3_11 * v11) / sc
        sc = tol + max(abs(th), abs(thn)) * tol
        t5 = (_E5_0 * w0 + _E5_5 * w5 + _E5_6 * w6 + _E5_7 * w7 + _E5_8 * w8
              + _E5_9 * w9 + _E5_10 * w10 + _E5_11 * w11) / sc
        t3 = (_E3_0 * w0 + _E3_5 * w5 + _E3_6 * w6 + _E3_7 * w7 + _E3_8 * w8
              + _E3_9 * w9 + _E3_10 * w10 + _E3_11 * w11) / sc
        e5, e3 = x5 * x5 + y5 * y5 + t5 * t5, x3 * x3 + y3 * y3 + t3 * t3
        err = 0.0 if e5 == 0 and e3 == 0 else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 3)
        return (xn, yn, thn), k12, err, (h, x, y, th, u0, v0, w0, u5, v5, w5, u6, v6, w6,
                                         u7, v7, w7, u8, v8, w8, u9, v9, w9, u10, v10, w10,
                                         u11, v11, w11, u12, v12, w12)

    # per accepted step: its end time and end state, and the slopes of
    # stages 0 and 5-15 as packed doubles
    ts, ys, ks = [0.0], array("d", y), array("d")

    def keep(t_new, y_new, stages):
        (h, x, y, th, u0, v0, w0, u5, v5, w5, u6, v6, w6, u7, v7, w7, u8, v8, w8,
         u9, v9, w9, u10, v10, w10, u11, v11, w11, u12, v12, w12) = stages
        u13, v13, w13 = f(
            x + (_A13_0 * u0 + _A13_6 * u6 + _A13_7 * u7 + _A13_8 * u8 + _A13_9 * u9
                 + _A13_10 * u10 + _A13_11 * u11 + _A13_12 * u12) * h,
            y + (_A13_0 * v0 + _A13_6 * v6 + _A13_7 * v7 + _A13_8 * v8 + _A13_9 * v9
                 + _A13_10 * v10 + _A13_11 * v11 + _A13_12 * v12) * h,
            th + (_A13_0 * w0 + _A13_6 * w6 + _A13_7 * w7 + _A13_8 * w8 + _A13_9 * w9
                  + _A13_10 * w10 + _A13_11 * w11 + _A13_12 * w12) * h)
        u14, v14, w14 = f(
            x + (_A14_0 * u0 + _A14_5 * u5 + _A14_6 * u6 + _A14_7 * u7 + _A14_10 * u10
                 + _A14_11 * u11 + _A14_12 * u12 + _A14_13 * u13) * h,
            y + (_A14_0 * v0 + _A14_5 * v5 + _A14_6 * v6 + _A14_7 * v7 + _A14_10 * v10
                 + _A14_11 * v11 + _A14_12 * v12 + _A14_13 * v13) * h,
            th + (_A14_0 * w0 + _A14_5 * w5 + _A14_6 * w6 + _A14_7 * w7 + _A14_10 * w10
                  + _A14_11 * w11 + _A14_12 * w12 + _A14_13 * w13) * h)
        u15, v15, w15 = f(
            x + (_A15_0 * u0 + _A15_5 * u5 + _A15_6 * u6 + _A15_7 * u7 + _A15_8 * u8
                 + _A15_12 * u12 + _A15_13 * u13 + _A15_14 * u14) * h,
            y + (_A15_0 * v0 + _A15_5 * v5 + _A15_6 * v6 + _A15_7 * v7 + _A15_8 * v8
                 + _A15_12 * v12 + _A15_13 * v13 + _A15_14 * v14) * h,
            th + (_A15_0 * w0 + _A15_5 * w5 + _A15_6 * w6 + _A15_7 * w7 + _A15_8 * w8
                  + _A15_12 * w12 + _A15_13 * w13 + _A15_14 * w14) * h)
        ts.append(t_new)
        ys.extend(y_new)
        ks.extend(stages[4:])
        ks.extend((u13, v13, w13, u14, v14, w14, u15, v15, w15))

    state = (0.0, y, k0, h_abs, 2, 0)

    def advance(stop: float) -> _Run:
        nonlocal state
        state = _march(attempt, keep, state, t_end, stop, 12, 3, ORBIT_NFEV_BUDGET, 7,
                       "orbit")
        # the states are copied: a view of ys would keep a later stage from
        # growing it
        t, y = np.array(ts), np.array(ys).reshape(-1, 3).T
        k = np.zeros((16, 3, t.size - 1))
        k[_DENSE_STAGES] = np.frombuffer(ks).reshape(-1, 12, 3).transpose(1, 2, 0)
        return _Run.dense(t, y, k, state[4], state[5])

    return advance


def integrate_orbit(model, v0: UnitTangent, horizon: float, tol: float,
                    stop: float) -> OrbitTrace:
    """Integrate the magnetic orbit of a chart model (``ConformalTorus``;
    a constant or profile model has no orbit equations) from v0 for the
    given time horizon, stopping first at ``stop``.

    A chart model gives three members for this, beyond the five of
    ``geometry.SurfaceModel``:

    * ``rhs()`` - the orbit equations, a function of three floats
      (x, y, theta) returning the three derivatives as a tuple, built once
      per orbit;
    * ``reduce(v)`` - the deck step: ``v``, a ``UnitTangent`` of sample
      arrays, brought into the fundamental domain;
    * ``magnetic_curvature(v)`` - kappa at ``v``, on scalars or on arrays of
      samples.

    Runs the adaptive DOP853 loop of ``_integrate`` on the model's ``rhs()``
    at rtol = atol = tol towards the horizon; samples are read from its
    7th-order dense output on the uniform grid of spacing ``SAMPLE_DT`` over
    [0, horizon] and brought into the fundamental domain by the model's
    ``reduce`` at readout, so no drift accumulates in the stored samples.
    Where ``stop`` falls before the horizon, the loop stops at the first
    step that reaches the first grid time at or past it, and the trace holds
    the samples up to that time; ``OrbitTrace.advance`` resumes the loop to
    a later stop and ``OrbitTrace.finish`` to the horizon, and the whole
    trace is then the one a stop at the horizon gives, bit for bit. Past
    ``ORBIT_NFEV_BUDGET`` right-hand-side evaluations over all its stages
    the integration stops with an ``IntegrationFailure``. A horizon,
    tolerance or stop that is not positive and finite is a ``ValueError``.
    """
    for name, value in (("horizon", horizon), ("tol", tol), ("stop", stop)):
        if not 0 < value < math.inf:
            raise ValueError("%s must be positive and finite, got %r" % (name, value))
    return _leg(model, v0, horizon, tol, stop)


def _leg(model, v0: UnitTangent, end: float, tol: float, stop: float) -> OrbitTrace:
    """``integrate_orbit``'s trace of the orbit from v0 towards the signed
    time ``end``, backward in time for end < 0; its samples, its stops and
    their times are those |t| along the leg."""
    d = math.copysign(1.0, end)
    t_eval = np.linspace(0.0, abs(end), int(round(abs(end) / SAMPLE_DT)) + 1)
    advance = _integrate(model.rhs(), (v0.x, v0.y, v0.theta), end, tol)

    def sampled(stop):
        # the samples up to the first grid time at or past the stop, and
        # whether that is the horizon
        ts = t_eval[:min(int(np.searchsorted(t_eval, stop)), t_eval.size - 1) + 1]
        run = advance(d * float(ts[-1]))
        v = model.reduce(UnitTangent(*run.sol(d * ts)))
        return OrbitTrace(
            t_samples=ts,
            xs=v.x,
            ys=v.y,
            thetas=v.theta,
            kappa_samples=model.magnetic_curvature(v),
            step_controls={"tol": tol, "sample_dt": SAMPLE_DT, "nfev": run.nfev,
                           "accepted_steps": run.t.size - 1,
                           "rejected_steps": run.rejected},
        ), ts.size == t_eval.size

    trace, whole = sampled(stop)
    if not whole:
        trace._rest = sampled
    return trace


def _tridiagonal(a, b, c, d):
    """Solve a_i s_(i-1) + b_i s_i + c_i s_(i+1) = d_i, with a_0 = c_(n-1)
    = 0, by odd-even cyclic reduction (Buzbee, Golub and Nielson, SIAM J.
    Numer. Anal. 7 (1970) 627): each level eliminates the even unknowns from
    the odd rows, halving the system, and reads them back from the odd
    solution on the way up. Needs no pivoting on a strictly diagonally
    dominant system, which every level keeps."""
    n = len(b)
    if n == 1:
        return d / b
    if n % 2 == 0:
        # one identity row more, so that every odd row has two neighbours
        a, b, c, d = (np.append(a, 0.0), np.append(b, 1.0), np.append(c, 0.0),
                      np.append(d, 0.0))
    lo, hi = -a[1::2] / b[:-1:2], -c[1::2] / b[2::2]
    odd = _tridiagonal(lo * a[:-1:2], b[1::2] + lo * c[:-1:2] + hi * a[2::2],
                       hi * c[2::2], d[1::2] + lo * d[:-1:2] + hi * d[2::2])
    s = np.empty(len(b))
    s[1::2] = odd
    pad = np.concatenate(([0.0], odd, [0.0]))
    s[::2] = (d[::2] - a[::2] * pad[:-1] - c[::2] * pad[1:]) / b[::2]
    return s[:n]


class _Spline:
    """scipy's not-a-knot ``CubicSpline`` through (x, y), in numpy.

    The knot slopes s solve scipy's tridiagonal system. Its not-a-knot rows
    0 and n - 1 (the third derivative continuous across x_1 and x_(n-2))
    are folded into rows 1 and n - 2 by one step of Gaussian elimination
    each (factor 1), which leaves a strictly diagonally dominant system in
    s_1 .. s_(n-2) for ``_tridiagonal``. Each piece is scipy's Hermite cubic
    c0 u^3 + c1 u^2 + c2 u + c3 in u = t - x_i, its coefficients the rows of
    ``c`` and summed in ``PPoly``'s order, so a knot reads its sample exactly
    and the end pieces extrapolate. Agrees with scipy to roundoff; pickles.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        diag = 2 * (dx[:-1] + dx[1:])
        rhs = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        w0, w1 = x[2] - x[0], x[-1] - x[-3]
        r0 = ((dx[0] + 2 * w0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w0
        r1 = (dx[-1] ** 2 * slope[-2] + (2 * w1 + dx[-1]) * dx[-2] * slope[-1]) / w1
        diag[0] -= w0
        rhs[0] -= r0
        diag[-1] -= w1
        rhs[-1] -= r1
        s = np.empty(len(x))
        s[1:-1] = _tridiagonal(np.append(0.0, dx[2:]), diag,
                               np.append(dx[:-2], 0.0), rhs)
        s[0] = (r0 - w0 * s[1]) / dx[1]
        s[-1] = (r1 - w1 * s[-2]) / dx[-2]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        x = self.x
        i = x[1:-1].searchsorted(t, "right")
        u = t - x[i]
        c0, c1, c2, c3 = self.c
        u2 = u * u
        return np.asarray(((c3[i] + c2[i] * u) + c1[i] * u2) + c0[i] * (u2 * u))


class _LegKappa:
    """kappa along one leg of a chart orbit as far as it has been read: the
    ``_Spline`` through the curvature samples of the leg's trace, taken at
    the times |t| along it; ``start(stop)`` integrates the leg to its first
    stop, at its first read.

    ``cover(t)`` makes every read of the leg up to t final: it integrates
    the leg on to t + SPLINE_MARGIN (at most to the horizon,
    ``OrbitTrace.advance``) and rebuilds the spline through the longer
    trace. Appending knots leaves the reads of the pieces more than
    SPLINE_MARGIN below the new end with their bits, so a read up to
    ``final``, the trace's end less the margin (or any time, once the trace
    reaches its horizon), is that of the spline through the whole trace,
    whatever was read before. A growth that moves a piece below the old
    ``final`` by more than 2**-60 of its reads (a sample moved at roundoff:
    a BLAS kernel that sums the dense output's last columns wider than the
    margin) raises ``NumericalInconsistencyError`` and keeps the old
    spline; the far knots' pull, which decays by 0.27 per knot, moves only
    coefficients no read sees (the zeros of a constant stretch of kappa). A
    read past ``final`` covers its latest time first, so no read
    extrapolates the end piece while the leg can still grow.
    """

    def __init__(self, start: Callable):
        self.start, self.trace, self.spline, self.final = start, None, None, -math.inf

    def cover(self, t: float):
        if t <= self.final:
            return
        if self.trace is None:
            self.trace = self.start(t + SPLINE_MARGIN)
        tr = self.trace
        tr.advance(t + SPLINE_MARGIN)
        if len(tr.t_samples) < 4:
            raise InsufficientDataError("need at least 4 samples for a cubic spline")
        old, spline = self.spline, _Spline(tr.t_samples, tr.kappa_samples)
        if old is not None:
            # each coefficient weighted by its largest term in a read of its piece
            k = int(np.count_nonzero(old.x <= self.final))
            w = np.diff(old.x[:k + 1]) ** np.arange(3.0, -1.0, -1.0)[:, None]
            moved = (np.abs(spline.c[:, :k] - old.c[:, :k]) * w).sum(0)
            if np.any(moved > 2.0 ** -60 * (np.abs(old.c[:, :k]) * w).sum(0)):
                raise NumericalInconsistencyError(
                    "growing the orbit to t = %g moved the spline below t = %g, "
                    "where reads were final" % (tr.t_samples[-1], self.final))
        self.spline = spline
        self.final = math.inf if tr._rest is None else float(tr.t_samples[-1]) - SPLINE_MARGIN

    def __call__(self, t: np.ndarray):
        if t.size and t.max() > self.final:
            self.cover(float(t.max()))
        return self.spline(t)


class _OrbitKappa:
    """kappa along a chart orbit: a read at t >= 0 reads the ``_LegKappa``
    ``ahead`` at t, one at t < 0 the leg ``behind`` at -t, and ``flipped``
    swaps them. ``k_bound`` is read from the leg ahead's samples so far."""

    def __init__(self, ahead: _LegKappa, behind: _LegKappa):
        self.ahead, self.behind = ahead, behind

    @property
    def k_bound(self) -> float:
        self.ahead.cover(0.0)
        return _k_bound(float(np.min(self.ahead.trace.kappa_samples)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if (t < 0).any():
            return np.where(t < 0, self.behind(np.maximum(-t, 0)), self.ahead(np.maximum(t, 0)))
        return self.ahead(t)


class _KBound:
    """The ``k_bound`` field of ``CurvatureProfile``: the value the profile
    was built with, except for an orbit profile (``_OrbitKappa``), whose
    bound is read from its evaluator at each access, over the samples of
    the leg it reads forward of 0 integrated so far. It raises on the class,
    so the field has no default."""

    def __get__(self, profile, owner) -> float:
        if profile is None:
            raise AttributeError("k_bound")
        ev = profile.evaluator
        return ev.k_bound if isinstance(ev, _OrbitKappa) else profile.__dict__["_k_bound"]

    def __set__(self, profile, value: float):
        profile.__dict__["_k_bound"] = value


class _Pointwise:
    """A curvature read one time at a time: ``at`` takes a list of times to
    the list of their values as floats, and a call reads the times of an
    array through it, as a float array of the array's shape (0-d for a
    scalar)."""

    def __init__(self, at: Callable):
        self.at = at

    def __call__(self, t):
        return np.array(self.at(np.ravel(t).tolist()), dtype=float).reshape(np.shape(t))


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature along an orbit as a function of time.

    ``evaluator`` accepts scalars or arrays. That of a Fourier series and
    that of a callable (``_Pointwise``, which ``shifted`` and ``flipped``
    keep) also read a list of times as a list of floats (``at``), bitwise
    their array read, which the Jacobi launch uses; a spline has its array
    read alone. ``k_bound`` is a k >= 0 with
    kappa(t) >= -k_bound**2 on the usable window [t_min, t_max]; on an orbit
    profile, over the part of its leg forward of 0 integrated so far
    (``_KBound``). Profiles built from a Fourier series (a constant is one
    without harmonics, or with omega = 0) have infinite windows and shift
    and reflect exactly; spline profiles are confined to their orbit window.
    """

    evaluator: Callable
    k_bound: float = _KBound()
    t_min: float = -math.inf
    t_max: float = math.inf
    series: Optional[FourierSeries1D] = None
    # jacobi.propagator's cache: the profile's fundamental-matrix propagator
    _propagator: Optional[object] = field(default=None, init=False, repr=False,
                                          compare=False)
    # the profile a Fourier one is the time reflection of (``flipped``): its
    # monodromy answers for this one's (jacobi.floquet)
    _mirror: Optional["CurvatureProfile"] = field(default=None, init=False,
                                                  repr=False, compare=False)

    def __call__(self, t):
        return self.evaluator(t)

    @property
    def const_value(self) -> Optional[float]:
        """The value of a constant Fourier series, else None: one without
        harmonics, or with omega = 0, where it is const + sum_j a_j."""
        s = self.series
        if s is None or (s.harmonics and s.omega != 0.0):
            return None
        return float(s(0.0))

    @property
    def kappa_ceiling(self) -> float:
        """A certified K+ with kappa(t) <= K+ for every t: the upper of a
        Fourier series' ``bounds`` (a constant's own value). Samples
        certify no bound, so spline and callable profiles have inf.
        """
        if self.series is None:
            return math.inf
        return self.series.bounds[1]

    def check_span(self, t0: float, t1: float):
        """Raise ``InsufficientDataError`` naming the window end that the
        span between t0 and t1 (either order) crosses."""
        if max(t0, t1) > self.t_max:
            raise InsufficientDataError("the profile window ends at t = %g" % self.t_max)
        if min(t0, t1) < self.t_min:
            raise InsufficientDataError("the profile window starts at t = %g"
                                        % self.t_min)

    def shifted(self, t0: float) -> "CurvatureProfile":
        """The profile s -> kappa(t0 + s)."""
        if self.series is not None:
            sh = self.series.shifted(t0)
            return CurvatureProfile(evaluator=sh, k_bound=self.k_bound, series=sh)
        ev = self.evaluator
        at = ev.at if isinstance(ev, _Pointwise) else None
        return CurvatureProfile(
            evaluator=(lambda s: ev(t0 + np.asarray(s, dtype=float))) if at is None
            else _Pointwise(lambda ss: at([t0 + s for s in ss])),
            k_bound=self.k_bound,
            t_min=self.t_min - t0,
            t_max=self.t_max - t0,
        )

    def flipped(self) -> "CurvatureProfile":
        """The profile s -> kappa(-s), the curvature seen by the
        time-reversed field along the reversed-intensity orbit; of an orbit
        profile, the profile of the orbit's backward leg, on its spline."""
        if self.series is not None:
            refl = self.series.reflected()
            out = CurvatureProfile(evaluator=refl, k_bound=self.k_bound, series=refl)
            # frozen; like the propagator cache, the link is not a compared field
            object.__setattr__(out, "_mirror", self)
            return out
        ev = self.evaluator
        at = ev.at if isinstance(ev, _Pointwise) else None
        if isinstance(ev, _OrbitKappa):
            refl = _OrbitKappa(ev.behind, ev.ahead)
        else:
            refl = ((lambda s: ev(-np.asarray(s, dtype=float))) if at is None
                    else _Pointwise(lambda ss: at([-s for s in ss])))
        return CurvatureProfile(evaluator=refl, k_bound=self.k_bound,
                                t_min=-self.t_max, t_max=-self.t_min)

    @staticmethod
    def constant(value: float) -> "CurvatureProfile":
        return CurvatureProfile.from_series(FourierSeries1D(const=value))

    @staticmethod
    def from_series(series: FourierSeries1D) -> "CurvatureProfile":
        """The series as a profile, its k_bound read from the lower of its
        certified ``bounds``."""
        return CurvatureProfile(
            evaluator=series, k_bound=_k_bound(series.bounds[0]), series=series
        )

    @staticmethod
    def from_orbit(model, v0: UnitTangent, horizon: float) -> "CurvatureProfile":
        """kappa along the orbit of a chart model from v0 on [-horizon,
        horizon]: on each leg the not-a-knot cubic spline through its
        samples (``_Spline``: O(h^4) between samples, exact at them), the leg
        integrated at DEFAULT_TOL as far as it is read (``_LegKappa``), the
        forward one (``integrate_orbit``) to SPLINE_MARGIN at once."""
        ev = _OrbitKappa(_LegKappa(partial(integrate_orbit, model, v0, horizon, DEFAULT_TOL)),
                         _LegKappa(partial(_leg, model, v0, -horizon, DEFAULT_TOL)))
        return CurvatureProfile(evaluator=ev, k_bound=ev.k_bound, t_min=-horizon, t_max=horizon)


def _k_bound(kmin: float) -> float:
    """A k >= 0 with k * k >= -kmin for a curvature whose (sampled) minimum
    is kmin: sqrt(-kmin + K_MARGIN), which puts -k**2 K_MARGIN below kmin
    while the margin is above the spacing of floats there. Past |kmin| ~ 4e6
    the sum can drop the margin and the root square to less than -kmin; k
    is then stepped up one float at a time until k * k >= -kmin. A root
    that covers kmin already is kept as it is."""
    k = math.sqrt(max(0.0, -kmin) + K_MARGIN)
    while k * k < -kmin:
        k = math.nextafter(k, math.inf)
    return k
