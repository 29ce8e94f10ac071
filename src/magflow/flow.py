"""Unit tangent vectors, orbit integration and curvature profiles.

A unit tangent vector is stored as (x, y, theta): a point in a chart of
the surface and the frame angle of the velocity there. A chart model
supplies its orbit equations as a right-hand side on that triple and its
deck step, which brings a state back into the fundamental domain;
``integrate_orbit`` runs them through one Dormand-Prince loop, whatever
the surface. A ``CurvatureProfile`` is the curvature kappa read along one
orbit as a function of time, which is all the Jacobi layer sees of the
surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientDataError, IntegrationFailure
from .fourier import FourierSeries1D

DEFAULT_TOL = 1e-10
SAMPLE_DT = 0.01
# right-hand-side evaluations one orbit integration may spend: the RK45 step
# shrinks like 1/|b|, so a strong field would otherwise run without end. A
# horizon-200 orbit of the benchmark torus takes at most ~32,000.
ORBIT_NFEV_BUDGET = 500_000
# added under the square root of every k_bound read from a minimum
K_MARGIN = 1e-9


@dataclass(frozen=True)
class UnitTangent:
    """A unit tangent vector (x, y, theta) in a chart; the fields may be
    arrays of samples."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0


@dataclass
class OrbitTrace:
    """A sampled unit-speed magnetic orbit with its curvature readout."""

    t_samples: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray
    kappa_samples: np.ndarray
    step_controls: dict = field(default_factory=dict)

    def state(self, i: int) -> UnitTangent:
        return UnitTangent(float(self.xs[i]), float(self.ys[i]), float(self.thetas[i]))

    def unit_speed_defect(self) -> float:
        # the (x, y, theta) parameterization is unit speed identically;
        # report the roundoff of the trig identity as the defect
        c, s = np.cos(self.thetas), np.sin(self.thetas)
        return float(np.max(np.abs(c * c + s * s - 1.0)))

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


# The Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6 (1980) 19) with the
# coefficients, step control and 4th-order dense output of scipy's RK45
# (Shampine, Math. Comp. 46 (1986) 135). The orbit equations are autonomous,
# so the nodes c_i never enter. The second stage has weight zero in the
# solution, the error estimate and the dense output, so it is left out of
# those sums.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
# dense output y(t + x h) = y + h * sum_r Q_r x**(r + 1), Q = K^T P; the rows
# of P for stages 1, 3, 4, 5, 6, 7
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_SQRT3 = math.sqrt(3)


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / math.sqrt(len(v))


# One step control for both Dormand-Prince loops, the orbits' (_rk45) and
# the Jacobi launches' (jacobi._launch). It is scipy's, which apart from the
# order of the error estimator does not depend on the tableau (Hairer,
# Norsett and Wanner, Solving ODEs I, sec. II.4).

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
    d2 = _rms([(a - k) / sc for a, k, sc in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, abs(span))


def _march(attempt: Callable, keep: Callable, t: float, t_end: float, y: list,
           f: list, h_abs: float, nfev: int, cost: int, budget: int, order: int,
           what: str) -> tuple:
    """Step from the state y (derivative f) at t to t_end, in either
    direction, starting with the step size h_abs.

    ``attempt(t, y, f, h)`` takes one step of signed size h and returns
    (y_new, f_new, err, stages), err being the error norm against the
    tolerance; each attempt costs ``cost`` evaluations. ``keep(t_new,
    y_new, stages)`` stores an accepted step. A step is accepted at
    err < 1, and the next one is scaled by 0.9 * err**(-1/(order + 1))
    clipped to [0.2, 10], with no growth right after a rejection. Raises
    ``IntegrationFailure``, its message beginning with ``what``, when the
    step falls below 10 float spacings of t, at the first non-finite error
    estimate, or before an attempt would take the evaluations past
    ``budget``. Returns the evaluations spent, nfev included, and the
    number of rejected attempts.
    """
    d = -1.0 if t_end < t else 1.0
    exponent, rejected = -1 / (order + 1), 0
    while d * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        after_rejection = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailure(
                    "%s integration failed: the step size fell below the "
                    "spacing of floats at t = %.6g" % (what, t), last_time=t)
            if nfev + cost > budget:
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
        t, y, f = t_new, y_new, f_new
    return nfev, rejected


def _rk45(f: Callable, y0, t_end: float, t_eval: np.ndarray, tol: float):
    """Integrate the autonomous system (x, y, theta)' = f(x, y, theta) from
    y0 at time 0 to t_end and read it at the increasing times ``t_eval`` in
    [0, t_end].

    ``f`` maps three floats to a 3-tuple of floats. The step control is
    scipy's RK45 with rtol = atol = tol, run by ``_first_step`` and
    ``_march`` for an error estimator of order 4; the error norm is the RMS
    norm scaled by tol + tol * max(|y|, |y_new|). The stage sums, the update
    and the error estimate are written out per component on Python floats,
    so the results agree with scipy's to roundoff, not bitwise. Fails as
    ``_march`` does, the budget being ``ORBIT_NFEV_BUDGET``. Returns the
    samples, shape (3, len(t_eval)), and the step statistics.
    """
    y = [float(v) for v in y0]
    k1 = f(*y)
    h_abs = _first_step(lambda t, v: f(*v), 0.0, y, k1, t_end, 4, tol)

    def attempt(t, state, k1, h):
        # (u_j, v_j, w_j) is the slope of stage j; each component's sum keeps
        # the operation order and association of the stage-vector form, so
        # the steps are bitwise those of a loop over the components
        x, y, th = state
        u1, v1, w1 = k1
        u2, v2, w2 = f(x + (_A21 * u1) * h, y + (_A21 * v1) * h,
                       th + (_A21 * w1) * h)
        k3 = u3, v3, w3 = f(x + (_A31 * u1 + _A32 * u2) * h,
                            y + (_A31 * v1 + _A32 * v2) * h,
                            th + (_A31 * w1 + _A32 * w2) * h)
        k4 = u4, v4, w4 = f(x + (_A41 * u1 + _A42 * u2 + _A43 * u3) * h,
                            y + (_A41 * v1 + _A42 * v2 + _A43 * v3) * h,
                            th + (_A41 * w1 + _A42 * w2 + _A43 * w3) * h)
        k5 = u5, v5, w5 = f(x + (_A51 * u1 + _A52 * u2 + _A53 * u3 + _A54 * u4) * h,
                            y + (_A51 * v1 + _A52 * v2 + _A53 * v3 + _A54 * v4) * h,
                            th + (_A51 * w1 + _A52 * w2 + _A53 * w3 + _A54 * w4) * h)
        k6 = u6, v6, w6 = f(
            x + (_A61 * u1 + _A62 * u2 + _A63 * u3 + _A64 * u4 + _A65 * u5) * h,
            y + (_A61 * v1 + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5) * h,
            th + (_A61 * w1 + _A62 * w2 + _A63 * w3 + _A64 * w4 + _A65 * w5) * h)
        xn = x + h * (_B1 * u1 + _B3 * u3 + _B4 * u4 + _B5 * u5 + _B6 * u6)
        yn = y + h * (_B1 * v1 + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
        thn = th + h * (_B1 * w1 + _B3 * w3 + _B4 * w4 + _B5 * w5 + _B6 * w6)
        k7 = u7, v7, w7 = f(xn, yn, thn)
        ex = ((_E1 * u1 + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * u7)
              * h / (tol + max(abs(x), abs(xn)) * tol))
        ey = ((_E1 * v1 + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7)
              * h / (tol + max(abs(y), abs(yn)) * tol))
        et = ((_E1 * w1 + _E3 * w3 + _E4 * w4 + _E5 * w5 + _E6 * w6 + _E7 * w7)
              * h / (tol + max(abs(th), abs(thn)) * tol))
        # _rms written out: sum sees the same three squares in the same
        # order, so the norm is bitwise _rms's, also under the compensated
        # float sum of Python 3.12
        err = math.sqrt(sum((ex * ex, ey * ey, et * et))) / _SQRT3
        return (xn, yn, thn), k7, err, (t, h, x, y, th, u1, v1, w1, u3, v3, w3,
                                        u4, v4, w4, u5, v5, w5, u6, v6, w6,
                                        u7, v7, w7)

    ends, steps = [], []

    def keep(t_new, y_new, step):
        ends.append(t_new)
        steps.append(step)

    nfev, rejected = _march(attempt, keep, 0.0, t_end, y, k1, h_abs, 2, 6,
                            ORBIT_NFEV_BUDGET, 4, "orbit")

    # each sample is read from the dense output of the first step that ends
    # at or after it
    idx = np.searchsorted(ends, t_eval, side="left")
    rec = np.array(steps)  # (steps, 23): t, h, state, the six kept slopes
    t0, hs, y_old = rec[:, 0], rec[:, 1], rec[:, 2:5]
    q = np.einsum("ksj,sr->rjk", rec[:, 5:].reshape(-1, 6, 3), _P)  # (4, 3, steps)
    hs = hs[idx]
    p = np.cumprod(np.tile((t_eval - t0[idx]) / hs, (4, 1)), axis=0)  # x, ..., x**4
    ys = hs * sum(q[r][:, idx] * p[r] for r in range(4)) + y_old[idx].T
    return ys, {"nfev": nfev, "accepted_steps": len(steps),
                "rejected_steps": rejected}


def integrate_orbit(model, v0: UnitTangent, horizon: float,
                   tol: float) -> OrbitTrace:
    """Integrate the magnetic orbit of a surface model from v0 for the given
    time horizon.

    A chart model gives three members for this, beyond the six of
    ``geometry.SurfaceModel``:

    * ``rhs()`` - the orbit equations, a function of three floats
      (x, y, theta) returning the three derivatives as a tuple, built once
      per orbit;
    * ``reduce(v)`` - the deck step: ``v``, a ``UnitTangent`` of sample
      arrays, brought into the fundamental domain;
    * ``magnetic_curvature(v)`` - kappa at ``v``, on scalars or on arrays of
      samples.

    Runs the adaptive Dormand-Prince 5(4) pair of ``_rk45`` on the model's
    ``rhs()`` at rtol = atol = tol; samples are read from its dense output on
    a uniform grid of spacing ``SAMPLE_DT`` and brought into the fundamental
    domain by the model's ``reduce`` at readout, so no drift accumulates in
    the stored samples. Past ``ORBIT_NFEV_BUDGET`` right-hand-side
    evaluations the integration stops with an ``IntegrationFailure``. A
    horizon or tolerance that is not positive and finite is a ``ValueError``.
    """
    for name, value in (("horizon", horizon), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError("%s must be positive and finite, got %r" % (name, value))
    t_eval = np.linspace(0.0, horizon, int(round(horizon / SAMPLE_DT)) + 1)
    samples, stats = _rk45(model.rhs(), (v0.x, v0.y, v0.theta), horizon,
                           t_eval, tol)
    v = model.reduce(UnitTangent(*samples))
    return OrbitTrace(
        t_samples=t_eval,
        xs=v.x,
        ys=v.y,
        thetas=v.theta,
        kappa_samples=model.magnetic_curvature(v),
        step_controls={"tol": tol, "sample_dt": SAMPLE_DT, **stats},
    )


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


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature along an orbit as a function of time.

    ``evaluator`` accepts scalars or arrays. ``k_bound`` is a k >= 0 with
    kappa(t) >= -k_bound**2 on the usable window [t_min, t_max]. Profiles
    built from a Fourier series (a constant is one without harmonics, or
    with omega = 0) have infinite windows and shift and reflect exactly;
    spline profiles are confined to their orbit window.
    """

    evaluator: Callable
    k_bound: float
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
        return CurvatureProfile(
            evaluator=lambda s: ev(t0 + np.asarray(s, dtype=float)),
            k_bound=self.k_bound,
            t_min=self.t_min - t0,
            t_max=self.t_max - t0,
        )

    def flipped(self) -> "CurvatureProfile":
        """The profile s -> kappa(-s), the curvature seen by the
        time-reversed field along the reversed-intensity orbit."""
        if self.series is not None:
            refl = self.series.reflected()
            out = CurvatureProfile(evaluator=refl, k_bound=self.k_bound, series=refl)
            # frozen; like the propagator cache, the link is not a compared field
            object.__setattr__(out, "_mirror", self)
            return out
        ev = self.evaluator
        return CurvatureProfile(
            evaluator=lambda s: ev(-np.asarray(s, dtype=float)),
            k_bound=self.k_bound,
            t_min=-self.t_max,
            t_max=-self.t_min,
        )

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
    def from_orbit(orbit: OrbitTrace) -> "CurvatureProfile":
        """The not-a-knot cubic spline through the orbit's curvature samples
        (``_Spline``: O(h^4) between samples, exact at them), confined to
        the orbit window."""
        if len(orbit.t_samples) < 4:
            raise InsufficientDataError("need at least 4 samples for a cubic spline")
        return CurvatureProfile(
            evaluator=_Spline(orbit.t_samples, orbit.kappa_samples),
            k_bound=_k_bound(float(np.min(orbit.kappa_samples))),
            t_min=float(orbit.t_samples[0]),
            t_max=float(orbit.t_samples[-1]),
        )


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
