"""Magnetic orbit integration and curvature profiles along orbits.

The equation of motion in the conformal chart, for state (x, y, theta)
with velocity exp(-phi)*(cos(theta), sin(theta)):

    x'     = exp(-phi) * cos(theta)
    y'     = exp(-phi) * sin(theta)
    theta' = b(x, y) + exp(-phi) * (phi_y * cos(theta) - phi_x * sin(theta))

The angle parameterization keeps the metric speed at one by construction,
so no renormalization step is ever needed. The magnetic term contributes
the constant-rate turning b; the remaining terms are the Christoffel
correction of the conformal metric folded into the frame angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InsufficientDataError, IntegrationFailure
from .fourier import FourierSeries1D
from .geometry import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    SurfaceModel,
    UnitTangent,
    VALIDATION_WINDOW,
    magnetic_curvature,
)

DEFAULT_TOL = 1e-10
SAMPLE_DT = 0.01
# right-hand-side evaluations one orbit integration may spend: the RK45 step
# shrinks like 1/|b|, so a strong field would otherwise run without end. A
# horizon-200 orbit of the benchmark torus takes at most ~32,000.
ORBIT_NFEV_BUDGET = 500_000
# added under the square root of every k_bound read from sampled minima
K_MARGIN = 1e-9


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
                fh.writelines(",".join(row) + "\r\n" for row in zip(*block))


def _wrap(u, period):
    return u - period * np.floor(u / period)


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
_ERROR_EXPONENT = -1 / 5


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / math.sqrt(len(v))


def _rk45(f: Callable, y0, t_end: float, t_eval: np.ndarray, tol: float):
    """Integrate the autonomous system y' = f(y) from y0 at time 0 to t_end
    and read it at the increasing times ``t_eval`` in [0, t_end].

    ``f`` maps a list of floats to a sequence of floats. The step control is
    scipy's RK45 with rtol = atol = tol (Hairer, Norsett and Wanner, Solving
    ODEs I, sec. II.4): the first step from ``select_initial_step``, the RMS
    error norm scaled by tol + tol * max(|y|, |y_new|), and step factors
    0.9 * err**(-1/5) clipped to [0.2, 10], with no growth right after a
    rejection. The stage sums run on Python floats, so the results agree
    with scipy's to roundoff, not bitwise. Raises ``IntegrationFailure``
    when the step falls below 10 ulp(t), when the error estimate is not
    finite, or before an attempt would take the right-hand-side evaluations
    past ``ORBIT_NFEV_BUDGET``. Returns the samples, shape (len(y0),
    len(t_eval)), and the step statistics.
    """
    budget = ORBIT_NFEV_BUDGET
    y = [float(v) for v in y0]
    k1 = f(y)
    # select_initial_step
    scale = [tol + abs(v) * tol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([k / sc for k, sc in zip(k1, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = f([v + h0 * k for v, k in zip(y, k1)])
    d2 = _rms([(a - k) / sc for a, k, sc in zip(f1, k1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end)
    nfev, accepted, rejected = 2, 0, 0

    t, ends, steps = 0.0, [], []
    while t < t_end:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        after_rejection = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailure(
                    "orbit integration failed: the step size fell below the "
                    "spacing of floats at t = %.6g" % t, last_time=t)
            if nfev + 6 > budget:
                raise IntegrationFailure(
                    "orbit integration would exceed %d right-hand-side "
                    "evaluations at t = %.6g" % (budget, t), last_time=t)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            k2 = f([v + (_A21 * a) * h for v, a in zip(y, k1)])
            k3 = f([v + (_A31 * a + _A32 * b) * h for v, a, b in zip(y, k1, k2)])
            k4 = f([v + (_A41 * a + _A42 * b + _A43 * c) * h
                    for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = f([v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                    for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = f([v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                    for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(y_new)
            nfev += 6
            err = _rms([(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
                        * h / (tol + max(abs(v), abs(w)) * tol)
                        for v, w, a, c, d, e, g, k
                        in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                if after_rejection:
                    factor = min(1, factor)
                h_abs *= factor
                break
            if not math.isfinite(err):
                raise IntegrationFailure(
                    "orbit integration failed: non-finite error estimate at "
                    "t = %.6g" % t, last_time=t)
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            after_rejection = True
            rejected += 1
        ends.append(t_new)
        steps.append((t, h, y, (k1, k3, k4, k5, k6, k7)))
        accepted += 1
        t, y, k1 = t_new, y_new, k7

    # each sample is read from the dense output of the first step that ends
    # at or after it
    idx = np.searchsorted(ends, t_eval, side="left")
    t0, hs, y_old, ks = (np.array(c) for c in zip(*steps))
    q = np.einsum("ksj,sr->rjk", ks, _P)  # (4, components, steps)
    hs = hs[idx]
    p = np.cumprod(np.tile((t_eval - t0[idx]) / hs, (4, 1)), axis=0)  # x, ..., x**4
    ys = hs * sum(q[r][:, idx] * p[r] for r in range(4)) + y_old[idx].T
    return ys, {"nfev": nfev, "accepted_steps": accepted, "rejected_steps": rejected}


def _scalar_modes(series) -> tuple:
    """The modes of a FourierSeries2D as (2 pi m / Lx, 2 pi n / Ly, a, b)
    float tuples, for evaluation with ``math`` on scalars."""
    return tuple((2.0 * math.pi * m / series.Lx, 2.0 * math.pi * n / series.Ly,
                  float(a), float(b)) for m, n, a, b in series.modes)


def _scalar_jet(const: float, modes: tuple, x: float, y: float):
    """(f, df/dx, df/dy) at the point (x, y) from ``_scalar_modes``."""
    f, fx, fy = const, 0.0, 0.0
    for kx, ky, a, b in modes:
        w = kx * x + ky * y
        c, s = math.cos(w), math.sin(w)
        f += a * c + b * s
        d = b * c - a * s
        fx += kx * d
        fy += ky * d
    return f, fx, fy


def _torus_rhs(model: ConformalTorus) -> Callable:
    """The orbit equations of a torus on a list (x, y, theta) of floats."""
    p0, pm = float(model.phi.const), _scalar_modes(model.phi)
    b0, bm = float(model.b.const), _scalar_modes(model.b)
    exp, cos, sin = math.exp, math.cos, math.sin

    def rhs(state):
        x, y, theta = state
        p, px, py = _scalar_jet(p0, pm, x, y)
        e = exp(-p)
        c, s = cos(theta), sin(theta)
        return (e * c, e * s, _scalar_jet(b0, bm, x, y)[0] + e * (py * c - px * s))

    return rhs


def integrate_orbit(
    model: SurfaceModel,
    v0: UnitTangent,
    horizon: float,
    tol: float = DEFAULT_TOL,
) -> OrbitTrace:
    """Integrate the magnetic orbit from v0 for the given time horizon.

    Uses the adaptive Dormand-Prince 5(4) pair of ``_rk45`` at rtol = atol
    = tol; samples are read from its dense output on a uniform grid of
    spacing ``SAMPLE_DT``. Torus coordinates are wrapped into the
    fundamental cell by exact period subtraction at readout, so no drift
    accumulates in the stored samples. Past ``ORBIT_NFEV_BUDGET``
    right-hand-side evaluations the integration stops with an
    ``IntegrationFailure``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = int(round(horizon / SAMPLE_DT))
    t_eval = np.linspace(0.0, horizon, n + 1)

    if isinstance(model, ConstantCurvature):
        # no chart motion is defined for the constant model; the curvature
        # readout is the same at every sample
        kappa = model.K + model.b**2
        return OrbitTrace(
            t_samples=t_eval,
            xs=np.full(n + 1, v0.x),
            ys=np.full(n + 1, v0.y),
            thetas=np.full(n + 1, v0.theta),
            kappa_samples=np.full(n + 1, kappa),
            step_controls={"tol": tol, "sample_dt": SAMPLE_DT, "degenerate": True},
        )

    if not isinstance(model, ConformalTorus):
        raise ValueError("orbit integration needs a chart model")

    samples, stats = _rk45(_torus_rhs(model), (v0.x, v0.y, v0.theta), horizon,
                           t_eval, tol)
    xs_w = _wrap(samples[0], model.Lx)
    ys_w = _wrap(samples[1], model.Ly)
    thetas = samples[2].copy()
    return OrbitTrace(
        t_samples=t_eval,
        xs=xs_w,
        ys=ys_w,
        thetas=thetas,
        kappa_samples=magnetic_curvature(model, UnitTangent(xs_w, ys_w, thetas)),
        step_controls={"tol": tol, "sample_dt": SAMPLE_DT, **stats},
    )


def flip_intensity(model: SurfaceModel) -> SurfaceModel:
    """The companion system with the sign of the intensity reversed."""
    if isinstance(model, ConstantCurvature):
        return ConstantCurvature(model.K, -model.b, model.chi, model.area)
    if isinstance(model, ConformalTorus):
        neg_b = type(model.b)(
            Lx=model.b.Lx,
            Ly=model.b.Ly,
            const=-model.b.const,
            cos_coeffs={k: -v for k, v in model.b.cos_coeffs.items()},
            sin_coeffs={k: -v for k, v in model.b.sin_coeffs.items()},
        )
        return ConformalTorus(model.phi, neg_b)
    raise ValueError("abstract-profile models carry no intensity field")


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature along an orbit as a function of time.

    ``evaluator`` accepts scalars or arrays. ``k_bound`` is a k >= 0 with
    kappa(t) > -k_bound**2 on the usable window [t_min, t_max]. Profiles
    built from exact data (constants, Fourier series) have infinite
    windows and shift and reflect exactly; spline profiles are confined
    to their orbit window.
    """

    evaluator: Callable
    k_bound: float
    t_min: float = -math.inf
    t_max: float = math.inf
    series: Optional[FourierSeries1D] = None
    const_value: Optional[float] = None
    # jacobi.propagator's cache: the profile's fundamental-matrix propagator
    _propagator: Optional[object] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __call__(self, t):
        return self.evaluator(t)

    @property
    def is_constant(self) -> bool:
        return self.const_value is not None

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
        if self.const_value is not None:
            return self
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
        if self.const_value is not None:
            return self
        if self.series is not None:
            refl = self.series.reflected()
            return CurvatureProfile(evaluator=refl, k_bound=self.k_bound, series=refl)
        ev = self.evaluator
        return CurvatureProfile(
            evaluator=lambda s: ev(-np.asarray(s, dtype=float)),
            k_bound=self.k_bound,
            t_min=-self.t_max,
            t_max=-self.t_min,
        )

    @staticmethod
    def constant(value: float) -> "CurvatureProfile":
        return CurvatureProfile(
            evaluator=lambda t: value + 0.0 * np.asarray(t, dtype=float),
            k_bound=_k_bound(value),
            const_value=value,
        )

    @staticmethod
    def from_series(series: FourierSeries1D) -> "CurvatureProfile":
        return CurvatureProfile(
            evaluator=series, k_bound=_k_bound(series.sampled_min()), series=series
        )


def _k_bound(kmin: float) -> float:
    """A k with kappa > -k**2 for a curvature whose (sampled) minimum is kmin."""
    return math.sqrt(max(0.0, -kmin) + K_MARGIN)


def curvature_profile(model: SurfaceModel,
                      orbit: Optional[OrbitTrace]) -> CurvatureProfile:
    """Build the curvature evaluator along an orbit.

    Constant models give a constant profile. Orbit traces are interpolated
    with a cubic spline through the sampled curvature (O(h^4) between
    samples, exact at the samples). Abstract-profile models pass the user
    evaluator through after validating the declared bound; a Fourier
    series stays one, so the profile shifts and reflects exactly.
    """
    if isinstance(model, ConstantCurvature):
        return CurvatureProfile.constant(model.K + model.b**2)
    if isinstance(model, AbstractProfile):
        model.validate_window(*VALIDATION_WINDOW)
        if isinstance(model.kappa, FourierSeries1D):
            return CurvatureProfile(evaluator=model.kappa, k_bound=model.k_bound,
                                    series=model.kappa)
        return CurvatureProfile(
            evaluator=lambda t: np.vectorize(model.kappa, otypes=[float])(t)
            if np.ndim(t) else float(model.kappa(float(t))),
            k_bound=model.k_bound,
        )
    if orbit is None:
        raise ValueError("chart models need an orbit trace")
    if len(orbit.t_samples) < 4:
        raise InsufficientDataError("need at least 4 samples for a cubic spline")
    spline = CubicSpline(orbit.t_samples, orbit.kappa_samples)
    return CurvatureProfile(
        evaluator=spline,
        k_bound=_k_bound(float(np.min(orbit.kappa_samples))),
        t_min=float(orbit.t_samples[0]),
        t_max=float(orbit.t_samples[-1]),
    )
