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

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "theta", "kappa"])
            for i, t in enumerate(self.t_samples):
                writer.writerow(
                    [repr(float(t)), repr(float(self.xs[i])), repr(float(self.ys[i])),
                     repr(float(self.thetas[i])), repr(float(self.kappa_samples[i]))]
                )


def _wrap(u, period):
    return u - period * np.floor(u / period)


def integrate_orbit(
    model: SurfaceModel,
    v0: UnitTangent,
    horizon: float,
    tol: float = DEFAULT_TOL,
) -> OrbitTrace:
    """Integrate the magnetic orbit from v0 for the given time horizon.

    Uses an adaptive embedded Runge-Kutta pair with dense output; samples
    are taken on a uniform grid of spacing ``SAMPLE_DT``. Torus coordinates
    are wrapped into the fundamental cell by exact period subtraction at
    readout, so no drift accumulates in the stored samples.
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

    phi, b = model.phi, model.b

    def rhs(_t, state):
        x, y, theta = state
        p, px, py, _lap = phi.jet(x, y)
        e = math.exp(-float(p))
        c, s = math.cos(theta), math.sin(theta)
        dtheta = float(b(x, y)) + e * (float(py) * c - float(px) * s)
        return [e * c, e * s, dtheta]

    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        [v0.x, v0.y, v0.theta],
        method="RK45",
        rtol=tol,
        atol=tol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationFailure(
            "orbit integration failed: %s" % sol.message,
            last_time=float(sol.t[-1]) if len(sol.t) else 0.0,
        )

    xs_w = _wrap(sol.y[0], model.Lx)
    ys_w = _wrap(sol.y[1], model.Ly)
    thetas = sol.y[2].copy()
    return OrbitTrace(
        t_samples=t_eval,
        xs=xs_w,
        ys=ys_w,
        thetas=thetas,
        kappa_samples=magnetic_curvature(model, UnitTangent(xs_w, ys_w, thetas)),
        step_controls={"tol": tol, "sample_dt": SAMPLE_DT, "nfev": sol.nfev},
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

    @staticmethod
    def from_callable(fn: Callable, k_bound: float) -> "CurvatureProfile":
        return CurvatureProfile(evaluator=fn, k_bound=k_bound)


def _k_bound(kmin: float) -> float:
    """A k with kappa > -k**2 for a curvature whose (sampled) minimum is kmin."""
    return math.sqrt(max(0.0, -kmin) + K_MARGIN)


def curvature_profile(model: SurfaceModel,
                      orbit: Optional[OrbitTrace] = None) -> CurvatureProfile:
    """Build the curvature evaluator along an orbit.

    Constant models give a constant profile. Orbit traces are interpolated
    with a cubic spline through the sampled curvature (O(h^4) between
    samples, exact at the samples). Abstract-profile models pass the user
    evaluator through after validating the declared bound.
    """
    if isinstance(model, ConstantCurvature):
        return CurvatureProfile.constant(model.K + model.b**2)
    if isinstance(model, AbstractProfile):
        model.validate_window(*VALIDATION_WINDOW)
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
