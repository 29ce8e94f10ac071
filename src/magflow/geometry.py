"""Surface models, the quarter-turn complex structure, and curvature.

Three model kinds are supported:

* ``ConstantCurvature`` - a closed oriented surface described only by its
  constant Gaussian curvature, constant magnetic intensity, Euler
  characteristic and area. Genus >= 2 surfaces enter this way; all the
  dynamics downstream depend only on the curvature seen along orbits, so
  no fundamental-domain geometry is needed.
* ``ConformalTorus`` - a flat-chart torus with metric exp(2*phi)*(dx^2+dy^2),
  where phi and the magnetic intensity b are finite Fourier series. All
  derivatives of the data are exact.
* ``AbstractProfile`` - no pointwise geometry at all, just a curvature
  profile t -> kappa(t) along a single notional orbit.

Chart convention for the torus: a unit tangent vector is stored as
(x, y, theta) with theta the Euclidean frame angle, so the velocity in
coordinates is exp(-phi)*(cos(theta), sin(theta)). That parameterization
has unit metric norm identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidProfileError, ResolutionError, UnsupportedQueryError
from .fourier import FourierSeries2D

GAUSS_BONNET_TOL = 1e-9
# the window on which an abstract profile's samples are checked before use
VALIDATION_WINDOW = (0.0, 100.0)


@dataclass(frozen=True)
class UnitTangent:
    """A unit tangent vector (x, y, theta) in the conformal chart."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0


def rotate_i(v: UnitTangent) -> UnitTangent:
    """Rotate the velocity by +pi/2 in the surface orientation.

    In a conformal chart this is the Euclidean quarter turn of the frame
    angle, which preserves the metric norm exactly.
    """
    return UnitTangent(v.x, v.y, v.theta + 0.5 * math.pi)


@dataclass(frozen=True)
class ConstantCurvature:
    """Closed oriented surface with constant curvature and intensity.

    The Gauss-Bonnet identity K*area = 2*pi*chi must hold, which pins the
    area once (K, chi) are chosen.
    """

    K: float
    b: float
    chi: int
    area: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.K, self.b, self.area)):
            raise ValueError("K, b and area must be finite")
        if self.area <= 0:
            raise ValueError("area must be positive")
        residual = self.K * self.area - 2.0 * math.pi * self.chi
        if abs(residual) > GAUSS_BONNET_TOL:
            raise ValueError(
                "inconsistent constant model: K*area - 2*pi*chi = %g" % residual
            )


@dataclass(frozen=True)
class ConformalTorus:
    """Torus with conformal factor phi and magnetic intensity b as
    Fourier series on a rectangle of periods (Lx, Ly). chi is zero.
    """

    phi: FourierSeries2D = field(default_factory=FourierSeries2D)
    b: FourierSeries2D = field(default_factory=FourierSeries2D)

    def __post_init__(self):
        if self.phi.Lx != self.b.Lx or self.phi.Ly != self.b.Ly:
            raise ValueError("phi and b must share the same periods")

    @property
    def Lx(self):
        return self.phi.Lx

    @property
    def Ly(self):
        return self.phi.Ly

    @property
    def chi(self):
        return 0


@dataclass(frozen=True)
class AbstractProfile:
    """Model given only by a curvature profile along a notional orbit.

    ``kappa`` is a callable t -> curvature; ``k_bound`` is a declared k > 0
    with kappa(t) > -k_bound**2. The declaration is trusted after a sample
    validation on any queried window; no certified global minimum is
    computed. chi and area are optional metadata.
    """

    kappa: Callable[[float], float]
    k_bound: float
    chi: Optional[int] = None
    area: Optional[float] = None

    def __post_init__(self):
        if self.k_bound < 0:
            raise ValueError("k_bound must be nonnegative")

    def validate_window(self, t0: float, t1: float):
        """Minimum of 2048 samples of kappa on [t0, t1]; raises
        InvalidProfileError on a non-finite sample or a violated bound."""
        t = np.linspace(t0, t1, 2048)
        samples = np.array([self.kappa(float(s)) for s in t], dtype=float)
        if not np.all(np.isfinite(samples)):
            raise InvalidProfileError("kappa is not finite on [%g, %g]" % (t0, t1))
        kmin = float(np.min(samples))
        if self.k_bound**2 + kmin <= -1e-12:
            raise InvalidProfileError(
                "declared k_bound violated on [%g, %g]: min kappa = %g" % (t0, t1, kmin)
            )
        return kmin


SurfaceModel = ConstantCurvature | ConformalTorus | AbstractProfile


def gaussian_curvature(model: SurfaceModel, x: float = 0.0, y: float = 0.0) -> float:
    """Gaussian curvature at a chart point.

    For the conformal torus this is -exp(-2*phi)*laplacian(phi), evaluated
    exactly from the Fourier coefficients.
    """
    if isinstance(model, ConstantCurvature):
        return model.K
    if isinstance(model, ConformalTorus):
        p, _px, _py, lap = model.phi.jet(x, y)
        return -np.exp(-2.0 * p) * lap
    raise UnsupportedQueryError("abstract-profile models have no pointwise geometry")


def magnetic_curvature(model: SurfaceModel, v: UnitTangent) -> float:
    """Curvature coefficient of the transverse linearization at v.

    Equals K(x) - db(iv) + b(x)^2, where iv is the quarter turn of the unit
    velocity and db(iv) is the derivative of the intensity in that
    direction, computed exactly from Fourier data. On a chart model the
    fields of v may be arrays of samples; the result is then an array.
    """
    if isinstance(model, ConstantCurvature):
        # db vanishes identically for constant intensity
        return model.K + model.b**2
    if isinstance(model, ConformalTorus):
        K = gaussian_curvature(model, v.x, v.y)
        bval, bx, by, _lap = model.b.jet(v.x, v.y)
        # iv has chart components exp(-phi)*(-sin(theta), cos(theta))
        db_iv = np.exp(-model.phi(v.x, v.y)) * (-bx * np.sin(v.theta)
                                                 + by * np.cos(v.theta))
        return K - db_iv + bval**2
    raise UnsupportedQueryError("abstract-profile models have no pointwise geometry")


def _torus_grid_integral(model: ConformalTorus, values: Callable, n: int) -> float:
    """Tensor trapezoid on one period cell; spectrally accurate for the
    periodic integrands used here."""
    xs = np.linspace(0.0, model.Lx, n, endpoint=False)
    ys = np.linspace(0.0, model.Ly, n, endpoint=False)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    F = values(X, Y)
    return float(np.sum(F) * (model.Lx / n) * (model.Ly / n))


def _refined_integral(model: ConformalTorus, values, tol=1e-8, n0=128, nmax=2048):
    n = max(n0, 4 * model.phi.max_mode + 4, 4 * model.b.max_mode + 4)
    prev = _torus_grid_integral(model, values, n)
    while n < nmax:
        n *= 2
        cur = _torus_grid_integral(model, values, n)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise ResolutionError(
        "quadrature did not reach tolerance %g by grid side %d" % (tol, nmax)
    )


def total_area(model: SurfaceModel, tol: float = 1e-8) -> float:
    if isinstance(model, ConstantCurvature):
        return model.area
    if isinstance(model, ConformalTorus):
        return _refined_integral(model, lambda X, Y: np.exp(2.0 * model.phi(X, Y)), tol)
    if model.area is not None:
        return model.area
    raise UnsupportedQueryError("abstract-profile model carries no area metadata")


def gauss_bonnet_residual(model: SurfaceModel) -> float:
    """|integral of K over the surface - 2*pi*chi|.

    Closed form for the constant model; tensor trapezoid quadrature with
    grid doubling for the torus. For the torus the area form is
    exp(2*phi) dx dy and K*exp(2*phi) = -laplacian(phi), whose cell
    integral vanishes identically, so the residual measures pure
    quadrature error.
    """
    if isinstance(model, ConstantCurvature):
        return abs(model.K * model.area - 2.0 * math.pi * model.chi)
    if isinstance(model, ConformalTorus):
        total = _refined_integral(model, lambda X, Y: -model.phi.laplacian(X, Y))
        return abs(total - 2.0 * math.pi * model.chi)
    raise UnsupportedQueryError("abstract-profile models have no pointwise geometry")


@dataclass(frozen=True)
class InequalityResult:
    """Outcome of the averaged-intensity necessary condition.

    ``lhs`` is the integral of b^2 over the surface, ``rhs`` is -2*pi*chi.
    ``passes`` requires the strict inequality lhs < rhs. When lhs > 0 the
    admissible scaling window lambda^2 < rhs/lhs is reported too.
    """

    lhs: float
    rhs: float
    passes: bool
    lambda_sq_max: Optional[float] = None


def integral_inequality_check(model: SurfaceModel) -> InequalityResult:
    """Necessary condition for hyperbolicity: the surface-averaged squared
    intensity must be strictly less than -2*pi*chi. Fails for chi >= 0."""
    if isinstance(model, ConstantCurvature):
        lhs = model.b**2 * model.area
        chi = model.chi
    elif isinstance(model, ConformalTorus):
        lhs = _refined_integral(
            model, lambda X, Y: model.b(X, Y) ** 2 * np.exp(2.0 * model.phi(X, Y))
        )
        chi = 0
    else:
        if model.chi is None:
            raise UnsupportedQueryError("abstract-profile model carries no chi metadata")
        raise UnsupportedQueryError("abstract-profile models have no intensity field")
    rhs = -2.0 * math.pi * chi + 0.0
    lam2 = rhs / lhs if lhs > 0 else None
    return InequalityResult(lhs=lhs, rhs=rhs, passes=lhs < rhs, lambda_sq_max=lam2)
