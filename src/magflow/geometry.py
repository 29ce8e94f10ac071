"""Surface models: ``SurfaceModel``, the one interface the certifier reads
of a surface, and its three implementations. Any class with the members
of ``SurfaceModel`` can be classified; no module decides by the class of a
model.

* ``ConstantCurvature`` - a closed oriented surface described only by its
  constant Gaussian curvature, constant magnetic intensity, Euler
  characteristic and area. Genus >= 2 surfaces enter this way; all the
  dynamics downstream depend only on the curvature seen along orbits, so
  no fundamental-domain geometry is needed, and one orbit stands for all.
* ``ConformalTorus`` - a flat-chart torus with metric exp(2*phi)*(dx^2+dy^2),
  where phi and the magnetic intensity b are finite Fourier series. All
  derivatives of the data are exact.
* ``AbstractProfile`` - no pointwise geometry at all, just a curvature
  profile t -> kappa(t) along a single notional orbit.

Chart convention for the torus: a unit tangent vector is stored as
(x, y, theta) with theta the Euclidean frame angle, so the velocity in
coordinates is exp(-phi)*(cos(theta), sin(theta)). That parameterization
has unit metric norm identically, and the equations of motion read

    x'     = exp(-phi) * cos(theta)
    y'     = exp(-phi) * sin(theta)
    theta' = b(x, y) + exp(-phi) * (phi_y * cos(theta) - phi_x * sin(theta))

The magnetic term contributes the constant-rate turning b; the remaining
terms are the Christoffel correction of the conformal metric folded into
the frame angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import InvalidProfileError, ResolutionError, UnsupportedQueryError
from .flow import CurvatureProfile, UnitTangent, integrate_orbit
from .fourier import FourierSeries1D, FourierSeries2D

GAUSS_BONNET_TOL = 1e-9
# the torus quadrature of the area, the Gauss-Bonnet residual and the
# inequality: tensor trapezoid from QUADRATURE_N0 points a side (or more for
# high modes), doubled until two grids agree within QUADRATURE_TOL, and a
# ResolutionError past QUADRATURE_NMAX
QUADRATURE_TOL = 1e-8
QUADRATURE_N0 = 128
QUADRATURE_NMAX = 2048
# the window on which an abstract profile's samples are checked before use
VALIDATION_WINDOW = (0.0, 100.0)


def rotate_i(v: UnitTangent) -> UnitTangent:
    """Rotate the velocity by +pi/2 in the surface orientation.

    In a conformal chart this is the Euclidean quarter turn of the frame
    angle, which preserves the metric norm exactly.
    """
    return UnitTangent(v.x, v.y, v.theta + 0.5 * math.pi)


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

    @staticmethod
    def of(lhs: float, chi: int) -> "InequalityResult":
        rhs = -2.0 * math.pi * chi + 0.0
        return InequalityResult(lhs=lhs, rhs=rhs, passes=lhs < rhs,
                                lambda_sq_max=rhs / lhs if lhs > 0 else None)


class SurfaceModel(Protocol):
    """What the certifier (``anosov.classify``) and ``flow.integrate_orbit``
    ask of a surface. Implementations must be picklable for parallel runs."""

    chi: Optional[int]  # Euler characteristic; None when unknown
    # True when the flow is hyperbolic in closed form, so that no witness
    # of a tiny sampled gap may refute it
    closed_form_hyperbolic: bool

    def rhs(self) -> Callable:
        """The orbit equations: a function of a list (x, y, theta) of floats
        returning the three derivatives, built once per orbit."""

    def reduce(self, v: UnitTangent) -> UnitTangent:
        """The deck step: v (arrays of samples) in the fundamental domain."""

    def magnetic_curvature(self, v: UnitTangent):
        """kappa at v, on scalars or on arrays of samples."""

    def inequality(self) -> Optional[InequalityResult]:
        """The averaged-intensity inequality; None where it does not apply."""

    def kappa_extrema(self) -> tuple:
        """(min, max) of kappa over a sample of the unit tangent bundle."""

    def ensemble(self, count: int, seed: int) -> list:
        """Start vectors of the sampled orbits (``UnitTangent``)."""

    def profile(self, v0: UnitTangent, horizon: float, tol: float,
                keep: bool) -> tuple:
        """(the curvature profile along the orbit from v0, its ``OrbitTrace``
        or None); ``keep`` asks for a trace even where the profile needs
        none."""

    def minus_profile(self, v0: UnitTangent, plus: CurvatureProfile,
                      horizon: float, tol: float) -> CurvatureProfile:
        """The time reflection of ``plus``: the curvature along the
        reversed-intensity orbit from the flipped vector."""


@dataclass(frozen=True)
class ConstantCurvature:
    """Closed oriented surface with constant curvature and intensity.

    The Gauss-Bonnet identity K*area = 2*pi*chi must hold, which pins the
    area once (K, chi) are chosen. The orbit equations are the zero field:
    the model has no chart, and the curvature readout is K + b**2 on all of
    the unit tangent bundle.
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

    @property
    def closed_form_hyperbolic(self) -> bool:
        # the schedule resolves a tiny gap only to about 1/r, so no witness
        # may refute K + b**2 < 0
        return self.K + self.b**2 < 0

    def rhs(self) -> Callable:
        return lambda state: (0.0, 0.0, 0.0)

    def reduce(self, v: UnitTangent) -> UnitTangent:
        return v

    def gaussian_curvature(self, x, y) -> float:
        return self.K

    def magnetic_curvature(self, v: UnitTangent):
        # db vanishes identically for constant intensity
        return self.K + self.b**2 + 0.0 * np.asarray(v.theta, dtype=float)

    def gauss_bonnet_residual(self) -> float:
        return abs(self.K * self.area - 2.0 * math.pi * self.chi)

    def inequality(self) -> InequalityResult:
        return InequalityResult.of(self.b**2 * self.area, self.chi)

    def kappa_extrema(self) -> tuple:
        k = self.K + self.b**2
        return k, k

    def ensemble(self, count: int, seed: int) -> list:
        # one orbit represents all: the curvature readout is constant on SM
        return [UnitTangent(0.0, 0.0, 0.0)]

    def profile(self, v0, horizon, tol, keep) -> tuple:
        trace = integrate_orbit(self, v0, horizon, tol) if keep else None
        return CurvatureProfile.constant(self.K + self.b**2), trace

    def minus_profile(self, v0, plus, horizon, tol) -> CurvatureProfile:
        return plus.flipped()


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


def _torus_grid_integral(model: "ConformalTorus", values: Callable, n: int) -> float:
    """Tensor trapezoid on one period cell; spectrally accurate for the
    periodic integrands used here."""
    xs = np.linspace(0.0, model.Lx, n, endpoint=False)
    ys = np.linspace(0.0, model.Ly, n, endpoint=False)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    F = values(X, Y)
    return float(np.sum(F) * (model.Lx / n) * (model.Ly / n))


def _refined_integral(model: "ConformalTorus", values) -> float:
    n = max(QUADRATURE_N0, 4 * model.phi.max_mode + 4, 4 * model.b.max_mode + 4)
    prev = _torus_grid_integral(model, values, n)
    while n < QUADRATURE_NMAX:
        n *= 2
        cur = _torus_grid_integral(model, values, n)
        if abs(cur - prev) < QUADRATURE_TOL:
            return cur
        prev = cur
    raise ResolutionError("quadrature did not reach tolerance %g by grid side %d"
                          % (QUADRATURE_TOL, QUADRATURE_NMAX))


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


@dataclass(frozen=True)
class ConformalTorus:
    """Torus with conformal factor phi and magnetic intensity b as
    Fourier series on a rectangle of periods (Lx, Ly). chi is zero.
    """

    phi: FourierSeries2D = field(default_factory=FourierSeries2D)
    b: FourierSeries2D = field(default_factory=FourierSeries2D)
    closed_form_hyperbolic = False

    def __post_init__(self):
        for s in (self.phi, self.b):
            data = (s.Lx, s.Ly, s.const, *s.cos_coeffs.values(), *s.sin_coeffs.values())
            if not all(math.isfinite(v) for v in data):
                raise ValueError("phi and b must have finite periods, constants "
                                 "and amplitudes")
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

    def rhs(self) -> Callable:
        """The orbit equations on a list (x, y, theta) of floats, evaluating
        phi and b with ``math`` from mode tables read once here."""
        p0, pm = float(self.phi.const), _scalar_modes(self.phi)
        b0, bm = float(self.b.const), _scalar_modes(self.b)
        exp, cos, sin = math.exp, math.cos, math.sin

        def rhs(state):
            x, y, theta = state
            p, px, py = _scalar_jet(p0, pm, x, y)
            e = exp(-p)
            c, s = cos(theta), sin(theta)
            return (e * c, e * s, _scalar_jet(b0, bm, x, y)[0] + e * (py * c - px * s))

        return rhs

    def reduce(self, v: UnitTangent) -> UnitTangent:
        """Exact period subtraction into the fundamental cell."""
        return UnitTangent(v.x - self.Lx * np.floor(v.x / self.Lx),
                           v.y - self.Ly * np.floor(v.y / self.Ly), v.theta)

    def gaussian_curvature(self, x, y):
        """-exp(-2*phi)*laplacian(phi), exact from the Fourier coefficients."""
        p, _px, _py, lap = self.phi.jet(x, y)
        return -np.exp(-2.0 * p) * lap

    def magnetic_curvature(self, v: UnitTangent):
        """K(x) - db(iv) + b(x)^2, where iv is the quarter turn of the unit
        velocity and db(iv) the derivative of the intensity along it, exact
        from the Fourier data; the fields of v may be arrays of samples."""
        p, _px, _py, lap = self.phi.jet(v.x, v.y)
        bval, bx, by, _lap = self.b.jet(v.x, v.y)
        # iv has chart components exp(-phi)*(-sin(theta), cos(theta))
        db_iv = np.exp(-p) * (-bx * np.sin(v.theta) + by * np.cos(v.theta))
        return -np.exp(-2.0 * p) * lap - db_iv + bval**2

    @property
    def area(self) -> float:
        return _refined_integral(self, lambda X, Y: np.exp(2.0 * self.phi(X, Y)))

    def gauss_bonnet_residual(self) -> float:
        """|integral of K - 2*pi*chi|. K*exp(2*phi) = -laplacian(phi), whose
        cell integral vanishes identically, so this is pure quadrature error."""
        return abs(_refined_integral(self, lambda X, Y: -self.phi.laplacian(X, Y)))

    def inequality(self) -> InequalityResult:
        return InequalityResult.of(
            _refined_integral(self, lambda X, Y: self.b(X, Y) ** 2 * np.exp(2.0 * self.phi(X, Y))),
            0)

    def kappa_extrema(self) -> tuple:
        """kappa on a 64 x 64 chart grid, taken exactly over the angle: kappa
        is K + b**2 - exp(-phi) (-b_x sin(theta) + b_y cos(theta)), whose
        extrema over theta are K + b**2 -+ exp(-phi) |grad b|."""
        n = 64
        xs = np.linspace(0.0, self.Lx, n, endpoint=False)
        ys = np.linspace(0.0, self.Ly, n, endpoint=False)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        p, _px, _py, lap = self.phi.jet(X, Y)
        bval, bx, by, _lap = self.b.jet(X, Y)
        base = -np.exp(-2.0 * p) * lap + bval**2
        spread = np.exp(-p) * np.hypot(bx, by)
        return float(np.min(base - spread)), float(np.max(base + spread))

    def ensemble(self, count: int, seed: int) -> list:
        """Halton points over chart x angle; the seed only offsets the
        starting index, so runs are reproducible."""
        return [UnitTangent(_halton(i, 2) * self.Lx, _halton(i, 3) * self.Ly,
                            _halton(i, 5) * 2.0 * math.pi)
                for i in range(seed + 1, seed + count + 1)]

    def flipped(self) -> "ConformalTorus":
        """The companion system with the sign of the intensity reversed."""
        b = self.b
        return ConformalTorus(self.phi, FourierSeries2D(
            Lx=b.Lx, Ly=b.Ly, const=-b.const,
            cos_coeffs={k: -v for k, v in b.cos_coeffs.items()},
            sin_coeffs={k: -v for k, v in b.sin_coeffs.items()},
        ))

    def profile(self, v0, horizon, tol, keep) -> tuple:
        trace = integrate_orbit(self, v0, horizon, tol)
        return CurvatureProfile.from_orbit(trace), trace

    def minus_profile(self, v0, plus, horizon, tol) -> CurvatureProfile:
        flipped = UnitTangent(v0.x, v0.y, v0.theta + math.pi)
        return self.flipped().profile(flipped, horizon, tol, False)[0]


@dataclass(frozen=True)
class AbstractProfile:
    """Model given only by a curvature profile along a notional orbit.

    ``kappa`` is a callable t -> curvature; ``k_bound`` is a declared k > 0
    with kappa(t) > -k_bound**2. The declaration is trusted after a sample
    validation on any queried window; no certified global minimum is
    computed. chi and area are optional metadata. The model has no orbit
    equations and no intensity field, so the integral inequality does not
    apply.
    """

    kappa: Callable[[float], float]
    k_bound: float
    chi: Optional[int] = None
    area: Optional[float] = None
    closed_form_hyperbolic = False

    def __post_init__(self):
        if self.k_bound < 0:
            raise ValueError("k_bound must be nonnegative")

    def curvature(self) -> CurvatureProfile:
        """kappa as a curvature profile. A Fourier series stays one, so the
        profile shifts and reflects exactly and is read in one array call;
        any other callable is called once per time."""
        kappa = self.kappa
        if isinstance(kappa, FourierSeries1D):
            return CurvatureProfile(evaluator=kappa, k_bound=self.k_bound, series=kappa)
        return CurvatureProfile(
            evaluator=lambda t: np.vectorize(kappa, otypes=[float])(t)
            if np.ndim(t) else float(kappa(float(t))),
            k_bound=self.k_bound,
        )

    def validate_window(self, t0: float, t1: float):
        """Minimum of 2048 samples of kappa on [t0, t1]; raises
        InvalidProfileError on a non-finite sample or a violated bound."""
        samples = self.curvature()(np.linspace(t0, t1, 2048))
        if not np.all(np.isfinite(samples)):
            raise InvalidProfileError("kappa is not finite on [%g, %g]" % (t0, t1))
        kmin = float(np.min(samples))
        if self.k_bound**2 + kmin <= -1e-12:
            raise InvalidProfileError(
                "declared k_bound violated on [%g, %g]: min kappa = %g" % (t0, t1, kmin)
            )
        return kmin

    def _no_geometry(self, *args):
        raise UnsupportedQueryError("abstract-profile models have no pointwise "
                                    "geometry and no orbit equations")

    rhs = reduce = gaussian_curvature = magnetic_curvature = _no_geometry
    gauss_bonnet_residual = _no_geometry

    def inequality(self) -> None:
        return None

    def kappa_extrema(self) -> tuple:
        """(min, max) of 4096 samples of kappa on [0, 100]."""
        vals = self.curvature()(np.linspace(0.0, 100.0, 4096))
        return float(np.min(vals)), float(np.max(vals))

    def ensemble(self, count: int, seed: int) -> list:
        # a profile model has only its one notional orbit
        return [UnitTangent(0.0, 0.0, 0.0)]

    def profile(self, v0, horizon, tol, keep) -> tuple:
        self.validate_window(*VALIDATION_WINDOW)
        return self.curvature(), None

    def minus_profile(self, v0, plus, horizon, tol) -> CurvatureProfile:
        return plus.flipped()
