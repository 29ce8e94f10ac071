"""Surface models: ``SurfaceModel``, the one interface the certifier reads
of a surface, and its three implementations. Any class with the members
of ``SurfaceModel`` can be classified; no module decides by the class of a
model.

* ``ConstantCurvature`` - a closed oriented surface described only by its
  constant Gaussian curvature, constant magnetic intensity, Euler
  characteristic and area. Genus >= 2 surfaces enter this way; all the
  dynamics downstream depend only on the curvature seen along orbits, so
  the model has no chart and no orbit equations, and one profile stands
  for all.
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

from .errors import InvalidProfileError, ResolutionError
from .flow import CurvatureProfile, UnitTangent, _Pointwise
from .fourier import FourierSeries1D, FourierSeries2D

GAUSS_BONNET_TOL = 1e-9
# the torus quadrature of the inequality: tensor trapezoid from
# QUADRATURE_N0 points a side (or more for high modes), doubled until two
# grids agree within QUADRATURE_TOL, and a ResolutionError past
# QUADRATURE_NMAX
QUADRATURE_TOL = 1e-8
QUADRATURE_N0 = 128
QUADRATURE_NMAX = 2048
# the window on which an abstract profile's samples are checked before use
VALIDATION_WINDOW = (0.0, 100.0)


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
    """What the certifier (``anosov.classify``) asks of a surface: these five
    members and no other. A chart model (``ConformalTorus``) also gives
    ``flow.integrate_orbit`` the members its docstring names; it is the only
    kind with orbits. Implementations must be picklable for parallel runs."""

    chi: Optional[int]  # Euler characteristic; None when unknown

    def inequality(self) -> Optional[InequalityResult]:
        """The averaged-intensity inequality; None where it does not apply."""

    def kappa_extrema(self) -> tuple:
        """(min, max) of kappa over a sample of the unit tangent bundle."""

    def ensemble(self, count: int, seed: int) -> list:
        """Start vectors of the sampled orbits (``UnitTangent``)."""

    def profile(self, v0: UnitTangent, horizon: float) -> tuple:
        """(the curvature profile along the orbit from v0, its
        ``OrbitTrace``); the trace is None for a model without orbits. A
        chart orbit's profile reads both legs, each only as far as it is
        read (``CurvatureProfile.from_orbit``), its reflection the backward
        leg; the trace is the forward leg's, which ``OrbitTrace.finish`` ends."""


@dataclass(frozen=True)
class ConstantCurvature:
    """Closed oriented surface with constant curvature and intensity.

    The Gauss-Bonnet identity K*area = 2*pi*chi must hold, which pins the
    area once (K, chi) are chosen. The model has no chart and no orbit
    equations: the curvature readout is K + b**2 on all of the unit tangent
    bundle.
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
        if not math.isfinite((abs(self.K) + self.b * self.b) * max(1.0, self.area)):
            raise ValueError("b = %g takes K + b**2 or b**2 * area past the doubles" % self.b)
        residual = self.K * self.area - 2.0 * math.pi * self.chi
        if abs(residual) > GAUSS_BONNET_TOL:
            raise ValueError(
                "inconsistent constant model: K*area - 2*pi*chi = %g" % residual
            )

    def inequality(self) -> InequalityResult:
        return InequalityResult.of(self.b**2 * self.area, self.chi)

    def kappa_extrema(self) -> tuple:
        k = self.K + self.b**2
        return k, k

    def ensemble(self, count: int, seed: int) -> list:
        # one orbit represents all: the curvature readout is constant on SM
        return [UnitTangent(0.0, 0.0, 0.0)]

    def profile(self, v0, horizon) -> tuple:
        return CurvatureProfile.constant(self.K + self.b**2), None


def _scalar_modes(series) -> tuple:
    """The modes of a FourierSeries2D as (2 pi m / Lx, 2 pi n / Ly, a, b)
    float tuples, for evaluation with ``math`` on scalars."""
    return tuple((2.0 * math.pi * m / series.Lx, 2.0 * math.pi * n / series.Ly,
                  float(a), float(b)) for m, n, a, b in series.modes)


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

    def __post_init__(self):
        for s in (self.phi, self.b):
            data = (s.Lx, s.Ly, s.const, *s.cos_coeffs.values(), *s.sin_coeffs.values())
            if not all(math.isfinite(v) for v in data):
                raise ValueError("phi and b must have finite periods, constants "
                                 "and amplitudes")
        if self.phi.Lx != self.b.Lx or self.phi.Ly != self.b.Ly:
            raise ValueError("phi and b must share the same periods")
        extent = abs(self.phi.const) + sum(math.hypot(a, b) for *_mn, a, b in self.phi.modes)
        if not 2.0 * extent < math.log(np.finfo(float).max):
            raise ValueError("phi reaches |phi| = %g, where exp(2 |phi|) overflows" % extent)

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
        """The orbit equations on three floats (x, y, theta), returning the
        three derivatives. phi's value and gradient and b's value are summed
        in one pass each with ``math``, from mode tables read once here."""
        p0, pm = float(self.phi.const), _scalar_modes(self.phi)
        b0, bm = float(self.b.const), _scalar_modes(self.b)
        exp, cos, sin = math.exp, math.cos, math.sin

        def rhs(x, y, theta):
            p, px, py = p0, 0.0, 0.0
            for kx, ky, a, b in pm:
                w = kx * x + ky * y
                c, s = cos(w), sin(w)
                p += a * c + b * s
                d = b * c - a * s
                px += kx * d
                py += ky * d
            bv = b0
            for kx, ky, a, b in bm:
                w = kx * x + ky * y
                bv += a * cos(w) + b * sin(w)
            e = exp(-p)
            c, s = cos(theta), sin(theta)
            return (e * c, e * s, bv + e * (py * c - px * s))

        return rhs

    def reduce(self, v: UnitTangent) -> UnitTangent:
        """Exact period subtraction into the fundamental cell."""
        return UnitTangent(v.x - self.Lx * np.floor(v.x / self.Lx),
                           v.y - self.Ly * np.floor(v.y / self.Ly), v.theta)

    def magnetic_curvature(self, v: UnitTangent):
        """K(x) - db(iv) + b(x)^2, where iv is the quarter turn of the unit
        velocity and db(iv) the derivative of the intensity along it, exact
        from the Fourier data; the fields of v may be arrays of samples."""
        p, _px, _py, lap = self.phi.jet(v.x, v.y)
        bval, bx, by, _lap = self.b.jet(v.x, v.y)
        # iv has chart components exp(-phi)*(-sin(theta), cos(theta))
        db_iv = np.exp(-p) * (-bx * np.sin(v.theta) + by * np.cos(v.theta))
        return -np.exp(-2.0 * p) * lap - db_iv + bval**2

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

    def profile(self, v0, horizon) -> tuple:
        """The profile of the orbit from v0 on [-horizon, horizon]
        (``CurvatureProfile.from_orbit``: each leg integrated only as far as
        it is read, plus ``flow.SPLINE_MARGIN``) and the forward leg's trace,
        whose ``finish`` integrates the rest."""
        p = CurvatureProfile.from_orbit(self, v0, horizon)
        return p, p.evaluator.ahead.trace


@dataclass(frozen=True)
class AbstractProfile:
    """Model given only by a curvature profile along a notional orbit.

    ``kappa`` is a callable t -> curvature; ``k_bound`` is a declared k > 0
    with kappa(t) >= -k_bound**2. The declaration is trusted after a sample
    validation on any queried window; no certified global minimum is
    computed. chi is optional metadata. The model has no orbit
    equations and no intensity field, so the integral inequality does not
    apply.
    """

    kappa: Callable[[float], float]
    k_bound: float
    chi: Optional[int] = None

    def __post_init__(self):
        if not (self.k_bound >= 0 and math.isfinite(self.k_bound * self.k_bound)):
            raise ValueError("k_bound must be nonnegative with a finite square: %r" % self.k_bound)

    def curvature(self) -> CurvatureProfile:
        """kappa as a curvature profile. A Fourier series stays one, so the
        profile shifts and reflects exactly; any other callable is called
        once per time, on a Python number, each value read by ``float``
        (``flow._Pointwise``): a list of times reads as a list, which is
        the Jacobi launch's read, and an array as a float array of its
        shape (0-d for a scalar), the values bitwise what
        ``np.vectorize(kappa, otypes=[float])`` reads."""
        kappa = self.kappa
        if isinstance(kappa, FourierSeries1D):
            return CurvatureProfile(evaluator=kappa, k_bound=self.k_bound, series=kappa)
        return CurvatureProfile(
            evaluator=_Pointwise(lambda ts: [float(kappa(s)) for s in ts]),
            k_bound=self.k_bound,
        )

    def validate_window(self, t0: float, t1: float):
        """Minimum of 2048 samples of kappa on [t0, t1]; raises
        InvalidProfileError on a sample that ``float`` cannot read, a
        non-finite sample (an overflowing sum included, read without a
        warning) or a violated bound."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                samples = self.curvature()(np.linspace(t0, t1, 2048))
        except (TypeError, ValueError) as exc:
            raise InvalidProfileError("kappa is not a real number on [%g, %g]: %s"
                                      % (t0, t1, exc)) from None
        if not np.all(np.isfinite(samples)):
            raise InvalidProfileError("kappa is not finite on [%g, %g]" % (t0, t1))
        kmin = float(np.min(samples))
        if self.k_bound**2 + kmin <= -1e-12:
            raise InvalidProfileError(
                "declared k_bound violated on [%g, %g]: min kappa = %g" % (t0, t1, kmin)
            )
        return kmin

    def inequality(self) -> None:
        return None

    def kappa_extrema(self) -> tuple:
        """(min, max) of 4096 samples of kappa on [0, 100]; NaN where a
        sample is no real number, and a non-finite value where the sum
        overflows, which ``validate_window`` reports."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                vals = self.curvature()(np.linspace(0.0, 100.0, 4096))
        except (TypeError, ValueError):
            return math.nan, math.nan
        return float(np.min(vals)), float(np.max(vals))

    def ensemble(self, count: int, seed: int) -> list:
        # a profile model has only its one notional orbit
        return [UnitTangent(0.0, 0.0, 0.0)]

    def profile(self, v0, horizon) -> tuple:
        self.validate_window(*VALIDATION_WINDOW)
        return self.curvature(), None
