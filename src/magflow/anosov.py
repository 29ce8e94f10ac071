"""The hyperbolicity certifier.

Verdict logic over a sampled orbit ensemble:

* ``NotAnosov`` as soon as a structural obstruction is confirmed: Euler
  characteristic >= 0, failure of the strict averaged-intensity
  inequality, a conjugate point on any sampled orbit, or a collapsed
  transversality gap confirmed by a bounded transverse field.
* ``NumericallyAnosov`` only when every sampled orbit has a converged
  transversality gap above the margin, the stable contraction fit
  succeeds everywhere, and the integral inequality passes (or does not
  apply for profile-only models).
* ``Inconclusive`` otherwise, carrying the reason.

The output is a numerical certificate over finitely many orbits with
explicit margins, never a proof: the per-point quantifier over the whole
unit tangent bundle is approximated by a low-discrepancy ensemble, plus
the exactness of constant models where one orbit profile represents all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__ as _pkg_version
from .errors import ConjugatePointError, MagflowError
from .flow import CurvatureProfile, curvature_profile, flip_intensity, integrate_orbit
from .geometry import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    SurfaceModel,
    UnitTangent,
    integral_inequality_check,
)
from .green import GreenEstimate, green_both, green_slope
from .jacobi import JacobiState, first_zero, integrate_jacobi, unit_slope_trace

SCHEMA_VERSION = 1

# fixed analysis windows and thresholds; the witness ones are reported in
# AnosovReport.margins
CONJUGATE_HORIZON = 50.0   # end of the conjugate scan and the kappa sampling
WITNESS_WINDOW = 50.0      # bounded-field witness on [-window, window]
WITNESS_BOUND = 1e3        # sup-norm a witness must stay below
CONTRACTION_WINDOW = 10.0  # contraction fit on [1, window]
CONTRACTION_FLOOR = 1e-6   # fitted rates at or below it fail the fit
NEGATIVITY_EPS = 1e-8


def first_conjugate_time(profile: CurvatureProfile, horizon: float) -> Optional[float]:
    """First time where the unit-slope solution returns to zero, or None."""
    return first_zero(profile, horizon)


def transversality_gap(profile: CurvatureProfile) -> dict:
    """Difference of unstable and stable slopes at time zero."""
    est = green_both(profile)
    return {"gap": est.gap, "converged": est.converged, "estimate": est}


@dataclass
class Witness:
    """A candidate nontrivial bounded transverse field."""

    sup_norm: float
    slope_used: float
    window: float
    t_samples: np.ndarray
    values: np.ndarray


def bounded_jacobi_witness(
    profile: CurvatureProfile,
    tol: float = 1e-4,
    estimate=None,
) -> Optional[Witness]:
    """Search for a nontrivial bounded transverse field.

    When the transversality gap falls below ``tol`` the stable and
    unstable lines coincide to working accuracy, and integrating the
    stable direction across [-WITNESS_WINDOW, WITNESS_WINDOW] exhibits the
    bounded field directly. With a healthy gap no direction can stay bounded in both
    time directions (only the stable line is bounded forward and only the
    unstable line backward), so None is returned.
    """
    est = estimate if estimate is not None else green_both(profile)
    if not est.converged:
        raise ValueError("witness search needs converged slope estimates")
    if est.gap >= tol:
        return None
    window = WITNESS_WINDOW
    trace_f = integrate_jacobi(profile, JacobiState(1.0, est.u_plus0), (0.0, window))
    trace_b = integrate_jacobi(profile, JacobiState(1.0, est.u_plus0), (0.0, -window))
    ts_f = np.linspace(0.0, window, 501)
    ts_b = np.linspace(-window, 0.0, 501)
    vals = np.concatenate([trace_b.values(ts_b), trace_f.values(ts_f)])
    ts = np.concatenate([ts_b, ts_f])
    return Witness(
        sup_norm=float(np.max(np.abs(vals))),
        slope_used=est.u_plus0,
        window=window,
        t_samples=ts,
        values=vals,
    )


@dataclass
class ContractionFit:
    """Exponential-decay fit of the stable solution's Sasaki norm."""

    c: float
    d: float
    fit_residual: float
    norm_end: float
    success: bool


def contraction_fit(
    profile: CurvatureProfile,
    window: float = CONTRACTION_WINDOW,
    estimate=None,
) -> ContractionFit:
    """Fit norm(t) ~ d * exp(-c t) for the stable solution on [1, window].

    The norm is the Sasaki norm sqrt(J^2 + J'^2) of the solution launched
    with value one and the stable slope. A fitted rate at or below
    ``CONTRACTION_FLOOR`` is a certification failure (no usable contraction;
    the flat case fits c ~ 0). The window should stay well below the
    double-precision mixing horizon ~ -log(slope error)/(2k), past which
    the unstable component contaminates the launch.
    """
    est = estimate if estimate is not None else green_slope(profile, "+")
    if est.plus is None or not est.plus.converged:
        raise ValueError("contraction fit needs a converged stable slope")
    u0 = est.u_plus0
    trace = integrate_jacobi(profile, JacobiState(1.0, u0), (0.0, window))
    ts = np.linspace(1.0, window, 181)
    norms = np.hypot(trace.values(ts), trace.derivs(ts))
    logn = np.log(norms)
    slope, intercept = np.polyfit(ts, logn, 1)
    c = -float(slope)
    resid = float(np.sqrt(np.mean((logn - (intercept + slope * ts)) ** 2)))
    ts_all = np.linspace(0.0, window, 201)
    norms_all = np.hypot(trace.values(ts_all), trace.derivs(ts_all))
    if c > 0:
        d = float(np.max(norms_all * np.exp(c * ts_all)))
        d = max(d, 1.0)
    else:
        d = float(np.max(norms_all))
    return ContractionFit(
        c=c, d=d, fit_residual=resid,
        norm_end=float(np.hypot(*[float(v) for v in
                                  (trace.at(window).value, trace.at(window).deriv)])),
        success=c > CONTRACTION_FLOOR,
    )


def growth_floor(profile: CurvatureProfile, window: float = 20.0) -> float:
    """Empirical lower constant A for |Z(t)| >= A |Z(s)|, 1 <= s <= t,
    computed from the unit-slope solution Z on [1, window]."""
    trace = unit_slope_trace(profile, window)
    ts = np.linspace(1.0, window, 400)
    vals = np.abs(trace.values(ts))
    running_max = np.maximum.accumulate(vals)
    return float(np.min(vals / running_max))


def sampled_kappa_extrema(model: SurfaceModel) -> tuple:
    """(min, max) of the curvature function over a sample of the unit
    tangent bundle (a 64 x 64 chart grid times 128 angles on a torus);
    exact for constant models."""
    n = 64
    if isinstance(model, ConstantCurvature):
        k = model.K + model.b**2
        return k, k
    if isinstance(model, ConformalTorus):
        xs = np.linspace(0.0, model.Lx, n, endpoint=False)
        ys = np.linspace(0.0, model.Ly, n, endpoint=False)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        K = -np.exp(-2.0 * model.phi(X, Y)) * model.phi.laplacian(X, Y)
        bval = model.b(X, Y) + 0.0 * X
        scale = np.exp(-model.phi(X, Y))
        bx, by = model.b.dx(X, Y) + 0.0 * X, model.b.dy(X, Y) + 0.0 * X
        base = K + bval**2
        lo, hi = math.inf, -math.inf
        for th in np.linspace(0.0, 2.0 * math.pi, 2 * n, endpoint=False):
            vals = base - scale * (-bx * math.sin(th) + by * math.cos(th))
            lo = min(lo, float(np.min(vals)))
            hi = max(hi, float(np.max(vals)))
        return lo, hi
    ts = np.linspace(0.0, 100.0, 4096)
    vals = np.array([model.kappa(float(t)) for t in ts])
    return float(np.min(vals)), float(np.max(vals))


def profile_extrema(profile: CurvatureProfile) -> tuple:
    """(min, max) of 1001 samples of the profile on [0, CONJUGATE_HORIZON]
    (cut at the profile's window end)."""
    ts = np.linspace(0.0, min(CONJUGATE_HORIZON, profile.t_max), 1001)
    kv = np.asarray(profile.evaluator(ts), dtype=float)
    return float(np.min(kv)), float(np.max(kv))


def negativity_criterion(model: SurfaceModel, kappa_mins: list) -> dict:
    """Nonpositive-curvature criterion: with curvature <= 0 everywhere,
    hyperbolicity holds exactly when every orbit meets strictly negative
    curvature. ``kappa_mins`` holds each orbit's sampled minimum
    (``profile_extrema``), None for an orbit without one. ``applicable``
    when the sampled global max is <= NEGATIVITY_EPS; ``passes`` when
    additionally there are orbits and every minimum is below
    -NEGATIVITY_EPS."""
    _lo, hi = sampled_kappa_extrema(model)
    applicable = hi <= NEGATIVITY_EPS
    passes = (applicable and len(kappa_mins) > 0
              and all(m is not None and m < -NEGATIVITY_EPS for m in kappa_mins))
    return {"applicable": applicable, "passes": passes}


@dataclass
class SamplingConfig:
    """Knobs for the ensemble certifier; defaults match the report schema."""

    ensemble_count: int = 64
    seed: int = 0
    horizon: float = 200.0
    integration_tol: float = 1e-10
    green_tol: float = 1e-9
    gap_margin: float = 1e-4
    check_inequality: bool = True
    check_conjugate: bool = True
    check_gaps: bool = True
    check_contraction: bool = True
    check_negativity: bool = True


@dataclass
class OrbitResult:
    orbit_id: int
    initial: tuple
    conjugate_time: Optional[float] = None
    u_plus: Optional[float] = None
    u_minus: Optional[float] = None
    gap: Optional[float] = None
    gap_converged: bool = False
    gap_residuals: tuple = ()
    witness_sup: Optional[float] = None
    contraction: Optional[ContractionFit] = None
    kappa_min: Optional[float] = None
    kappa_max: Optional[float] = None
    growth_A: Optional[float] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        d = {
            "orbit_id": self.orbit_id,
            "initial": list(self.initial),
            "conjugate_time": self.conjugate_time,
            "u_plus": self.u_plus,
            "u_minus": self.u_minus,
            "gap": self.gap,
            "gap_converged": self.gap_converged,
            "witness_sup": self.witness_sup,
            "kappa_min": self.kappa_min,
            "kappa_max": self.kappa_max,
            "growth_A": self.growth_A,
            "error": self.error,
        }
        if self.contraction is not None:
            d["contraction"] = {
                "c": self.contraction.c,
                "d": self.contraction.d,
                "fit_residual": self.contraction.fit_residual,
                "success": self.contraction.success,
            }
        else:
            d["contraction"] = None
        return d


@dataclass
class AnosovReport:
    verdict: str
    reason: str
    inequality: Optional[dict]
    negativity: Optional[dict]
    orbits: list
    margins: dict
    non_converged: list = field(default_factory=list)

    def to_dict(self) -> dict:
        import numpy as _np
        import scipy as _sp

        return {
            "schema_version": SCHEMA_VERSION,
            "verdict": self.verdict,
            "reason": self.reason,
            "inequality": self.inequality,
            "negativity": self.negativity,
            "orbits": [o.to_dict() for o in self.orbits],
            "margins": self.margins,
            "non_converged": self.non_converged,
            "tool_versions": {
                "magflow": _pkg_version,
                "numpy": _np.__version__,
                "scipy": _sp.__version__,
            },
        }


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def ensemble_states(model: SurfaceModel, count: int, seed: int) -> list:
    """Low-discrepancy initial conditions over chart x angle.

    A Halton sequence keeps runs reproducible; the seed only offsets the
    starting index."""
    if isinstance(model, (ConstantCurvature, AbstractProfile)):
        # one orbit represents all: the curvature readout is constant on SM,
        # and a profile model has only its one notional orbit
        return [UnitTangent(0.0, 0.0, 0.0)]
    out = []
    for j in range(count):
        i = seed + j + 1
        out.append(
            UnitTangent(
                _halton(i, 2) * model.Lx,
                _halton(i, 3) * model.Ly,
                _halton(i, 5) * 2.0 * math.pi,
            )
        )
    return out


def _orbit_profile(model: SurfaceModel, v0: UnitTangent, cfg: SamplingConfig):
    """Curvature profile along the orbit from v0; only chart models
    integrate an orbit for it."""
    if not isinstance(model, ConformalTorus):
        return curvature_profile(model)
    orbit = integrate_orbit(model, v0, cfg.horizon, cfg.integration_tol)
    return curvature_profile(model, orbit)


def analyze_orbit(model: SurfaceModel, v0: UnitTangent, orbit_id: int,
                  cfg: SamplingConfig) -> OrbitResult:
    """Full per-orbit pipeline: conjugate scan, gap, witness, contraction."""
    res = OrbitResult(orbit_id=orbit_id, initial=(v0.x, v0.y, v0.theta))
    try:
        plus = _orbit_profile(model, v0, cfg)
        res.kappa_min, res.kappa_max = profile_extrema(plus)

        if cfg.check_conjugate:
            res.conjugate_time = first_conjugate_time(
                plus, min(CONJUGATE_HORIZON, plus.t_max)
            )
            if res.conjugate_time is not None:
                return res

        if cfg.check_gaps:
            # the minus profile, read along the reversed-intensity orbit from
            # the flipped vector, is the time reflection of the plus one, so
            # its stable side is the unstable side at the orbit's base point
            if isinstance(model, ConformalTorus):
                minus = _orbit_profile(flip_intensity(model), UnitTangent(
                    v0.x, v0.y, v0.theta + math.pi), cfg)
            else:
                minus = plus.flipped()
            try:
                est = GreenEstimate(
                    k_bound=plus.k_bound,
                    plus=green_slope(plus, "+", tol=cfg.green_tol).plus,
                    minus=green_slope(minus, "+", tol=cfg.green_tol).plus.reflected(),
                )
            except ConjugatePointError as exc:
                res.conjugate_time = exc.conjugate_time
                return res
            res.u_plus, res.u_minus, res.gap = est.u_plus0, est.u_minus0, est.gap
            res.gap_converged = est.converged
            res.gap_residuals = (est.plus.residual, est.minus.residual)
            res.growth_A = growth_floor(plus, min(20.0, plus.t_max))

            if res.gap_converged and res.gap < cfg.gap_margin:
                wit = bounded_jacobi_witness(plus, tol=cfg.gap_margin, estimate=est)
                if wit is not None:
                    res.witness_sup = wit.sup_norm

            if cfg.check_contraction and res.gap_converged and res.gap >= cfg.gap_margin:
                res.contraction = contraction_fit(plus, estimate=est)
    except MagflowError as exc:
        res.error = "%s: %s" % (type(exc).__name__, exc)
    return res


def classify(model: SurfaceModel, cfg: Optional[SamplingConfig] = None,
             workers: int = 1) -> AnosovReport:
    """Run the full certification pipeline and aggregate the verdict."""
    cfg = cfg or SamplingConfig()

    inequality = None
    chi = getattr(model, "chi", None)
    if cfg.check_inequality and not isinstance(model, AbstractProfile):
        r = integral_inequality_check(model)
        inequality = {
            "lhs": r.lhs, "rhs": r.rhs, "passes": r.passes,
            "lambda_sq_max": r.lambda_sq_max,
        }

    states = ensemble_states(model, cfg.ensemble_count, cfg.seed)
    jobs = list(enumerate(states))
    if workers > 1 and len(jobs) > 1:
        results = _parallel_orbits(model, jobs, cfg, workers)
    else:
        results = [analyze_orbit(model, v0, i, cfg) for i, v0 in jobs]
    results.sort(key=lambda r: r.orbit_id)

    negativity = None
    if cfg.check_negativity:
        negativity = negativity_criterion(model, [r.kappa_min for r in results])

    margins = {
        "gap_margin": cfg.gap_margin,
        "green_tol": cfg.green_tol,
        "witness_window": WITNESS_WINDOW,
        "witness_bound": WITNESS_BOUND,
        "ensemble_count": len(states),
        "seed": cfg.seed,
        "horizon": cfg.horizon,
    }

    errors = [r for r in results if r.error is not None]
    non_converged = [r.orbit_id for r in results
                     if r.conjugate_time is None and r.gap is not None
                     and not r.gap_converged]

    verdict, reason = _verdict(model, chi, inequality, results, negativity,
                               cfg, errors, non_converged)
    return AnosovReport(
        verdict=verdict, reason=reason, inequality=inequality,
        negativity=negativity, orbits=results, margins=margins,
        non_converged=non_converged,
    )


def _verdict(model, chi, inequality, results, negativity, cfg, errors,
             non_converged):
    if chi is not None and chi >= 0:
        return "NotAnosov", "euler characteristic >= 0"
    if inequality is not None and not inequality["passes"]:
        return "NotAnosov", "integral inequality fails (lhs >= rhs)"
    conj = [r for r in results if r.conjugate_time is not None]
    if conj:
        return "NotAnosov", "conjugate point at t = %.9g on orbit %d" % (
            conj[0].conjugate_time, conj[0].orbit_id,
        )
    collapsed = [
        r for r in results
        if r.gap is not None and r.gap_converged and r.gap < cfg.gap_margin
        and r.witness_sup is not None and r.witness_sup <= WITNESS_BOUND
    ]
    if collapsed:
        return "NotAnosov", (
            "transversality gap %.3g below margin with bounded field witness "
            "(sup = %.6g) on orbit %d"
            % (collapsed[0].gap, collapsed[0].witness_sup, collapsed[0].orbit_id)
        )
    if errors:
        return "Inconclusive", errors[0].error
    if non_converged:
        return "Inconclusive", "slope schedule did not converge on orbits %s" % (
            non_converged[:8],
        )
    if not results:
        return "Inconclusive", "empty orbit ensemble"
    gaps_ok = all(
        r.gap is not None and r.gap_converged and r.gap > cfg.gap_margin
        for r in results
    )
    if not gaps_ok:
        bad = [r.orbit_id for r in results
               if r.gap is None or not r.gap_converged or r.gap <= cfg.gap_margin]
        return "Inconclusive", "gap margin not established on orbits %s" % bad[:8]
    if cfg.check_contraction:
        contraction_ok = all(
            r.contraction is not None and r.contraction.success for r in results
        )
        if not contraction_ok:
            bad = [r.orbit_id for r in results
                   if r.contraction is None or not r.contraction.success]
            return "Inconclusive", "contraction fit failed on orbits %s" % bad[:8]
    return "NumericallyAnosov", (
        "all %d sampled orbits: converged gap > %g, stable contraction confirmed"
        % (len(results), cfg.gap_margin)
    )


def _parallel_orbits(model, jobs, cfg, workers):
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    try:
        pickle.dumps((model, cfg))
    except Exception:
        return [analyze_orbit(model, v0, i, cfg) for i, v0 in jobs]
    args = [(model, v0, i, cfg) for i, v0 in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_orbit_job, args))


def _orbit_job(args):
    model, v0, i, cfg = args
    return analyze_orbit(model, v0, i, cfg)
