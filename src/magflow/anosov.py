"""The hyperbolicity certifier.

Verdict logic over a sampled orbit ensemble:

* ``NotAnosov`` as soon as a structural obstruction is confirmed: Euler
  characteristic >= 0, failure of the strict averaged-intensity
  inequality, a conjugate point on any sampled orbit, or a collapsed
  transversality gap (within UNRESOLVED_GAP_TOLS * DEFAULT_GREEN_TOL of
  zero) confirmed by a bounded transverse field.
* ``NumericallyAnosov`` only when every sampled orbit has a converged
  transversality gap above GAP_MARGIN, the stable contraction fit
  succeeds everywhere, and the integral inequality passes (or does not
  apply for profile-only models).
* ``Inconclusive`` otherwise, carrying the reason: a recorded error on
  an orbit or in the inequality quadrature, a schedule that did not
  converge, or a gap resolved from zero but below the margin.

The output is a numerical certificate over finitely many orbits with
explicit margins, never a proof: the per-point quantifier over the whole
unit tangent bundle is approximated by a low-discrepancy ensemble, plus
the exactness of constant models where one orbit profile represents all.
A periodic profile whose monodromy decides it once the reads reach its
period (``jacobi.floquet``) has its slopes and contraction rate read from
that one period's integration, exact to its error; the rest, long periods
included, are read from the doubling schedule, the fitted rate and the scans.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__ as _pkg_version
from .errors import ConjugatePointError, InsufficientDataError, MagflowError
from .flow import SAMPLE_DT, CurvatureProfile, OrbitTrace, UnitTangent
from .geometry import SurfaceModel
from .green import DEFAULT_GREEN_TOL, GreenEstimate, green_slope
from .jacobi import JacobiState, first_zero, floquet, integrate_jacobi, propagator

SCHEMA_VERSION = 1

# fixed analysis windows and thresholds; the gap margin, the slope-schedule
# tolerance and the witness ones are reported in AnosovReport.margins
CONJUGATE_HORIZON = 50.0   # end of the conjugate scan and the kappa sampling
GAP_MARGIN = 1e-4          # a certified gap exceeds it
WITNESS_WINDOW = 50.0      # bounded-field witness on [-window, window]
WITNESS_BOUND = 1e3        # sup-norm a witness must stay below
CONTRACTION_WINDOW = 10.0  # fit on [W / 10, W], W = this / max(1, |u+|)
GROWTH_WINDOW = 20.0       # growth floor of Z on [1, this]
CONTRACTION_FLOOR = 1e-6   # fitted rates at or below it fail the fit
NEGATIVITY_EPS = 1e-8
# a witness refutes only a gap within this many DEFAULT_GREEN_TOL of zero; a
# larger gap is resolved from zero, and below the margin it is Inconclusive
UNRESOLVED_GAP_TOLS = 10.0


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
    minus: CurvatureProfile,
    estimate: GreenEstimate,
) -> Optional[Witness]:
    """Search for a nontrivial bounded transverse field.

    When the transversality gap of ``estimate`` falls below ``GAP_MARGIN`` the
    stable and unstable lines coincide to working accuracy, and the stable
    direction integrated across [-WITNESS_WINDOW, WITNESS_WINDOW] exhibits
    the bounded field directly. The backward half is read forward along
    ``minus``, the time reflection of ``profile`` (for a chart model the
    backward leg of the same orbit), where the slope changes sign. With a
    healthy gap no direction can stay bounded in both time directions (only
    the stable line is bounded forward and only the unstable line
    backward), so None is returned.

    None is returned too where the profile's certified ``kappa_ceiling`` K+
    is negative: the cone u = 0 is then strictly invariant, and by Riccati
    comparison the two slopes stay at least 2 sqrt(-K+) apart, so a gap
    read below the margin is the schedule's resolution limit (about 1/r on a
    nearly flat profile), not a collapse.
    """
    if not estimate.converged:
        raise ValueError("witness search needs converged slope estimates")
    if estimate.gap >= GAP_MARGIN or profile.kappa_ceiling < 0:
        return None
    window, u0 = WITNESS_WINDOW, estimate.u_plus0
    trace_f = integrate_jacobi(profile, JacobiState(1.0, u0), (0.0, window))
    trace_b = integrate_jacobi(minus, JacobiState(1.0, -u0), (0.0, window))
    ts_f = np.linspace(0.0, window, 501)
    ts_b = np.linspace(-window, 0.0, 501)
    vals = np.concatenate([trace_b.values(-ts_b), trace_f.values(ts_f)])
    ts = np.concatenate([ts_b, ts_f])
    return Witness(
        sup_norm=float(np.max(np.abs(vals))),
        slope_used=u0,
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


def contraction_fit(profile: CurvatureProfile,
                    estimate: GreenEstimate) -> ContractionFit:
    """Fit norm(t) ~ d * exp(-c t) for the stable solution on [W / 10, W].

    The norm is the Sasaki norm sqrt(J^2 + J'^2) of the solution with
    value one and the stable slope u+ of ``estimate``, read from the
    profile's propagator (``integrate_jacobi``). A periodic profile whose
    monodromy the schedule read and found decisive (``floquet`` at horizon
    0) takes the exact rate c = log lambda_u / T, fitting only the intercept
    and residual; others, a long period converged on before T too, fit c.
    A rate at or below ``CONTRACTION_FLOOR`` is a certification failure (no
    usable contraction; the flat case fits c ~ 0). On a constant profile the
    window end W = CONTRACTION_WINDOW / max(1, |u+|) stays below the
    double-precision mixing horizon ~ -log(slope error)/(2|u+|), past which
    the unstable component contaminates the solution; a spline or callable
    profile that turns more hyperbolic after t = 0 can reach that horizon
    before W. Where a norm on [0, W] reads exactly zero, the solution is
    lost to the cancellation of its terms, and ``InsufficientDataError``
    names the first such time.
    """
    if estimate.plus is None or not estimate.plus.converged:
        raise ValueError("contraction fit needs a converged stable slope")
    u0 = estimate.u_plus0
    window = CONTRACTION_WINDOW / max(1.0, abs(u0))
    trace = integrate_jacobi(profile, JacobiState(1.0, u0), (0.0, window))
    ts = np.linspace(window / 10.0, window, 181)
    ts_all = np.linspace(0.0, window, 201)
    # one read of the dense output for the fit and the bound
    t_read = np.concatenate([ts, ts_all])
    norms = np.hypot(*trace.states(t_read))
    lost = norms == 0.0
    if lost.any():
        raise InsufficientDataError(
            "the stable solution is lost to cancellation at t = %g: its norm "
            "reads 0" % np.min(t_read[lost]))
    logn, norms_all = np.log(norms[:ts.size]), norms[ts.size:]
    hill = floquet(profile, 0.0)
    if hill is None:
        slope, intercept = np.polyfit(ts, logn, 1)
        c = -float(slope)
    else:
        c = hill.log_growth / hill.period
        intercept = np.mean(logn + c * ts)
    resid = float(np.sqrt(np.mean((logn - (intercept - c * ts)) ** 2)))
    if c > 0:
        d = float(np.max(norms_all * np.exp(c * ts_all)))
        d = max(d, 1.0)
    else:
        d = float(np.max(norms_all))
    return ContractionFit(
        c=c, d=d, fit_residual=resid, norm_end=float(norms_all[-1]),
        success=c > CONTRACTION_FLOOR,
    )


def growth_floor(profile: CurvatureProfile, window: float) -> float:
    """Empirical lower constant A for |Z(t)| >= A |Z(s)|, 1 <= s <= t,
    computed from the unit-slope solution Z on [1, window].

    Z is read in the propagator's stored scale, as ``Propagator.carry``
    reads it, and each |Z| is split into a mantissa m in [0.5, 1) and a
    binary exponent f. The running maximum is taken in (f, m) order and
    each ratio as m / m_max * 2**(f - f_max), so the ratios are those of
    the unscaled values bit for bit, and stay finite where Z overflows.
    """
    ts = np.linspace(1.0, window, 400)
    (_a, _da, z, _dz), e = propagator(profile)._stored(ts)
    m, f = np.frexp(np.abs(z))
    f = np.where(m > 0.0, f + e, np.iinfo(int).min // 2)
    order = np.lexsort((m, f))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    top = order[np.maximum.accumulate(rank)]
    return float(np.min(np.ldexp(m / m[top], f - f[top])))


def profile_extrema(profile: CurvatureProfile) -> tuple:
    """(min, max) of 1001 samples of the profile on [0, CONJUGATE_HORIZON]
    (cut at the profile's window end): the read that takes an orbit
    profile's orbit to CONJUGATE_HORIZON plus ``flow.SPLINE_MARGIN``, where
    the analysis of an orbit with an early conjugate point stops."""
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
    _lo, hi = model.kappa_extrema()
    applicable = hi <= NEGATIVITY_EPS
    passes = (applicable and len(kappa_mins) > 0
              and all(m is not None and m < -NEGATIVITY_EPS for m in kappa_mins))
    return {"applicable": applicable, "passes": passes}


@dataclass
class SamplingConfig:
    """The ensemble the certifier samples; defaults match the report
    schema. The tolerances and the gap margin are module constants."""

    ensemble_count: int = 64
    seed: int = 0
    horizon: float = 200.0

    def __post_init__(self):
        """Reject a config no classification can honour with one
        ValueError whose message leads with the field: an ensemble_count
        that is not an integer >= 1, a seed that is not an integer >= 0, a
        horizon that is not a finite positive number, or a horizon whose
        sample grid is too long."""
        for name, least in (("ensemble_count", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < least):
                raise ValueError("%s must be an integer >= %d, got %r" % (name, least, value))
        horizon = self.horizon
        if not (isinstance(horizon, numbers.Real) and math.isfinite(horizon) and horizon > 0):
            raise ValueError("horizon must be positive and finite, got %r" % (horizon,))
        if self.horizon / SAMPLE_DT >= np.iinfo(np.intp).max:
            raise ValueError("horizon %r has too many orbit samples to index" % self.horizon)


@dataclass
class OrbitResult:
    orbit_id: int
    initial: tuple
    conjugate_time: Optional[float] = None
    u_plus: Optional[float] = None
    u_minus: Optional[float] = None
    gap: Optional[float] = None
    gap_converged: bool = False
    witness_sup: Optional[float] = None
    contraction: Optional[ContractionFit] = None
    kappa_min: Optional[float] = None
    kappa_max: Optional[float] = None
    growth_A: Optional[float] = None
    error: Optional[str] = None
    # the plus orbit, kept only for export and never serialized
    trace: Optional[OrbitTrace] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The report entry: every field but ``trace``, and the contraction
        fit without ``norm_end``. Not ``asdict``, which would deep-copy the
        trace arrays."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}
        d["initial"] = list(self.initial)
        if self.contraction is not None:
            d["contraction"] = {f.name: getattr(self.contraction, f.name)
                                for f in fields(ContractionFit) if f.name != "norm_end"}
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
        """Every field, each orbit as its ``OrbitResult.to_dict``, plus the
        schema version and the tool versions."""
        import scipy as _sp

        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["orbits"] = [o.to_dict() for o in self.orbits]
        d["schema_version"] = SCHEMA_VERSION
        d["tool_versions"] = {"magflow": _pkg_version, "numpy": np.__version__,
                              "scipy": _sp.__version__}
        return d


def analyze_orbit(model: SurfaceModel, v0: UnitTangent, orbit_id: int,
                  cfg: SamplingConfig, keep_trace: bool) -> OrbitResult:
    """Full per-orbit pipeline: conjugate scan, gap, witness, contraction.
    With ``keep_trace`` the result carries the plus orbit's trace, if any,
    as far as the analysis integrated it (``classify`` finishes it).

    Every stage reads the one profile the model gives. A chart model's
    orbit is integrated only as far as the stages read it, plus
    ``flow.SPLINE_MARGIN``: to CONJUGATE_HORIZON for the extrema, to the end
    of each Jacobi segment the scan and the schedules launch. The minus
    profile, ``plus.flipped()``, is read only once the plus schedule has
    ended without a conjugate point: a chart orbit's backward leg is
    integrated as far as its schedule and the witness read. So no
    integration past what the analysis reads can fail it."""
    res = OrbitResult(orbit_id=orbit_id, initial=(v0.x, v0.y, v0.theta))
    try:
        plus, trace = model.profile(v0, cfg.horizon)
        if keep_trace:
            res.trace = trace
        res.kappa_min, res.kappa_max = profile_extrema(plus)

        res.conjugate_time = first_zero(plus, min(CONJUGATE_HORIZON, plus.t_max))
        if res.conjugate_time is not None:
            return res

        try:
            stable = green_slope(plus, "+").plus
            # the minus profile is the time reflection of the plus one, so
            # its stable side is the unstable side at the orbit's base point
            minus = plus.flipped()
            est = GreenEstimate(plus=stable,
                                minus=green_slope(minus, "+").plus.reflected())
        except ConjugatePointError as exc:
            res.conjugate_time = exc.conjugate_time
            return res
        res.u_plus, res.u_minus, res.gap = est.u_plus0, est.u_minus0, est.gap
        res.gap_converged = est.converged
        res.growth_A = growth_floor(plus, min(GROWTH_WINDOW, plus.t_max))

        if res.gap_converged and res.gap < GAP_MARGIN:
            wit = bounded_jacobi_witness(plus, minus, est)
            if wit is not None:
                res.witness_sup = wit.sup_norm
        elif res.gap_converged:
            res.contraction = contraction_fit(plus, est)
    except MagflowError as exc:
        res.error = "%s: %s" % (type(exc).__name__, exc)
    return res


def _orbit_job(model: SurfaceModel, v0: UnitTangent, orbit_id: int,
               cfg: SamplingConfig, keep_trace: bool) -> OrbitResult:
    """``classify``'s job for one orbit: ``analyze_orbit``, then a kept
    trace integrated on to the horizon, in the same process. A failure there
    drops the trace and is the orbit's error, as it would have been had the
    orbit been integrated to the horizon first."""
    res = analyze_orbit(model, v0, orbit_id, cfg, keep_trace)
    if res.trace is not None:
        try:
            res.trace.finish()
        except MagflowError as exc:
            res.trace, res.error = None, "%s: %s" % (type(exc).__name__, exc)
    return res


def classify(model: SurfaceModel, cfg: Optional[SamplingConfig] = None,
             workers: int = 1, keep_traces: int = 0) -> AnosovReport:
    """Run the full certification pipeline and aggregate the verdict. The
    orbits with id below ``keep_traces`` keep their ``OrbitResult.trace``,
    integrated to the horizon: each is finished after its analysis, which
    integrated it only as far as it read, so the trace is that of one run
    to the horizon whatever the analysis read."""
    cfg = cfg or SamplingConfig()

    try:
        r = model.inequality()
        inequality = None if r is None else asdict(r)
    except MagflowError as exc:
        inequality = {
            "lhs": None, "rhs": None, "passes": None, "lambda_sq_max": None,
            "error": "%s: %s" % (type(exc).__name__, exc),
        }

    states = model.ensemble(cfg.ensemble_count, cfg.seed)
    jobs = [(model, v0, i, cfg, i < keep_traces) for i, v0 in enumerate(states)]
    results = _map_jobs(_orbit_job, jobs, workers)

    negativity = negativity_criterion(model, [r.kappa_min for r in results])

    margins = {
        "gap_margin": GAP_MARGIN,
        "green_tol": DEFAULT_GREEN_TOL,
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

    verdict, reason = _verdict(model.chi, inequality, results, errors, non_converged)
    return AnosovReport(
        verdict=verdict, reason=reason, inequality=inequality,
        negativity=negativity, orbits=results, margins=margins,
        non_converged=non_converged,
    )


def _verdict(chi, inequality, results, errors, non_converged):
    if chi is not None and chi >= 0:
        return "NotAnosov", "euler characteristic >= 0"
    ineq_error = inequality.get("error") if inequality is not None else None
    if inequality is not None and ineq_error is None and not inequality["passes"]:
        return "NotAnosov", "integral inequality fails (lhs >= rhs)"
    conj = [r for r in results if r.conjugate_time is not None]
    if conj:
        return "NotAnosov", "conjugate point at t = %.9g on orbit %d" % (
            conj[0].conjugate_time, conj[0].orbit_id,
        )
    collapsed = [
        r for r in results
        if r.gap is not None and r.gap_converged and r.gap < GAP_MARGIN
        and r.gap <= UNRESOLVED_GAP_TOLS * DEFAULT_GREEN_TOL
        and r.witness_sup is not None and r.witness_sup <= WITNESS_BOUND
    ]
    if collapsed:
        return "NotAnosov", (
            "transversality gap %.3g below margin with bounded field witness "
            "(sup = %.6g) on orbit %d"
            % (collapsed[0].gap, collapsed[0].witness_sup, collapsed[0].orbit_id)
        )
    if ineq_error is not None:
        return "Inconclusive", "integral inequality: %s" % ineq_error
    if errors:
        return "Inconclusive", errors[0].error
    if non_converged:
        return "Inconclusive", "slope schedule did not converge on orbits %s" % (
            non_converged[:8],
        )
    if not results:
        return "Inconclusive", "empty orbit ensemble"
    bad = [r.orbit_id for r in results
           if not (r.gap is not None and r.gap_converged and r.gap > GAP_MARGIN)]
    if bad:
        return "Inconclusive", "gap margin not established on orbits %s" % bad[:8]
    bad = [r.orbit_id for r in results
           if r.contraction is None or not r.contraction.success]
    if bad:
        return "Inconclusive", "contraction fit failed on orbits %s" % bad[:8]
    return "NumericallyAnosov", (
        "all %d sampled orbits: converged gap > %g, stable contraction confirmed"
        % (len(results), GAP_MARGIN)
    )


def _map_jobs(fn, jobs, workers):
    """[fn(*job) for job in jobs], in that order: in a pool of ``workers``
    processes when there are more than one of each, else in this process.
    ``classify`` maps its orbits and ``cli.sweep`` its grid points."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]
