"""Numerical hyperbolicity certification for magnetic flows on surfaces.

The package integrates charged-particle motion on closed oriented
surfaces, reduces the transverse linearization to a scalar Jacobi
equation driven by the curvature seen along each orbit, constructs the
stable/unstable slope limits with convergence diagnostics, and aggregates
conjugate-point scans, Riccati comparison envelopes, transversality gaps
and contraction fits into a certificate with an explicit verdict.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConjugatePointError,
    InsufficientDataError,
    IntegrationFailure,
    InvalidProfileError,
    MagflowError,
    NumericalInconsistencyError,
    ResolutionError,
)
from .fourier import FourierSeries1D, FourierSeries2D
from .geometry import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    InequalityResult,
    SurfaceModel,
)
from .flow import CurvatureProfile, OrbitTrace, UnitTangent, integrate_orbit
from .jacobi import (
    BoundarySolution,
    JacobiState,
    JacobiTrace,
    first_zero,
    integrate_jacobi,
    solve_boundary,
)
from .riccati import RiccatiTrace, comparison_envelope, integrate_riccati
from .green import (
    GreenEstimate,
    GreenSide,
    green_both,
    green_slope,
    invariance_residual,
)
from .anosov import (
    AnosovReport,
    SamplingConfig,
    bounded_jacobi_witness,
    classify,
    contraction_fit,
    negativity_criterion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
