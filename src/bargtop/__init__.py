"""Boundedness and compactness of Gaussian-symbol Toeplitz operators on
Bargmann spaces.

A weight Phi0 (strictly plurisubharmonic quadratic form on C^n) and an
inhomogeneous quadratic symbol q define the Toeplitz operator of exp(q) on
the space of Phi0-square-integrable holomorphic functions.  This package
decides whether that operator is bounded or compact by constructing the
phase of its symbol on the graph plane of Phi0 and classifying the
associated positive canonical transformation, and cross-validates the
decisions against brute-force quadrature, truncated operator matrices and
coherent-state growth scans.
"""

from .errors import (
    AssumptionViolated,
    BargtopError,
    DegenerateFxz,
    DegeneratePhase,
    HypothesisViolated,
    NonConvergent,
    NotAGraph,
    NotBijective,
    NotConcave,
    NotReal,
    NotReduced,
    NumericalFailure,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    SingularMatrix,
)
from .forms import (
    HoloQuadratic2n,
    QuadraticSymbol,
    RealQForm,
    ValidationReport,
    WeightForm,
    hermitian_reduction,
    polarize,
    polarize_weight,
    realify,
    validate_instance,
)
from .stationary import QuadCriticalProblem, critical_value
from .symplectic import (
    AffineSymplecticMap,
    LagrangianPlane,
    LinearFunctional2n,
    Positivity,
    PositivityResult,
    build_kappa,
    build_kappa_tilde,
    image_plane,
    intersection_kernel,
    positivity_class,
)
from .pipeline import (
    Analysis,
    Decision,
    Verdict,
    WeylPhase,
    analyze,
    coherent_norm_exponent,
    compute_f,
    compute_weyl_phase,
    decide_boundedness,
    decide_compactness,
)
from .family import (
    FamilyDecision,
    FamilyParams,
    family_decide,
    family_instance,
    family_kappa,
    scalar_a_condition,
)
from .oracle import (
    FockTruncation,
    QuadratureSpec,
    coherent_growth_scan,
    fock_matrix,
    operator_norm_scan,
    weyl_symbol_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSymplecticMap",
    "Analysis",
    "AssumptionViolated",
    "BargtopError",
    "Decision",
    "DegenerateFxz",
    "DegeneratePhase",
    "FamilyDecision",
    "FamilyParams",
    "FockTruncation",
    "HoloQuadratic2n",
    "HypothesisViolated",
    "LagrangianPlane",
    "LinearFunctional2n",
    "NonConvergent",
    "NotAGraph",
    "NotBijective",
    "NotConcave",
    "NotReal",
    "NotReduced",
    "NumericalFailure",
    "ParseError",
    "Positivity",
    "PositivityResult",
    "PreconditionViolated",
    "QuadCriticalProblem",
    "QuadraticSymbol",
    "QuadratureSpec",
    "RealQForm",
    "ShapeMismatch",
    "SingularMatrix",
    "ValidationReport",
    "Verdict",
    "WeightForm",
    "WeylPhase",
    "analyze",
    "build_kappa",
    "build_kappa_tilde",
    "coherent_growth_scan",
    "coherent_norm_exponent",
    "compute_f",
    "compute_weyl_phase",
    "critical_value",
    "decide_boundedness",
    "decide_compactness",
    "family_decide",
    "family_instance",
    "family_kappa",
    "fock_matrix",
    "hermitian_reduction",
    "image_plane",
    "intersection_kernel",
    "operator_norm_scan",
    "polarize",
    "polarize_weight",
    "positivity_class",
    "realify",
    "scalar_a_condition",
    "validate_instance",
    "weyl_symbol_quadrature",
]
