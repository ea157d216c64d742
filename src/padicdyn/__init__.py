"""Exact p-adic dynamics of the rational map f(x) = a*x/(x^2 + c*x + a).

Fixed-point classification, Siegel disks and basins, invariant spheres,
ergodicity on invariant spheres (with an independent residue-cycle oracle),
and 2-/3-periodic orbits, all in exact arithmetic.
"""

from .conjugation import ConjugationResult, GeneralMap, conjugate, find_double_root
from .dynamics import (
    CanonicalMap,
    Classification,
    FixedPointReport,
    OrbitResult,
    SphereSpec,
    norm_image_profile,
    orbit,
    sphere_points,
)
from .ergodicity import (
    ErgodicityVerdict,
    HaarMeasureContext,
    Mod4Sums,
    decide_ergodicity,
    ergodicity_theorem,
    isometry_check,
    minimal_invariant_ball,
    mod4_criterion,
    residue_cycle_oracle,
    rescale_to_unit,
    rho,
)
from .errors import (
    DegenerateMapError,
    InconsistentParametersError,
    NotApplicableError,
    NotASquareError,
    PadicDynError,
    PoleHitError,
    PrecisionError,
    PrimeMismatchError,
    UnsupportedCaseError,
    VerificationError,
)
from .padic import (
    INFINITY,
    PadicRational,
    TruncatedPadic,
    hensel_sqrt,
    is_prime,
    is_square,
    parse_rational,
    ultrametric_add_check,
)
from .periodic import (
    PeriodicOrbit,
    ThreePeriodicResult,
    h_of_q,
    p6_eval,
    q_sweep,
    three_periodic_from_q,
    three_periodic_sphere_condition,
    two_periodic,
    verify_orbit_structure,
)

__version__ = "0.1.0"
