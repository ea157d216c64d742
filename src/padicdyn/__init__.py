"""Exact p-adic dynamics of the rational map f(x) = a*x/(x^2 + c*x + a).

Fixed-point classification, Siegel disks and basins, invariant spheres,
ergodicity on invariant spheres (with an independent residue-cycle oracle),
and 2-/3-periodic orbits, all in exact arithmetic.
"""

from .conjugation import ConjugationResult, GeneralMap, conjugate
from .dynamics import (
    CanonicalMap,
    Classification,
    FixedPointReport,
    OrbitResult,
    SphereSpec,
    orbit,
    sphere_points,
)
from .ergodicity import (
    ErgodicityVerdict,
    Mod4Sums,
    decide_ergodicity,
    ergodicity_theorem,
    isometry_check,
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
    TruncatedPadic,
    hensel_sqrt,
    is_prime,
    is_square,
    parse_rational,
)
from .periodic import (
    PeriodicOrbit,
    ThreePeriodicResult,
    h_of_q,
    p6_eval,
    q_sweep,
    sphere_conditions,
    three_periodic_from_q,
    two_periodic,
    verify_orbit_structure,
)

__version__ = "0.1.0"
