"""Conic intrinsic volumes: exact profiles, Monte Carlo estimators, and tail bounds.

The package is organized around a small set of cone descriptions
(:mod:`conevol.cones`), estimators that turn projection samples into
intrinsic-volume profiles (:mod:`conevol.profiles`), kinematic and Steiner
machinery built on those profiles (:mod:`conevol.steiner`), and the
concentration-inequality calculus (:mod:`conevol.bounds`).  The command line
entry point lives in :mod:`conevol.cli`.
"""

from .bounds import (
    TailBoundReport,
    bennett_tails,
    circular_approximations,
    circular_interlacing_tail,
    combined_tail,
    exp_moment_bound,
    goe_variance_asymptotics,
    product_tail,
    variance_bound,
)
from .cones import (
    Circular,
    Generators,
    Orthant,
    Polar,
    Product,
    Psd,
    Subspace,
    Trivial,
    ambient_dim,
    cone_to_spec,
    load_generators,
    parse_cone_spec,
    second_order_cone,
    supports_face_dim,
)
from .exceptions import (
    ConditioningError,
    ConeSpecError,
    ConeVolError,
    DimensionMismatchError,
    NonConvergenceError,
    NumericalGuardError,
    UnsupportedConeError,
)
from .profiles import (
    IntrinsicVolumeProfile,
    estimate_profile_biorthogonal,
    estimate_profile_face,
    estimate_profile_mixture,
    exact_profile,
    intrinsic_variance,
    reverse_profile,
    statistical_dimension,
)
from .sampling import (
    MonteCarloConfig,
    MomentAccumulator,
    SampleSummary,
    resolve_workers,
    run_summary,
)
from .steiner import (
    BivariateFunctional,
    ChiBarSquared,
    chi_bar_squared,
    empirical_steiner_cdf,
    gaussian_steiner_cdf,
    master_phi,
    phi_mc,
    preset_functionals,
    spherical_steiner_cdf,
    subspace_moment,
    wills_functional,
    wills_mc,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateFunctional",
    "ChiBarSquared",
    "Circular",
    "ConditioningError",
    "ConeSpecError",
    "ConeVolError",
    "DimensionMismatchError",
    "Generators",
    "IntrinsicVolumeProfile",
    "MomentAccumulator",
    "MonteCarloConfig",
    "NonConvergenceError",
    "NumericalGuardError",
    "Orthant",
    "Polar",
    "Product",
    "Psd",
    "SampleSummary",
    "Subspace",
    "TailBoundReport",
    "Trivial",
    "UnsupportedConeError",
    "ambient_dim",
    "bennett_tails",
    "chi_bar_squared",
    "circular_approximations",
    "circular_interlacing_tail",
    "combined_tail",
    "cone_to_spec",
    "empirical_steiner_cdf",
    "estimate_profile_biorthogonal",
    "estimate_profile_face",
    "estimate_profile_mixture",
    "exact_profile",
    "exp_moment_bound",
    "gaussian_steiner_cdf",
    "goe_variance_asymptotics",
    "intrinsic_variance",
    "load_generators",
    "master_phi",
    "parse_cone_spec",
    "phi_mc",
    "preset_functionals",
    "product_tail",
    "resolve_workers",
    "reverse_profile",
    "run_summary",
    "second_order_cone",
    "spherical_steiner_cdf",
    "statistical_dimension",
    "subspace_moment",
    "supports_face_dim",
    "variance_bound",
    "wills_functional",
    "wills_mc",
]
