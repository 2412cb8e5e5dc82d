"""moduli_census: exact zeta data, moduli-space point counts, and family
statistics for hyperelliptic curves over small odd finite fields."""

import os

# The package's one BLAS call is the float64 product of polyring._residues,
# whose blocks are too small to gain from threads; every other product is of
# integer arrays, which numpy computes without BLAS.  So OpenBLAS need not
# start a thread per core when numpy is imported.  A value set by the user is
# kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    BudgetError,
    DomainError,
    InternalConsistencyError,
    InvalidCharacteristicError,
    PolyParseError,
    UnsupportedRankError,
)
from .ffield import FieldHandle, extend_field, make_field
from .polyring import (
    FamilySpec,
    MonicPoly,
    family,
    format_poly,
    is_irreducible,
    is_squarefree,
    parse_poly,
    poly_from_code,
    prime_count,
    sample_member,
    von_mangoldt,
)
from .curvezeta import (
    CurveZeta,
    HyperellipticCurve,
    epsilon_bounds,
    epsilon_terms,
    family_curves,
    jacobian_count,
    l_poly_via_characters,
    lambda_character_identity,
    point_count,
    xz_bound_check,
    zeta_data,
    zeta_value,
)
from .moduli import (
    ModuliReport,
    beta,
    count_higgs,
    count_ms20,
    count_ntilde,
    count_stable_fixed_det,
    count_value,
    family_constant,
    genus2_oracle,
    grassmannian_count,
    log_count_estimate,
    siegel_mass,
    thaddeus_count,
    unstable_mass,
)
from .stats import (
    FamilyRecord,
    SweepReport,
    character_sum,
    characteristic_function,
    decomposition_residual,
    default_cutoff,
    empirical_stats,
    gaussian_diagnostics,
    limit_covariance,
    r_variable,
    theoretical_moment,
)
from .sweep import SweepConfig, build_report, compute_record, records_to_csv, run_sweep

__version__ = "0.1.0"
