"""skewtab: exact enumeration of standard Young tableaux of skew shape,
subtableau-containment counts, and asymptotic cross-checks.

Everything is exact (Python ints and fractions); floating point appears
only in the asymptotic estimators, which are always compared against the
exact side.
"""

from .partitions import (
    InvalidSkewShapeError,
    Partition,
    SkewShape,
    centralizer_order,
    conjugate,
    contains,
    format_partition,
    parse_partition,
    partitions_no_small_parts,
    partitions_of,
    square_cycle_type,
)
from .characters import (
    character,
    clear_character_cache,
    syt_count,
)
from .exact import DomainError, IntegralityError
from .sequences import a_poly, b_stable, involutions, q_coeff
from .skew_count import (
    BRUTE_FORCE_CELL_CAP,
    CapacityError,
    path_totals,
    skew_syt_brute,
    skew_syt_char,
    skew_syt_det,
)
from .containment import (
    CLOSED_FORMS,
    N_binomial,
    N_closed_form,
    N_direct,
    N_expansion,
    N_row,
    containment_probability,
    t_shift_coeff,
)
from .asymptotics import (
    LimitSpec,
    biane_estimate,
    bulk_mass,
    containment_probability_estimate,
    exp_estimate,
    mw_log_involutions_estimate,
    relative_error,
    super_schur_value,
    tvk_skew_estimate,
)

__version__ = "0.1.0"
