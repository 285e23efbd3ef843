"""Exact enumeration of signed and colored permutation statistics,
mirror-closed set partitions, and the Stirling/Eulerian identities,
block-procedure bijections, falling-factorial bases, and lattice-point
censuses that tie them together.
"""
from .bijections import (
    OrderedPartition,
    b_procedure,
    b_procedure_inverse,
    d_procedure,
    d_procedure_inverse,
    d_unreachable,
    d_unreachable_count,
    free_gaps,
)
from .config import DEFAULT_CAPS, EnumerationCaps
from .geometry import (
    ZERO,
    CensusResult,
    census,
    classify_point,
    free_point_count,
    missing_point_count,
    torus_census,
)
from .groups import (
    ColoredPermutation,
    SignedPermutation,
    colored_from_signed,
    des_stat,
    descent_set,
    enumerate_group,
    fdes,
    group_order,
)
from .identities import (
    IDENTITIES,
    IdentityCheck,
    VerificationReport,
    descent_histogram,
    eulerian,
    eulerian_from_stirling,
    flag_histogram,
    verify_identity,
)
from .partitions import (
    BPartition,
    DPartition,
    GPartition,
    classical_set_partitions,
    enumerate_partitions,
    flag_stirling_row,
    stirling,
    stirling_row,
)
from .polynomials import IntPolynomial, falling_factorial, monomial

__version__ = "0.1.0"
