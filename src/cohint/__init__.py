"""Exact computation of cocharacter strata, parabolic induction operators,
BPS spaces and refined Donaldson-Thomas invariants for weakly symmetric
representation data of reductive groups, with degree-by-degree verification
of the integrality decomposition.  All arithmetic is exact rational."""

from .arrangement import (
    Stratification,
    Stratum,
    align_representative,
    enumerate_strata,
    once,
    point_stabilizer_of,
    representative_cocharacter,
    set_stabilizer_of,
    with_representative,
)
from .catalog import catalog_emit, catalog_keys
from .documents import InputDocument, parse_input
from .errors import CohintError, InputError, InternalCheckError
from .integrality import (
    BpsSpace,
    bps_space,
    epsilon,
    induct,
    isotypic_series,
    j_graded,
    kernel,
    target_series,
    verify_associativity,
    verify_hilbert,
    verify_isomorphism,
)
from .lattice import (
    NumericInvariants,
    SymmetryClass,
    WeightMultiset,
    symmetry_class,
)
from .polyalg import (
    GradedBasis,
    KernelForm,
    Poly,
    exact_divide,
    invariant_basis,
    kernel_sum,
    orthogonal_complement,
    rref_span,
    substitute,
)
from .weyl import (
    Subgroup,
    WeylGroup,
    averaged_form,
    coset_representatives,
    enumerate_group,
    molien_coefficients,
    point_stabilizer,
    set_stabilizer,
)

__version__ = "0.1.0"
