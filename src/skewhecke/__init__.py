"""Exact skew Hecke algebras for finite groups acting on based algebras."""

from .scalars import NotAUnitError, PrimeField, Rationals, field_make
from .groups import (
    CosetSpace,
    FiniteGroup,
    Subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_make,
    power_group,
    quotient_group,
    semidirect_product,
    subgroup_from_generators,
    symmetric_group,
    trivial_subgroup,
)
from .algebras import (
    AlgebraElement,
    BasedAlgebra,
    FunctionAlgebra,
    GroupAction,
    GroupAlgebra,
    InvariantSpace,
    InvariantSubalgebra,
    MatrixAlgebra,
    OppositeAlgebra,
    PolynomialAlgebra,
    TensorAlgebra,
    action_make,
    conjugation_action,
    element_inverse,
    invariants_compute,
    left_translation_action,
    permutation_variable_action,
    scalar_algebra,
    trivial_action,
)
from .skewgroup import SkewGroupAlgebra, corner_basis, hecke_idempotent
from .hecke import (
    HeckeContext,
    HeckeElement,
    classical_context,
    hecke_as_based_algebra,
    structure_constants,
)
from .isomorphisms import (
    AlgebraMapReport,
    HeckeMatrix,
    StoneModel,
    Transport,
    coboundary_from_unit,
    cocycle_transport,
    cocycle_verify,
    conjugate_transport,
    from_corner,
    from_matrix,
    intermediate_embed,
    opposite_transport,
    product_transport,
    quotient_transport,
    relativise,
    semidirect_transport,
    to_corner,
    to_matrix,
    verify_algebra_map,
)

__version__ = "0.1.0"
