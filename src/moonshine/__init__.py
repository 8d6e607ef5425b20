"""Exact arithmetic for the J-invariant, the modular group PSL2(Z), small
finite groups, and the numerology connecting the monster group to modular
functions.
"""

from ._errors import MoonshineError
from .qseries import (
    BiLaurentSeries,
    LaurentSeries,
    RectangleMismatch,
    UnknownCoefficient,
    ZeroLeadingCoefficient,
    coeff_denominator,
)
from .modular import (
    BudgetExceeded,
    DomainError,
    ModularFormExpansion,
    bernoulli,
    discriminant,
    eisenstein_normalized,
    j_expansion,
    j_normalized,
    sigma,
    weight_space_basis,
)
from .sl2z import (
    IDENTITY,
    DegenerateBasis,
    LatticeBasis,
    Mat2Z,
    PSLElement,
    S,
    T,
    UpperHalfPoint,
    evaluate_word,
    in_fundamental_domain,
    lattice_same,
    moebius,
    reduce_to_fundamental,
    t_power,
    tau_equivalent,
    tau_from_basis,
    word_decompose,
    word_to_str,
)
from .groups import (
    CapExceeded,
    ClassFunction,
    ClassMismatch,
    ConjClass,
    FactorDescriptor,
    NotASubgroup,
    NotNormal,
    OrderTooLarge,
    Perm,
    PermGroup,
    alternating_group,
    class_fn_inner,
    class_indicator,
    cyclic_group,
    dihedral_group,
    permutation_character,
    symmetric_group,
    trivial_character,
)
from .monster import (
    MONSTER_FACTS,
    CheckStatus,
    CoeffTable,
    DataFormatError,
    Decomposition,
    IdentityCheck,
    InsufficientCoefficients,
    InsufficientData,
    IrrepDims,
    KnzResult,
    MonsterFacts,
    SearchSpaceTooLarge,
    decompose_bounded,
    graded_dimension_check,
    knz_verify,
    mckay_identity_check,
    monster_order,
)

__version__ = "0.1.0"
