"""Exact arithmetic for the J-invariant, the modular group PSL2(Z), small
finite groups, and the numerology connecting the monster group to modular
functions.

Importing the package loads only its error classes.  Every other exported
name is resolved on first access (PEP 562): ``moonshine.j_expansion``
imports :mod:`moonshine.modular` and returns that module's attribute, so a
program loads only the subsystems it uses.  The attribute is looked up
afresh on each access, never copied into the package, so a name patched
in its submodule reads patched here too.
"""

from importlib import import_module as _import_module

from ._errors import DomainError, MoonshineError

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "qseries": ("BiLaurentSeries", "LaurentSeries", "RectangleMismatch", "UnknownCoefficient",
                "ZeroLeadingCoefficient", "coeff_denominator"),
    "modular": ("BudgetExceeded", "ModularFormExpansion", "bernoulli", "discriminant",
                "eisenstein_normalized", "j_expansion", "j_normalized", "weight_space_basis"),
    "sl2z": ("IDENTITY", "DegenerateBasis", "LatticeBasis", "Mat2Z", "PSLElement", "S", "T",
             "UpperHalfPoint", "evaluate_word", "in_fundamental_domain", "lattice_same",
             "moebius", "reduce_to_fundamental", "t_power", "tau_equivalent",
             "tau_from_basis", "word_decompose", "word_to_str"),
    "groups": ("CapExceeded", "ClassFunction", "ClassMismatch", "ConjClass",
               "FactorDescriptor", "NotASubgroup", "NotNormal", "OrderTooLarge", "Perm",
               "PermGroup", "alternating_group", "class_fn_inner", "class_indicator",
               "cyclic_group", "dihedral_group", "permutation_character", "symmetric_group",
               "trivial_character"),
    "monster": ("MONSTER_FACTS", "CheckStatus", "CoeffTable", "DataFormatError",
                "Decomposition", "IdentityCheck", "InsufficientCoefficients",
                "InsufficientData", "IrrepDims", "KnzResult", "MonsterFacts",
                "SearchSpaceTooLarge", "decompose_bounded", "graded_dimension_check",
                "knz_verify", "mckay_identity_check", "monster_order"),
}.items() for name in names}

__all__ = ["DomainError", "MoonshineError", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS.values():  # a subsystem, as in moonshine.groups.Perm
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
