"""Desk-scale numerics for Orlicz convolution algebras on discrete groups.

Subpackages by concern:

    nfunctions   N-functions, conjugation, Young/inverse-product checks
    groups       measured discrete groups, convolution, Leptin sets
    norms        modular, Luxemburg and Orlicz norms
    algebra      decomposition costs, certified algebra-norm brackets, plateaus
    porosity     avoidance-pair witnesses on integer windows
    structure    Segal axioms, convolution units, character enumeration
    cli          one executable entry point over all of the above
"""

from .algebra import (
    Decomposition,
    NormBracket,
    algebra_norm_upper,
    build_plateau,
    decomposition_cost,
    plateau_from_sets,
    submultiplicativity_report,
)
from .groups import (
    GroupFunction,
    GroupSpace,
    convolve,
    cyclic,
    direct_product,
    integer_window,
    leptin_search,
    reflect,
    symmetric_group3,
    translate_left,
    translate_right,
)
from .nfunctions import (
    CATALOG_PAIR_NAMES,
    ComplementaryPair,
    NFunction,
    conjugate,
    conjugate_value,
    cosh_minus_one,
    entropy,
    from_table,
    inverse_product_ratio,
    numeric_pair,
    pair_cosh,
    pair_entropy,
    pair_power,
    power,
    validate_nfunction,
    validate_pair,
    young_gap,
)
from .norms import NormReport, char_fn_norm, luxemburg, modular, orlicz_norm
from .porosity import build_witness, level_integral, level_membership, make_instance
from .specio import pair_from_name
from .structure import (
    convolution_unit,
    enumerate_characters,
    multiplicative_functional_search,
    segal_report,
)

__all__ = [
    "CATALOG_PAIR_NAMES",
    "ComplementaryPair",
    "Decomposition",
    "GroupFunction",
    "GroupSpace",
    "NFunction",
    "NormBracket",
    "NormReport",
    "algebra_norm_upper",
    "build_plateau",
    "build_witness",
    "char_fn_norm",
    "conjugate",
    "conjugate_value",
    "convolution_unit",
    "convolve",
    "cosh_minus_one",
    "cyclic",
    "decomposition_cost",
    "direct_product",
    "entropy",
    "enumerate_characters",
    "from_table",
    "integer_window",
    "inverse_product_ratio",
    "leptin_search",
    "level_integral",
    "level_membership",
    "luxemburg",
    "make_instance",
    "modular",
    "multiplicative_functional_search",
    "numeric_pair",
    "orlicz_norm",
    "pair_cosh",
    "pair_entropy",
    "pair_from_name",
    "pair_power",
    "plateau_from_sets",
    "power",
    "reflect",
    "segal_report",
    "submultiplicativity_report",
    "symmetric_group3",
    "translate_left",
    "translate_right",
    "validate_nfunction",
    "validate_pair",
    "young_gap",
]

__version__ = "0.1.0"
