"""Closed-form and oracle computations for generalized Thabit numerical
semigroups GT(n, k), the family generated by (2^k+1)*2^(n+i) - (2^k-1)."""

from .oracle import (
    AperyTable,
    EmptyInput,
    GcdNotOne,
    NotMember,
    Semigroup,
    SemigroupError,
    ZeroModulus,
    make_semigroup,
)
from .thabit import (
    Case,
    apery_coeffs,
    apery_set_closed,
    case_of,
    coeff_solve,
    delta,
    embedding_dimension,
    frobenius_closed,
    generator_at,
    generator_decimals,
    genus_closed,
    max_apery,
    minimal_generating_set,
)
from .verify import grid_points, verify_grid, verify_point

__version__ = "0.1.0"

__all__ = [
    "AperyTable",
    "Case",
    "EmptyInput",
    "GcdNotOne",
    "NotMember",
    "Semigroup",
    "SemigroupError",
    "ZeroModulus",
    "apery_coeffs",
    "apery_set_closed",
    "case_of",
    "coeff_solve",
    "delta",
    "embedding_dimension",
    "frobenius_closed",
    "generator_at",
    "generator_decimals",
    "genus_closed",
    "grid_points",
    "make_semigroup",
    "max_apery",
    "minimal_generating_set",
    "verify_grid",
    "verify_point",
]
