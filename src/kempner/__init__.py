"""Kempner function toolkit.

eta(n) is the smallest natural number m with m! a multiple of n, defined on
nonzero integers with eta(+/-1) = 0. The closed-form route goes through the
repunit-base digit expansion of each prime's exponent; brute-force oracles
realize the defining property directly for cross-checking.
"""

from .applications import (
    ZerosSolution,
    emit_table,
    prime_characterization_scan,
    smallest_factorial_multiple,
    solve_trailing_zeros,
    trailing_zeros,
)
from .errors import ExprSyntaxError, NotPrimeError, SearchBudgetError, ZeroInputError
from .eta import EtaResult, eta, eta_oracle, eta_p, eta_p_oracle, eta_p_preimage
from .exprs import parse_factored_expr
from .number_core import (
    INT64_MAX,
    Factorization,
    PrimePower,
    factorize,
    first_primes,
    is_prime,
    legendre_valuation,
    repunit,
)
from .repunit_repr import RepunitDecomposition, decompose, enumerate_all_representations, recompose

__version__ = "0.1.0"

__all__ = [
    "EtaResult",
    "ExprSyntaxError",
    "Factorization",
    "INT64_MAX",
    "NotPrimeError",
    "PrimePower",
    "RepunitDecomposition",
    "SearchBudgetError",
    "ZeroInputError",
    "ZerosSolution",
    "decompose",
    "emit_table",
    "enumerate_all_representations",
    "eta",
    "eta_oracle",
    "eta_p",
    "eta_p_oracle",
    "eta_p_preimage",
    "factorize",
    "first_primes",
    "is_prime",
    "legendre_valuation",
    "parse_factored_expr",
    "prime_characterization_scan",
    "recompose",
    "repunit",
    "smallest_factorial_multiple",
    "solve_trailing_zeros",
    "trailing_zeros",
]
