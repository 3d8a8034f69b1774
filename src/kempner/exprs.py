"""Parser for factored-integer expressions.

Grammar: `[-] base [^ exponent] ( * base [^ exponent] )*`, omitted exponent
= 1. Tokens are runs of ASCII digits and the single characters `*^-`; any
Unicode whitespace (`str.isspace`) may stand between them. A bare decimal
(no `^` or `*`) is factored on the spot; a factored form must use prime
bases but may denote values far beyond 64 bits, which is the whole point of
accepting it.

Syntax errors are `ExprSyntaxError`s carrying a 0-based position. Every
character is checked before the grammar, so `unexpected character …` and
`number too long (N digits)` win over the grammar's `empty expression`,
`expected a base`, `expected an exponent` and `unexpected trailing input`.
"""

from __future__ import annotations

import re

from .errors import ExprSyntaxError
from .number_core import (
    Factorization,
    _check_int,
    _require_prime,
    _trusted_factorization,
    _trusted_prime_power,
    factorize,
)

# \s is exactly str.isspace; [0-9] keeps out other scripts' digits
_TOKEN = re.compile(r"[0-9]+|\S")


def parse_factored_expr(text: str) -> Factorization:
    """Parse and validate a factored expression or plain decimal integer.

    Plain decimals go through factorize (so they are bounded by 64 bits);
    factored forms get each distinct base proven prime once and repeated
    bases merged by adding exponents.
    """
    tokens: list[tuple[int | str, int]] = []  # (number or operator, position)
    for match in _TOKEN.finditer(text):
        token, at = match.group(), match.start()
        if token not in "*^-":
            if not "0" <= token[0] <= "9":
                raise ExprSyntaxError(f"unexpected character {token!r}", at)
            try:
                token = int(token)
            except ValueError:  # only CPython's limit on int-string length
                raise ExprSyntaxError(f"number too long ({len(token)} digits)", at) from None
        tokens.append((token, at))
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)

    sign, body = (-1, tokens[1:]) if tokens[0][0] == "-" else (1, tokens)
    if len(body) % 2 == 0:  # ends on an operator, or nothing follows the sign:
        body.append(("", len(text)))  # the missing operand is reported at the end
    raw_terms: list[tuple[int, int]] = []
    op = "*"  # the operator before the current operand
    for i, (token, at) in enumerate(body):  # operand, operator, operand, ...
        if i % 2:
            if token != "*" and (token != "^" or op == "^"):
                raise ExprSyntaxError("unexpected trailing input", at)
            op = token
        elif isinstance(token, str):
            raise ExprSyntaxError("expected an exponent" if op == "^" else "expected a base", at)
        elif op == "^":
            raw_terms[-1] = (raw_terms[-1][0], token)
        else:
            raw_terms.append((token, 1))

    if len(body) == 1:
        return factorize(sign * raw_terms[0][0])

    merged: dict[int, int] = {}
    for base, exponent in raw_terms:
        _check_int("base", base, 0)  # a base below 2 is refused as not prime
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent} for base {base}")
        _check_int("exponent", exponent, 1)
        if base not in merged:  # proven at its first term
            _require_prime(base, "base")
        merged[base] = merged.get(base, 0) + exponent
    for a in merged.values():
        _check_int("merged exponent", a, 1)
    factors = tuple(_trusted_prime_power(p, a) for p, a in sorted(merged.items()))
    return _trusted_factorization(sign, factors)
