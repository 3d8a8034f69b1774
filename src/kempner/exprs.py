"""Parser for factored-integer expressions.

Grammar: `[-] base [^ exponent] ( * base [^ exponent] )*`, omitted exponent
= 1. Numbers are runs of ASCII digits, and any Unicode whitespace
(`str.isspace`) may stand between tokens. A bare decimal (no `^` or `*`) is
one int(), factored on the spot; a factored form must use prime bases but
may denote values far beyond 64 bits, the whole point of accepting it.

One regex, `_EXPR`, is the grammar. A text it refuses, or one with a number
int() refuses, gets an `ExprSyntaxError` with a 0-based position: first any
`unexpected character …` or `number too long (N digits)`, in text order; then
`empty expression` for a blank text; else the fault is read off the longest
start `_EXPR.match` accepts: `expected a base` at the token after the sign or
after a `*`, `expected an exponent` after a `^` on a term without one, and
`unexpected trailing input` at any other token that follows it.
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
_TERM = re.compile(r"([0-9]+)(?:\s*\^\s*([0-9]+))?")
# spaces after the sign sit in its group: a refused text backtracks linearly
_EXPR = re.compile(rf"\s*(?:(-)\s*)?({_TERM.pattern}(?:\s*\*\s*{_TERM.pattern})*)\s*")


def _syntax_error(text: str) -> ExprSyntaxError:
    """The ExprSyntaxError explaining why `_EXPR` or int() refused a text."""
    for match in _TOKEN.finditer(text):
        token, at = match.group(), match.start()
        if token not in "*^-":
            if not "0" <= token[0] <= "9":
                return ExprSyntaxError(f"unexpected character {token!r}", at)
            try:
                int(token)
            except ValueError:  # only CPython's limit on int-string length
                return ExprSyntaxError(f"number too long ({len(token)} digits)", at)
    if not text.strip():
        return ExprSyntaxError("empty expression", 0)
    match = _EXPR.match(text)
    if match is None:  # no term after the optional sign
        rest = text.lstrip().removeprefix("-").lstrip()
        return ExprSyntaxError("expected a base", len(text) - len(rest))
    at = match.end()  # the first token after the longest well-formed start
    after = len(text) - len(text[at + 1 :].lstrip())  # the token after it, or len(text)
    if text[at] == "*":
        return ExprSyntaxError("expected a base", after)
    if text[at] == "^" and "^" not in match[2].rpartition("*")[2]:
        return ExprSyntaxError("expected an exponent", after)
    return ExprSyntaxError("unexpected trailing input", at)


def parse_factored_expr(text: str) -> Factorization:
    """Parse and validate a factored expression or plain decimal integer.

    Plain decimals go through factorize (so they are bounded by 64 bits);
    factored forms get each distinct base proven prime once and repeated
    bases merged by adding exponents.
    """
    match = _EXPR.fullmatch(text)
    if match is None:
        raise _syntax_error(text)
    sign, body = -1 if match[1] else 1, match[2]
    bare = body.isdigit()  # one bare decimal (the grammar admits ASCII digits only)
    try:
        if bare:
            value = int(body)
        else:
            terms = [(int(base), int(exp) if exp else 1) for base, exp in _TERM.findall(body)]
    except ValueError:  # only CPython's limit on int-string length
        raise _syntax_error(text) from None
    if bare:
        return factorize(sign * value)

    merged: dict[int, int] = {}
    for base, exponent in terms:
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
