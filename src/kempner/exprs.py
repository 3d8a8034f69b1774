"""Parser for factored-integer expressions.

Grammar: `[-] base [^ exponent] ( * base [^ exponent] )*`, whitespace
optional, omitted exponent = 1. A bare decimal (no `^` or `*`) is factored
on the spot; a factored form must use prime bases but may denote values far
beyond 64 bits, which is the whole point of accepting it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExprSyntaxError, NotPrimeError, ZeroInputError
from .number_core import INT64_MAX, Factorization, PrimePower, factorize, is_prime


@dataclass(frozen=True)
class FactoredExpr:
    """Validated input: sign and merged (prime, exponent) terms, primes increasing.

    An empty terms tuple is +1 or -1.
    """

    sign: int
    terms: tuple[tuple[int, int], ...]

    def to_factorization(self) -> Factorization:
        return Factorization(self.sign, tuple(PrimePower(p, a) for p, a in self.terms))


_DIGITS = frozenset("0123456789")  # str.isdigit() would also admit other scripts


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # only CPython's limit on int-string length
                raise ExprSyntaxError(f"number too long ({j - i} digits)", i) from None
            tokens.append(("num", value, i))
            i = j
        elif c in "*^-":
            tokens.append((c, 0, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_factored_expr(text: str) -> FactoredExpr:
    """Parse and validate a factored expression or plain decimal integer.

    Plain decimals go through factorize (so they are bounded by 64 bits);
    factored forms get every base primality-checked and repeated bases
    merged by adding exponents.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)

    pos = 0

    def take_number(what: str) -> tuple[int, int]:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != "num":
            at = tokens[pos][2] if pos < len(tokens) else len(text)
            raise ExprSyntaxError(f"expected {what}", at)
        _, value, at = tokens[pos]
        pos += 1
        return value, at

    sign = 1
    if tokens[0][0] == "-":
        sign = -1
        pos = 1

    raw_terms: list[tuple[int, int]] = []
    structured = False  # saw '^' or '*': factored form, not a plain decimal
    while True:
        base, _ = take_number("a base")
        exponent = 1
        if pos < len(tokens) and tokens[pos][0] == "^":
            structured = True
            pos += 1
            exponent, _ = take_number("an exponent")
        raw_terms.append((base, exponent))
        if pos < len(tokens) and tokens[pos][0] == "*":
            structured = True
            pos += 1
            continue
        break
    if pos != len(tokens):
        raise ExprSyntaxError("unexpected trailing input", tokens[pos][2])

    if not structured:
        value = sign * raw_terms[0][0]
        if value == 0:
            raise ZeroInputError("0 is outside the domain (eta is undefined at 0)")
        if abs(value) == 1:
            return FactoredExpr(sign, ())
        f = factorize(value)
        return FactoredExpr(f.sign, tuple((pp.prime, pp.exponent) for pp in f.factors))

    merged: dict[int, int] = {}
    for base, exponent in raw_terms:
        if base > INT64_MAX:
            raise OverflowError(f"base {base} exceeds the 64-bit limit")
        if exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {exponent} for base {base}")
        if exponent > INT64_MAX:
            raise OverflowError(f"exponent {exponent} exceeds the 64-bit limit")
        if base not in merged and not is_prime(base):  # proven at its first term
            raise NotPrimeError(base, "base")
        merged[base] = merged.get(base, 0) + exponent
    if any(a > INT64_MAX for a in merged.values()):
        raise OverflowError("merged exponent exceeds the 64-bit limit")
    return FactoredExpr(sign, tuple(sorted(merged.items())))
