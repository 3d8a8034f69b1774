"""Factored-expression parsing and normalization."""

import sys
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import (
    ExprSyntaxError,
    INT64_MAX,
    Factorization,
    NotPrimeError,
    PrimePower,
    ZeroInputError,
    factorize,
    first_primes,
    parse_factored_expr,
)
from kempner.exprs import _EXPR, _TOKEN, _syntax_error


def fact(sign, *terms):
    return Factorization(sign, tuple(PrimePower(p, a) for p, a in terms))


def test_parse_flagship_input():
    assert parse_factored_expr("2^31*3^27*7^13") == fact(1, (2, 31), (3, 27), (7, 13))


def test_parse_units():
    assert parse_factored_expr("-1") == Factorization(-1, ())
    assert parse_factored_expr("1") == Factorization(1, ())


def test_parse_merges_repeated_bases():
    expr = parse_factored_expr("2^3 * 2")
    assert expr == fact(1, (2, 4))
    assert expr == factorize(16)


def test_parse_plain_decimals_are_factorized():
    assert parse_factored_expr("10") == fact(1, (2, 1), (5, 1))
    assert parse_factored_expr("-360") == fact(-1, (2, 3), (3, 2), (5, 1))


def test_parse_whitespace_and_default_exponent():
    assert parse_factored_expr(" 2 ^ 3 * 5 ") == fact(1, (2, 3), (5, 1))
    assert parse_factored_expr("3*5") == fact(1, (3, 1), (5, 1))


def test_parse_sorts_bases():
    assert parse_factored_expr("7^2*2*5") == fact(1, (2, 1), (5, 1), (7, 2))


def test_parse_zero_rejected():
    with pytest.raises(ZeroInputError):
        parse_factored_expr("0")


def test_parse_non_prime_base_named():
    with pytest.raises(NotPrimeError) as exc_info:
        parse_factored_expr("10^2")
    assert exc_info.value.value == 10
    with pytest.raises(NotPrimeError):
        parse_factored_expr("2*9")
    with pytest.raises(NotPrimeError):
        parse_factored_expr("1^2")


def test_parse_bad_exponent():
    with pytest.raises(ValueError):
        parse_factored_expr("2^0")


def test_parse_overflow():
    with pytest.raises(OverflowError):
        parse_factored_expr(str(INT64_MAX + 1))
    with pytest.raises(OverflowError):
        parse_factored_expr(f"{INT64_MAX + 2}^3")


def test_factored_form_may_exceed_64_bits():
    # the value 2^1000 * 5^1000 is far beyond 64 bits; the parse still works
    assert parse_factored_expr("2^1000*5^1000") == fact(1, (2, 1000), (5, 1000))


def test_parse_value_round_trip():
    assert parse_factored_expr("360").value() == 360
    assert parse_factored_expr("-1").value() == -1


def test_parser_agrees_with_factorize():
    for n in range(2, 2001):
        assert parse_factored_expr(str(n)) == factorize(n), n
        assert parse_factored_expr(str(-n)) == factorize(-n), -n


TERM_PRIMES = first_primes(50) + (65521, 2**31 - 1)
SPACE = st.sampled_from(("", " ", "  ", "\t"))


@given(
    terms=st.lists(
        st.tuples(st.sampled_from(TERM_PRIMES), st.integers(1, 6)), min_size=1, max_size=6
    ),
    negative=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300)
def test_parse_random_terms_agrees_with_factorize(terms, negative, data):
    parts = []
    for p, a in terms:
        text = f"{data.draw(SPACE)}{p}{data.draw(SPACE)}"
        if a > 1 or data.draw(st.booleans()):
            text += f"^{data.draw(SPACE)}{a}{data.draw(SPACE)}"
        parts.append(text)
    text = data.draw(SPACE) + ("-" if negative else "") + "*".join(parts)
    product = (-1 if negative else 1) * prod(p**a for p, a in terms)
    parsed = parse_factored_expr(text)
    assert parsed.value() == product
    if abs(product) <= INT64_MAX:
        assert parsed == factorize(product)


def test_parse_accepts_only_ascii_digits():
    # str.isdigit() also admits Arabic-Indic and superscript digits
    for text, position in (("٣^2", 0), ("2²", 1), ("2^1٠", 3)):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse_factored_expr(text)
        assert exc_info.value.position == position


def test_parse_number_beyond_int_string_limit():
    # CPython refuses int() of more than 4300 digits by default
    for text, position in (("9" * 5000, 0), ("2^" + "9" * 5000, 2)):
        with pytest.raises((ExprSyntaxError, OverflowError)) as exc_info:
            parse_factored_expr(text)
        assert "sys." not in str(exc_info.value)
        if isinstance(exc_info.value, ExprSyntaxError):
            assert exc_info.value.position == position


# CPython refuses int() of more than its limit of digits (4300 by default)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "number too long (5000 digits)"
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not 0 < INT_DIGIT_LIMIT < 5000, reason="no int-string length limit below 5000"
)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty expression", 0),
        (" ", "empty expression", 0),
        ("-", "expected a base", 1),
        ("--5", "expected a base", 1),
        ("2^", "expected an exponent", 2),
        ("2*", "expected a base", 2),
        ("2^^3", "expected an exponent", 2),
        ("2^3^4", "unexpected trailing input", 3),
        ("2 3", "unexpected trailing input", 2),
        ("5-3", "unexpected trailing input", 1),
        ("2^3*^", "expected a base", 4),
        ("x", "unexpected character 'x'", 0),
        ("2\u00b2", "unexpected character '\u00b2'", 1),
        # every character is checked before the grammar
        ("2^^3x", "unexpected character 'x'", 4),
        pytest.param("2^^" + "9" * 5000, TOO_LONG, 3, marks=NEEDS_DIGIT_LIMIT),
        # a bare decimal is one int() too, refused in the same way
        pytest.param("-" + "9" * 5000, TOO_LONG, 1, marks=NEEDS_DIGIT_LIMIT),
        pytest.param(" " + "9" * 5000, TOO_LONG, 1, marks=NEEDS_DIGIT_LIMIT),
    ],
)
def test_parse_syntax_error_contract(text, message, position):
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_factored_expr(text)
    assert type(exc_info.value) is ExprSyntaxError
    assert str(exc_info.value) == f"{message} (at position {position})"
    assert exc_info.value.position == position


def test_whitespace_is_exactly_str_isspace():
    # U+3000 (ideographic space) is the last code point with isspace()
    assert not any(chr(c).isspace() for c in range(0x3001, sys.maxunicode + 1))
    for c in range(0x3001):
        assert (_TOKEN.match(chr(c)) is None) == chr(c).isspace(), hex(c)
    assert parse_factored_expr("2 *\u30003") == fact(1, (2, 1), (3, 1))


# digits, operators, ASCII and Unicode spaces, and three characters that are
# no token: a letter, a superscript digit and an Arabic-Indic digit
GRAMMAR_ALPHABET = list("0123456789*^-") + [" ", "\t", "\n", "\u00a0", "\u3000", "x", "\u00b2", "\u0663"]


def token_walk_error(text):
    """A reference explanation of a refused text, independent of `_EXPR`: the
    operand/operator walk over the tokens, or None when it finds no fault."""
    tokens = []
    for match in _TOKEN.finditer(text):
        token, at = match.group(), match.start()
        if token not in "*^-":
            if not "0" <= token[0] <= "9":
                return f"unexpected character {token!r}", at
            try:
                int(token)
            except ValueError:
                return f"number too long ({len(token)} digits)", at
        tokens.append((token, at))
    if not tokens:
        return "empty expression", 0
    body = tokens[1:] if tokens[0][0] == "-" else tokens
    if len(body) % 2 == 0:  # a missing operand is reported at the end
        body.append(("", len(text)))
    op = "*"  # the operator before the current operand
    for i, (token, at) in enumerate(body):
        if i % 2:
            if token != "*" and (token != "^" or op == "^"):
                return "unexpected trailing input", at
            op = token
        elif token in "*^-":
            return ("expected an exponent" if op == "^" else "expected a base"), at
    return None


@given(st.text(GRAMMAR_ALPHABET, max_size=14))
@settings(max_examples=1000)
def test_syntax_error_agrees_with_a_reference_token_walk(text):
    expected = token_walk_error(text)
    if _EXPR.fullmatch(text) is not None:
        assert expected is None
        return
    assert expected is not None
    error = _syntax_error(text)
    message, position = expected
    assert (str(error), error.position) == (f"{message} (at position {position})", position)
