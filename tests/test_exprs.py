"""Factored-expression parsing and normalization."""

import pytest

from kempner import (
    ExprSyntaxError,
    FactoredExpr,
    INT64_MAX,
    NotPrimeError,
    ZeroInputError,
    factorize,
    parse_factored_expr,
)


def test_parse_flagship_input():
    expr = parse_factored_expr("2^31*3^27*7^13")
    assert expr.sign == 1
    assert expr.terms == ((2, 31), (3, 27), (7, 13))


def test_parse_units():
    assert parse_factored_expr("-1") == FactoredExpr(-1, ())
    assert parse_factored_expr("1") == FactoredExpr(1, ())


def test_parse_merges_repeated_bases():
    expr = parse_factored_expr("2^3 * 2")
    assert expr.terms == ((2, 4),)
    f = factorize(16)
    assert expr.terms == tuple((pp.prime, pp.exponent) for pp in f.factors)


def test_parse_plain_decimals_are_factorized():
    assert parse_factored_expr("10").terms == ((2, 1), (5, 1))
    expr = parse_factored_expr("-360")
    assert expr.sign == -1
    assert expr.terms == ((2, 3), (3, 2), (5, 1))


def test_parse_whitespace_and_default_exponent():
    assert parse_factored_expr(" 2 ^ 3 * 5 ").terms == ((2, 3), (5, 1))
    assert parse_factored_expr("3*5").terms == ((3, 1), (5, 1))


def test_parse_sorts_bases():
    assert parse_factored_expr("7^2*2*5").terms == ((2, 1), (5, 1), (7, 2))


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


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_factored_expr("2^^3")
    assert exc_info.value.position == 2
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_factored_expr("2*")
    assert exc_info.value.position == 2
    with pytest.raises(ExprSyntaxError) as exc_info:
        parse_factored_expr("x")
    assert exc_info.value.position == 0
    with pytest.raises(ExprSyntaxError):
        parse_factored_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_factored_expr("2 3")
    with pytest.raises(ExprSyntaxError):
        parse_factored_expr("-")


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
    expr = parse_factored_expr("2^1000*5^1000")
    assert expr.terms == ((2, 1000), (5, 1000))


def test_to_factorization_round_trip():
    assert parse_factored_expr("360").to_factorization().value() == 360
    assert parse_factored_expr("-1").to_factorization().value() == -1


def test_parser_agrees_with_factorize():
    for n in range(2, 2001):
        expr = parse_factored_expr(str(n))
        f = factorize(n)
        assert expr.terms == tuple((pp.prime, pp.exponent) for pp in f.factors), n


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
