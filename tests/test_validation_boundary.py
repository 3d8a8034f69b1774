"""Validation happens once, at the public boundary; the kernels trust it.

The trusted kernel `_eta_p` is held against the search oracle and against
`decompose`, and `is_prime` is counted wherever a kempner module looks it
up, so a second proof of the same prime inside one public call shows.
"""

import sys

import pytest

from kempner import (
    INT64_MAX,
    Factorization,
    NotPrimeError,
    PrimePower,
    RepunitDecomposition,
    decompose,
    emit_table,
    enumerate_all_representations,
    eta,
    eta_p,
    eta_p_oracle,
    eta_p_preimage,
    factorize,
    first_primes,
    is_prime,
    legendre_valuation,
    parse_factored_expr,
    prime_characterization_scan,
    recompose,
    repunit,
    smallest_factorial_multiple,
    solve_trailing_zeros,
    trailing_zeros,
)
from kempner import number_core, verify
from kempner.applications import _trusted_zeros_solution
from kempner.eta import _eta_p
from kempner.repunit_repr import _trusted_repunit_decomposition
from kempner.verify import VerifyConfig

P31 = 2**31 - 1
KERNEL_PRIMES = (2, 3, 5, 7, 97, 65521, P31)


@pytest.fixture
def proofs(monkeypatch):
    """The argument of every is_prime call made while the test runs."""
    seen = []
    original = number_core.is_prime

    def counting(n):
        seen.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kempner" and getattr(module, "is_prime", None) is original:
            monkeypatch.setattr(module, "is_prime", counting)
    return seen


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_matches_search_oracle(p):
    for k in range(1, 3001):
        assert _eta_p(k, p) == eta_p_oracle(k, p), (k, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_at_the_64_bit_edge(p):
    k = INT64_MAX // p  # the largest k with p*k <= INT64_MAX
    expected = sum(t * p**n for n, t in decompose(k, p).terms)
    assert _eta_p(k, p) == expected == eta_p(k, p) == eta_p_oracle(k, p)
    with pytest.raises(OverflowError):
        eta_p(k + 1, p)


@pytest.mark.parametrize(
    "call, proven",
    [
        (lambda: eta_p(10**6, P31), [P31]),
        (lambda: decompose(10**6, P31), [P31]),
        (lambda: eta_p_preimage(P31 * 10**9, P31), [P31]),
        (lambda: factorize(10**12 + 39), [10**12 + 39]),
        # one Miller-Rabin run finds the cofactor composite; rho's first
        # factor P31 is above 2^20 and is proven, the second is found already
        # proven and is not proven again
        (lambda: factorize(P31**2), [P31**2, P31]),
        # the decomposition proves 3 once and recompose trusts it
        (lambda: recompose(decompose(10**6, 3)), [3]),
        # 1031^2 > 2^20 is the least composite left once the primes below 2^10
        # are divided out: it gets one Miller-Rabin run, its factor 1031 < 2^20
        # none
        (lambda: factorize(1031**2), [1031**2]),
    ],
    ids=[
        "eta_p",
        "decompose",
        "eta_p_preimage",
        "factorize",
        "factorize_composite_cofactor",
        "recompose_decompose",
        "factorize_cofactor_bound_is_exclusive",
    ],
)
def test_public_call_proves_its_prime_once(proofs, call, proven):
    call()
    assert proofs == proven


def test_trailing_zeros_trusts_the_constant_five(proofs):
    assert trailing_zeros(10**6) == 249998
    assert proofs == []
    with pytest.raises(OverflowError) as exc_info:
        trailing_zeros(INT64_MAX + 1)
    with pytest.raises(OverflowError) as public_info:
        legendre_valuation(INT64_MAX + 1, 5)
    assert str(exc_info.value) == str(public_info.value)


def test_solve_trailing_zeros_trusts_its_constants(proofs):
    assert solve_trailing_zeros(1000).members == (4005, 4006, 4007, 4008, 4009)
    assert proofs == []


def test_flagship_proves_each_base_once(proofs):
    f = parse_factored_expr("2^31*3^27*7^13*2")
    assert proofs == [2, 3, 7]  # a repeated base is proven once
    proofs.clear()
    assert eta(f).value == 84
    assert proofs == []  # eta trusts the primes of its PrimePowers
    assert smallest_factorial_multiple(parse_factored_expr("2^31*3^27*7^13")).value == 84
    assert proofs == [2, 3, 7]


def test_eta_keeps_the_range_check():
    f = Factorization(1, (PrimePower(3, INT64_MAX // 3 + 1),))
    with pytest.raises(OverflowError) as exc_info:
        eta(f)
    with pytest.raises(OverflowError) as public_info:
        eta_p(INT64_MAX // 3 + 1, 3)
    assert str(exc_info.value) == str(public_info.value)
    with pytest.raises(OverflowError) as oracle_info:
        eta_p_oracle(INT64_MAX // 3 + 1, 3)
    assert str(oracle_info.value) == str(public_info.value)


def test_eta_names_the_first_factor_out_of_range():
    k2, k3 = INT64_MAX // 2 + 1, INT64_MAX // 3 + 1
    for factors, message in [
        # the first factor's eta_p is computed before the second is checked
        (
            (PrimePower(2, 10**6), PrimePower(3, k3)),
            "eta_p(3074457345618258603, 3) may exceed the 64-bit range (bound p*k)",
        ),
        (
            (PrimePower(2, k2), PrimePower(3, k3)),
            "eta_p(4611686018427387904, 2) may exceed the 64-bit range (bound p*k)",
        ),
    ]:
        with pytest.raises(OverflowError) as exc_info:
            eta(Factorization(1, factors))
        assert str(exc_info.value) == message


def test_hand_built_non_primes_still_rejected():
    with pytest.raises(NotPrimeError):
        PrimePower(4, 1)
    with pytest.raises(NotPrimeError):
        RepunitDecomposition(4, ((1, 1),))
    with pytest.raises(NotPrimeError):
        Factorization(1, (PrimePower(4, 2),))


def test_verify_checks_the_digits_decompose_no_longer_checks(monkeypatch):
    # one digit k on a_1 = 1 still sums to k, so only the digit bound is broken
    def one_term(k, p):
        return _trusted_repunit_decomposition(p, ((1, k),))

    monkeypatch.setattr(verify, "decompose", one_term)
    with pytest.raises(ValueError, match="final digit must be in 1..2, got 3$"):
        verify.check_repunit_round_trip(VerifyConfig(max_k=3, primes=1))


def test_verify_round_trip_proves_each_prime_once_per_case(monkeypatch):
    proven = []
    prime = number_core.is_prime

    def counting_is_prime(n):
        proven.append(n)
        return prime(n)

    monkeypatch.setattr(number_core, "is_prime", counting_is_prime)
    outcome = verify.check_repunit_round_trip(VerifyConfig(max_k=50, primes=4))
    assert outcome.ok
    assert sorted(proven) == sorted([2, 3, 5, 7] * 50)  # decompose's proofs alone


@pytest.mark.parametrize(
    "wrong", [{1: (5, 6, 7, 8)}, {5: (25,)}], ids=["member-dropped", "member-of-no-z"]
)
def test_verify_zeros_check_reports_a_wrong_solution(monkeypatch, wrong):
    # z = 5 has no members: the count jumps from 4 at m = 24 to 6 at m = 25
    def solve(z):
        return _trusted_zeros_solution(z, wrong.get(z, solve_trailing_zeros(z).members))

    monkeypatch.setattr(verify, "solve_trailing_zeros", solve)
    outcome = verify.check_zeros_inverse(VerifyConfig(max_zeros=10))
    [(z, members)] = wrong.items()
    scan = solve_trailing_zeros(z).members
    assert outcome.ok is False
    assert outcome.detail == f"1 failures, e.g. z={z}: {members} vs scan {scan}"


def lie_at(function, wrong_args, wrong_value):
    """function, except that it returns wrong_value at wrong_args."""
    return lambda *args: wrong_value if args == wrong_args else function(*args)


@pytest.mark.parametrize(
    "check, name, liar, detail",
    [
        (
            verify.check_oracle_equivalence,
            "eta_p",
            lie_at(verify.eta_p, (7, 3), 19),
            "1 failures, e.g. eta_3(7)=19 but search gives 18",
        ),
        (
            verify.check_repunit_round_trip,
            "recompose",
            lie_at(verify.recompose, (decompose(7, 3),), 8),
            "1 failures, e.g. recompose(decompose(7, 3)) = 8",
        ),
        (
            verify.check_monotone_and_non_injective,
            "_eta_p",
            lie_at(verify._eta_p, (10, 3), 20),
            "1 failures, e.g. eta_3(10)=20 < eta_3(9)=21",
        ),
        (
            verify.check_preimage,
            "eta_p_preimage",
            lie_at(verify.eta_p_preimage, (12, 2), 11),
            "1 failures, e.g. eta_2(preimage(12))=14",
        ),
    ],
    ids=["eta_p", "recompose", "_eta_p", "eta_p_preimage"],
)
def test_verify_check_fails_when_what_it_reads_lies_once(monkeypatch, check, name, liar, detail):
    cfg = VerifyConfig(max_k=20, max_n=30, primes=3, max_zeros=10)
    assert check(cfg).ok
    monkeypatch.setattr(verify, name, liar)
    outcome = check(cfg)
    assert outcome.ok is False
    assert outcome.detail == detail


def test_decompose_rejects_non_primes_below_two_and_above():
    for p in (-3, 0, 1, 4, 65537 * 3):
        with pytest.raises(NotPrimeError, match=f"p must be prime, got {p}$"):
            decompose(10**9, p)


def test_negative_primes_are_not_prime():
    with pytest.raises(NotPrimeError, match="prime must be prime, got -5$"):
        PrimePower(-5, 1)
    with pytest.raises(NotPrimeError, match="p must be prime, got -5$"):
        RepunitDecomposition(-5, ((1, 1),))


def test_factorize_results_equal_validated_powers():
    for n in (360, 2**61 - 1, (2**31 - 1) * 65521**2, 10**12 + 39):
        f = factorize(n)
        assert f.factors == tuple(PrimePower(pp.prime, pp.exponent) for pp in f.factors)
        assert f.value() == n


TOO_BIG = INT64_MAX + 1
LIMIT = f"exceeds the 64-bit limit ({INT64_MAX}), got {TOO_BIG}"
PRIME_TOO_BIG = 9223372036854775837  # the least prime above INT64_MAX
PRIME_LIMIT = f"exceeds the 64-bit limit ({INT64_MAX}), got {PRIME_TOO_BIG}"


CONTRACT = [  # (id, call, exception type, message)
    (
        "legendre_valuation-low",
        lambda: legendre_valuation(-1, 5),
        ValueError,
        "m must be >= 0, got -1",
    ),
    (
        "legendre_valuation-high",
        lambda: legendre_valuation(TOO_BIG, 5),
        OverflowError,
        f"m {LIMIT}",
    ),
    (
        "legendre_valuation-p-high",
        lambda: legendre_valuation(10, PRIME_TOO_BIG),
        OverflowError,
        f"p {PRIME_LIMIT}",
    ),
    ("is_prime-low", lambda: is_prime(-1), ValueError, "n must be >= 0, got -1"),
    ("is_prime-high", lambda: is_prime(TOO_BIG), OverflowError, f"n {LIMIT}"),
    ("repunit-low", lambda: repunit(2, 0), ValueError, "n must be >= 1, got 0"),
    ("repunit-high", lambda: repunit(2, TOO_BIG), OverflowError, f"n {LIMIT}"),
    (
        "prime_characterization_scan-low",
        lambda: prime_characterization_scan(4),
        ValueError,
        "limit must be >= 5, got 4",
    ),
    ("PrimePower-low", lambda: PrimePower(2, 0), ValueError, "exponent must be >= 1, got 0"),
    (
        "PrimePower-prime-high",
        lambda: PrimePower(PRIME_TOO_BIG, 1),
        OverflowError,
        f"prime {PRIME_LIMIT}",
    ),
    ("PrimePower-composite-high", lambda: PrimePower(TOO_BIG, 1), OverflowError, f"prime {LIMIT}"),
    ("PrimePower-high", lambda: PrimePower(2, TOO_BIG), OverflowError, f"exponent {LIMIT}"),
    ("eta_p-low", lambda: eta_p(0, 5), ValueError, "k must be >= 1, got 0"),
    ("eta_p-high", lambda: eta_p(TOO_BIG, 5), OverflowError, f"k {LIMIT}"),
    ("eta_p-p-high", lambda: eta_p(3, PRIME_TOO_BIG), OverflowError, f"p {PRIME_LIMIT}"),
    ("eta_p_oracle-low", lambda: eta_p_oracle(0, 5), ValueError, "k must be >= 1, got 0"),
    ("eta_p_oracle-high", lambda: eta_p_oracle(TOO_BIG, 5), OverflowError, f"k {LIMIT}"),
    ("eta_p_preimage-low", lambda: eta_p_preimage(1, 2), ValueError, "m must be >= 2, got 1"),
    ("eta_p_preimage-high", lambda: eta_p_preimage(TOO_BIG, 2), OverflowError, f"m {LIMIT}"),
    ("decompose-low", lambda: decompose(0, 2), ValueError, "k must be >= 1, got 0"),
    ("decompose-high", lambda: decompose(TOO_BIG, 2), OverflowError, f"k {LIMIT}"),
    ("decompose-p-high", lambda: decompose(5, PRIME_TOO_BIG), OverflowError, f"p {PRIME_LIMIT}"),
    (
        "enumerate_all_representations-low",
        lambda: enumerate_all_representations(0, 2),
        ValueError,
        "k must be >= 1, got 0",
    ),
    (
        "enumerate_all_representations-high",
        lambda: enumerate_all_representations(TOO_BIG, 2),
        OverflowError,
        f"k {LIMIT}",
    ),
    ("trailing_zeros-low", lambda: trailing_zeros(0), ValueError, "m must be >= 1, got 0"),
    ("trailing_zeros-high", lambda: trailing_zeros(TOO_BIG), OverflowError, f"m {LIMIT}"),
    (
        "solve_trailing_zeros-low",
        lambda: solve_trailing_zeros(-1),
        ValueError,
        "z must be >= 0, got -1",
    ),
    (
        "solve_trailing_zeros-high",
        lambda: solve_trailing_zeros(TOO_BIG),
        OverflowError,
        f"z {LIMIT}",
    ),
    ("emit_table-low", lambda: list(emit_table(0, 5)), ValueError, "start must be >= 1, got 0"),
    ("emit_table-low2", lambda: list(emit_table(5, 3)), ValueError, "end must be >= 5, got 3"),
    (
        "emit_table-high",
        lambda: list(emit_table(TOO_BIG, TOO_BIG)),
        OverflowError,
        f"start {LIMIT}",
    ),
    ("emit_table-high2", lambda: list(emit_table(1, TOO_BIG)), OverflowError, f"end {LIMIT}"),
    ("first_primes-low", lambda: first_primes(-1), ValueError, "count must be >= 0, got -1"),
    (
        "first_primes-low2",
        lambda: first_primes(6543),
        ValueError,
        "count must be <= 6542, got 6543",
    ),
    ("VerifyConfig-low", lambda: VerifyConfig(max_k=0), ValueError, "max_k must be >= 1, got 0"),
    ("VerifyConfig-high", lambda: VerifyConfig(max_k=TOO_BIG), OverflowError, f"max_k {LIMIT}"),
    (
        "parse_factored_expr-low",
        lambda: parse_factored_expr("2^0"),
        ValueError,
        "exponent must be >= 1, got 0 for base 2",
    ),
    (
        "parse_factored_expr-high",
        lambda: parse_factored_expr(f"2^{TOO_BIG}"),
        OverflowError,
        f"exponent {LIMIT}",
    ),
    (
        "parse_factored_expr-high2",
        lambda: parse_factored_expr(f"{TOO_BIG}^2"),
        OverflowError,
        f"base {LIMIT}",
    ),
    (
        "parse_factored_expr-high3",
        lambda: parse_factored_expr(f"2^{INT64_MAX}*2"),
        OverflowError,
        f"merged exponent {LIMIT}",
    ),
]


@pytest.mark.parametrize(
    "call, error, message", [row[1:] for row in CONTRACT], ids=[row[0] for row in CONTRACT]
)
def test_integer_arguments_share_one_contract(call, error, message):
    with pytest.raises(error) as exc_info:
        call()
    assert type(exc_info.value) is error
    assert str(exc_info.value) == message
