"""Arithmetic primitives against brute-force oracles."""

import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import (
    INT64_MAX,
    Factorization,
    NotPrimeError,
    PrimePower,
    ZeroInputError,
    factorize,
    first_primes,
    is_prime,
    legendre_valuation,
    repunit,
)
from kempner.number_core import SMALL_PRIMES, _factor_range

FIRST_TEN_PRIMES = first_primes(10)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_factor_count(m: int, p: int) -> int:
    """Factors of p across 2..m, counted by repeated division of each integer."""
    count = 0
    for i in range(2, m + 1):
        while i % p == 0:
            count += 1
            i //= p
    return count


# --- repunit ---------------------------------------------------------------


def test_repunit_known_values():
    assert [repunit(2, n) for n in range(1, 7)] == [1, 3, 7, 15, 31, 63]
    assert repunit(2, 5) == 31
    assert repunit(5, 4) == 156
    assert [repunit(3, n) for n in range(1, 5)] == [1, 4, 13, 40]
    assert [repunit(7, n) for n in range(1, 4)] == [1, 8, 57]


@pytest.mark.parametrize("p", FIRST_TEN_PRIMES)
def test_repunit_starts_at_one(p):
    assert repunit(p, 1) == 1


@given(p=st.sampled_from(FIRST_TEN_PRIMES), n=st.integers(1, 20))
def test_repunit_recurrence(p, n):
    # 29^21 is still comfortably inside the 128-bit intermediate range
    assert repunit(p, n + 1) - 1 == p * repunit(p, n)


@given(p=st.sampled_from(FIRST_TEN_PRIMES), n=st.integers(1, 20))
def test_repunit_closed_form(p, n):
    assert repunit(p, n) == sum(p**i for i in range(n))


def test_repunit_overflow_and_domain():
    assert repunit(2, 126) == 2**126 - 1  # largest base-2 case in range
    with pytest.raises(OverflowError):
        repunit(2, 127)
    with pytest.raises(OverflowError):
        repunit(3, 500)
    with pytest.raises(ValueError):
        repunit(2, 0)
    with pytest.raises(NotPrimeError):
        repunit(4, 3)


# --- legendre_valuation ------------------------------------------------------


def test_legendre_known_values():
    assert legendre_valuation(4005, 5) == 801 + 160 + 32 + 6 + 1 == 1000
    assert legendre_valuation(4, 2) == 3
    assert legendre_valuation(0, 7) == 0
    assert legendre_valuation(1, 2) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_legendre_matches_brute_factor_count(p):
    running = 0
    for m in range(2, 2001):
        i = m
        while i % p == 0:
            running += 1
            i //= p
        assert legendre_valuation(m, p) == running


def test_legendre_strict_increase_exactly_at_multiples():
    for p in (2, 3, 5, 7):
        for m in range(1, 500):
            delta = legendre_valuation(m, p) - legendre_valuation(m - 1, p)
            assert delta >= 0
            assert (delta > 0) == (m % p == 0)


@given(
    a=st.integers(0, 10_000),
    b=st.integers(0, 10_000),
    p=st.sampled_from(first_primes(6)),
)
@settings(max_examples=300)
def test_legendre_superadditive(a, b, p):
    assert legendre_valuation(a + b, p) >= legendre_valuation(a, p) + legendre_valuation(b, p)


def test_legendre_rejects_negative():
    with pytest.raises(ValueError):
        legendre_valuation(-1, 2)


@pytest.mark.parametrize("p", [-5, 0, 1, 4, 9, 65537 * 3])
def test_legendre_rejects_non_primes(p):
    with pytest.raises(NotPrimeError, match=f"p must be prime, got {p}$"):
        legendre_valuation(10, p)


def test_legendre_keeps_the_64_bit_contract():
    assert legendre_valuation(INT64_MAX, 2) == INT64_MAX - bin(INT64_MAX).count("1")
    with pytest.raises(OverflowError, match=r"m exceeds the 64-bit limit \(9223372036854775807\)"):
        legendre_valuation(INT64_MAX + 1, 2)
    with pytest.raises(OverflowError):
        legendre_valuation(10**22, 5)


# --- is_prime ----------------------------------------------------------------


def test_is_prime_small_cases():
    assert is_prime(13)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(4005)  # 3^2 * 5 * 89


def test_is_prime_matches_trial_division_exhaustively():
    for n in range(0, 70_001):  # across the end of the 2^16 sieve table
        assert is_prime(n) == trial_division_is_prime(n), n


def test_small_primes_are_the_primes_below_2_16():
    assert len(SMALL_PRIMES) == 6542
    assert SMALL_PRIMES[:5] == (2, 3, 5, 7, 11)
    assert SMALL_PRIMES[-1] == 65521


@given(st.integers(0, 10**6))
@settings(max_examples=300)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_large_values():
    m31 = 2**31 - 1  # Mersenne prime
    m61 = 2**61 - 1  # Mersenne prime
    assert is_prime(m31)
    assert is_prime(m61)
    assert not is_prime(2**62 - 1)  # divisible by 3
    assert not is_prime(m31 * m31)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: does odd n > 2 pass base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# is_prime's first two witness tiers end at these strong pseudoprimes
# (Jaeschke, 1993): each passes every base of the tier it ends, so the bound
# must be exclusive and the next tier must reject it
TIER_BOUNDS = [
    (4_759_123_141, (48781, 97561), (2, 7, 61)),
    (2_152_302_898_747, (6763, 10627, 29947), (2, 3, 5, 7, 11)),
]


@pytest.mark.parametrize("bound, factors, bases", TIER_BOUNDS)
def test_is_prime_tier_bounds_are_strong_pseudoprimes(bound, factors, bases):
    assert prod(factors) == bound
    assert all(is_strong_probable_prime(bound, a) for a in bases)
    assert not is_prime(bound)


def test_is_prime_just_below_the_tier_bounds():
    # the largest prime below each bound
    assert trial_division_is_prime(4_759_123_129)
    assert is_prime(4_759_123_129)
    assert is_prime(2_152_302_898_729)


def test_is_prime_matches_sympy_in_every_tier():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10)
    edges = [1 << 16, 4_759_123_141, 2_152_302_898_747, INT64_MAX]
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(2000):
            n = rng.randrange(lo, hi) | 1
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_domain():
    with pytest.raises(ValueError):
        is_prime(-7)
    with pytest.raises(OverflowError):
        is_prime(INT64_MAX + 1)


# --- factorize ---------------------------------------------------------------


def test_factorize_units():
    assert factorize(1) == Factorization(1, ())
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_known_values():
    f = factorize(10)
    assert f.sign == 1
    assert [(pp.prime, pp.exponent) for pp in f.factors] == [(2, 1), (5, 1)]
    assert factorize(863).factors == (PrimePower(863, 1),)
    assert trial_division_is_prime(863)
    f = factorize(-360)
    assert f.sign == -1
    assert [(pp.prime, pp.exponent) for pp in f.factors] == [(2, 3), (3, 2), (5, 1)]


def test_factorize_round_trip_exhaustive():
    for n in range(-10_000, 10_001):
        if n == 0:
            continue
        assert factorize(n).value() == n


def test_factorize_rejects_zero_and_overflow():
    with pytest.raises(ZeroInputError):
        factorize(0)
    with pytest.raises(OverflowError):
        factorize(INT64_MAX + 1)


def test_factorize_beyond_trial_division():
    # both factors exceed the 2^16 trial-division table
    p, q = 65537, 2**31 - 1
    f = factorize(p * q)
    assert [(pp.prime, pp.exponent) for pp in f.factors] == [(p, 1), (q, 1)]
    f = factorize(q * q)
    assert [(pp.prime, pp.exponent) for pp in f.factors] == [(q, 2)]


@given(st.integers(2, 10**9))
@settings(max_examples=100)
def test_factorize_round_trip_sampled(n):
    f = factorize(n)
    assert f.value() == n
    assert all(is_prime(pp.prime) for pp in f.factors)


# factorize trial-divides by the primes up to 1021 and calls a cofactor below
# 2^20 prime; these straddle that edge (1031 is the next prime, 1033 the one
# after), and the pseudoprimes and Carmichael number have no factor <= 1021
@pytest.mark.parametrize(
    "n, factors",
    [
        (1021**2, [(1021, 2)]),
        (1031**2, [(1031, 2)]),
        (1021 * 1031, [(1021, 1), (1031, 1)]),
        (1031**6, [(1031, 6)]),
        (1021**2 * 1031, [(1021, 2), (1031, 1)]),
        (3 * 1031 * 1033 * 65521, [(3, 1), (1031, 1), (1033, 1), (65521, 1)]),
        (2152302898747, [(6763, 1), (10627, 1), (29947, 1)]),  # strong pseudoprime
        (3474749660383, [(1303, 1), (16927, 1), (157543, 1)]),  # strong pseudoprime
        (1171 * 2341 * 3511, [(1171, 1), (2341, 1), (3511, 1)]),  # Chernick Carmichael
    ],
)
def test_factorize_at_the_trial_division_edge(n, factors):
    assert [(pp.prime, pp.exponent) for pp in factorize(n).factors] == factors


def test_factorize_products_of_primes_above_the_trial_divisors():
    rng = random.Random(20)
    primes = [p for p in SMALL_PRIMES if p > 1021]
    for _ in range(2000):
        n = INT64_MAX + 1
        while n > INT64_MAX:  # four primes below 2^16 can pass 2^63
            drawn = rng.choices(primes, k=rng.randint(2, 4))
            n = prod(drawn)
        expected = sorted(Counter(drawn).items())
        assert [(pp.prime, pp.exponent) for pp in factorize(n).factors] == expected, drawn


# --- _factor_range ----------------------------------------------------------

P31 = 2**31 - 1


@pytest.mark.parametrize(
    "start, end",
    [
        (1, 10_000),  # crosses two segment boundaries
        (2**20 - 1000, 2**20 + 1000),  # factorize's cofactor bound
        (1031**2 - 50, 1031**2 + 50),  # square of the first prime above its trial divisors
        (2**32 - 1000, 2**32 + 1000),
        (65521**2 - 50, 65521**2 + 50),  # square of the largest base prime
        (65537**2 - 50, 65537**2 + 50),  # square of the first prime above it
        (P31**2 - 20, P31**2 + 20),
        (10**12 + 1, 10**12 + 5000),  # unaligned start, cofactors above 2^32
        (INT64_MAX - 299, INT64_MAX),
        (1, 1),
        (2, 2),
    ],
)
def test_factor_range_matches_factorize(start, end):
    expected = [
        (n, [(pp.prime, pp.exponent) for pp in factorize(n).factors])
        for n in range(start, end + 1)
    ]
    assert list(_factor_range(start, end)) == expected


# --- dataclass invariants ------------------------------------------------------


def test_prime_power_validation():
    with pytest.raises(NotPrimeError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(0, ())
    with pytest.raises(ValueError):
        Factorization(1, (PrimePower(5, 1), PrimePower(3, 1)))  # out of order
    with pytest.raises(ValueError):
        Factorization(1, (PrimePower(3, 1), PrimePower(3, 2)))  # repeated prime
