"""Arithmetic primitives against brute-force oracles."""

import json
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
    eta,
    factorize,
    first_primes,
    is_prime,
    legendre_valuation,
    repunit,
)
from kempner import number_core
from kempner.applications import _factor_range
from kempner.eta import _eta_p
from kempner.number_core import _cofactor_primes, _small_primes, _strong_lucas

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
    primes = _small_primes()
    assert len(primes) == 6542
    assert primes[:5] == (2, 3, 5, 7, 11)
    assert primes[-1] == 65521


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


# strong pseudoprimes to the bases named (Jaeschke, 1993): the first ends
# is_prime's (2, 7, 61) tier, so that bound must be exclusive and Baillie-PSW
# must reject it; the second, the end of a 5-witness tier is_prime does not
# use, lies in the range where Baillie-PSW alone must reject it
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


def test_is_prime_matches_sympy_around_the_baillie_psw_bound():
    sympy = pytest.importorskip("sympy")
    for n in range(4_759_123_141 - 20_001, 4_759_123_141 + 20_000, 2):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_a_base_2_strong_pseudoprime_below_2_41():
    # it passes base 2, the only witness from 4,759,123,141 up, so the Lucas
    # test must reject it
    n = 1_122_004_669_633
    assert n == 611557 * 1834669 and n < 2**41
    assert is_strong_probable_prime(n, 2)
    assert not is_prime(n)


def test_is_prime_matches_sympy_in_every_tier():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10)
    edges = [1 << 16, 4_759_123_141, INT64_MAX]
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(2000):
            n = rng.randrange(lo, hi) | 1
            assert is_prime(n) == sympy.isprime(n), n
    # random odd n are mostly composites that base 2 already rejects, so the
    # top tier also gets primes, which run the whole Lucas test, and
    # semiprimes with no small factor
    for top in (2**61, INT64_MAX):
        n = top - rng.randrange(10**9)
        for _ in range(100):
            n = sympy.prevprime(n)
            assert is_prime(n), n
    for _ in range(300):
        p, q = (sympy.nextprime(rng.randrange(2**30, 2**31 - 100)) for _ in range(2))
        assert not is_prime(p * q), (p, q)


def test_strong_lucas_matches_sympy():
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    rng = random.Random(15)
    # the window holds the strong Lucas pseudoprimes 5459, 5777, ..., 25199
    cases = list(range(5001, 30001, 2))
    cases += [rng.randrange(1 << 16, INT64_MAX) | 1 for _ in range(3000)]
    cases += [1093**2, 3511**2, 3037000493**2]  # squares, which no D fits
    for n in cases:
        assert _strong_lucas(n) == primetest.is_strong_lucas_prp(n), n


def test_strong_lucas_rejects_the_base_2_strong_pseudoprimes_below_a_million():
    # BPSW rests on no composite passing both halves; 1093^2 and 3511^2 are
    # base-2 strong pseudoprimes that only the perfect-square guard rejects
    composite = bytearray(10**6)
    for i in range(2, 1000):
        if not composite[i]:
            composite[i * i :: i] = b"\1" * len(range(i * i, 10**6, i))
    pseudoprimes = [
        n for n in range(3, 10**6, 2) if composite[n] and is_strong_probable_prime(n, 2)
    ]
    assert len(pseudoprimes) == 46 and pseudoprimes[:3] == [2047, 3277, 4033]
    for n in pseudoprimes + [1093**2, 3511**2]:
        assert is_strong_probable_prime(n, 2)
        assert not _strong_lucas(n), n


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_2_through_23():
    n = 3825123056546413051
    assert n == 149491 * 747451 * 34233211
    assert all(is_strong_probable_prime(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23))
    assert not is_prime(n)


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
    # across the end of the 2^16 least-factor table; the primes are checked
    # by trial division, independently of the table that is_prime reads too
    checked = set()
    for n in [*range(-10_000, 0), *range(1, 70_001)]:
        f = factorize(n)
        assert f.value() == n
        primes = [pp.prime for pp in f.factors]
        assert all(a < b for a, b in zip(primes, primes[1:])), n
        for p in primes:
            if p not in checked:
                assert trial_division_is_prime(p), n
                checked.add(p)


def test_factorize_rejects_zero_and_overflow():
    with pytest.raises(ZeroInputError):
        factorize(0)
    with pytest.raises(OverflowError):
        factorize(INT64_MAX + 1)


def test_factorize_beyond_trial_division():
    # both factors exceed the 2^16 least-factor table and the trial primes
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


# factorize reads n < 2^16 off its least-factor table; above, it divides out
# the primes up to 1021 that divide n and calls a cofactor below 2^20 prime.
# These straddle both edges (1031 is the next prime, 1033 the one after), and
# the pseudoprimes and Carmichael number have no factor <= 1021
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
        # the end of the least-factor table, where the gcd screen takes over
        (65535, [(3, 1), (5, 1), (17, 1), (257, 1)]),
        (65536, [(2, 16)]),
        (65537, [(65537, 1)]),
        (3 * 2**16, [(2, 16), (3, 1)]),
        # 47#: the scan over the trial primes runs on to 47
        (614889782588491410, [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]),
        (5**5 * 13**5, [(5, 5), (13, 5)]),
        (1021**6, [(1021, 6)]),
        (2**62, [(2, 62)]),
        (143695168124681219, [(1021, 1), (65537, 1), (2**31 - 1, 1)]),
    ],
)
def test_factorize_at_the_trial_division_edge(n, factors):
    assert [(pp.prime, pp.exponent) for pp in factorize(n).factors] == factors


def test_factorize_products_of_primes_above_the_trial_divisors():
    rng = random.Random(20)
    primes = [p for p in _small_primes() if p > 1021]
    for _ in range(2000):
        n = INT64_MAX + 1
        while n > INT64_MAX:  # four primes below 2^16 can pass 2^63
            drawn = rng.choices(primes, k=rng.randint(2, 4))
            n = prod(drawn)
        expected = sorted(Counter(drawn).items())
        assert [(pp.prime, pp.exponent) for pp in factorize(n).factors] == expected, drawn


def largest_power_in_64_bits(p: int) -> int:
    k = 1
    while p ** (k + 1) <= INT64_MAX:
        k += 1
    return p**k


@pytest.mark.parametrize(
    "root, exponent",
    [(3037000493, 2), (1048573, 3), (1031, 5), (1031, 6)],  # 1048573 is the prime below 2^20
)
def test_factorize_splits_prime_powers_without_rho(monkeypatch, root, exponent):
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(number_core, "_pollard_rho", no_rho)
    assert factorize(root**exponent).factors == (PrimePower(root, exponent),)


@pytest.mark.parametrize("exponent", [2, 3])
def test_factorize_splits_a_composite_root_once(monkeypatch, exponent):
    calls = []
    rho = number_core._pollard_rho

    def counting_rho(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(number_core, "_pollard_rho", counting_rho)
    f = factorize((1031 * 1033) ** exponent)
    assert f.factors == (PrimePower(1031, exponent), PrimePower(1033, exponent))
    assert calls == [1031 * 1033]


def test_factorize_matches_sympy_on_hard_families():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(14)
    root = 3_037_000_499  # isqrt(INT64_MAX)
    squares = [sympy.prevprime(root - rng.randrange(10**6)) ** 2 for _ in range(5)]
    powers = [largest_power_in_64_bits(sympy.nextprime(rng.randrange(2, 2**20))) for _ in range(5)]
    semiprimes = [
        sympy.nextprime(rng.randrange(2**30, 2**31 - 100))
        * sympy.nextprime(rng.randrange(2**30, 2**31 - 100))
        for _ in range(3)
    ]
    carmichaels = []  # (6j+1)(12j+1)(18j+1) with all three factors prime
    j = rng.randrange(150, 150_000)  # 1296 * 150^3 > 2^32
    while len(carmichaels) < 5:
        j += 1
        factors = (6 * j + 1, 12 * j + 1, 18 * j + 1)
        if all(sympy.isprime(q) for q in factors):
            carmichaels.append(prod(factors))
    cases = squares + powers + semiprimes + carmichaels
    assert all(n <= INT64_MAX for n in cases) and min(carmichaels) > 2**32
    for n in cases:
        got = {pp.prime: pp.exponent for pp in factorize(n).factors}
        assert got == sympy.factorint(n), n


@pytest.mark.parametrize(
    "m, proven_below",
    [
        # no prime factor up to 1021, factorize's last trial prime
        (1031 * 1033, 1 << 20),
        (1031**2, 1 << 20),
        (65537, 1 << 20),
        ((2**31 - 1) * 65537, 1 << 20),
        # no prime factor up to 65521, the range sieve's last base prime
        ((2**31 - 1) * 65537, 1 << 32),
        (1000003**2, 1 << 32),
        (65537 * 65539, 1 << 32),
        (4294967311, 1 << 32),  # the least prime above 2^32
    ],
)
def test_cofactor_primes_matches_factorize(m, proven_below):
    expected = [(pp.prime, pp.exponent) for pp in factorize(m).factors]
    assert _cofactor_primes(m, proven_below) == expected


# --- _factor_range ----------------------------------------------------------

P31 = 2**31 - 1


def parsed_witness_rows(start, end):
    """(n, eta, argmax, [[p, a, e], ...]) per witness row, its text parsed."""
    return [
        (n, value, argmax, json.loads("[" + ",".join(pieces) + "]"))
        for n, value, argmax, pieces in _factor_range(start, end)
    ]


def assert_rows_match_factorize(rows, start, end):
    assert [n for n, _, _, _ in rows] == list(range(start, end + 1))
    for n, value, argmax, triples in rows:
        f = factorize(n)
        assert [(p, a) for p, a, _ in triples] == [(pp.prime, pp.exponent) for pp in f.factors]
        assert all(e == _eta_p(a, p) for p, a, e in triples), n
        result = eta(f)
        assert (value, argmax) == (result.value, result.argmax_prime), n


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
    assert_rows_match_factorize(parsed_witness_rows(start, end), start, end)


@pytest.mark.parametrize("start, end", [(1, 10_000), (10**12 + 1, 10**12 + 5000)])
def test_factor_range_appends_cofactors_below_2_32_directly(monkeypatch, start, end):
    cofactor = number_core._factor_cofactor
    calls, depth = [], []

    def no_small_cofactor(n, *args):
        # the recursion below a split goes through this name too
        if not depth:
            if n < 1 << 32:
                raise AssertionError(f"_factor_cofactor called on {n}")
            calls.append(n)
        depth.append(n)
        try:
            cofactor(n, *args)
        finally:
            depth.pop()

    monkeypatch.setattr(number_core, "_factor_cofactor", no_small_cofactor)
    rows = parsed_witness_rows(start, end)
    monkeypatch.undo()  # factorize's own cofactors may lie below 2^32
    assert_rows_match_factorize(rows, start, end)
    assert bool(calls) == (start > 1)  # cofactors above 2^32 still go there


@pytest.mark.parametrize(
    "start, end",
    [
        (1, 10_000),
        (10**12 + 1, 10**12 + 5000),
        (4_759_123_141 - 2000, 4_759_123_141 + 2000),  # where Baillie-PSW starts
        (1000003**2 - 100, 1000003**2 + 100),  # a prime square cofactor above 2^32
        (2**32 - 1000, 2**32 + 1000),  # the proven bound (limit + 1)^2 once limit is 65535
        (65537**2 - 50, 65537**2 + 50),  # square of the first prime above the base primes
        (2**62, 2**62 + 500),
        (INT64_MAX - 300, INT64_MAX),
    ],
)
def test_factor_range_value_rows_are_the_witness_rows_without_text(start, end):
    rows = parsed_witness_rows(start, end)
    # the argmax is the first (smallest) prime whose eta_p is the row's eta
    for n, value, argmax, triples in rows:
        assert argmax == next((p for p, _, e in triples if e == value), None), n
    values = list(_factor_range(start, end, witness=False))
    assert values == [(n, value, argmax, None) for n, value, argmax, _ in rows]


def test_factor_range_takes_eta_of_a_prime_square_cofactor():
    # 1000003 is above every base prime, so its square reaches _factor_cofactor
    n = 1000003**2
    assert list(_factor_range(n, n, witness=False)) == [(n, 2000006, 1000003, None)]


# --- record invariants -------------------------------------------------------


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
    with pytest.raises(ValueError, match=r"^factors must be a tuple of PrimePower, got \["):
        Factorization(1, [PrimePower(2, 3)])  # a list: mutable and unhashable
    with pytest.raises(ValueError, match=r"^factors must be a tuple of PrimePower, got \(\(2, 3"):
        Factorization(1, ((2, 3),))  # a pair where a PrimePower belongs
