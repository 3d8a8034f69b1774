"""eta_p and eta against their defining-property oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import (
    EtaResult,
    Factorization,
    INT64_MAX,
    NotPrimeError,
    PrimePower,
    decompose,
    eta,
    eta_oracle,
    eta_p,
    eta_p_oracle,
    eta_p_preimage,
    factorize,
    first_primes,
    legendre_valuation,
)
from kempner.eta import _eta_p

FIRST_TEN_PRIMES = first_primes(10)


def factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


# --- eta_p ----------------------------------------------------------------


def test_eta_p_worked_examples():
    assert eta_p(31, 2) == 32
    assert eta_p(27, 3) == 57
    assert eta_p(13, 7) == 84
    assert eta_p(1000, 5) == 4005


@pytest.mark.parametrize("p", FIRST_TEN_PRIMES)
def test_eta_p_of_one_is_p(p):
    assert eta_p(1, p) == p


def test_eta_p_small_power_case():
    # v_2(3!) = 1 < 2 while v_2(4!) = 3 >= 2
    assert legendre_valuation(3, 2) == 1
    assert legendre_valuation(4, 2) == 3
    assert eta_p(2, 2) == 4


def test_eta_p_domain():
    with pytest.raises(ValueError):
        eta_p(0, 2)
    with pytest.raises(NotPrimeError):
        eta_p(5, 9)
    with pytest.raises(OverflowError):
        eta_p(INT64_MAX, 3)


def test_eta_p_oracle_worked_examples():
    assert eta_p_oracle(31, 2) == 32
    assert eta_p_oracle(1000, 5) == 4005
    for p in FIRST_TEN_PRIMES:
        assert eta_p_oracle(1, p) == p


@given(p=st.sampled_from(FIRST_TEN_PRIMES), k=st.integers(1, 500))
@settings(max_examples=300)
def test_eta_p_matches_oracle(p, k):
    assert eta_p(k, p) == eta_p_oracle(k, p)


@given(p=st.sampled_from(FIRST_TEN_PRIMES), k=st.integers(1, 5000))
@settings(max_examples=300)
def test_eta_p_multiple_of_p_and_bounded(p, k):
    m = eta_p(k, p)
    assert m % p == 0
    assert m <= p * k


@given(p=st.sampled_from([2, 3, 65521, 2**31 - 1]), data=st.data())
@settings(max_examples=300)
def test_eta_p_is_p_minus_one_times_k_plus_repunit_digit_sum(p, data):
    # p^n = (p-1)*a_n + 1 turns sum t_i * p^{n_i} into (p-1)*k + sum t_i
    k = data.draw(st.one_of(st.integers(1, 2000), st.integers(1, INT64_MAX // p)))
    assert _eta_p(k, p) == (p - 1) * k + sum(t for _, t in decompose(k, p).terms)


@pytest.mark.parametrize("p", first_primes(25))
def test_eta_witness_small_exponent_path_matches_the_kernel(p):
    # exponents a <= p skip the kernel for a * p; a = p and a = p + 1 are the edges
    for a in range(1, p + 3):
        e = _eta_p(a, p)
        assert e == eta_p_oracle(a, p), a
        assert eta(Factorization(1, (PrimePower(p, a),))) == EtaResult(e, ((p, a, e),), p), a


def test_eta_p_defining_property_by_valuation():
    for p in (2, 3, 5):
        for k in range(1, 200):
            m = eta_p(k, p)
            assert legendre_valuation(m, p) >= k
            assert legendre_valuation(m - 1, p) < k


# --- eta ------------------------------------------------------------------


def test_eta_flagship_example():
    target = Factorization(1, (PrimePower(2, 31), PrimePower(3, 27), PrimePower(7, 13)))
    result = eta(target)
    assert result.value == 84
    assert result.argmax_prime == 7
    assert result.per_prime == ((2, 31, 32), (3, 27, 57), (7, 13, 84))
    negated = Factorization(-1, target.factors)
    assert eta(negated).value == 84


def test_eta_units():
    for n in (1, -1):
        result = eta(factorize(n))
        assert result.value == 0
        assert result.per_prime == ()
        assert result.argmax_prime is None


def test_eta_prime_and_composite_examples():
    assert eta(factorize(13)).value == 13
    result = eta(factorize(10))
    assert result.value == 5
    assert result.argmax_prime == 5
    # literal check: 5! is the first factorial divisible by 10
    assert factorial(5) % 10 == 0
    assert all(factorial(m) % 10 != 0 for m in range(5))


def test_eta_matches_literal_factorials():
    for n in range(2, 300):
        m = eta(factorize(n)).value
        assert factorial(m) % n == 0
        assert factorial(m - 1) % n != 0


def test_eta_sign_symmetry():
    for n in range(1, 2001):
        assert eta(factorize(n)).value == eta(factorize(-n)).value


def test_eta_argmax_ties_go_to_smallest_prime():
    # eta_2(10) = eta_3(5) = 12
    assert eta_p(10, 2) == eta_p(5, 3) == 12
    result = eta(Factorization(1, (PrimePower(2, 10), PrimePower(3, 5))))
    assert result.value == 12
    assert result.argmax_prime == 2


def test_eta_oracle_worked_examples():
    assert eta_oracle(factorize(6)) == 3
    assert eta_oracle(factorize(1)) == 0
    assert eta_oracle(factorize(16)) == 6
    assert legendre_valuation(6, 2) == 4
    assert legendre_valuation(5, 2) == 3


def test_eta_matches_linear_scan_oracle():
    for n in range(2, 500):
        f = factorize(n)
        assert eta(f).value == eta_oracle(f), n


@pytest.mark.parametrize("p", FIRST_TEN_PRIMES)
def test_eta_p_monotone_with_collisions(p):
    values = [eta_p(k, p) for k in range(1, 2001)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert len(set(values)) < len(values)  # not injective


# --- eta_p_preimage ---------------------------------------------------------


def test_preimage_worked_examples():
    assert eta_p_preimage(66, 2) == 64
    assert eta_p(64, 2) == 66
    assert eta_p_preimage(9, 3) == 4
    assert eta_p(4, 3) == 9
    for p in FIRST_TEN_PRIMES:
        assert eta_p_preimage(p, p) == 1


def test_preimage_inverts_eta_p():
    for m in range(2, 501):
        p = next(q for q in range(2, m + 1) if m % q == 0)
        assert eta_p(eta_p_preimage(m, p), p) == m
        assert eta_p_preimage(m, p) == legendre_valuation(m, p)
    for p in (2, 3, 65521, 2**31 - 1):
        top = INT64_MAX // p * p  # the largest multiple of p in range
        for m in (top, top - p, p * p):
            k = eta_p_preimage(m, p)
            assert k == legendre_valuation(m, p)
            assert _eta_p(k, p) == m  # the kernel: p*k may pass eta_p's 64-bit bound


def test_preimage_domain():
    with pytest.raises(ValueError):
        eta_p_preimage(7, 2)  # 2 does not divide 7
    with pytest.raises(ValueError):
        eta_p_preimage(1, 2)
    with pytest.raises(NotPrimeError):
        eta_p_preimage(12, 4)


# --- EtaResult invariants -----------------------------------------------------


def test_eta_result_validation():
    with pytest.raises(ValueError):
        EtaResult(5, ((2, 1, 2), (5, 1, 5)), 2)  # argmax does not achieve value
    with pytest.raises(ValueError):
        EtaResult(7, ((2, 1, 2), (5, 1, 5)), 5)  # value is not the max
    with pytest.raises(ValueError):
        EtaResult(1, (), None)  # unit must have value 0
    with pytest.raises(ValueError):
        EtaResult(6, ((2, 4, 6), (3, 2, 6)), 3)  # a tie reports the smallest prime
    with pytest.raises(ValueError):
        EtaResult(7, ((2, 4, 7),), 2)  # eta_2(4) = 6
    with pytest.raises(ValueError):
        EtaResult(3, ((3, 1, 3), (2, 1, 2)), 3)  # primes out of order
    with pytest.raises(NotPrimeError):
        EtaResult(9, ((4, 1, 9),), 4)  # composite "prime"
    p = 2**61 - 1
    with pytest.raises(OverflowError):
        EtaResult(8 * p, ((p, 8, 8 * p),), p)  # p*a above 64 bits, as eta refuses
