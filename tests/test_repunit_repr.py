"""Repunit-base decomposition: greedy path vs exhaustive enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import (
    INT64_MAX,
    NotPrimeError,
    RepunitDecomposition,
    SearchBudgetError,
    decompose,
    enumerate_all_representations,
    first_primes,
    recompose,
    repunit,
)
from kempner import repunit_repr

FIRST_TEN_PRIMES = first_primes(10)


def test_decompose_worked_examples():
    assert decompose(31, 2).terms == ((5, 1),)
    assert decompose(27, 3).terms == ((3, 2), (1, 1))
    assert decompose(13, 7).terms == ((2, 1), (1, 5))
    assert decompose(1000, 5).terms == ((5, 1), (4, 1), (3, 2), (1, 1))


@pytest.mark.parametrize("p", FIRST_TEN_PRIMES)
def test_decompose_one(p):
    assert decompose(1, p).terms == ((1, 1),)


def test_decompose_final_digit_may_reach_p():
    assert decompose(2, 2).terms == ((1, 2),)
    assert decompose(5, 5).terms == ((1, 5),)


def test_decompose_domain():
    with pytest.raises(ValueError):
        decompose(0, 2)
    with pytest.raises(NotPrimeError):
        decompose(10, 6)


def test_decompose_keeps_the_64_bit_contract():
    for p in (2, 3, 65521, 2**31 - 1, 2**61 - 1):
        assert recompose(decompose(INT64_MAX, p)) == INT64_MAX
    for k in (INT64_MAX + 1, 10**40):
        with pytest.raises(OverflowError, match="k exceeds the 64-bit limit"):
            decompose(k, 2)


def test_recompose_worked_examples():
    assert recompose(RepunitDecomposition(5, ((5, 1), (4, 1), (3, 2), (1, 1)))) == 1000
    assert recompose(RepunitDecomposition(2, ((1, 1),))) == 1
    assert recompose(RepunitDecomposition(7, ((2, 1), (1, 5)))) == 13


@given(p=st.sampled_from(FIRST_TEN_PRIMES), k=st.integers(1, 5000))
@settings(max_examples=500)
def test_round_trip(p, k):
    assert recompose(decompose(k, p)) == k


def test_round_trip_exhaustive():
    for p in FIRST_TEN_PRIMES:
        for k in range(1, 5001):
            assert recompose(decompose(k, p)) == k, (k, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_constraints_hold_structurally(p):
    for k in range(1, 501):
        d = decompose(k, p)
        exponents = [n for n, _ in d.terms]
        digits = [t for _, t in d.terms]
        assert exponents == sorted(exponents, reverse=True)
        assert exponents[-1] >= 1
        assert all(1 <= t <= p - 1 for t in digits[:-1])
        assert 1 <= digits[-1] <= p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_final_digit_p_means_exact_division(p):
    hits = 0
    for k in range(1, 1001):
        d = decompose(k, p)
        n_last, t_last = d.terms[-1]
        if t_last == p:
            hits += 1
            leading = k - recompose(RepunitDecomposition(p, d.terms[:-1])) if len(d.terms) > 1 else k
            assert leading == p * repunit(p, n_last)
    assert hits > 0  # the edge occurs in range


def test_enumeration_finds_exactly_the_greedy_answer():
    reps = enumerate_all_representations(27, 3)
    assert reps == [decompose(27, 3)]
    assert enumerate_all_representations(1, 2) == [RepunitDecomposition(2, ((1, 1),))]
    assert enumerate_all_representations(1000, 5) == [decompose(1000, 5)]
    assert enumerate_all_representations(10**4, 7) == [decompose(10**4, 7)]


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(repunit_repr, "SEARCH_BUDGET", 3)
    with pytest.raises(SearchBudgetError, match="exceeded 3 nodes"):
        enumerate_all_representations(5000, 2)
    # (2^61 - 1)^3 is past 128 bits, so the repunits up to k must be listed
    # without computing the first one above k
    with pytest.raises(SearchBudgetError):
        enumerate_all_representations(INT64_MAX, 2**61 - 1)


def test_decomposition_invariant_validation():
    with pytest.raises(ValueError):
        RepunitDecomposition(3, ())  # no terms
    with pytest.raises(ValueError):
        RepunitDecomposition(3, ((1, 1), (2, 1)))  # increasing exponents
    with pytest.raises(ValueError):
        RepunitDecomposition(3, ((2, 3), (1, 1)))  # non-final digit = p
    with pytest.raises(ValueError):
        RepunitDecomposition(3, ((1, 4),))  # final digit > p
    with pytest.raises(ValueError):
        RepunitDecomposition(3, ((0, 1),))  # exponent < 1
    with pytest.raises(NotPrimeError):
        RepunitDecomposition(4, ((1, 1),))
    with pytest.raises(ValueError, match=r"^terms must be a tuple of tuples, got \[\(1, 1\)\]$"):
        RepunitDecomposition(3, [(1, 1)])  # a list: mutable and unhashable
