"""Validation happens once, at the public boundary; the kernels trust it.

The trusted kernel `_eta_p` is held against the search oracle and against
`decompose`, and `is_prime` is counted wherever a kempner module looks it
up, so a second proof of the same prime inside one public call shows.
"""

import sys

import pytest

from kempner import (
    INT64_MAX,
    FactoredExpr,
    Factorization,
    NotPrimeError,
    PrimePower,
    RepunitDecomposition,
    decompose,
    eta,
    eta_p,
    eta_p_oracle,
    eta_p_preimage,
    factorize,
    parse_factored_expr,
    smallest_factorial_multiple,
)
from kempner import number_core
from kempner.eta import _eta_p

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
        (lambda: eta_p(10**6, P31), P31),
        (lambda: decompose(10**6, P31), P31),
        (lambda: eta_p_preimage(P31 * 10**9, P31), P31),
        (lambda: factorize(10**12 + 39), 10**12 + 39),
    ],
    ids=["eta_p", "decompose", "eta_p_preimage", "factorize"],
)
def test_public_call_proves_its_prime_once(proofs, call, proven):
    call()
    assert proofs == [proven]


def test_flagship_proves_each_base_at_most_twice(proofs):
    expr = parse_factored_expr("2^31*3^27*7^13*2")
    assert proofs == [2, 3, 7]  # a repeated base is proven once
    f = expr.to_factorization()
    proofs.clear()
    assert eta(f).value == 84
    assert proofs == []  # eta trusts the primes of its PrimePowers
    assert smallest_factorial_multiple(parse_factored_expr("2^31*3^27*7^13")).value == 84
    assert len(proofs) <= 6


def test_eta_keeps_the_range_check():
    f = Factorization(1, (PrimePower(3, INT64_MAX // 3 + 1),))
    with pytest.raises(OverflowError) as exc_info:
        eta(f)
    with pytest.raises(OverflowError) as public_info:
        eta_p(INT64_MAX // 3 + 1, 3)
    assert str(exc_info.value) == str(public_info.value)


def test_hand_built_non_primes_still_rejected():
    with pytest.raises(NotPrimeError):
        PrimePower(4, 1)
    with pytest.raises(NotPrimeError):
        RepunitDecomposition(4, ((1, 1),))
    with pytest.raises(NotPrimeError):
        FactoredExpr(1, ((4, 2),)).to_factorization()


def test_decompose_rejects_non_primes_below_two_and_above():
    for p in (0, 1, 4, 65537 * 3):
        with pytest.raises(NotPrimeError, match=f"p must be prime, got {p}$"):
            decompose(10**9, p)
    with pytest.raises(ValueError):
        decompose(10, -3)


def test_factorize_results_equal_validated_powers():
    for n in (360, 2**61 - 1, (2**31 - 1) * 65521**2, 10**12 + 39):
        f = factorize(n)
        assert f.factors == tuple(PrimePower(pp.prime, pp.exponent) for pp in f.factors)
        assert f.value() == n
