"""Unique representation of a positive integer in the repunit base of a prime.

Every k >= 1 is a sum t_1*a_{n_1} + ... + t_l*a_{n_l} over the repunits
a_n = (p^n - 1)/(p - 1), with strictly decreasing exponents, digits in
1..p-1 except the final digit which may reach p. `decompose` builds the
representation greedily; `enumerate_all_representations` is the brute-force
uniqueness oracle, an unpruned search over every digit on every repunit up
to k. Both prove p once through `number_core._require_prime`. `decompose`
returns a trusted record; the tests rebuild its results through the
constructor, and `verify` passes them to `_check_terms`, the digit
invariants that the constructor checks after proving p.
"""

from __future__ import annotations

from .errors import SearchBudgetError
from .number_core import _check_int, _Record, _repunit, _require_prime

SEARCH_BUDGET = 1_000_000  # the most nodes enumerate_all_representations visits


class RepunitDecomposition(_Record):
    """Terms (exponent n_i, digit t_i) of k in the repunit base of p.

    Invariants are enforced on construction: at least one term, exponents
    strictly decreasing and >= 1, digits in 1..p-1 except the last term
    whose digit may equal p. Zero digits are never stored.
    """

    __slots__ = __match_args__ = ("p", "terms")

    def __init__(self, p: int, terms: tuple[tuple[int, int], ...]) -> None:
        self._fill(p, terms)

    def __post_init__(self):
        _require_prime(self.p)
        if not isinstance(self.terms, tuple) or not all(isinstance(t, tuple) for t in self.terms):
            raise ValueError(f"terms must be a tuple of tuples, got {self.terms!r}")
        _check_terms(self.p, self.terms)


_trusted_repunit_decomposition = RepunitDecomposition._builder()  # for a proven prime p


def _check_terms(p: int, terms: tuple[tuple[int, int], ...]) -> None:
    """Raise ValueError unless terms meet the digit invariants for the
    prime p, which the caller has proven."""
    if len(terms) < 1:
        raise ValueError("a decomposition has at least one term")
    exponents = [n for n, _ in terms]
    if any(a <= b for a, b in zip(exponents, exponents[1:])):
        raise ValueError(f"exponents must be strictly decreasing, got {exponents}")
    if exponents[-1] < 1:
        raise ValueError(f"exponents must be >= 1, got {exponents}")
    *leading, last = [t for _, t in terms]
    if any(not 1 <= t <= p - 1 for t in leading):
        raise ValueError(f"non-final digits must be in 1..{p - 1}")
    if not 1 <= last <= p:
        raise ValueError(f"final digit must be in 1..{p}, got {last}")


def decompose(k: int, p: int) -> RepunitDecomposition:
    """The unique repunit-base representation of 1 <= k <= INT64_MAX for prime p.

    Greedy: take the largest repunit a_n <= remainder, digit = remainder
    // a_n, and repeat on the rest, one place down at a time: a_n // p =
    a_{n-1} since a_n = p*a_{n-1} + 1. The walk starts at most one place
    above the largest, at n = (bit length of k) // (bit length of p - 1), and
    a place whose repunit exceeds the remainder, a zero digit, costs one
    compare. The base's carry structure guarantees the greedy digits always
    satisfy the invariants, so the record skips the constructor's checks (the
    tests rebuild it and `verify` checks its terms, to catch a bug) and
    `_require_prime` is the one proof of p.
    """
    _check_int("k", k, 1)  # above INT64_MAX, recompose may leave the 128-bit range
    _require_prime(p)  # first: below, p = 1 divides by zero and p < 1 walks forever
    n = k.bit_length() // (p - 1).bit_length()  # b // c, with p <= 2^c and 2^(b-1) <= k
    a = (p**n - 1) // (p - 1)  # a_n < 2p^(n-1) <= 2^(b-c+1) <= 2k, so a_{n-1} < k
    while a * p < k:  # a_{n+1} = p*a_n + 1 <= k
        a = a * p + 1
        n += 1
    terms = []
    while k:
        if k >= a:
            digit, k = divmod(k, a)
            terms.append((n, digit))
        a //= p
        n -= 1
    return _trusted_repunit_decomposition(p, tuple(terms))


def recompose(d: RepunitDecomposition) -> int:
    """Inverse of decompose: the sum of digit * repunit(p, exponent).

    d.p was proven when d was built, by its constructor or by `decompose`,
    so the repunits skip the public re-proof.
    """
    return sum(t * _repunit(d.p, n) for n, t in d.terms)


def enumerate_all_representations(k: int, p: int) -> list[RepunitDecomposition]:
    """Every valid digit assignment summing to k, by exhaustive search.

    Test oracle for the uniqueness claim; intended for k up to ~10^4. The
    search is unpruned: every digit 1..p on every repunit <= k, from the
    closed form rather than decompose's walk, with digit p legal only on the
    final term. It raises SearchBudgetError after SEARCH_BUDGET visited nodes.
    """
    _check_int("k", k, 1)
    _require_prime(p)
    repunits = [1]  # a_1, a_2, ... up to k, from the closed form
    while p * repunits[-1] < k:  # a_{n+1} = p*a_n + 1 <= k, so p^{n+1} < 2^127
        repunits.append(_repunit(p, len(repunits) + 1))
    found: list[RepunitDecomposition] = []
    nodes = 0

    def search(remainder: int, max_n: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise SearchBudgetError(
                f"representation search for k={k}, p={p} exceeded {SEARCH_BUDGET} nodes"
            )
        for n in range(max_n, 0, -1):
            a = repunits[n - 1]
            for t in range(1, min(p, remainder // a) + 1):
                rest = remainder - t * a
                if t == p and rest != 0:
                    continue  # digit p is legal only on the final term
                chosen.append((n, t))
                if rest == 0:
                    found.append(RepunitDecomposition(p, tuple(chosen)))
                else:
                    search(rest, n - 1, chosen)
                chosen.pop()

    search(k, len(repunits), [])
    return found
