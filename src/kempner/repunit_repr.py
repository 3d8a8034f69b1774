"""Unique representation of a positive integer in the repunit base of a prime.

Every k >= 1 is a sum t_1*a_{n_1} + ... + t_l*a_{n_l} over the repunits
a_n = (p^n - 1)/(p - 1), with strictly decreasing exponents, digits in
1..p-1 except the final digit which may reach p. `decompose` builds the
representation greedily; `enumerate_all_representations` is the brute-force
uniqueness oracle. Both check p through `number_core._require_prime`, which
for `decompose` is the `RepunitDecomposition` constructor's one proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrimeError, SearchBudgetError
from .number_core import INT64_MAX, _repunit, _require_prime


@dataclass(frozen=True)
class RepunitDecomposition:
    """Terms (exponent n_i, digit t_i) of k in the repunit base of p.

    Invariants are enforced on construction: at least one term, exponents
    strictly decreasing and >= 1, digits in 1..p-1 except the last term
    whose digit may equal p. Zero digits are never stored.
    """

    p: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _require_prime(self.p)
        if len(self.terms) < 1:
            raise ValueError("a decomposition has at least one term")
        exponents = [n for n, _ in self.terms]
        if any(a <= b for a, b in zip(exponents, exponents[1:])):
            raise ValueError(f"exponents must be strictly decreasing, got {exponents}")
        if exponents[-1] < 1:
            raise ValueError(f"exponents must be >= 1, got {exponents}")
        *leading, last = [t for _, t in self.terms]
        if any(not 1 <= t <= self.p - 1 for t in leading):
            raise ValueError(f"non-final digits must be in 1..{self.p - 1}")
        if not 1 <= last <= self.p:
            raise ValueError(f"final digit must be in 1..{self.p}, got {last}")


def decompose(k: int, p: int) -> RepunitDecomposition:
    """The unique repunit-base representation of 1 <= k <= INT64_MAX for prime p.

    Greedy: take the largest repunit a_n <= remainder, digit = remainder
    // a_n, and repeat on the rest, one place down at a time: a_n // p =
    a_{n-1} since a_n = p*a_{n-1} + 1. The base's carry structure
    guarantees the greedy digits always satisfy the invariants, so any
    violation is surfaced as a bug by the dataclass check rather than
    clamped. That check is also the one primality proof of p.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k} (no representation exists)")
    if k > INT64_MAX:  # beyond it, recompose may leave the 128-bit range
        raise OverflowError(f"k exceeds the 64-bit limit ({INT64_MAX}), got {k}")
    if p < 2:  # the walk up the repunits would never end
        raise NotPrimeError(p)
    a, n = 1, 1  # the repunit a_n
    while a * p < k:  # a_{n+1} = p*a_n + 1 <= k
        a = a * p + 1
        n += 1
    terms = []
    while k:
        digit, k = divmod(k, a)
        if digit:
            terms.append((n, digit))
        a //= p
        n -= 1
    return RepunitDecomposition(p, tuple(terms))


def recompose(d: RepunitDecomposition) -> int:
    """Inverse of decompose: the sum of digit * repunit(p, exponent).

    The decomposition proved d.p on construction, so the repunits skip the
    public re-proof.
    """
    return sum(t * _repunit(d.p, n) for n, t in d.terms)


def enumerate_all_representations(
    k: int, p: int, max_exponent: int, max_nodes: int = 1_000_000
) -> list[RepunitDecomposition]:
    """Every valid digit assignment summing to k, by exhaustive search.

    Test oracle for the uniqueness claim; intended for k up to ~10^4.
    Exponents are searched up to max_exponent; the DFS raises
    SearchBudgetError after max_nodes visited nodes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _require_prime(p)
    repunits = [_repunit(p, n) for n in range(1, max_exponent + 1)]
    # reachable[n] = sum of (p-1)*a_j over exponents 1..n; the one possible
    # digit-p bonus (at most one extra a_j, on the final term) is added at
    # the prune site
    reachable = [0]
    for a in repunits:
        reachable.append(reachable[-1] + (p - 1) * a)
    found: list[RepunitDecomposition] = []
    nodes = 0

    def search(remainder: int, max_n: int, chosen: list[tuple[int, int]]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchBudgetError(
                f"representation search for k={k}, p={p} exceeded {max_nodes} nodes"
            )
        if max_n < 1 or remainder > reachable[max_n] + repunits[max_n - 1]:
            return  # maximal digits on every remaining exponent still fall short
        for n in range(max_n, 0, -1):
            a = repunits[n - 1]
            if a > remainder:
                continue
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

    search(k, max_exponent, [])
    return found
