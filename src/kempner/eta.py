"""The Kempner function and its prime-power restriction.

eta_p(k) is the smallest m with p^k | m!, computed by expanding k in the
repunit base of p and reading the digits against plain powers of p:
k = sum t_i * a_{n_i}  ->  eta_p(k) = sum t_i * p^{n_i}.

eta(n) for a factored n = sign * p1^a1 * ... * ps^as is the largest of the
per-prime values eta_{p_i}(a_i), and 0 for n = +/-1. Both come with dumb
search oracles (`eta_p_oracle`, `eta_oracle`) that realize the defining
property directly so the closed-form path can be cross-checked, and
`eta_p_preimage` inverts eta_p on its image.

Validation happens once, at the public boundary: `eta_p`, `eta_p_oracle`
and `eta_p_preimage` prove their prime and check their ranges, and `eta`
trusts the primes of its `Factorization` (each `PrimePower` proved its own
on construction) but still checks the p*k range. The kernel `_eta_p`
trusts its arguments entirely and checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrimeError
from .number_core import INT64_MAX, Factorization, is_prime, legendre_valuation


@dataclass(frozen=True)
class EtaResult:
    """eta(n) with its witness: per-prime values and the prime achieving the max.

    per_prime holds (prime, exponent, eta_p(exponent)) triples in increasing
    prime order; argmax_prime is None only for n = +/-1 (empty per_prime).
    On a tie the smallest prime is reported.
    """

    value: int
    per_prime: tuple[tuple[int, int, int], ...]
    argmax_prime: int | None

    def __post_init__(self):
        if self.per_prime:
            best = max(e for _, _, e in self.per_prime)
            if self.value != best:
                raise ValueError(f"value {self.value} != max per-prime value {best}")
            if (self.argmax_prime, self.value) not in {(p, e) for p, _, e in self.per_prime}:
                raise ValueError(f"argmax_prime {self.argmax_prime} does not achieve {self.value}")
        elif self.value != 0 or self.argmax_prime is not None:
            raise ValueError("unit factorization must have value 0 and no argmax prime")


def _eta_p(k: int, p: int) -> int:
    """eta_p(k) for k >= 1 and prime p, arguments unchecked.

    The greedy repunit-base expansion of `decompose`, with each digit t of
    the repunit a_n = (p^n - 1)/(p - 1) added as t * p^n on the spot. One
    place down is a floor division by p of both: a_n // p = a_{n-1} since
    a_n = p*a_{n-1} + 1, and the last place, a_1 = 1, takes the remainder.
    """
    repunit, power = 1, p
    while repunit * p < k:  # a_{n+1} = p*a_n + 1 <= k
        repunit = repunit * p + 1
        power *= p
    m = 0
    while k:
        digit, k = divmod(k, repunit)
        m += digit * power
        repunit //= p
        power //= p
    return m


def _check_range(k: int, p: int) -> None:
    if p * k > INT64_MAX:
        raise OverflowError(f"eta_p({k}, {p}) may exceed the 64-bit range (bound p*k)")


def eta_p(k: int, p: int) -> int:
    """Smallest m with p^k | m!, for k >= 1 and prime p.

    Always a multiple of p and at most p*k; that product must fit the
    64-bit range or OverflowError is raised.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(p):
        raise NotPrimeError(p)
    _check_range(k, p)
    return _eta_p(k, p)


def eta_p_oracle(k: int, p: int) -> int:
    """Reference eta_p: binary search for the smallest m with v_p(m!) >= k.

    Independent of the repunit machinery; relies only on the valuation
    being nondecreasing in m and on v_p((p*k)!) >= k, which is checked
    before searching rather than assumed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_prime(p):
        raise NotPrimeError(p)
    if p * k > INT64_MAX:
        raise OverflowError(f"search bound p*k exceeds the 64-bit range for ({k}, {p})")
    hi = p * k
    if legendre_valuation(hi, p) < k:
        raise RuntimeError(f"upper bound {p}*{k} does not reach valuation {k}")
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if legendre_valuation(mid, p) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def eta(n: Factorization) -> EtaResult:
    """eta over a factorization: max of eta_{p_i}(a_i), or 0 for +/-1.

    The sign never affects the value. The result m is the least m >= 0
    with m! divisible by |n|.
    """
    for f in n.factors:
        _check_range(f.exponent, f.prime)
    per_prime = tuple((f.prime, f.exponent, _eta_p(f.exponent, f.prime)) for f in n.factors)
    if not per_prime:
        return EtaResult(0, (), None)
    value = max(e for _, _, e in per_prime)
    argmax = next(p for p, _, e in per_prime if e == value)
    return EtaResult(value, per_prime, argmax)


def eta_oracle(n: Factorization) -> int:
    """Reference eta: linear scan from 0 for the first m whose factorial
    carries every required prime power. Deliberately unoptimized."""
    m = 0
    while any(legendre_valuation(m, f.prime) < f.exponent for f in n.factors):
        m += 1
    return m


def eta_p_preimage(m: int, p: int) -> int:
    """A k with eta_p(k, p) == m, for any m >= 2 divisible by p.

    Reads the base-p digits of m = sum d_i * p^i and returns
    k = sum d_i * a_i over the repunits of p. Divisibility by p puts every
    nonzero digit at exponent >= 1, which is exactly what makes the digit
    list a valid repunit-base representation, so eta_p maps k back to m.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if m > INT64_MAX:
        raise OverflowError(f"m exceeds the 64-bit limit ({INT64_MAX})")
    if not is_prime(p):
        raise NotPrimeError(p)
    if m % p != 0:
        raise ValueError(f"{p} does not divide {m}: m is not in the image of eta_{p}")
    k = 0
    rest, repunit = m, 0  # a_i for the digit d_i; a_0 = 0 meets d_0 = 0 as p | m
    while rest:
        rest, digit = divmod(rest, p)
        k += digit * repunit
        repunit = repunit * p + 1
    return k
