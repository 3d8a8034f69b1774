"""The Kempner function and its prime-power restriction.

eta_p(k) is the smallest m with p^k | m!: with k = sum t_i * a_{n_i} in the
repunit base of p, eta_p(k) = sum t_i * p^{n_i} = (p-1)*k + sum t_i, since
p^n = (p-1)*a_n + 1; the kernel takes the second form and forms p^j once.

eta(n) for a factored n = sign * p1^a1 * ... * ps^as is the largest of the
per-prime values eta_{p_i}(a_i), and 0 for n = +/-1. Both come with dumb
search oracles (`eta_p_oracle`, `eta_oracle`) that realize the defining
property directly so the closed-form path can be cross-checked, and
`eta_p_preimage` inverts eta_p on its image with Legendre's v_p(m!).

Validation happens once, at the public boundary: `eta_p`, `eta_p_oracle` and
`eta_p_preimage` check k or m through `number_core._check_int` and p through
`_require_prime`, and every p*k bound goes through `_check_range`. `eta`
trusts its `Factorization` (each `PrimePower` checked itself on
construction) but still checks the p*k range, since a caller may have built
it, and returns a trusted `EtaResult` (`_trusted_eta_result`); it owns the
max rule and its tie, as `EtaResult`'s validator is `eta` over its own pairs.
The kernel `_eta_p` lives here; it trusts its arguments entirely and checks
nothing. `eta` checks each factor's range and builds its witness in one
loop, so the first factor out of range raises. Table rows and the prime scan
never build an `EtaResult`: the range sieve `applications._factor_range`
imports the kernel and yields each row in one shape itself, eta(n) with its
argmax prime and, when asked, its `json-lines` witness text.
"""

from __future__ import annotations

from .number_core import (
    INT64_MAX,
    Factorization,
    PrimePower,
    _check_int,
    _legendre,
    _Record,
    _require_prime,
)


class EtaResult(_Record):
    """eta(n) with its witness: per-prime values and the prime achieving the max.

    per_prime holds (prime, exponent, eta_p(exponent)) triples in increasing
    prime order; argmax_prime is None only for n = +/-1 (empty per_prime).
    On a tie the smallest prime is reported. A record must equal `eta` of its
    (prime, exponent) pairs, whose `PrimePower`s prove each prime.
    """

    __slots__ = __match_args__ = ("value", "per_prime", "argmax_prime")

    def __init__(
        self, value: int, per_prime: tuple[tuple[int, int, int], ...], argmax_prime: int | None
    ) -> None:
        self._fill(value, per_prime, argmax_prime)

    def __post_init__(self):
        expected = eta(Factorization(1, tuple(PrimePower(p, a) for p, a, _ in self.per_prime)))
        if self != expected:
            raise ValueError(f"must equal eta of its pairs, {expected}, got {self}")


_trusted_eta_result = EtaResult._builder()


def _check_range(k: int, p: int) -> None:
    if p * k > INT64_MAX:
        raise OverflowError(f"eta_p({k}, {p}) may exceed the 64-bit range (bound p*k)")


def _eta_p(k: int, p: int) -> int:
    """eta_p(k) for k >= 0 (k = 0 gives 0) and prime p, arguments unchecked:
    (p-1)*k plus the digit sum of k in the repunit base of p, as a digit t of
    the repunit a_n = (p^n - 1)/(p - 1) stands for t * p^n = (p-1)*t*a_n + t.
    The digits come from `decompose`'s greedy walk, repeated here on purpose
    (a shared digit kernel was measured slower on the `table` and `factored`
    benchmark workloads), with its start and its zero-digit skip; k = 0 starts
    at a_0 = 0 and ends at once, and a_n // p = a_{n-1}.
    """
    repunit = (p ** (k.bit_length() // (p - 1).bit_length()) - 1) // (p - 1)
    while repunit * p < k:  # a_{n+1} = p*a_n + 1 <= k
        repunit = repunit * p + 1
    m = (p - 1) * k
    while k:
        if k >= repunit:
            digit, k = divmod(k, repunit)
            m += digit
        repunit //= p
    return m


def eta_p(k: int, p: int) -> int:
    """Smallest m with p^k | m!, for k >= 1 and prime p.

    Always a multiple of p and at most p*k; that product must fit the
    64-bit range or OverflowError is raised.
    """
    _check_int("k", k, 1)
    _require_prime(p)
    _check_range(k, p)
    return _eta_p(k, p)


def eta_p_oracle(k: int, p: int) -> int:
    """Reference eta_p: binary search for the smallest m with v_p(m!) >= k.

    Independent of the repunit machinery; relies only on the valuation
    being nondecreasing in m and on v_p((p*k)!) >= k, as floor(p*k / p) = k
    is the first term of Legendre's sum.
    """
    _check_int("k", k, 1)
    _require_prime(p)
    _check_range(k, p)
    lo, hi = 1, p * k
    while lo < hi:
        mid = (lo + hi) // 2
        if _legendre(mid, p) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def eta(n: Factorization) -> EtaResult:
    """eta over a factorization: max of eta_{p_i}(a_i), or 0 for +/-1.

    The sign never affects the value. The result m is the least m >= 0
    with m! divisible by |n|.
    """
    per_prime = []
    value, argmax = 0, None
    for f in n.factors:
        p, a = f.prime, f.exponent
        _check_range(a, p)
        e = a * p if a <= p else _eta_p(a, p)  # v_p(m!) = m // p < a for m < a*p <= p^2
        per_prime.append((p, a, e))
        if e > value:  # strict: the smallest prime wins a tie
            value, argmax = e, p
    return _trusted_eta_result(value, tuple(per_prime), argmax)


def eta_oracle(n: Factorization) -> int:
    """Reference eta: linear scan from 0 for the first m whose factorial
    carries every required prime power. Deliberately unoptimized."""
    m = 0
    while any(_legendre(m, f.prime) < f.exponent for f in n.factors):
        m += 1
    return m


def eta_p_preimage(m: int, p: int) -> int:
    """A k with eta_p(k, p) == m, for any m >= 2 divisible by p.

    k = sum d_i * a_i over the base-p digits d_i of m and the repunits a_i
    of p is a repunit-base form (p | m puts each nonzero d_i at i >= 1), so
    eta_p(k) = m; it is (m - s_p(m))/(p - 1) = v_p(m!), Legendre's formula.
    """
    _check_int("m", m, 2)
    _require_prime(p)
    if m % p != 0:
        raise ValueError(f"{p} does not divide {m}: m is not in the image of eta_{p}")
    return _legendre(m, p)
