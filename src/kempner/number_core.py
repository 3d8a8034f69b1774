"""Integer arithmetic primitives: repunits, factorial valuations, primality,
and factorization at 64-bit scale.

Public values are bounded by INT64_MAX; internal products may use up to
128 bits. Anything beyond raises OverflowError instead of silently wrapping
or silently succeeding with bignums, so the supported range is explicit.

A prime argument is checked in one place, `_require_prime`, which every
public entry that takes one calls (`repunit`, `legendre_valuation` and the
`PrimePower` constructor here, and the entries of `repunit_repr`, `eta`
and `exprs`): anything below 2 or composite, negative values included,
raises `NotPrimeError`. The private twins `_repunit` and `_legendre` skip
that proof for callers that already hold a proven prime. `factorize`
proves each prime it finds once (trial division yields primes by
construction, and `_factor_cofactor` states the rule for what is left)
and builds its `PrimePower`s through `_proven_power`, which trusts its
caller and skips the constructor's re-proof.

`factorize` trial-divides a single n by the primes below 2^10 only; a
cofactor below 2^20 is then prime (the next prime is 1031 and
1031^2 > 2^20), and anything larger goes to Miller-Rabin and Brent's rho
(Brent, BIT 20, 1980). `_factor_range` factors a whole range [start, end]
for `table` and the prime scan: a segmented sieve of Eratosthenes (Bays &
Hudson, BIT 17, 1977) divides each base prime up to min(2^16, sqrt(end))
out of its multiples, so a cofactor below 2^32 is prime. Both hand what is
left of each n, with their bound, to `_factor_cofactor`, the one cofactor
rule.

The primes below 2^16 are sieved once at import: `is_prime` answers
n < 2^16 from them, and `_factor_range` and `first_primes` read them.
Above 2^16, `is_prime` is deterministic Miller-Rabin sized to n: bases
2, 7, 61 below 4,759,123,141 and 2, 3, 5, 7, 11 below 2,152,302,898,747
(each bound is the first strong pseudoprime to its bases; Jaeschke, Math.
Comp. 61, 1993), then Jim Sinclair's 7 bases, exact below 2^64.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

from .errors import NotPrimeError, ZeroInputError

INT64_MAX = 2**63 - 1
INT128_MAX = 2**127 - 1


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


# Primes below 2^16; immutable after construction.
SMALL_PRIMES = _sieve(1 << 16)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
# factorize's trial divisors, the 172 primes below 2^10
_TRIAL_PRIMES = SMALL_PRIMES[: bisect_right(SMALL_PRIMES, 1 << 10)]

# (bound, witnesses): `is_prime` tests n with the first tier where n < bound.
# The first two bounds are the smallest strong pseudoprimes to their bases
# (Jaeschke), hence the strict comparison; Sinclair's 7 bases are exact below
# 2^64 (widely reproduced from miller-rabin.appspot.com).
_MR_TIERS = (
    (4_759_123_141, (2, 7, 61)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (INT64_MAX + 1, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)


def is_prime(n: int) -> bool:
    """Exact primality test for 0 <= n <= INT64_MAX.

    n < 2^16 is looked up in the import-time sieve. Above that, deterministic
    Miller-Rabin with 3 witnesses (2, 7, 61) below 4,759,123,141, 5 (2 to 11)
    below 2,152,302,898,747 (both bounds from Jaeschke, 1993), and Sinclair's
    7 up to INT64_MAX. Raises OverflowError above the supported range rather
    than degrading to a probabilistic answer.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > INT64_MAX:
        raise OverflowError(f"is_prime supports n <= {INT64_MAX}, got {n}")
    if n < 2:
        return False
    if n < (1 << 16):
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            break
    # each witness is below 2^16 <= n or below the previous tier's bound <= n,
    # so none is 0 mod n
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int, context: str = "p") -> None:
    """Raise NotPrimeError(p, context) unless p is a prime."""
    if p < 2 or not is_prime(p):
        raise NotPrimeError(p, context)


def repunit(p: int, n: int) -> int:
    """Generalized repunit 1 + p + ... + p^(n-1) = (p^n - 1)/(p - 1).

    Satisfies repunit(p, 1) == 1 and repunit(p, n+1) == p*repunit(p, n) + 1.
    Raises OverflowError once p^n leaves the 128-bit intermediate range.
    """
    _require_prime(p)
    return _repunit(p, n)


def _repunit(p: int, n: int) -> int:
    """repunit(p, n) for a prime the caller has already proven."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 127:  # p >= 2, so p^n >= 2^n already too big
        raise OverflowError(f"p^n exceeds 128-bit range for p={p}, n={n}")
    power = p**n
    if power > INT128_MAX:
        raise OverflowError(f"p^n exceeds 128-bit range for p={p}, n={n}")
    return (power - 1) // (p - 1)


def legendre_valuation(m: int, p: int) -> int:
    """Exponent of the prime p in m!, i.e. sum of floor(m / p^i) for i >= 1.

    Defined for 0 <= m <= INT64_MAX; the sum has at most log_p(m) nonzero
    terms.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > INT64_MAX:
        raise OverflowError(f"m exceeds the 64-bit limit ({INT64_MAX}), got {m}")
    _require_prime(p)
    return _legendre(m, p)


def _legendre(m: int, p: int) -> int:
    """legendre_valuation(m, p) with its arguments unchecked."""
    total = 0
    q = m // p
    while q:
        total += q
        q //= p
    return total


@dataclass(frozen=True)
class PrimePower:
    """One p^a term of a factorization; prime is checked on construction."""

    prime: int
    exponent: int

    def __post_init__(self):
        _require_prime(self.prime, "prime")
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")


def _proven_power(prime: int, exponent: int) -> PrimePower:
    """A PrimePower for a prime the caller has already proven and an exponent >= 1."""
    power = object.__new__(PrimePower)
    object.__setattr__(power, "prime", prime)
    object.__setattr__(power, "exponent", exponent)
    return power


@dataclass(frozen=True)
class Factorization:
    """A nonzero integer as sign * p1^a1 * ... * ps^as, primes strictly increasing.

    An empty factors tuple represents +1 or -1.
    """

    sign: int
    factors: tuple[PrimePower, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        primes = [f.prime for f in self.factors]
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError(f"primes must be strictly increasing, got {primes}")

    def value(self) -> int:
        """Reconstruct the integer (may exceed 64 bits for factored input)."""
        v = self.sign
        for f in self.factors:
            v *= f.prime**f.exponent
        return v


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant).

    Randomness is seeded by n, so repeated calls are reproducible.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # a sign flip of q leaves gcd(q, n) as is
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _factor_cofactor(n: int, acc: dict[int, int], proven_below: int) -> None:
    # n > 1 has no prime factor up to min(t, sqrt(n)), t the caller's last trial
    # prime, so below proven_below <= (next prime after t)^2 it is prime:
    # factorize passes 2^20 (t = 1021, then 1031), _factor_range 2^32
    # (t = 65521, then 65537). Every key of acc is a proven prime, so a factor
    # already there is not proven again.
    if n < proven_below or n in acc or is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_cofactor(d, acc, proven_below)
    _factor_cofactor(n // d, acc, proven_below)


def factorize(n: int) -> Factorization:
    """Unique factorization of a nonzero signed integer with |n| <= INT64_MAX.

    Trial division over the primes below 2^10; a remaining cofactor below
    2^20 is prime, and a larger one is certified by Miller-Rabin or split
    by Brent's rho.
    """
    if n == 0:
        raise ZeroInputError("0 has no prime factorization (eta is undefined at 0)")
    sign = 1 if n > 0 else -1
    m = abs(n)
    if m > INT64_MAX:
        raise OverflowError(
            f"|n| exceeds the 64-bit limit ({INT64_MAX}); supply large inputs in factored form"
        )
    exponents: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            m //= p
    if m > 1:
        _factor_cofactor(m, exponents, 1 << 20)
    factors = tuple(_proven_power(p, a) for p, a in sorted(exponents.items()))
    return Factorization(sign, factors)


_SEGMENT = 1 << 12  # numbers per sieve segment, which bounds memory near 2^63


def _factor_range(start: int, end: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """(n, [(prime, exponent), ...]) for each n in [start, end], primes increasing.

    For 1 <= start <= end <= INT64_MAX, unchecked. Each segment divides
    the base primes up to min(2^16, sqrt(end)) out of their multiples;
    what is left of an n then has no prime factor up to min(2^16, sqrt(n))
    and goes to `_factor_cofactor`, whose primes all exceed the base ones.
    """
    base = SMALL_PRIMES[: bisect_right(SMALL_PRIMES, min(1 << 16, isqrt(end)))]
    for lo in range(start, end + 1, _SEGMENT):
        size = min(_SEGMENT, end + 1 - lo)
        rest = list(range(lo, lo + size))
        found: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for p in base:
            for i in range(-lo % p, size, p):
                m, a = rest[i] // p, 1
                while m % p == 0:
                    m //= p
                    a += 1
                rest[i] = m
                found[i].append((p, a))
        for n, m, factors in zip(range(lo, lo + size), rest, found):
            if m > 1:
                acc: dict[int, int] = {}
                _factor_cofactor(m, acc, 1 << 32)
                factors.extend(sorted(acc.items()))
            yield n, factors


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes in increasing order."""
    if count <= len(SMALL_PRIMES):
        return SMALL_PRIMES[:count]
    raise ValueError(f"count must be <= {len(SMALL_PRIMES)}")
