"""Integer arithmetic primitives: repunits, factorial valuations, primality,
and factorization at 64-bit scale.

Public values are bounded by INT64_MAX; internal products may use up to
128 bits. Anything beyond raises OverflowError instead of silently wrapping
or silently succeeding with bignums, so the supported range is explicit.

Primality is proven where a prime enters the library: `is_prime` itself,
`repunit`, and the `PrimePower` constructor. `factorize` proves each prime
it finds once (trial division yields primes by construction, a cofactor
below 2^32 with no factor up to 2^16 is prime, and a larger one is proven
by Miller-Rabin) and builds its `PrimePower`s through `_proven_power`,
which trusts its caller and skips the constructor's re-proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

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


# Trial-division table for factorize(); immutable after construction.
SMALL_PRIMES = _sieve(1 << 16)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)

# Deterministic Miller-Rabin witnesses, exact for all n < 2^64
# (Jim Sinclair's set, widely reproduced from miller-rabin.appspot.com).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Exact primality test for 0 <= n <= INT64_MAX.

    Deterministic Miller-Rabin; raises OverflowError above the supported
    range rather than degrading to a probabilistic answer.
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
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
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


def repunit(p: int, n: int) -> int:
    """Generalized repunit 1 + p + ... + p^(n-1) = (p^n - 1)/(p - 1).

    Satisfies repunit(p, 1) == 1 and repunit(p, n+1) == p*repunit(p, n) + 1.
    Raises OverflowError once p^n leaves the 128-bit intermediate range.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p < 2 or not is_prime(p):
        raise NotPrimeError(p)
    if n > 127:  # p >= 2, so p^n >= 2^n already too big
        raise OverflowError(f"p^n exceeds 128-bit range for p={p}, n={n}")
    power = p**n
    if power > INT128_MAX:
        raise OverflowError(f"p^n exceeds 128-bit range for p={p}, n={n}")
    return (power - 1) // (p - 1)


def legendre_valuation(m: int, p: int) -> int:
    """Exponent of the prime p in m!, i.e. sum of floor(m / p^i) for i >= 1.

    Total on m >= 0; the sum has at most log_p(m) nonzero terms.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
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
        if not is_prime(self.prime):
            raise NotPrimeError(self.prime, "prime")
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
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_cofactor(n: int, acc: dict[int, int]) -> None:
    # n has no prime factor <= 2^16 here
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_cofactor(d, acc)
    _factor_cofactor(n // d, acc)


def factorize(n: int) -> Factorization:
    """Unique factorization of a nonzero signed integer with |n| <= INT64_MAX.

    Trial division over primes below 2^16, then Pollard rho with
    Miller-Rabin certification for the remaining cofactor.
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
    for p in SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            m //= p
    if m > 1:
        if m < (1 << 32) or is_prime(m):
            # below 2^32 the cofactor must be prime: no factor <= 2^16 remains
            exponents[m] = exponents.get(m, 0) + 1
        else:
            _factor_cofactor(m, exponents)
    factors = tuple(_proven_power(p, a) for p, a in sorted(exponents.items()))
    return Factorization(sign, factors)


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes in increasing order."""
    if count <= len(SMALL_PRIMES):
        return SMALL_PRIMES[:count]
    raise ValueError(f"count must be <= {len(SMALL_PRIMES)}")
