"""Integer arithmetic primitives: repunits, factorial valuations, primality,
and factorization at 64-bit scale.

Public values are bounded by INT64_MAX; internal products may use up to
128 bits. Anything beyond raises OverflowError instead of silently wrapping
or silently succeeding with bignums, so the supported range is explicit.

The argument rules have two owners, which the public entries here and in
`repunit_repr`, `eta`, `applications` and `exprs` call: `_require_prime`
raises `NotPrimeError` below 2 or for a composite, and `_check_int(name,
value, low)` raises `ValueError` below low and `OverflowError` above
INT64_MAX, naming the argument and value; a would-be prime above INT64_MAX
gets that same `OverflowError`. The private twins `_repunit` and
`_legendre` skip the prime proof for callers that already hold a proven
prime. `factorize` proves each prime it finds once (trial division yields
primes by construction, and `_factor_cofactor` states the rule for what is
left) and builds its `PrimePower`s through `_proven_power`, which fills the
record's slots directly and so skips the constructor's re-proof.

The result records of the package (`PrimePower` and `Factorization` here,
and those of `eta`, `repunit_repr`, `applications` and `verify`) share the
small base `_Record` rather than `dataclasses`, whose import pulls in
`inspect` and `ast` and dominated the start-up of a one-shot CLI call.

`factorize` trial-divides a single n by the primes below 2^10 only; a
cofactor below 2^20 is then prime (the next prime is 1031 and
1031^2 > 2^20), and anything larger goes to Miller-Rabin and Brent's rho
(Brent, BIT 20, 1980). `_factor_range` factors a whole range [start, end]
for `table` and the prime scan: a segmented sieve of Eratosthenes (Bays &
Hudson, BIT 17, 1977) divides each base prime up to min(2^16, sqrt(end))
out of its multiples, so a cofactor below 2^32 is prime. Both hand what is
left of each n, with their bound, to `_factor_cofactor`, the one cofactor
rule.

The numbers up to 2^16 are sieved once at import into an immutable `bytes`
table of prime flags: `is_prime` answers n < 2^16 by one lookup in it.
`SMALL_PRIMES`, the primes below 2^16 that `_factor_range` and
`first_primes` read, is extracted from the table with `itertools.compress`.
Above 2^16, `is_prime` is deterministic Miller-Rabin sized to n: bases
2, 7, 61 below 4,759,123,141 and 2, 3, 5, 7, 11 below 2,152,302,898,747
(each bound is the first strong pseudoprime to its bases; Jaeschke, Math.
Comp. 61, 1993), then Jim Sinclair's 7 bases, exact below 2^64.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterator
from itertools import compress
from math import gcd, isqrt

from .errors import NotPrimeError, ZeroInputError

INT64_MAX = 2**63 - 1
INT128_MAX = 2**127 - 1


def _sieve(limit: int) -> bytes:
    """Flags for 0..limit: flags[n] is 1 exactly when n is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return bytes(flags)


# Both immutable: the flags for 0..2^16 and the primes below 2^16, which are
# 2 and the odd n whose flag is set.
_SMALL_FLAGS = _sieve(1 << 16)
SMALL_PRIMES = (2, *compress(range(3, len(_SMALL_FLAGS), 2), _SMALL_FLAGS[3::2]))
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
        return _SMALL_FLAGS[n] == 1
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
    """Raise NotPrimeError(p, context) unless p is a prime, and
    `_check_int`'s OverflowError naming context above INT64_MAX."""
    if p < 2 or p > INT64_MAX or not is_prime(p):
        if p > INT64_MAX:
            _check_int(context, p, 0)
        raise NotPrimeError(p, context)


def _check_int(name: str, value: int, low: int) -> None:
    """Raise unless low <= value <= INT64_MAX, naming the argument and value."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > INT64_MAX:
        raise OverflowError(f"{name} exceeds the 64-bit limit ({INT64_MAX}), got {value}")


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
    _check_int("m", m, 0)
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


class _Record:
    """Base of kempner's immutable result records.

    A record lists its fields in `__slots__`, which is also its
    `__match_args__`, and writes out its own `__init__`: that sets each field
    through `object.__setattr__` and, for a record with a validator, ends by
    calling `__post_init__`, defined on the class itself so that kbench's
    tracer can wrap it there for its `.validate` spans. Records compare and
    hash by their field tuple and print as `Name(field=value, ...)`.
    Assignment and deletion raise AttributeError, so pickle and copy rebuild
    a record through its constructor, which validates it again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class PrimePower(_Record):
    """One p^a term of a factorization; prime is checked on construction."""

    __slots__ = __match_args__ = ("prime", "exponent")

    def __init__(self, prime: int, exponent: int) -> None:
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "exponent", exponent)
        self.__post_init__()

    def __post_init__(self):
        _require_prime(self.prime, "prime")
        _check_int("exponent", self.exponent, 1)


def _proven_power(prime: int, exponent: int) -> PrimePower:
    """A PrimePower for a prime the caller has already proven and an exponent >= 1.

    It fills the same slots as the constructor but skips `__post_init__`,
    so the prime is not proven a second time.
    """
    power = object.__new__(PrimePower)
    object.__setattr__(power, "prime", prime)
    object.__setattr__(power, "exponent", exponent)
    return power


class Factorization(_Record):
    """A nonzero integer as sign * p1^a1 * ... * ps^as, primes strictly increasing.

    An empty factors tuple represents +1 or -1.
    """

    __slots__ = __match_args__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[PrimePower, ...]) -> None:
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)
        self.__post_init__()

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
    _check_int("count", count, 0)
    if count > len(SMALL_PRIMES):
        raise ValueError(f"count must be <= {len(SMALL_PRIMES)}, got {count}")
    return SMALL_PRIMES[:count]
