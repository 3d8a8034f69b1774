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
`_legendre` skip the argument checks for callers that already hold a
proven prime and a valid count (`_repunit` keeps its 128-bit guard). `factorize` proves each prime it finds once (the least-factor
table and the trial primes yield primes by construction, and
`_factor_cofactor` states the rule for what is left).

The result records of the package (`PrimePower` and `Factorization` here,
and those of `eta`, `repunit_repr`, `applications` and `verify`) share the
small base `_Record` rather than `dataclasses`, whose import pulls in
`inspect` and `ast` and dominated the start-up of a one-shot CLI call. The
constructors validate; what it computed itself the library returns through
builders from `_Record._builder`, which skip the validator `__post_init__`.

`factorize` reads an n below 2^16 off the least-factor table below. A
larger n is screened by one gcd with the product of the 172 primes below
2^10, and only the primes that divide that gcd are divided out; what is
left has no prime factor up to 1021, so below 2^20 it is prime (the next
prime is 1031 and 1031^2 > 2^20), and anything larger goes to `is_prime`
and, unless it is a perfect square, cube or fifth power, to Brent's rho
(Brent, BIT 20, 1980). `_cofactor_primes(m, proven_below)` is the one
entry to that cofactor rule, `_factor_cofactor`: `factorize` calls it with
2^20, and the range sieve of `applications`, whose base primes run up to
2^16, with 2^32.

The numbers below 2^16 are sieved once at import into `_LEAST`, an
immutable `bytes` table of least prime factors (0 for a prime and below 2):
`factorize` divides n < 2^16 by `_LEAST[n] or n` until 1 is left, which
yields its primes in increasing order, and `is_prime` answers n < 2^16 by
one lookup in it. `SMALL_PRIMES`, the primes below 2^16 that the range
sieve and `first_primes` read, is extracted from the table with
`itertools.compress`.
Above 2^16, `is_prime` is deterministic and sized to n: Miller-Rabin with
bases 2, 7, 61 below 4,759,123,141, the first strong pseudoprime to those
bases (Jaeschke, Math. Comp. 61, 1993), then the Baillie-PSW test, a
base-2 Miller-Rabin round and a strong Lucas test (Baillie & Wagstaff,
Math. Comp. 35, 1980), which has no counterexample below 2^64 (Baillie,
Fiori & Wagstaff, Math. Comp. 90, 2021).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable
from itertools import compress
from math import gcd, isqrt, prod

from .errors import NotPrimeError, ZeroInputError

INT64_MAX = 2**63 - 1
INT128_MAX = 2**127 - 1


def _least_factors() -> bytes:
    """The least prime factor of each composite n < 2^16, 0 for the rest.

    That factor is at most 255, so the table is one byte per n. The
    primes below 2^4 mark the composites below 2^8; then the multiples of
    each prime p below 2^8, from p^2 on, are written, largest p first, so
    that the least prime factor of n is the last value written at n.
    """
    least = bytearray(1 << 16)
    for p in (2, 3, 5, 7, 11, 13):
        least[p * p : 1 << 8 : p] = b"\1" * len(range(p * p, 1 << 8, p))
    for p in reversed([p for p in range(2, 1 << 8) if not least[p]]):
        least[p * p :: p] = bytes([p]) * len(range(p * p, 1 << 16, p))
    return bytes(least)


# All immutable: the least-factor table for 0..2^16 - 1, the primes below
# 2^16, which are 2 and the odd n >= 3 with a 0 entry (the translation maps
# 0 to 1 and the rest to 0), and factorize's trial divisors, the 172 primes
# below 2^10, with their product (1,420 bits), and the product of the twelve
# primes up to 37 that `is_prime` screens with.
_LEAST = _least_factors()
SMALL_PRIMES = (
    2,
    *compress(range(3, 1 << 16, 2), _LEAST[3::2].translate(bytes([1]) + bytes(255))),
)
_TRIAL_PRIMES = SMALL_PRIMES[: bisect_right(SMALL_PRIMES, 1 << 10)]
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
_PRODUCT_TO_37 = prod(SMALL_PRIMES[:12])

# `is_prime` tests n < _BPSW_FROM with the witnesses 2, 7 and 61, and
# _BPSW_FROM is the smallest strong pseudoprime to those bases (Jaeschke),
# hence the strict comparison. From there up, base 2 alone is followed by
# `_strong_lucas`: that pair is the Baillie-PSW test (Baillie & Wagstaff,
# Math. Comp. 35, 1980), which no composite below 2^64 passes (Baillie,
# Fiori & Wagstaff, Math. Comp. 90, 2021, checked against Feitsma and
# Galway's list of the base-2 strong pseudoprimes below 2^64). Best of 9
# over 200 primes per size (Python 3.11.7, 2 vCPU): on 36- to 41-bit primes
# it takes 26 to 27 us, where the witnesses 2 to 11, good up to Jaeschke's
# next bound 2,152,302,898,747, take 31 to 34 us; on 20- and 32-bit primes
# it would take 8.0 and 22.6 us, where 2, 7 and 61 take 4.6 and 16.0 us.
_BPSW_FROM = 4_759_123_141


def is_prime(n: int) -> bool:
    """Exact primality test for 0 <= n <= INT64_MAX.

    n < 2^16 is prime when its entry in the least-factor table is 0. Above
    that, deterministic Miller-Rabin with 3 witnesses (2, 7, 61) below
    4,759,123,141 (Jaeschke, 1993); from there up to INT64_MAX, Baillie-PSW:
    witness 2, then `_strong_lucas` (Baillie & Wagstaff, 1980; no composite
    below 2^64 passes both, per Baillie, Fiori & Wagstaff, 2021). Raises
    OverflowError above the supported range rather than degrading to a
    probabilistic answer.
    """
    if not 0 <= n <= INT64_MAX:
        _check_int("n", n, 0)
    if n < 2:
        return False
    if n < (1 << 16):
        return not _LEAST[n]
    if gcd(n, _PRODUCT_TO_37) != 1:  # n >= 2^16 > 37, so n is composite
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in (2, 7, 61) if n < _BPSW_FROM else (2,):  # each below 2^16 <= n
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _BPSW_FROM or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n larger than every |D| it
    tries (`is_prime` calls it from 4,759,123,141 up only), with Selfridge's
    parameters (method A): D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D) / 4.

    Writing n + 1 = d * 2^s, n passes when U_d = 0 or V_(d * 2^r) = 0 (mod n)
    for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:  # no D has (D/n) = -1, so the search would not end
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # gcd(|D|, n) > 1, and |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # the V-only ladder over the bits of d, carrying (V_k, V_(k+1), Q^k) mod n
    # from k = 1: V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k V_(k+1) - Q^k. Q^k is
    # left unreduced when Q = -1 (D = 5, about half of all n): it is then
    # +-1, where reducing -1 would make it the full-width n - 1.
    Q2 = 2 * Q
    v, w, q = 1, (1 - Q2) % n, Q
    for bit in bin(d)[3:]:
        if bit == "1":
            v = (v * w - q) % n
            w = (w * w - q * Q2) % n
            q = q * q * Q
        else:
            w = (v * w - q) % n
            v = (v * v - q - q) % n
            q = q * q
        if Q != -1:
            q %= n
    # D U_d = 2 V_(d+1) - V_d, and gcd(n, 2D) = 1
    if (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v, q = (v * v - q - q) % n, q * q % n
    return v == 0


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
    _check_int("n", n, 1)
    return _repunit(p, n)


def _repunit(p: int, n: int) -> int:
    """repunit(p, n) for a prime the caller has already proven and n >= 1."""
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
    `__match_args__`. Its `__init__` sets each field through
    `object.__setattr__` and, for a record with a validator, ends by calling
    `__post_init__`, defined on the class so that kbench's tracer can wrap it
    for its `.validate` spans. What the library computed it builds with
    `_trusted_<record> = <Record>._builder()`, which sets the slots through
    their member descriptors and skips `__post_init__`. Records compare and
    hash by their field tuple and print as `Name(field=value, ...)`.
    Assignment and deletion raise AttributeError, so pickle and copy rebuild a
    record through its constructor, which validates it again.
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

    @classmethod
    def _builder(cls) -> Callable:
        """The `_trusted_<record>` of a record class of two or three fields; any
        other field count raises TypeError where it is bound, at import."""
        new = object.__new__
        match [cls.__dict__[name].__set__ for name in cls.__slots__]:
            case [set_a, set_b]:
                def build(a, b):
                    record = new(cls)
                    set_a(record, a)
                    set_b(record, b)
                    return record
            case [set_a, set_b, set_c]:
                def build(a, b, c):
                    record = new(cls)
                    set_a(record, a)
                    set_b(record, b)
                    set_c(record, c)
                    return record
            case setters:
                raise TypeError(f"{cls.__name__} has {len(setters)} fields, not 2 or 3")
        return build


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


_trusted_prime_power = PrimePower._builder()  # for a proven prime


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


_trusted_factorization = Factorization._builder()


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


def _factor_cofactor(n: int, acc: dict[int, int], proven_below: int, times: int = 1) -> None:
    # Adds times * v_q(n) to acc[q] for each prime q | n.
    # n > 1 has no prime factor up to min(t, sqrt(n)), t the caller's last trial
    # prime, so below proven_below <= (next prime after t)^2 it is prime:
    # factorize, which has divided out every prime up to t = 1021, passes 2^20
    # (1031 is next), the range sieve `applications._factor_range` 2^32 (t =
    # 65521, then 65537). Every key of acc is a proven prime, so a factor
    # already there is not proven again.
    if n < proven_below or n in acc or is_prime(n):
        acc[n] = acc.get(n, 0) + times
        return
    # Rho is slowest on a prime power, so a perfect power splits by its root
    # first, and the root is factored once with k times the multiplicity.
    # Every prime factor of n exceeds 1021 and 1031^7 > 2^63, so n = r^e has
    # e <= 6, and each such e has a divisor k in (2, 3, 5). Below 2^63 the
    # float root is off by far less than 1/2; r**k == n decides, so a wrong
    # root could only leave n to rho.
    for k in (2, 3, 5):
        r = round(n ** (1 / k))
        if r**k == n:
            _factor_cofactor(r, acc, proven_below, times * k)
            return
    d = _pollard_rho(n)
    _factor_cofactor(d, acc, proven_below, times)
    _factor_cofactor(n // d, acc, proven_below, times)


def _cofactor_primes(m: int, proven_below: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of a cofactor m > 1, primes increasing: the
    one entry to `_factor_cofactor`, whose comment states what m and
    proven_below must meet."""
    acc: dict[int, int] = {}
    _factor_cofactor(m, acc, proven_below)
    return sorted(acc.items())


def factorize(n: int) -> Factorization:
    """Unique factorization of a nonzero signed integer with |n| <= INT64_MAX.

    |n| < 2^16 is read off the least-factor table. A larger |n| loses the
    primes below 2^10 that divide gcd(|n|, their product); a remaining
    cofactor below 2^20 is prime, and a larger one is certified by
    `is_prime`, or split by its root if it is a perfect power, or else by
    Brent's rho.
    """
    if n == 0:
        raise ZeroInputError("0 has no prime factorization (eta is undefined at 0)")
    sign = 1 if n > 0 else -1
    m = abs(n)
    if m > INT64_MAX:
        raise OverflowError(
            f"|n| exceeds the 64-bit limit ({INT64_MAX}); supply large inputs in factored form"
        )
    factors: list[PrimePower] = []
    if m < 1 << 16:
        while m > 1:
            p = _LEAST[m] or m
            m //= p
            a = 1
            while m % p == 0:
                m //= p
                a += 1
            factors.append(_trusted_prime_power(p, a))
        return _trusted_factorization(sign, tuple(factors))
    g = gcd(m, _TRIAL_PRODUCT)  # the product of the trial primes dividing m
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            m //= p
            a = 1
            while m % p == 0:
                m //= p
                a += 1
            factors.append(_trusted_prime_power(p, a))
    if m > 1:
        factors.extend(_trusted_prime_power(p, a) for p, a in _cofactor_primes(m, 1 << 20))
    return _trusted_factorization(sign, tuple(factors))


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes in increasing order."""
    _check_int("count", count, 0)
    if count > len(SMALL_PRIMES):
        raise ValueError(f"count must be <= {len(SMALL_PRIMES)}, got {count}")
    return SMALL_PRIMES[:count]
