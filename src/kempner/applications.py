"""Worked problems built on eta: trailing zeros of factorials and their
inverse, smallest factorial multiples of factored targets, a prime
characterization scan, and table emission for regression and cross-checks.
The scan and the table rows read eta(n), its argmax prime and, for
`json-lines`, its witness text off the range sieve `_factor_range`, which
lives here beside its two callers and alone writes that text: a segmented
sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977) over the primes below
2^16, with one division loop, one row shape and eta's kernel `_eta_p`.

The inverse is eta applied twice: m! ends in at least z zeros exactly when
10^z | m!, that is, when m >= eta(10^z) = eta_5(z), so the m with exactly z
zeros are eta_5(z) <= m < eta_5(z + 1).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from math import isqrt

from .errors import SearchBudgetError
from .eta import EtaResult, _eta_p, eta
from .number_core import (
    INT64_MAX,
    SMALL_PRIMES,
    Factorization,
    _check_int,
    _cofactor_primes,
    _legendre,
    _Record,
    is_prime,
)

TABLE_FORMATS = ("plain", "csv", "json-lines")
SCAN_LIMIT = 10**6  # the largest limit prime_characterization_scan takes


class ZerosSolution(_Record):
    """All m >= 1 whose factorial ends in exactly z zeros: the m with
    eta_5(z) <= m < eta_5(z + 1), as 10^z | m! exactly when m >= eta(10^z).

    members is empty when eta_5(z + 1) = eta_5(z) (the count jumps past z
    at a higher power of 5), (1, 2, 3, 4) for z = 0, otherwise five
    integers. The validator compares it with `_zeros_members(z)`.
    """

    __slots__ = __match_args__ = ("z", "members")

    def __init__(self, z: int, members: tuple[int, ...]) -> None:
        self._fill(z, members)

    def __post_init__(self):
        expected = _zeros_members(self.z)
        if self.members != expected:
            raise ValueError(f"members of z = {self.z} must be {expected}, got {self.members}")


_trusted_zeros_solution = ZerosSolution._builder()


def _zeros_members(z: int) -> tuple[int, ...]:
    """The m >= 1 with eta(10^z) <= m < eta(10^(z + 1)); checks z first."""
    _check_int("z", z, 0)
    if z > INT64_MAX // 5:  # every member is below eta_5(z + 1) <= 5z + 5
        raise OverflowError(f"z must be <= {INT64_MAX // 5}, got {z}")
    # eta(10^z) = max(eta_2(z), eta_5(z)), and (p-1)k < eta_p(k) <= pk gives
    # eta_2(z) <= 2z < eta_5(z) for z >= 1, so the prime 2 never decides
    return tuple(range(max(1, _eta_p(z, 5)), _eta_p(z + 1, 5)))


def trailing_zeros(m: int) -> int:
    """Count of trailing base-10 zeros of m!.

    Factors of 5 are scarcer than factors of 2 in a factorial, so this is
    just the 5-adic valuation of m!.
    """
    _check_int("m", m, 1)
    return _legendre(m, 5)


def solve_trailing_zeros(z: int) -> ZerosSolution:
    """All m >= 1 whose factorial has exactly z >= 0 trailing zeros: the
    range from eta_5(z) up to eta_5(z + 1), less m = 0 (see ZerosSolution)."""
    return _trusted_zeros_solution(z, _zeros_members(z))


def smallest_factorial_multiple(n: Factorization) -> EtaResult:
    """Least m with m! a multiple of n, i.e. eta(n)."""
    return eta(n)


def prime_characterization_scan(limit: int) -> list[int]:
    """Every n in (4, limit] where (eta(n) == n) disagrees with primality.

    Expected to return an empty list; a nonempty result means a bug. The
    bound n > 4 matters: eta(4) = 4 although 4 is composite; `is_prime` is
    the side independent of the sieve.
    """
    _check_int("limit", limit, 5)
    if limit > SCAN_LIMIT:
        raise SearchBudgetError(f"scan limit {limit} exceeds budget {SCAN_LIMIT}")
    rows = _factor_range(5, limit, witness=False)
    return [n for n, value, _, _ in rows if (value == n) != is_prime(n)]


def emit_table(start: int, end: int, fmt: str = "plain") -> Iterator[str]:
    """Lines of an n -> eta(n) table for n in [start, end], stable per format.

    plain:      `<n> <eta>`
    csv:        a `# convention: eta(1)=0` comment, header `n,eta,argmax_prime`,
                then integer rows (argmax column empty for n = 1)
    json-lines: one object per line, keys n / eta / witness, where witness
                is a [prime, exponent, eta_p] triple per factor

    eta(1) = 0 here; widely published tables start at 1 instead, hence the
    csv convention marker.
    """
    _check_int("start", start, 1)
    _check_int("end", end, start)
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"format must be one of {TABLE_FORMATS}, got {fmt!r}")
    if fmt == "csv":
        yield "# convention: eta(1)=0"
        yield "n,eta,argmax_prime"
    # p^a <= n <= INT64_MAX and p*a <= p^a, so no row needs eta's p*k check
    if fmt == "json-lines":
        for n, value, _, pieces in _factor_range(start, end):
            yield f'{{"n":{n},"eta":{value},"witness":[{",".join(pieces)}]}}'
    elif fmt == "csv":
        for n, value, argmax, _ in _factor_range(start, end, witness=False):
            yield f"{n},{value},{'' if argmax is None else argmax}"
    else:
        for n, value, _, _ in _factor_range(start, end, witness=False):
            yield f"{n} {value}"


_SEGMENT = 1 << 12  # numbers per sieve segment, which bounds memory near 2^63


def _factor_range(start: int, end: int, witness: bool = True) -> Iterator[tuple]:
    """(n, eta(n), argmax, pieces) for n in [start, end]: argmax the smallest
    prime p with eta_p(a) = eta(n) (None at n = 1), pieces the text
    "[p,a,eta_p(a)]" of each p^a of n, primes increasing, or None if not witness.

    For 1 <= start <= end <= INT64_MAX, unchecked. Each segment divides the
    base primes, those up to limit, out of their multiples in one loop that
    keeps the row's largest eta_p(a) (a*p for a <= p) and its prime; witness
    only decides whether each factor's text is kept. One tail then settles
    what is left of each n: it has no prime factor up to limit, so below
    (limit + 1)^2 (2^32 once end reaches 65535^2, above every row before) it
    is prime, and a larger one goes to `number_core._cofactor_primes`. Such
    a prime q has a <= 3 < q (q > 65535, q^a < 2^63), so eta_q(a) is a*q.
    """
    limit = min(isqrt(end), (1 << 16) - 1)  # every prime up to it is in SMALL_PRIMES
    base = SMALL_PRIMES[: bisect_right(SMALL_PRIMES, limit)]
    proven = (limit + 1) ** 2  # a composite with no prime factor up to limit is >= this
    for lo in range(start, end + 1, _SEGMENT):
        size = min(_SEGMENT, end + 1 - lo)
        rest = list(range(lo, lo + size))
        found = [[] for _ in range(size)] if witness else [None] * size  # zipped by the tail
        best, arg = [0] * size, [None] * size
        for p in base:
            for i in range(-lo % p, size, p):
                m, a = rest[i] // p, 1
                while m % p == 0:
                    m //= p
                    a += 1
                rest[i] = m
                e = a * p if a <= p else _eta_p(a, p)
                if witness:
                    found[i].append(f"[{p},{a},{e}]")
                if e > best[i]:
                    best[i], arg[i] = e, p
        for n, m, value, argmax, pieces in zip(range(lo, lo + size), rest, best, arg, found):
            if 1 < m < proven:
                if witness:
                    pieces.append(f"[{m},1,{m}]")
                if m > value:
                    value, argmax = m, m
            elif m > 1:
                for q, a in _cofactor_primes(m, proven):
                    if witness:
                        pieces.append(f"[{q},{a},{a * q}]")
                    if a * q > value:
                        value, argmax = a * q, q
            yield n, value, argmax, pieces
