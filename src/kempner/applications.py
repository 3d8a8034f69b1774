"""Worked problems built on eta: trailing zeros of factorials and their
inverse, smallest factorial multiples of factored targets, a prime
characterization scan, and table emission for regression and cross-checks.

The inverse is eta applied twice: m! ends in at least z zeros exactly when
10^z | m!, that is, when m >= eta(10^z) = eta_5(z), so the m with exactly z
zeros are eta_5(z) <= m < eta_5(z + 1).
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import SearchBudgetError
from .eta import EtaResult, _eta_p, _eta_witness, eta
from .number_core import (
    INT64_MAX,
    Factorization,
    _check_int,
    _factor_range,
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
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self):
        expected = _zeros_members(self.z)
        if self.members != expected:
            raise ValueError(f"members of z = {self.z} must be {expected}, got {self.members}")


def _trusted_zeros_solution(z: int, members: tuple[int, ...]) -> ZerosSolution:
    """ZerosSolution(z, members) without its check."""
    solution = object.__new__(ZerosSolution)
    object.__setattr__(solution, "z", z)
    object.__setattr__(solution, "members", members)
    return solution


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
    bound n > 4 matters: eta(4) = 4 although 4 is composite. eta(n) comes
    from the range sieve and `is_prime` stays the independent side.
    """
    if limit <= 4:
        raise ValueError(f"limit must be > 4, got {limit}")
    if limit > SCAN_LIMIT:
        raise SearchBudgetError(f"scan limit {limit} exceeds budget {SCAN_LIMIT}")
    violations = []
    for n, factors in _factor_range(5, limit):
        if (_eta_witness(factors)[0] == n) != is_prime(n):
            violations.append(n)
    return violations


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
    for n, factors in _factor_range(start, end):
        value, per_prime, argmax = _eta_witness(factors)
        if fmt == "plain":
            yield f"{n} {value}"
        elif fmt == "csv":
            yield f"{n},{value},{'' if argmax is None else argmax}"
        else:
            witness = ",".join(f"[{p},{a},{e}]" for p, a, e in per_prime)
            yield f'{{"n":{n},"eta":{value},"witness":[{witness}]}}'
