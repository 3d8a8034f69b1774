"""Worked problems built on eta: trailing zeros of factorials and their
inverse, smallest factorial multiples of factored targets, a prime
characterization scan, and table emission for regression and cross-checks.
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
    """All m >= 1 whose factorial ends in exactly z zeros.

    members is ascending and contiguous: empty when no factorial attains z
    (the count jumps past it at a higher power of 5), (1, 2, 3, 4) for
    z = 0 (m = 0 is not a member), otherwise exactly the five integers from
    one multiple of 5 up to the next.
    """

    __slots__ = __match_args__ = ("z", "members")

    def __init__(self, z: int, members: tuple[int, ...]) -> None:
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self):
        if self.z == 0 and self.members == (1, 2, 3, 4):
            return
        if len(self.members) not in (0, 5):
            raise ValueError(f"members must have 0 or 5 elements, got {len(self.members)}")
        if self.members:
            first = self.members[0]
            if self.members != tuple(range(first, first + 5)):
                raise ValueError(f"members must be contiguous, got {self.members}")
            if first % 5 != 0:
                raise ValueError(f"members must start at a multiple of 5, got {first}")


def _trusted_zeros_solution(z: int, members: tuple[int, ...]) -> ZerosSolution:
    """ZerosSolution(z, members) without its check."""
    solution = object.__new__(ZerosSolution)
    object.__setattr__(solution, "z", z)
    object.__setattr__(solution, "members", members)
    return solution


def trailing_zeros(m: int) -> int:
    """Count of trailing base-10 zeros of m!.

    Factors of 5 are scarcer than factors of 2 in a factorial, so this is
    just the 5-adic valuation of m!.
    """
    _check_int("m", m, 1)
    return _legendre(m, 5)


def solve_trailing_zeros(z: int) -> ZerosSolution:
    """All m >= 1 whose factorial has exactly z >= 0 trailing zeros.

    z = 0 is answered by 1..4. Otherwise the least candidate is eta_5(z);
    eta_2(z) <= eta_5(z) is checked at runtime instead of assumed, so eta
    of 10^z never has to be formed. If the candidate overshoots z, no
    factorial attains z and the solution is empty; otherwise it is the five
    integers up to the next multiple of 5.
    """
    _check_int("z", z, 0)
    if z > INT64_MAX // 5:  # eta_5(z) <= 5z must stay within 64 bits
        raise OverflowError(f"z must be <= {INT64_MAX // 5}, got {z}")
    if z == 0:
        return _trusted_zeros_solution(0, (1, 2, 3, 4))
    candidate = _eta_p(z, 5)  # 1 <= z and 5z <= INT64_MAX, as eta_p requires
    if _eta_p(z, 2) > candidate:
        raise RuntimeError(f"eta_2({z}) > eta_5({z}): 2-adic side cannot dominate")
    if _legendre(candidate, 5) != z:
        return _trusted_zeros_solution(z, ())
    if _legendre(candidate + 5, 5) <= z:
        raise RuntimeError(f"zero count fails to increase after {candidate + 4}")
    return _trusted_zeros_solution(z, tuple(range(candidate, candidate + 5)))


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
        if (max(_eta_p(a, p) for p, a in factors) == n) != is_prime(n):
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
