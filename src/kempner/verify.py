"""Self-check suites behind the CLI `verify` subcommand.

Each check replays a contract against an independent brute-force
realization (search oracles, literal scans) over configurable ranges, so a
deployed build can be validated without a test framework installed.
"""

from __future__ import annotations

from .applications import (
    SCAN_LIMIT,
    prime_characterization_scan,
    solve_trailing_zeros,
    trailing_zeros,
)
from .eta import _eta_p, eta, eta_oracle, eta_p, eta_p_oracle, eta_p_preimage
from .number_core import SMALL_PRIMES, _check_int, _Record, factorize, first_primes
from .repunit_repr import _check_terms, decompose, recompose


# The largest max_k and max_zeros VerifyConfig takes. Measured with Python
# 3.11.7 on a 2 vCPU Xeon, with the default 10 primes: at max_k = 100,000 the
# eta_p and round-trip checks take 16 s and 9 s (linear in max_k and the prime
# count); at max_zeros = 100,000 the trailing-zeros check takes 0.73 s (linear).
MAX_K = 100_000
MAX_ZEROS = 100_000


class VerifyConfig(_Record):
    """Ranges of the checks, rejected on construction when some check would
    run zero cases or could not pass."""

    __slots__ = __match_args__ = ("max_k", "max_n", "primes", "max_zeros")

    def __init__(
        self, max_k: int = 500, max_n: int = 2000, primes: int = 10, max_zeros: int = 100
    ) -> None:
        object.__setattr__(self, "max_k", max_k)
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "max_zeros", max_zeros)
        self.__post_init__()

    def __post_init__(self):
        for name in ("max_k", "primes", "max_zeros"):
            _check_int(name, getattr(self, name), 1)
        for name, top in (
            ("primes", len(SMALL_PRIMES)),
            ("max_n", SCAN_LIMIT),
            ("max_k", MAX_K),
            ("max_zeros", MAX_ZEROS),
        ):
            if getattr(self, name) > top:
                raise ValueError(f"{name} must be <= {top}, got {getattr(self, name)}")
        # eta_p(k) = p*k for k <= p, so the first collision is
        # eta_p(p + 1) = p^2 = eta_p(p); the prime scan starts at n = 5
        least = max(5, first_primes(self.primes)[-1] + 1)
        if self.max_n < least:
            raise ValueError(
                f"max_n must be >= {least} for {self.primes} primes, got {self.max_n}"
            )


class CheckOutcome(_Record):
    __slots__ = __match_args__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def _outcome(name: str, failures: list[str], scope: str) -> CheckOutcome:
    if failures:
        shown = "; ".join(failures[:5])
        return CheckOutcome(name, False, f"{len(failures)} failures, e.g. {shown}")
    return CheckOutcome(name, True, scope)


def check_oracle_equivalence(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    primes = first_primes(cfg.primes)
    for p in primes:
        for k in range(1, cfg.max_k + 1):
            fast, slow = eta_p(k, p), eta_p_oracle(k, p)
            if fast != slow:
                failures.append(f"eta_{p}({k})={fast} but search gives {slow}")
    return _outcome(
        "eta_p equals search oracle",
        failures,
        f"{len(primes)} primes x k<={cfg.max_k}",
    )


def check_repunit_round_trip(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    primes = first_primes(cfg.primes)
    for p in primes:
        for k in range(1, cfg.max_k + 1):
            d = decompose(k, p)  # trusted, and p proven: check the digits alone
            _check_terms(d.p, d.terms)
            back = recompose(d)
            if back != k:
                failures.append(f"recompose(decompose({k}, {p})) = {back}")
    return _outcome(
        "decompose/recompose round-trip",
        failures,
        f"{len(primes)} primes x k<={cfg.max_k}",
    )


def check_divisibility_minimality(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    for n in range(2, cfg.max_n + 1):
        f = factorize(n)
        m = eta(f).value
        if m != eta_oracle(f):
            failures.append(f"eta({n})={m} but linear scan gives {eta_oracle(f)}")
    return _outcome("eta equals linear-scan oracle", failures, f"n<={cfg.max_n}")


def check_monotone_and_non_injective(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    for p in first_primes(cfg.primes):  # primes by construction: no proof needed
        previous = _eta_p(1, p)
        collision = False
        for k in range(2, cfg.max_n + 1):
            current = _eta_p(k, p)
            if current < previous:
                failures.append(f"eta_{p}({k})={current} < eta_{p}({k - 1})={previous}")
            if current == previous:
                collision = True
            previous = current
        if not collision:
            failures.append(f"no collision found for p={p} up to k={cfg.max_n}")
    return _outcome(
        "eta_p nondecreasing with collisions",
        failures,
        f"{cfg.primes} primes x k<={cfg.max_n}",
    )


def check_preimage(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    top = min(500, cfg.max_n)
    for m in range(2, top + 1):
        p = next(q for q in range(2, m + 1) if m % q == 0)  # smallest prime factor
        k = eta_p_preimage(m, p)
        if eta_p(k, p) != m:
            failures.append(f"eta_{p}(preimage({m}))={eta_p(k, p)}")
    return _outcome("preimage inverts eta_p", failures, f"m<={top}")


def check_prime_characterization(cfg: VerifyConfig) -> CheckOutcome:
    failures = [f"n={n}" for n in prime_characterization_scan(cfg.max_n)]
    return _outcome("eta(n)=n exactly at primes (n>4)", failures, f"n<={cfg.max_n}")


def check_zeros_inverse(cfg: VerifyConfig) -> CheckOutcome:
    scan: dict[int, list[int]] = {}  # z -> the m whose factorial has z zeros
    for m in range(1, 5 * cfg.max_zeros + 11):  # m >= 5z + 5 has more than z zeros
        scan.setdefault(trailing_zeros(m), []).append(m)
    failures = []
    for z in range(1, cfg.max_zeros + 1):
        got = solve_trailing_zeros(z).members
        expected = tuple(scan.get(z, ()))
        if got != expected:
            failures.append(f"z={z}: {got} vs scan {expected}")
    return _outcome("trailing-zeros solutions match scan", failures, f"z<={cfg.max_zeros}")


ALL_CHECKS = (
    check_oracle_equivalence,
    check_repunit_round_trip,
    check_divisibility_minimality,
    check_monotone_and_non_injective,
    check_preimage,
    check_prime_characterization,
    check_zeros_inverse,
)


def run_suites(cfg: VerifyConfig = VerifyConfig()) -> list[CheckOutcome]:
    return [check(cfg) for check in ALL_CHECKS]
