"""Self-check suites behind the CLI `verify` subcommand.

Each check replays a contract against an independent brute-force
realization (search oracles, literal scans) over configurable ranges, so a
deployed build can be validated without a test framework installed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .applications import solve_trailing_zeros, trailing_zeros
from .eta import eta, eta_oracle, eta_p, eta_p_oracle, eta_p_preimage
from .number_core import factorize, first_primes, is_prime
from .repunit_repr import decompose, recompose


@dataclass(frozen=True)
class VerifyConfig:
    """Ranges of the checks, rejected on construction when some check would
    run zero cases or could not pass."""

    max_k: int = 500
    max_n: int = 2000
    prime_count: int = 10
    max_zeros: int = 100

    def __post_init__(self):
        for name in ("max_k", "prime_count", "max_zeros"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # eta_p(k) = p*k for k <= p, so the first collision is
        # eta_p(p + 1) = p^2 = eta_p(p); the prime scan starts at n = 5
        least = max(5, first_primes(self.prime_count)[-1] + 1)
        if self.max_n < least:
            raise ValueError(
                f"max_n must be >= {least} for {self.prime_count} primes, got {self.max_n}"
            )


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str


def _outcome(name: str, failures: list[str], scope: str) -> CheckOutcome:
    if failures:
        shown = "; ".join(failures[:5])
        return CheckOutcome(name, False, f"{len(failures)} failures, e.g. {shown}")
    return CheckOutcome(name, True, scope)


def check_oracle_equivalence(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    primes = first_primes(cfg.prime_count)
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
    primes = first_primes(cfg.prime_count)
    for p in primes:
        for k in range(1, cfg.max_k + 1):
            back = recompose(decompose(k, p))
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
    for p in first_primes(cfg.prime_count):
        previous = eta_p(1, p)
        collision = False
        for k in range(2, cfg.max_n + 1):
            current = eta_p(k, p)
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
        f"{cfg.prime_count} primes x k<={cfg.max_n}",
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
    failures = []
    for n in range(5, cfg.max_n + 1):
        if (eta(factorize(n)).value == n) != is_prime(n):
            failures.append(f"n={n}")
    return _outcome("eta(n)=n exactly at primes (n>4)", failures, f"n<={cfg.max_n}")


def check_zeros_inverse(cfg: VerifyConfig) -> CheckOutcome:
    failures = []
    for z in range(1, cfg.max_zeros + 1):
        got = solve_trailing_zeros(z).members
        expected = tuple(m for m in range(1, 5 * z + 11) if trailing_zeros(m) == z)
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
