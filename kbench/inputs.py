"""Seeded input sets, one per workload.

Each generator returns `(program_input, expected)`: the first is all the child
process sees, the second stays with the checker. The same seed always gives
the same inputs; `scale` shrinks the per-class counts for smoke runs.
"""

from __future__ import annotations

import math
import random

from reference import INT64_MAX, is_prime, next_prime, prev_prime
from spec import TABLE_FROM_ONE_END

TABLE_OFFSET_ROWS = 400
TABLE_FORMATS = ("plain", "csv", "json-lines")

FLAGSHIP = ("2^31*3^27*7^13", ((2, 31), (3, 27), (7, 13)))

# Per-round counts of each input class at scale 1.
QUERY_MIX = {
    "small": 4000,       # n < 2^16: parsing and a short trial division
    "negative": 150,     # -n for n < 2^32: trial division alone settles it
    "invalid": 50,       # 0, malformed text, values over 64 bits
    "prime61": 200,      # all 6,542 trial divisions, then Miller-Rabin
    "prime63": 200,
    "prime_power": 30,   # p^k with the largest k that stays <= INT64_MAX
    "carmichael": 6,     # Chernick (6k+1)(12k+1)(18k+1): rho on the cofactor
    "uniform63": 15,     # uniform in [2^62, 2^63): heavy-tailed rho cost
    "semiprime31": 2,    # two ~31-bit primes: the slowest rho case
}
# The shares put the median operation among the small queries (parse-bound)
# and the 99th percentile inside the tight cluster of the two prime classes
# (trial-division-bound): well under 1% of operations need a long rho run.
# Those heavy-tailed classes stay present but small, so neither the
# percentiles nor the round time swing with the seed.
FACTORED_MIX = {
    "eta": 2000,         # every tenth one is the flagship
    "eta_p": 3000,
    "decompose": 2000,
    "zeros": 600,
    "preimage": 600,
    "invalid": 200,
}
SMALL_PRIMES = tuple(p for p in range(2, 1000) if is_prime(p))


def _count(mix: dict[str, int], scale: float) -> dict[str, int]:
    return {name: max(1, round(n * scale)) for name, n in mix.items()}


def _log_uniform(rng: random.Random, hi: int) -> int:
    """An integer in [1, hi], uniform in log scale; hi itself now and then."""
    if rng.random() < 0.05:
        return hi
    return max(1, min(hi, int(math.exp(rng.random() * math.log(hi)))))


def _chernick(rng: random.Random) -> int:
    # k < 190,000 keeps the product below 2^63; the next hit after a start
    # below 150,000 is always well inside that
    k = rng.randrange(1, 150_000)
    while not (is_prime(6 * k + 1) and is_prime(12 * k + 1) and is_prime(18 * k + 1)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def _prime_power(rng: random.Random) -> int:
    p = prev_prime(_log_uniform(rng, 1 << 21) + 1)
    k = 1
    while p ** (k + 1) <= INT64_MAX:
        k += 1
    return p**k


def _invalid_query(rng: random.Random, i: int) -> tuple[str, str]:
    kind = i % 6
    if kind == 0:
        return "0", "ZeroInputError"
    if kind == 1:
        return str(INT64_MAX + 1 + rng.randrange(1 << 40)), "OverflowError"
    if kind == 2:
        return f"{rng.randrange(1, 10**6)}x{rng.randrange(10)}", "ExprSyntaxError"
    if kind == 3:
        return f"{rng.randrange(2, 100)}^", "ExprSyntaxError"
    if kind == 4:
        return "--" + str(rng.randrange(2, 10**6)), "ExprSyntaxError"
    return " ", "ExprSyntaxError"


def query_inputs(seed: int, scale: float = 1.0):
    """Single decimal queries: `text` for the parser, `n` for factorize."""
    rng = random.Random(f"query:{seed}")
    makers = {
        "small": lambda: rng.randrange(2, 1 << 16),
        "uniform63": lambda: rng.randrange(1 << 62, 1 << 63),
        "prime61": lambda: next_prime((1 << 61) - rng.randrange(1, 1 << 40)),
        "prime63": lambda: prev_prime(INT64_MAX - rng.randrange(0, 1 << 40)),
        "semiprime31": lambda: next_prime(rng.randrange(1 << 30, 1 << 31))
        * next_prime(rng.randrange(1 << 30, 1 << 31)),
        "carmichael": lambda: _chernick(rng),
        "prime_power": lambda: _prime_power(rng),
        "negative": lambda: -rng.randrange(2, 1 << 32),
    }
    cases = []
    for name, count in _count(QUERY_MIX, scale).items():
        for i in range(count):
            if name == "invalid":
                text, error = _invalid_query(rng, i)
                cases.append(((text, None), error))
            else:
                n = makers[name]()
                cases.append(((str(n), n), None))
    rng.shuffle(cases)
    return [op for op, _ in cases], [error for _, error in cases]


def _expression(rng: random.Random, pool: tuple[int, ...]) -> tuple[str, tuple]:
    primes = sorted(rng.sample(pool, rng.randrange(2, 7)))
    factors = tuple((p, _log_uniform(rng, INT64_MAX // p)) for p in primes)
    parts = []
    for p, a in factors:
        if a > 1 and rng.random() < 0.2:  # a repeated base the parser must merge
            cut = rng.randrange(1, a)
            parts += [f"{p}^{cut}", f"{p}^{a - cut}"]
        else:
            parts.append(f"{p}^{a}" if a > 1 or rng.random() < 0.5 else str(p))
    rng.shuffle(parts)
    text = (" * " if rng.random() < 0.2 else "*").join(parts)
    return ("-" if rng.random() < 0.2 else "") + text, factors


def _invalid_factored(rng: random.Random, i: int, p31: int) -> tuple[list, str]:
    p = rng.choice((2, 5, 65521, p31))
    kind = i % 6
    if kind == 0:
        return ["eta_p", _log_uniform(rng, 10**9), rng.choice((4, 6, 65535, p31 * 3))], "NotPrimeError"
    if kind == 1:
        return ["eta_p", INT64_MAX // p + 1 + rng.randrange(1 << 20), p], "OverflowError"
    if kind == 2:
        return ["eta_p", -rng.randrange(0, 100), p], "ValueError"
    if kind == 3:
        return ["decompose", _log_uniform(rng, 10**9), rng.choice((9, 91, 65537 * 3))], "NotPrimeError"
    if kind == 4:
        return ["decompose", 0, p], "ValueError"
    return ["eta", f"{rng.choice((4, 6, 15, 65535))}^{rng.randrange(1, 50)}*5^3"], "NotPrimeError"


def factored_inputs(seed: int, scale: float = 1.0):
    """Library calls on already-factored data: no call here factorizes."""
    rng = random.Random(f"factored:{seed}")
    p31 = prev_prime((1 << 31) - rng.randrange(1, 1 << 20))
    bases = (2, 5, 65521, p31)
    pool = SMALL_PRIMES + (65521, p31)
    cases = []
    for name, count in _count(FACTORED_MIX, scale).items():
        for i in range(count):
            p = bases[i % len(bases)]
            if name == "eta":
                text, factors = FLAGSHIP if i % 10 == 0 else _expression(rng, pool)
                cases.append((["eta", text], factors))
            elif name in ("eta_p", "decompose"):
                cases.append(([name, _log_uniform(rng, INT64_MAX // p), p], None))
            elif name == "zeros":
                cases.append((["zeros", _log_uniform(rng, 10**17)], None))
            elif name == "preimage":
                cases.append((["preimage", p * _log_uniform(rng, INT64_MAX // p), p], None))
            else:
                op, error = _invalid_factored(rng, i, p31)
                cases.append((op, error))
    rng.shuffle(cases)
    return [op for op, _ in cases], [expect for _, expect in cases]


def table_inputs(seed: int, scale: float = 1.0):
    """One range from 1 and one near 10^12, each in every format."""
    rng = random.Random(f"table:{seed}")
    start = 10**12 + rng.randrange(10**9)
    end = start + max(1, round(TABLE_OFFSET_ROWS * scale)) - 1
    ranges = [(1, TABLE_FROM_ONE_END), (start, end)]
    commands = [
        ["table", str(a), str(b), "--format", fmt] for a, b in ranges for fmt in TABLE_FORMATS
    ]
    return commands, [(a, b, fmt) for a, b in ranges for fmt in TABLE_FORMATS]


def verify_inputs(seed: int, scale: float = 1.0):
    """The default `kempner verify`; it takes no input, so the seed is unused."""
    return [["verify"]], [None]


GENERATORS = {
    "table": table_inputs,
    "query": query_inputs,
    "factored": factored_inputs,
    "verify": verify_inputs,
}
