"""What the benchmark measures: workloads, metrics and pinned outputs.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 kbench/run.py --write-manifest`), so the two cannot drift apart.
"""

from __future__ import annotations

WORKLOADS = {
    "table": "kempner table via cli.run, 1..5000 and 400 rows near 10^12 in all formats: tiny contiguous factorizations, repeated small-k eta_p, formatting",
    "query": "single 64-bit decimal queries (n < 2^16, primes near 2^61 and 2^63, semiprimes, Carmichaels, p^k, negatives, invalid text): parse, trial division and rho",
    "factored": "eta, eta_p, decompose, zeros and preimage calls on already-factored input with unique large k: repunit kernel and validation, never factorize",
    "verify": "the default kempner verify via cli.run: the naive oracles eta_oracle, eta_p_oracle and legendre_valuation carry the load",
}

RUN_SECONDS = 15

END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p99_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_frac", "ratio", "higher", 0.01),
]

# (module, callable) pairs timed by the tracer; "Class.validate" is the
# dataclass __post_init__.
TRACED = [
    ("number_core", "is_prime"),
    ("number_core", "factorize"),
    ("number_core", "legendre_valuation"),
    ("number_core", "repunit"),
    ("number_core", "PrimePower.validate"),
    ("number_core", "Factorization.validate"),
    ("repunit_repr", "decompose"),
    ("repunit_repr", "recompose"),
    ("repunit_repr", "RepunitDecomposition.validate"),
    ("eta", "eta_p"),
    ("eta", "eta"),
    ("eta", "EtaResult.validate"),
    ("eta", "eta_p_oracle"),
    ("eta", "eta_oracle"),
    ("eta", "eta_p_preimage"),
    ("exprs", "parse_factored_expr"),
    ("applications", "emit_table"),
    ("applications", "solve_trailing_zeros"),
    ("applications", "smallest_factorial_multiple"),
    ("verify", "run_suites"),
    ("cli", "build_parser"),
    ("cli", "run"),
]
MODULES = ("cli", "applications", "verify", "exprs", "eta", "repunit_repr", "number_core")


def per_layer() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    metrics = []
    for module, name in TRACED:
        metrics += [(f"{module}.{name}.calls", "count"), (f"{module}.{name}.self_s", "s")]
    metrics += [
        ("number_core.is_prime.repeat_ratio", "ratio"),
        ("repunit_repr.decompose.terms", "count"),
    ]
    metrics += [(f"{module}.import_s", "s") for module in MODULES]
    metrics.append(("trace.overhead_ratio", "ratio"))
    return metrics


def manifest() -> dict:
    return {
        "command": ["python3", "kbench/run.py"],
        "paths": ["kbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
{"name": n, "unit": u, "better": "lower"} for n, u in per_layer()
        ],
    }


TABLE_FROM_ONE_END = 5000

# sha256 of `kempner table 1 5000 --format <fmt>` stdout; table output is
# contractually byte-identical across versions.
TABLE_DIGESTS = {
    "plain": "6c53bc0d07e4fb8c6be84866436ba9085edaa6a6fe22567143b495d6f94081ec",
    "csv": "8fa66a757aa068608c9bfe27a28315d6d6b84b53bdf6b193b1be2067657e1977",
    "json-lines": "d6a573bbaf227eb93d71019e0df86f38e8d8c72ba1ab9035fcfabf9e217dec58",
}

VERIFY_OUTPUT = """\
ok   eta_p equals search oracle (10 primes x k<=500)
ok   decompose/recompose round-trip (10 primes x k<=500)
ok   eta equals linear-scan oracle (n<=2000)
ok   eta_p nondecreasing with collisions (10 primes x k<=2000)
ok   preimage inverts eta_p (m<=500)
ok   eta(n)=n exactly at primes (n>4) (n<=2000)
ok   trailing-zeros solutions match scan (z<=100)
all 7 checks passed
"""
