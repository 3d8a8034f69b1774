"""Command-line front end.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 domain error (or stdout closed before the output was written), 2 usage
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .applications import (
    TABLE_FORMATS,
    emit_table,
    smallest_factorial_multiple,
    solve_trailing_zeros,
)
from .errors import SearchBudgetError
from .eta import eta_p
from .exprs import parse_factored_expr
from .number_core import Factorization, _repunit, factorize, legendre_valuation
from .repunit_repr import decompose
from .verify import VerifyConfig, run_suites

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3


def integer(text: str) -> int:
    """argparse type: ASCII digits with an optional leading '-'.

    int() alone would also take other scripts' digits, '_' separators and
    surrounding whitespace.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def format_factorization(f: Factorization) -> str:
    if not f.factors:
        return str(f.sign)
    parts = [
        f"{pp.prime}^{pp.exponent}" if pp.exponent > 1 else str(pp.prime)
        for pp in f.factors
    ]
    body = " * ".join(parts)
    return f"-1 * {body}" if f.sign < 0 else body


def _cmd_eta(args) -> int:
    result = smallest_factorial_multiple(parse_factored_expr(args.expr))
    print(result.value)
    for p, a, e in result.per_prime:
        mark = "  <- max" if p == result.argmax_prime else ""
        print(f"  eta_{p}({a}) = {e}{mark}")
    return EXIT_OK


def _cmd_eta_p(args) -> int:
    print(eta_p(args.k, args.p))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    d = decompose(args.k, args.p)  # proves p, so the repunits need not
    expanded = " + ".join(f"{t}*{_repunit(d.p, n)}" for n, t in d.terms)
    print(f"{args.k} = {expanded}")
    print("terms (exponent, digit):", ", ".join(f"({n}, {t})" for n, t in d.terms))
    return EXIT_OK


def _cmd_valuation(args) -> int:
    print(legendre_valuation(args.m, args.p))
    return EXIT_OK


def _cmd_zeros(args) -> int:
    print(" ".join(str(m) for m in solve_trailing_zeros(args.z).members))
    return EXIT_OK


def _cmd_table(args) -> int:
    for line in emit_table(args.start, args.end, args.format):
        print(line)
    return EXIT_OK


def _cmd_factor(args) -> int:
    print(format_factorization(factorize(args.n)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = VerifyConfig(
        max_k=args.max_k, max_n=args.max_n, primes=args.primes, max_zeros=args.max_zeros
    )
    outcomes = run_suites(cfg)
    for outcome in outcomes:
        status = "ok  " if outcome.ok else "FAIL"
        print(f"{status} {outcome.name} ({outcome.detail})")
    failed = sum(not o.ok for o in outcomes)
    if failed:
        print(f"{failed} of {len(outcomes)} checks failed")
        return EXIT_VERIFY_FAILED
    print(f"all {len(outcomes)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kempner",
        description="Kempner function: the smallest m whose factorial is a multiple of n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", help="eta of a decimal or factored integer, with witness")
    p.add_argument("expr", help="e.g. 360, -360, or 2^31*3^27*7^13")
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("eta-p", help="smallest m with p^k dividing m!")
    p.add_argument("k", type=integer)
    p.add_argument("p", type=integer)
    p.set_defaults(func=_cmd_eta_p)

    p = sub.add_parser("decompose", help="representation of k in the repunit base of p")
    p.add_argument("k", type=integer)
    p.add_argument("p", type=integer)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("valuation", help="exponent of prime p in m!")
    p.add_argument("m", type=integer)
    p.add_argument("p", type=integer)
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("zeros", help="all m whose factorial ends in exactly z zeros")
    p.add_argument("z", type=integer)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("table", help="emit n -> eta(n) for a range")
    p.add_argument("start", type=integer)
    p.add_argument("end", type=integer)
    p.add_argument("--format", choices=TABLE_FORMATS, default="plain")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("factor", help="prime factorization of a 64-bit integer")
    p.add_argument("n", type=integer)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("verify", help="run oracle-equivalence and property suites")
    p.add_argument("--max-k", type=integer, default=500)
    p.add_argument(
        "--max-n",
        type=integer,
        default=2000,
        help="largest n of the scans; the time grows quadratically in it",
    )
    p.add_argument("--primes", type=integer, default=10)
    p.add_argument("--max-zeros", type=integer, default=100)
    p.set_defaults(func=_cmd_verify)

    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # argparse reads `eta -2^31*...` as a flag (only plain negative decimals
    # get special-cased), so shield eta's expression behind `--`
    if (
        len(argv) >= 2
        and argv[0] == "eta"
        and argv[1].startswith("-")
        and argv[1] not in ("-h", "--help")
        and "--" not in argv
    ):
        return [argv[0], "--", *argv[1:]]
    return argv


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse already printed usage or help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OverflowError, SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`kempner table ... | head`): stop
        # quietly, and point stdout at devnull so the flush at exit cannot
        # raise the same error again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DOMAIN_ERROR
    sys.exit(code)
