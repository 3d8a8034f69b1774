"""Command-line front end.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 domain error (or stdout closed before the output was written), 2 usage
error, 3 verification failure. `COMMANDS` is the one place where a
subcommand is declared: its name, help, handler and arguments. `run` builds
the parser on its first call and reuses it for every later call in the
process; argparse reads COLUMNS when it formats help, not when it builds.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .applications import TABLE_FORMATS, emit_table, solve_trailing_zeros
from .errors import SearchBudgetError
from .eta import eta, eta_p
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


def _cmd_eta(args) -> None:
    result = eta(parse_factored_expr(args.expr))
    print(result.value)
    for p, a, e in result.per_prime:
        mark = "  <- max" if p == result.argmax_prime else ""
        print(f"  eta_{p}({a}) = {e}{mark}")


def _cmd_decompose(args) -> None:
    d = decompose(args.k, args.p)  # proves p, so the repunits need not
    expanded = " + ".join(f"{t}*{_repunit(d.p, n)}" for n, t in d.terms)
    print(f"{args.k} = {expanded}")
    print("terms (exponent, digit):", ", ".join(f"({n}, {t})" for n, t in d.terms))


def _cmd_table(args) -> None:
    for line in emit_table(args.start, args.end, args.format):
        print(line)


def _cmd_verify(args) -> int | None:
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


_INT = {"type": integer}
_VERIFY_DEFAULTS = VerifyConfig()

# (name, help, handler, arguments) in `--help` order, each argument a (flag,
# add_argument keywords) pair; a handler that returns None has succeeded
COMMANDS = (
    ("eta", "eta of a decimal or factored integer, with witness",
     _cmd_eta, [("expr", {"help": "e.g. 360, -360, or 2^31*3^27*7^13"})]),
    ("eta-p", "smallest m with p^k dividing m!",
     lambda args: print(eta_p(args.k, args.p)), [("k", _INT), ("p", _INT)]),
    ("decompose", "representation of k in the repunit base of p",
     _cmd_decompose, [("k", _INT), ("p", _INT)]),
    ("valuation", "exponent of prime p in m!",
     lambda args: print(legendre_valuation(args.m, args.p)), [("m", _INT), ("p", _INT)]),
    ("zeros", "all m whose factorial ends in exactly z zeros",
     lambda args: print(*solve_trailing_zeros(args.z).members), [("z", _INT)]),
    ("table", "emit n -> eta(n) for a range",
     _cmd_table, [("start", _INT), ("end", _INT),
                  ("--format", {"choices": TABLE_FORMATS, "default": "plain"})]),
    ("factor", "prime factorization of a 64-bit integer",
     lambda args: print(format_factorization(factorize(args.n))), [("n", _INT)]),
    ("verify", "run oracle-equivalence and property suites", _cmd_verify, [
        ("--" + field.replace("_", "-"),
         {"type": integer, "default": getattr(_VERIFY_DEFAULTS, field), "help": text})
        for field, text in (
            ("max_k",
             "largest k of the eta_p and round-trip checks; the time grows linearly in it"),
            ("max_n", "largest n of the scans; the time grows quadratically in it"),
            ("primes", "how many of the smallest primes the per-prime checks use"),
            ("max_zeros", "largest z of the trailing-zeros check; the time grows linearly in it"),
        )
    ]),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kempner",
        description="Kempner function: the smallest m whose factorial is a multiple of n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, handler, arguments in COMMANDS:
        command = sub.add_parser(name, help=text)
        command.set_defaults(func=handler)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
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
        return args.func(args) or EXIT_OK
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


if __name__ == "__main__":
    main()
