"""CLI contract: outputs, exit codes, and machine-format round-trips."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kempner

from kempner import INT64_MAX, eta, factorize
from kempner.cli import integer, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_factored_input(capsys):
    code, out, err = invoke(capsys, "eta", "2^31*3^27*7^13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "84"
    assert "eta_2(31) = 32" in out
    assert "eta_7(13) = 84" in out
    assert err == ""


def test_eta_negative_inputs(capsys):
    code, out, _ = invoke(capsys, "eta", "-2^31*3^27*7^13")
    assert code == 0
    assert out.splitlines()[0] == "84"
    code, out, _ = invoke(capsys, "eta", "-360")
    assert code == 0
    assert out.splitlines()[0] == "6"
    assert invoke(capsys, "eta", "-h")[0] == 0


def test_eta_zero_is_domain_error(capsys):
    code, out, err = invoke(capsys, "eta", "0")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_zeros_flagship(capsys):
    code, out, err = invoke(capsys, "zeros", "1000")
    assert code == 0
    assert out == "4005 4006 4007 4008 4009\n"


def test_zeros_skipped_and_zero(capsys):
    code, out, _ = invoke(capsys, "zeros", "5")
    assert code == 0
    assert out == "\n"
    code, out, _ = invoke(capsys, "zeros", "0")
    assert code == 0
    assert out == "1 2 3 4\n"


def test_eta_p_and_valuation(capsys):
    assert invoke(capsys, "eta-p", "13", "7") == (0, "84\n", "")
    assert invoke(capsys, "valuation", "4005", "5") == (0, "1000\n", "")
    assert invoke(capsys, "valuation", "10", "6") == (1, "", "error: p must be prime, got 6\n")
    assert invoke(capsys, "valuation", "10", "4") == (1, "", "error: p must be prime, got 4\n")
    assert invoke(capsys, "valuation", "100000000000000000000000", "5") == (
        1,
        "",
        "error: m exceeds the 64-bit limit (9223372036854775807), got 100000000000000000000000\n",
    )


@pytest.mark.parametrize("argv", [("eta-p", "3"), ("decompose", "3"), ("valuation", "10")])
def test_negative_p_is_not_prime(capsys, argv):
    assert invoke(capsys, *argv, "-5") == (1, "", "error: p must be prime, got -5\n")


@pytest.mark.parametrize("argv", [("eta-p", "3"), ("decompose", "5"), ("valuation", "10")])
def test_prime_p_above_64_bits_is_out_of_range(capsys, argv):
    assert invoke(capsys, *argv, "9223372036854775837") == (
        1,
        "",
        "error: p exceeds the 64-bit limit (9223372036854775807), got 9223372036854775837\n",
    )


def test_decompose_output(capsys):
    code, out, _ = invoke(capsys, "decompose", "27", "3")
    assert code == 0
    assert out.splitlines() == [
        "27 = 2*13 + 1*1",
        "terms (exponent, digit): (3, 2), (1, 1)",
    ]


def test_decompose_keeps_the_64_bit_contract(capsys):
    assert invoke(capsys, "decompose", "9223372036854775807", "2") == (
        0,
        "9223372036854775807 = 1*9223372036854775807\nterms (exponent, digit): (63, 1)\n",
        "",
    )
    assert invoke(capsys, "decompose", "9223372036854775808", "2") == (
        1,
        "",
        "error: k exceeds the 64-bit limit (9223372036854775807), got 9223372036854775808\n",
    )
    assert invoke(capsys, "decompose", "1" + "0" * 40, "2") == (
        1,
        "",
        f"error: k exceeds the 64-bit limit (9223372036854775807), got {10**40}\n",
    )


def test_factor_output(capsys):
    assert invoke(capsys, "factor", "10")[1] == "2 * 5\n"
    assert invoke(capsys, "factor", "-12")[1] == "-1 * 2^2 * 3\n"
    assert invoke(capsys, "factor", "1")[1] == "1\n"
    assert invoke(capsys, "factor", "-1")[1] == "-1\n"
    code, _, err = invoke(capsys, "factor", "0")
    assert code == 1
    assert "eta is undefined at 0" in err


def test_decimal_and_factored_agree(capsys):
    for n in (2, 12, 97, 360, 1024, 1999):
        _, plain_out, _ = invoke(capsys, "eta", str(n))
        f = factorize(n)
        factored = "*".join(f"{pp.prime}^{pp.exponent}" for pp in f.factors)
        _, factored_out, _ = invoke(capsys, "eta", factored)
        assert plain_out.splitlines()[0] == factored_out.splitlines()[0]


def test_table_csv_round_trips(capsys):
    code, out, _ = invoke(capsys, "table", "1", "30", "--format", "csv")
    assert code == 0
    data_lines = [line for line in out.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    assert len(rows) == 30
    for row in rows:
        n = int(row["n"])
        assert int(row["eta"]) == eta(factorize(n)).value
        if n == 1:
            assert row["argmax_prime"] == ""
        else:
            assert int(row["argmax_prime"]) == eta(factorize(n)).argmax_prime


def test_table_json_lines_round_trips(capsys):
    code, out, _ = invoke(capsys, "table", "1", "30", "--format", "json-lines")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 30
    for line in lines:
        assert line == line.rstrip()
        record = json.loads(line)
        assert list(record) == ["n", "eta", "witness"]
        expected = eta(factorize(record["n"]))
        assert record["eta"] == expected.value
        assert record["witness"] == [[p, a, e] for p, a, e in expected.per_prime]


def test_table_plain(capsys):
    code, out, _ = invoke(capsys, "table", "5", "5")
    assert code == 0
    assert out == "5 5\n"


def test_table_range_is_checked_before_the_first_row(capsys):
    top = 2**63 - 1
    assert invoke(capsys, "table", str(top - 1), str(top + 2)) == (
        1,
        "",
        f"error: end exceeds the 64-bit limit ({top}), got {top + 2}\n",
    )
    assert invoke(capsys, "table", str(top - 1), str(top)) == (
        0,
        f"{top - 1} 2147483647\n{top} 649657\n",
        "",
    )


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "nope")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "eta-p", "x", "2")[0] == 2
    assert invoke(capsys, "table", "1", "5", "--format", "yaml")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "\u0663\u0666\u0660"),  # Arabic-Indic 360
        ("eta-p", "1_0", "2"),
        ("table", " 1", "3"),
        ("zeros", "+1"),
        ("valuation", "10", "-"),
        ("decompose", "27", "\u00b3"),  # superscript 3
        ("verify", "--max-n", "2_000"),
    ],
)
def test_integer_arguments_accept_only_ascii_decimals(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid integer value" in err


def test_help_exits_0(capsys):
    assert invoke(capsys, "--help")[0] == 0


COMMANDS = "{eta,eta-p,decompose,valuation,zeros,table,factor,verify}"
TOP_USAGE = f"usage: kempner [-h]\n               {COMMANDS} ...\n"
TABLE_USAGE = "usage: kempner table [-h] [--format {plain,csv,json-lines}] start end\n"
HELP_TAIL = "\noptions:\n  -h, --help  show this help message and exit\n"


def positional_help(command, *operands):
    names = "".join(f"  {name}\n" for name in operands)
    usage = f"usage: kempner {command} [-h] {' '.join(operands)}\n"
    return f"{usage}\npositional arguments:\n{names}{HELP_TAIL}"


HELP_TEXT = {
    (): TOP_USAGE
    + f"""
Kempner function: the smallest m whose factorial is a multiple of n.

positional arguments:
  {COMMANDS}
    eta                 eta of a decimal or factored integer, with witness
    eta-p               smallest m with p^k dividing m!
    decompose           representation of k in the repunit base of p
    valuation           exponent of prime p in m!
    zeros               all m whose factorial ends in exactly z zeros
    table               emit n -> eta(n) for a range
    factor              prime factorization of a 64-bit integer
    verify              run oracle-equivalence and property suites

options:
  -h, --help            show this help message and exit
""",
    ("eta",): "usage: kempner eta [-h] expr\n\npositional arguments:\n"
    "  expr        e.g. 360, -360, or 2^31*3^27*7^13\n" + HELP_TAIL,
    ("eta-p",): positional_help("eta-p", "k", "p"),
    ("decompose",): positional_help("decompose", "k", "p"),
    ("valuation",): positional_help("valuation", "m", "p"),
    ("zeros",): positional_help("zeros", "z"),
    ("table",): TABLE_USAGE
    + """
positional arguments:
  start
  end

options:
  -h, --help            show this help message and exit
  --format {plain,csv,json-lines}
""",
    ("factor",): positional_help("factor", "n"),
    ("verify",): """\
usage: kempner verify [-h] [--max-k MAX_K] [--max-n MAX_N] [--primes PRIMES]
                      [--max-zeros MAX_ZEROS]

options:
  -h, --help            show this help message and exit
  --max-k MAX_K         largest k of the eta_p and round-trip checks; the time
                        grows linearly in it
  --max-n MAX_N         largest n of the scans; the time grows quadratically
                        in it
  --primes PRIMES       how many of the smallest primes the per-prime checks
                        use
  --max-zeros MAX_ZEROS
                        largest z of the trailing-zeros check; the time grows
                        linearly in it
""",
}

USAGE_ERRORS = {
    (): TOP_USAGE + "kempner: error: the following arguments are required: command\n",
    ("nope",): TOP_USAGE + "kempner: error: argument command: invalid choice: 'nope' "
    "(choose from 'eta', 'eta-p', 'decompose', 'valuation', 'zeros', 'table', 'factor', "
    "'verify')\n",
    ("eta-p", "x", "2"): "usage: kempner eta-p [-h] k p\n"
    "kempner eta-p: error: argument k: invalid integer value: 'x'\n",
    ("table", "1", "5", "--format", "yaml"): TABLE_USAGE
    + "kempner table: error: argument --format: invalid choice: 'yaml' "
    "(choose from 'plain', 'csv', 'json-lines')\n",
}


@pytest.mark.parametrize("command", sorted(HELP_TEXT))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = invoke(capsys, *command, "--help")
    # Python 3.10 still heads the options "optional arguments:"
    assert (code, out.replace("optional arguments:", "options:"), err) == (
        0,
        HELP_TEXT[command],
        "",
    )


@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
def test_usage_error_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(capsys, *argv) == (2, "", USAGE_ERRORS[argv])


def test_verify_passes(capsys):
    code, out, _ = invoke(capsys, "verify", "--max-k", "60", "--max-n", "120", "--primes", "4")
    assert code == 0
    assert "all 7 checks passed" in out
    assert out.count("ok  ") == 7


def test_verify_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("kempner.verify.eta_oracle", lambda f: -1)
    code, out, err = invoke(
        capsys, "verify", "--max-k", "5", "--max-n", "30", "--primes", "2", "--max-zeros", "3"
    )
    assert (code, err) == (3, "")
    assert out.endswith("\n1 of 7 checks failed\n")
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL eta equals linear-scan oracle (29 failures, e.g. ")


def test_verify_primes_bound_names_the_option(capsys):
    assert invoke(capsys, "verify", "--primes", "100000") == (
        1,
        "",
        "error: primes must be <= 6542, got 100000\n",
    )


def test_zeros_bound_names_z(capsys):
    assert invoke(capsys, "zeros", "1844674407370955162") == (
        1,
        "",
        "error: z must be <= 1844674407370955161, got 1844674407370955162\n",
    )
    code, out, err = invoke(capsys, "zeros", "1844674407370955161")
    assert (code, err) == (0, "")
    assert out == " ".join(str(7378697629483820705 + i) for i in range(5)) + "\n"


def test_verify_max_n_is_capped_by_the_prime_scan(capsys):
    assert invoke(capsys, "verify", "--max-n", "1000001") == (
        1,
        "",
        "error: max_n must be <= 1000000, got 1000001\n",
    )


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-k", "100001", "max_k must be <= 100000, got 100001"),
        ("--max-k", str(INT64_MAX), f"max_k must be <= 100000, got {INT64_MAX}"),
        ("--max-zeros", "100001", "max_zeros must be <= 100000, got 100001"),
        ("--max-zeros", str(INT64_MAX), f"max_zeros must be <= 100000, got {INT64_MAX}"),
    ],
)
def test_verify_max_k_and_max_zeros_are_capped(capsys, option, value, message):
    assert invoke(capsys, "verify", option, value) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("eta", "0"), ("eta", "-0"), ("factor", "0")])
def test_zero_has_one_message(capsys, argv):
    assert invoke(capsys, *argv) == (
        1,
        "",
        "error: 0 has no prime factorization (eta is undefined at 0)\n",
    )


def test_overflow_is_domain_error(capsys):
    code, _, err = invoke(capsys, "eta", str(2**64))
    assert code == 1
    assert "64-bit" in err


def test_verify_refuses_vacuous_ranges(capsys):
    # zero primes checked nothing; max_n below p + 1 leaves eta_p no collision
    for argv in (("--primes", "0"), ("--max-n", "1"), ("--max-k", "0"), ("--max-zeros", "0")):
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ")


def test_verify_max_zeros(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--max-k", "5", "--max-n", "30", "--primes", "2", "--max-zeros", "3"
    )
    assert code == 0
    assert "trailing-zeros solutions match scan (z<=3)" in out


def test_non_ascii_digit_is_syntax_error(capsys):
    code, out, err = invoke(capsys, "eta", "\u0663^2")
    assert (code, out) == (1, "")
    assert "(at position 0)" in err


def test_cli_import_leaves_heavy_modules_unloaded():
    # -S keeps site-installed .pth files from preloading any of them
    src = os.path.dirname(os.path.dirname(os.path.abspath(kempner.__file__)))
    heavy = ("dataclasses", "inspect", "ast", "dis", "typing")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kempner.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src, *heavy],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "\n"


@pytest.mark.parametrize("module", ["kempner", "kempner.cli"])
def test_python_m_runs_the_cli(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(kempner.__file__)))

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )

    done = python_m("eta", "360")
    assert (done.returncode, done.stdout.splitlines()[0], done.stderr) == (0, "6", "")
    done = python_m("eta-p", "x", "2")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("kempner eta-p: error: argument k: invalid integer value: 'x'\n")


def test_closed_stdout_ends_quietly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kempner.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from kempner.cli import main; main()", "table", "1", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert proc.stdout.readline() == b"1 0\n"
        proc.stdout.close()  # like `| head -1`
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert err == b""
    assert proc.returncode == 1


# --- no-traceback fuzz over argv -------------------------------------------

# refused by every verify option: below 1, above 64 bits or not ASCII decimal
REFUSED = ["0", "-1", str(INT64_MAX + 1), str(2**64), "\u0663", "1_0", " 1", "", "x"]
INTEGERS = st.sampled_from(
    REFUSED + ["1", "2", "3", "5", "27", "1000", str(INT64_MAX), str(2**61 - 1)]
) | st.integers(-3, 10_000).map(str)
EXPRESSIONS = (
    INTEGERS
    | st.sampled_from(
        [
            "2^31*3^27*7^13",
            "-2^31*3^27*7^13",
            f"2^{INT64_MAX}*3^{INT64_MAX}",
            f"2^{INT64_MAX}*2^1",
            f"2^{INT64_MAX + 1}",
            "3^" + "9" * 30,
            "7^" + "9" * 5000,
            "2^^3x",
            "4^2",
            "2^0",
            "0^3",
            "-",
            "*",
            "2^",
            "^3",
            "2**3",
            "2^3^4",
            "--2",
            " 2 ^ 3 * 5 ",
        ]
    )
    | st.text("0123456789^*- x\u0663", max_size=24)
)


@st.composite
def table_argv(draw):
    # every accepted range has at most 64 rows
    start = draw(INTEGERS)
    try:
        end = str(integer(start) + draw(st.integers(-2, 63)))
    except ValueError:  # argparse refuses start before any row
        end = draw(INTEGERS)
    fmt = draw(st.sampled_from([None, "csv", "json-lines", "yaml"]))
    return [start, end] + ([] if fmt is None else ["--format", fmt])


@st.composite
def verify_argv(draw):
    # every option is given, refused or at most 60, so no accepted run is slow
    small = st.integers(1, 60).map(str)
    extra = {
        "--max-k": ["100001", str(INT64_MAX)],
        "--max-n": ["1000001", str(INT64_MAX)],
        "--primes": ["6543", str(INT64_MAX)],
        "--max-zeros": ["100001", str(INT64_MAX)],
    }
    options = draw(st.permutations(["--max-k", "--max-n", "--primes", "--max-zeros"]))
    argv = []
    for option in options:
        argv += [option, draw(small | st.sampled_from(REFUSED + extra.get(option, [])))]
    return argv


ARGV = {
    "eta": st.tuples(EXPRESSIONS).map(list),
    "eta-p": st.lists(INTEGERS, min_size=2, max_size=2),
    "decompose": st.lists(INTEGERS, min_size=2, max_size=2),
    "valuation": st.lists(INTEGERS, min_size=2, max_size=2),
    "zeros": st.tuples(INTEGERS).map(list),
    "table": table_argv(),
    "factor": st.tuples(INTEGERS).map(list),
    "verify": verify_argv(),
}


@given(
    argv=st.sampled_from(sorted(ARGV)).flatmap(lambda cmd: ARGV[cmd].map(lambda a: [cmd, *a])),
    junk=st.sampled_from([[], [], [], ["7"], ["--nope"]]),
)
@settings(max_examples=400, deadline=None)
def test_cli_never_raises(argv, junk):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv + junk)
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
