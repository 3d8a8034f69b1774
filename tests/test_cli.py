"""CLI contract: outputs, exit codes, and machine-format round-trips."""

import csv
import io
import json
import os
import subprocess
import sys

import kempner

from kempner import eta, factorize
from kempner.cli import run


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
    code, _, err = invoke(capsys, "valuation", "10", "6")
    assert code == 1
    assert "prime" in err


def test_decompose_output(capsys):
    code, out, _ = invoke(capsys, "decompose", "27", "3")
    assert code == 0
    assert out.splitlines() == [
        "27 = 2*13 + 1*1",
        "terms (exponent, digit): (3, 2), (1, 1)",
    ]


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


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "nope")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "eta-p", "x", "2")[0] == 2
    assert invoke(capsys, "table", "1", "5", "--format", "yaml")[0] == 2


def test_help_exits_0(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_verify_passes(capsys):
    code, out, _ = invoke(capsys, "verify", "--max-k", "60", "--max-n", "120", "--primes", "4")
    assert code == 0
    assert "all 7 checks passed" in out
    assert out.count("ok  ") == 7


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
