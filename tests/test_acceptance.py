"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test prints a `criterion N: PASS/FAIL` line (visible with `pytest -s`
or in captured output); run the module alone with
`pytest tests/test_acceptance.py -v -s`.
"""

import csv
import functools
import io
import json

from kempner import (
    Factorization,
    PrimePower,
    decompose,
    enumerate_all_representations,
    eta,
    eta_p,
    eta_p_oracle,
    eta_p_preimage,
    factorize,
    first_primes,
    is_prime,
    legendre_valuation,
    solve_trailing_zeros,
    trailing_zeros,
)
from kempner.cli import run

FIRST_TEN_PRIMES = first_primes(10)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return inner

    return wrap


@criterion(1, "smallest factorial multiple of 2^31*3^27*7^13")
def test_criterion_1_factored_target():
    assert eta_p(31, 2) == 32
    assert eta_p(27, 3) == 57
    assert eta_p(13, 7) == 84
    for sign in (1, -1):
        result = eta(Factorization(sign, (PrimePower(2, 31), PrimePower(3, 27), PrimePower(7, 13))))
        assert result.value == 84
        assert result.argmax_prime == 7


@criterion(2, "factorials ending in exactly 1000 zeros")
def test_criterion_2_thousand_zeros():
    assert eta_p(1000, 5) == 4005
    assert solve_trailing_zeros(1000).members == (4005, 4006, 4007, 4008, 4009)
    assert trailing_zeros(4010) == 1001


@criterion(3, "closed form equals search oracle, 10 primes x k<=500")
def test_criterion_3_oracle_equivalence():
    for p in FIRST_TEN_PRIMES:
        for k in range(1, 501):
            assert eta_p(k, p) == eta_p_oracle(k, p), (k, p)


@criterion(4, "divisibility and minimality for n in [2, 2000]")
def test_criterion_4_divisibility_minimality():
    for n in range(2, 2001):
        f = factorize(n)
        m = eta(f).value
        assert all(
            legendre_valuation(m, pp.prime) >= pp.exponent for pp in f.factors
        ), n
        assert any(
            legendre_valuation(m - 1, pp.prime) < pp.exponent for pp in f.factors
        ), n


@criterion(5, "unique representation for p in {2,3,5}, k<=1000")
def test_criterion_5_uniqueness():
    for p in (2, 3, 5):
        for k in range(1, 1001):
            assert enumerate_all_representations(k, p) == [decompose(k, p)], (k, p)


@criterion(6, "eta(n)=n iff n prime on (4, 10^4], with eta(4)=4")
def test_criterion_6_prime_characterization():
    for n in range(5, 10_001):
        assert (eta(factorize(n)).value == n) == is_prime(n), n
    assert eta(factorize(4)).value == 4
    assert not is_prime(4)


@criterion(7, "monotone, non-injective, surjective onto [2, 500]")
def test_criterion_7_shape_of_eta_p():
    for p in FIRST_TEN_PRIMES:
        values = [eta_p(k, p) for k in range(1, 2001)]
        assert all(a <= b for a, b in zip(values, values[1:])), p
        assert len(set(values)) < len(values), p  # a collision pair exists
    for m in range(2, 501):
        p = next(q for q in range(2, m + 1) if m % q == 0)
        assert eta_p(eta_p_preimage(m, p), p) == m, m


@criterion(8, "trailing-zeros solutions complete for z<=500")
def test_criterion_8_zeros_inverse_completeness():
    skipped = []
    for z in range(1, 501):
        expected = tuple(m for m in range(1, 5 * z + 11) if trailing_zeros(m) == z)
        assert solve_trailing_zeros(z).members == expected, z
        if not expected:
            skipped.append(z)
    assert skipped[0] == 5


@criterion(9, "CLI invocations and machine-format round-trips")
def test_criterion_9_cli_contract(capsys):
    code = run(["eta", "2^31*3^27*7^13"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "84"

    code = run(["eta", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err != ""

    code = run(["zeros", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "4005 4006 4007 4008 4009\n"

    code = run(["table", "1", "25", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    data = [line for line in out.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(data))))
    assert [int(r["n"]) for r in rows] == list(range(1, 26))
    assert all(int(r["eta"]) == eta(factorize(int(r["n"]))).value for r in rows)

    code = run(["table", "1", "25", "--format", "json-lines"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in records] == list(range(1, 26))
    assert all(r["eta"] == eta(factorize(r["n"])).value for r in records)
    assert all(list(r) == ["n", "eta", "witness"] for r in records)
