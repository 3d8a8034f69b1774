"""Trailing zeros, the inverse problem, scans, and table emission."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kempner import (
    INT64_MAX,
    SearchBudgetError,
    ZerosSolution,
    emit_table,
    eta_p,
    is_prime,
    parse_factored_expr,
    prime_characterization_scan,
    smallest_factorial_multiple,
    solve_trailing_zeros,
    trailing_zeros,
)


def factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def count_zeros_literally(m: int) -> int:
    return len(str(factorial(m))) - len(str(factorial(m)).rstrip("0"))


# --- trailing_zeros -----------------------------------------------------------


def test_trailing_zeros_known_values():
    assert trailing_zeros(4005) == 1000
    assert trailing_zeros(4) == 0
    assert trailing_zeros(25) == 6
    assert count_zeros_literally(25) == 6


def test_trailing_zeros_matches_literal_count():
    for m in range(1, 120):
        assert trailing_zeros(m) == count_zeros_literally(m), m


def test_trailing_zeros_domain():
    with pytest.raises(ValueError):
        trailing_zeros(0)


# --- solve_trailing_zeros -------------------------------------------------------


def test_solve_flagship_example():
    solution = solve_trailing_zeros(1000)
    assert solution.members == (4005, 4006, 4007, 4008, 4009)
    assert trailing_zeros(4010) == 1001


def test_solve_small_and_skipped():
    assert solve_trailing_zeros(1).members == tuple(
        m for m in range(1, 31) if trailing_zeros(m) == 1
    ) == (5, 6, 7, 8, 9)
    assert solve_trailing_zeros(5).members == ()
    assert trailing_zeros(24) == 4
    assert trailing_zeros(25) == 6


def test_solve_matches_brute_scan():
    for z in range(1, 61):
        expected = tuple(m for m in range(1, 5 * z + 11) if trailing_zeros(m) == z)
        assert solve_trailing_zeros(z).members == expected, z


def test_solve_structure():
    for z in range(1, 200):
        members = solve_trailing_zeros(z).members
        if members:
            assert len(members) == 5
            assert members[0] % 5 == 0
            assert members[0] == eta_p(z, 5)


@given(z=st.one_of(st.integers(0, 2000), st.integers(0, INT64_MAX // 5)))
@settings(max_examples=300)
def test_solve_agrees_with_legendre_count(z):
    # only trailing_zeros decides here: bisect for the least m with >= z zeros
    lo, hi = 1, 5 * z + 5
    while lo < hi:
        mid = (lo + hi) // 2
        if trailing_zeros(mid) >= z:
            hi = mid
        else:
            lo = mid + 1
    members = solve_trailing_zeros(z).members
    if not members:
        assert trailing_zeros(lo) > z
        return
    assert members == tuple(range(lo, members[-1] + 1))
    assert all(trailing_zeros(m) == z for m in members)
    assert trailing_zeros(members[-1] + 1) > z


def test_solve_domain():
    with pytest.raises(ValueError):
        solve_trailing_zeros(-1)


def test_zero_count_zero_constant():
    assert solve_trailing_zeros(0) == ZerosSolution(0, (1, 2, 3, 4))
    assert all(trailing_zeros(m) == 0 for m in solve_trailing_zeros(0).members)
    assert trailing_zeros(5) == 1


def test_zeros_solution_validation():
    with pytest.raises(ValueError):
        ZerosSolution(1, (5, 6))  # wrong length
    with pytest.raises(ValueError):
        ZerosSolution(1, (5, 6, 7, 8, 10))  # not contiguous
    with pytest.raises(ValueError):
        ZerosSolution(1, (6, 7, 8, 9, 10))  # not starting at a multiple of 5
    with pytest.raises(ValueError):
        ZerosSolution(1, (1, 2, 3, 4))  # the four-member answer belongs to z = 0 only
    with pytest.raises(ValueError):
        ZerosSolution(1, (10, 11, 12, 13, 14))  # right shape, answer of z = 2
    with pytest.raises(ValueError):
        ZerosSolution(7, (5, 6, 7, 8, 9))  # right shape, wrong values
    with pytest.raises(ValueError):
        ZerosSolution(-1, ())
    assert ZerosSolution(0, (1, 2, 3, 4)).members == (1, 2, 3, 4)


# --- smallest_factorial_multiple -------------------------------------------------


def test_smallest_factorial_multiple():
    assert smallest_factorial_multiple(parse_factored_expr("2^31*3^27*7^13")).value == 84
    assert smallest_factorial_multiple(parse_factored_expr("-1")).value == 0
    assert smallest_factorial_multiple(parse_factored_expr("10")).value == 5


# --- prime_characterization_scan ---------------------------------------------------


def test_prime_characterization_scan_is_clean():
    assert prime_characterization_scan(5) == []
    assert prime_characterization_scan(100) == []
    assert prime_characterization_scan(10_000) == []


def test_prime_characterization_scan_to_10_5_is_clean():
    assert prime_characterization_scan(10**5) == []


@pytest.mark.parametrize("liar", [1999, 2000])  # a prime called composite, and the reverse
def test_prime_characterization_scan_reports_a_wrong_primality(monkeypatch, liar):
    monkeypatch.setattr("kempner.applications.is_prime", lambda n: is_prime(n) != (n == liar))
    assert prime_characterization_scan(2000) == [liar]


def test_prime_characterization_scan_domain():
    with pytest.raises(ValueError):
        prime_characterization_scan(4)
    with pytest.raises(SearchBudgetError):
        prime_characterization_scan(10**6 + 1)


# --- emit_table ---------------------------------------------------------------------


def test_table_plain_first_sixteen():
    lines = list(emit_table(1, 16, "plain"))
    values = [int(line.split()[1]) for line in lines]
    assert values == [0, 2, 3, 4, 5, 3, 7, 4, 6, 5, 11, 4, 13, 7, 5, 6]
    assert lines[0] == "1 0"


def test_table_csv_format():
    lines = list(emit_table(5, 5, "csv"))
    assert lines == ["# convention: eta(1)=0", "n,eta,argmax_prime", "5,5,5"]
    lines = list(emit_table(1, 2, "csv"))
    assert lines[2] == "1,0,"  # no argmax prime for n = 1
    assert lines[3] == "2,2,2"


def test_table_json_lines_format():
    lines = list(emit_table(4, 4, "json-lines"))
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {"n": 4, "eta": 4, "witness": [[2, 2, 4]]}
    assert list(record) == ["n", "eta", "witness"]
    assert lines[0] == lines[0].strip()


def test_table_is_stable():
    first = list(emit_table(1, 50, "csv"))
    second = list(emit_table(1, 50, "csv"))
    assert first == second
    assert list(emit_table(1, 50, "json-lines")) == list(emit_table(1, 50, "json-lines"))


def test_table_domain():
    with pytest.raises(ValueError):
        list(emit_table(0, 5, "plain"))
    with pytest.raises(ValueError):
        list(emit_table(5, 4, "plain"))
    with pytest.raises(ValueError):
        list(emit_table(1, 5, "yaml"))
    with pytest.raises(OverflowError):
        next(emit_table(2**63 - 2, 2**63 + 1, "plain"))
