"""Byte-identity of the CLI's deterministic outputs.

`table` output and the default `verify` report are contractually the same
bytes across versions; the digests and text below pin the output of
kempner 0.1.0 and may only change together with that contract.
"""

import hashlib

import pytest

from kempner.cli import run

TABLE_DIGESTS = {
    "plain": "6c53bc0d07e4fb8c6be84866436ba9085edaa6a6fe22567143b495d6f94081ec",
    "csv": "8fa66a757aa068608c9bfe27a28315d6d6b84b53bdf6b193b1be2067657e1977",
    "json-lines": "d6a573bbaf227eb93d71019e0df86f38e8d8c72ba1ab9035fcfabf9e217dec58",
}

# 400 rows from 10^12, the first table range whose cofactors exceed 2^32
FAR_TABLE_DIGESTS = {
    "plain": "b13f1a5cfd24aeef2f84dbc31fbab04be8262f4475cb8911ab791c8e234f4443",
    "csv": "46c07429b48c236b15e94d935fb8905e80926c89e7c47dc18d9bb455956482f7",
    "json-lines": "e8ed4244f58418d99b550c2b998a95912147e9c0bd5dc9c405deb564f8c6e5fd",
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


@pytest.mark.parametrize("fmt", sorted(TABLE_DIGESTS))
def test_table_one_to_5000_digest(capsys, fmt):
    assert run(["table", "1", "5000", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == TABLE_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", sorted(FAR_TABLE_DIGESTS))
def test_table_from_10_12_digest(capsys, fmt):
    assert run(["table", "1000000000000", "1000000000399", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == FAR_TABLE_DIGESTS[fmt]


def test_default_verify_text(capsys):
    assert run(["verify"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (VERIFY_OUTPUT, "")
