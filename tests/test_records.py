"""The behaviour users can see on kempner's seven immutable result records.

Each record compares and hashes by its fields, prints as
`Name(field=value, ...)`, refuses attribute assignment and deletion, takes
its fields by keyword or position, survives pickle and copy, and matches a
positional class pattern. The records the library builds itself skip their
validators, so every one its producers return must pass the validating
constructor unchanged, no producer may run a validator, and a record from a
`_trusted_<record>` builder must behave like the constructor's.
"""

import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kempner import (
    INT64_MAX,
    EtaResult,
    Factorization,
    PrimePower,
    RepunitDecomposition,
    ZerosSolution,
    decompose,
    emit_table,
    eta,
    eta_p_oracle,
    factorize,
    parse_factored_expr,
    solve_trailing_zeros,
)
from kempner.applications import _trusted_zeros_solution
from kempner.eta import _trusted_eta_result
from kempner.number_core import _Record, _trusted_factorization, _trusted_prime_power
from kempner.repunit_repr import _trusted_repunit_decomposition
from kempner.verify import CheckOutcome, VerifyConfig

FACTORS = (PrimePower(2, 3), PrimePower(5, 1))

RECORDS = [  # (class, fields, repr, fields of an unequal record)
    (
        PrimePower,
        {"prime": 7, "exponent": 13},
        "PrimePower(prime=7, exponent=13)",
        {"prime": 7, "exponent": 12},
    ),
    (
        Factorization,
        {"sign": -1, "factors": FACTORS},
        "Factorization(sign=-1, factors=(PrimePower(prime=2, exponent=3),"
        " PrimePower(prime=5, exponent=1)))",
        {"sign": 1, "factors": FACTORS},
    ),
    (
        EtaResult,
        {"value": 84, "per_prime": ((2, 31, 32), (3, 27, 57), (7, 13, 84)), "argmax_prime": 7},
        "EtaResult(value=84, per_prime=((2, 31, 32), (3, 27, 57), (7, 13, 84)), argmax_prime=7)",
        {"value": 0, "per_prime": (), "argmax_prime": None},
    ),
    (
        RepunitDecomposition,
        {"p": 3, "terms": ((3, 2), (1, 1))},
        "RepunitDecomposition(p=3, terms=((3, 2), (1, 1)))",
        {"p": 3, "terms": ((3, 2), (1, 2))},
    ),
    (
        ZerosSolution,
        {"z": 1000, "members": (4005, 4006, 4007, 4008, 4009)},
        "ZerosSolution(z=1000, members=(4005, 4006, 4007, 4008, 4009))",
        {"z": 5, "members": ()},
    ),
    (
        VerifyConfig,
        {"max_k": 500, "max_n": 2000, "primes": 10, "max_zeros": 100},
        "VerifyConfig(max_k=500, max_n=2000, primes=10, max_zeros=100)",
        {"max_k": 50, "max_n": 2000, "primes": 10, "max_zeros": 100},
    ),
    (
        CheckOutcome,
        {"name": "round-trip", "ok": True, "detail": "k<=5"},
        "CheckOutcome(name='round-trip', ok=True, detail='k<=5')",
        {"name": "round-trip", "ok": False, "detail": "k<=5"},
    ),
]
IDS = [row[0].__name__ for row in RECORDS]
BUILDERS = {
    PrimePower: _trusted_prime_power,
    Factorization: _trusted_factorization,
    EtaResult: _trusted_eta_result,
    RepunitDecomposition: _trusted_repunit_decomposition,
    ZerosSolution: _trusted_zeros_solution,
}


def made(cls, fields):
    """The record from the constructor and, for a validated record, from its builder."""
    records = [cls(**fields)]
    if cls in BUILDERS:
        records.append(BUILDERS[cls](*fields.values()))
    return records


@pytest.mark.parametrize("cls, fields, text, _", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_and_repr(cls, fields, text, _):
    for record in made(cls, fields):
        assert type(record) is cls
        assert record == cls(*fields.values())
        assert {name: getattr(record, name) for name in fields} == fields
        assert repr(record) == text


class _One(_Record):
    __slots__ = ("a",)


class _Four(_Record):
    __slots__ = ("a", "b", "c", "d")


def test_builder_refuses_other_field_counts():
    for cls, count in ((_One, 1), (_Four, 4)):
        with pytest.raises(TypeError, match=f"^{cls.__name__} has {count} fields, not 2 or 3$"):
            cls._builder()


def test_verify_config_defaults():
    assert VerifyConfig() == VerifyConfig(max_k=500, max_n=2000, primes=10, max_zeros=100)
    assert VerifyConfig(primes=3) == VerifyConfig(500, 2000, 3, 100)


@pytest.mark.parametrize("cls, fields, _, other", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_fields(cls, fields, _, other):
    twin = cls(**fields)
    values = tuple(fields.values())
    for record in made(cls, fields):
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(values)
        assert record != cls(**other)
        assert record.__eq__(values) is NotImplemented
        assert record != values
        assert len({record, twin, cls(**other)}) == 2


@pytest.mark.parametrize("cls, fields, _, __", RECORDS, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(cls, fields, _, __):
    for record in made(cls, fields):
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, text, _", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, text, _, monkeypatch):
    records = made(cls, fields)
    rebuilt = []  # the fields each constructor call got
    init = cls.__init__

    def spy(self, *values):
        rebuilt.append(values)
        init(self, *values)

    monkeypatch.setattr(cls, "__init__", spy)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for record in records:
        rebuilt.clear()
        copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
        copies += [copy.copy(record), copy.deepcopy(record)]
        assert rebuilt == [tuple(fields.values())] * len(copies)
        for clone in copies:
            assert type(clone) is cls
            assert clone == record
            assert repr(clone) == text


def _matched(record):
    match record:
        case PrimePower(p, a):
            return p, a
        case Factorization(sign, factors):
            return sign, factors
        case EtaResult(value, per_prime, argmax):
            return value, per_prime, argmax
        case RepunitDecomposition(p, terms):
            return p, terms
        case ZerosSolution(z, members):
            return z, members
        case VerifyConfig(max_k, max_n, primes, max_zeros):
            return max_k, max_n, primes, max_zeros
        case CheckOutcome(name, ok, detail):
            return name, ok, detail
    return None


@pytest.mark.parametrize("cls, fields, _, __", RECORDS, ids=IDS)
def test_positional_match_patterns(cls, fields, _, __):
    assert cls.__match_args__ == tuple(fields)
    assert _matched(cls(**fields)) == tuple(fields.values())


# from 2 up to the largest prime below 2^63, across is_prime's tiers
PRIMES = (2, 3, 5, 7, 1031, 65521, 2**31 - 1, 2**61 - 1, 9223372036854775783)


def assert_rebuilds(record):
    """The validating constructor accepts the record's fields and gives an equal record."""
    twin = type(record)(*record._values())
    assert twin == record and hash(twin) == hash(record)
    for power in getattr(record, "factors", ()):
        assert_rebuilds(power)


def assert_eta_rebuilds(f):
    """eta(f) rebuilds, and, since its validator calls eta itself, also agrees
    with the search oracle on every triple and with the first maximum."""
    if all(pp.prime * pp.exponent <= INT64_MAX for pp in f.factors):
        result = eta(f)
        assert_rebuilds(result)
        triples = result.per_prime
        assert [(p, a) for p, a, _ in triples] == [(pp.prime, pp.exponent) for pp in f.factors]
        assert all(e == eta_p_oracle(a, p) for p, a, e in triples)
        p, _, e = max(triples, key=lambda triple: triple[2], default=(None, 0, 0))
        assert (result.value, result.argmax_prime) == (e, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(-INT64_MAX, INT64_MAX).filter(bool))
@example(-144)  # eta_2(4) = eta_3(2) = 6, a tie
def test_factorize_and_eta_results_rebuild(n):
    f = factorize(n)
    assert_rebuilds(f)
    assert_eta_rebuilds(f)


@settings(max_examples=200)
@given(
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(PRIMES), st.integers(1, 10**6)), min_size=1, max_size=6),
)
def test_parsed_factorizations_and_their_eta_rebuild(negative, terms):
    f = parse_factored_expr("-" * negative + "*".join(f"{p}^{a}" for p, a in terms))
    assert_rebuilds(f)
    assert_eta_rebuilds(f)


@settings(max_examples=300)
@given(st.integers(1, INT64_MAX), st.sampled_from(PRIMES))
def test_decompositions_rebuild(k, p):
    assert_rebuilds(decompose(k, p))


@settings(max_examples=300)
@given(st.integers(0, INT64_MAX // 5))
def test_zeros_solutions_rebuild(z):
    assert_rebuilds(solve_trailing_zeros(z))


# Inputs on both sides of 2^16 and near 10^12, negatives and factored forms
NEAR = (*range(1, 24), *range(65530, 65542), *range(10**12 - 6, 10**12 + 6))
EXPRS = ("-1", "-65536", "1000000000000", "2^31*3^27*7^13", "-65537^3*2", "1000003^2*65521")


def test_library_producers_never_run_a_validator(monkeypatch):
    calls = []
    for cls in (PrimePower, Factorization, EtaResult, RepunitDecomposition, ZerosSolution):
        def spy(self, validate=cls.__post_init__):
            calls.append(type(self).__name__)
            validate(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    for n in NEAR:
        eta(factorize(n))
        eta(factorize(-n))
        solve_trailing_zeros(n)
        for p in (2, 3, 65521, 65537, 10**12 + 39):
            decompose(n, p)
    for text in (*map(str, NEAR), *EXPRS):
        eta(parse_factored_expr(text))
    for fmt in ("plain", "csv", "json-lines"):
        for start, end in ((1, 40), (65520, 65560), (10**12 - 20, 10**12 + 20)):
            assert len(list(emit_table(start, end, fmt))) == end - start + 1 + 2 * (fmt == "csv")
    assert calls == []
