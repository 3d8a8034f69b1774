"""The behaviour users can see on kempner's seven immutable result records.

Each record compares and hashes by its fields, prints as
`Name(field=value, ...)`, refuses attribute assignment and deletion, takes
its fields by keyword or position, survives pickle and copy, and matches a
positional class pattern.
"""

import copy
import pickle

import pytest

from kempner import EtaResult, Factorization, PrimePower, RepunitDecomposition, ZerosSolution
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


@pytest.mark.parametrize("cls, fields, text, _", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_and_repr(cls, fields, text, _):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == text


def test_verify_config_defaults():
    assert VerifyConfig() == VerifyConfig(max_k=500, max_n=2000, primes=10, max_zeros=100)
    assert VerifyConfig(primes=3) == VerifyConfig(500, 2000, 3, 100)


@pytest.mark.parametrize("cls, fields, _, other", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_fields(cls, fields, _, other):
    record, twin = cls(**fields), cls(**fields)
    values = tuple(fields.values())
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    assert record != cls(**other)
    assert record.__eq__(values) is NotImplemented
    assert record != values
    assert len({record, twin, cls(**other)}) == 2


@pytest.mark.parametrize("cls, fields, _, __", RECORDS, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(cls, fields, _, __):
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields, text, _", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, text, _):
    record = cls(**fields)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    copies += [copy.copy(record), copy.deepcopy(record)]
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
