"""The eight records keep the contract of a frozen dataclass.

Each is a slotted class on one frozen-record base: equal only to a record
of its own class with equal fields, hashable, a dataclass-style repr,
refusing assignment and deletion, built by position or keyword, and
``_asdict()`` in field order, which is the key order ``cli`` writes.
"""

import json
import pathlib

import pytest

from cyclemod.bench import TimingStats
from cyclemod.ecs import EcsReport
from cyclemod.errors import OutOfRange
from cyclemod.hybrid import EntropyToken, HybridSeed
from cyclemod.modring import Modulus, Residue, make_modulus
from cyclemod.seedgen import IdentityWitness, SeedSequence

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
M2 = "Modulus(p=2, M=9, phi=6)"

# (class, keyword arguments, the other field values it holds, exact repr)
RECORDS = [
    (Modulus, {"p": 2}, {"M": 9, "phi": 6}, M2),
    (Residue, {"value": 8, "modulus": Modulus(2)}, {}, f"Residue(value=8, modulus={M2})"),
    (
        SeedSequence, {"modulus": Modulus(2), "k_start": 1, "k_end": 6}, {},
        f"SeedSequence(modulus={M2}, k_start=1, k_end=6)",
    ),
    (
        IdentityWitness, {"p": 2, "s": 0, "A": 8, "k": 4, "n": 0, "d": 1}, {},
        "IdentityWitness(p=2, s=0, A=8, k=4, n=0, d=1)",
    ),
    (
        EcsReport,
        {"p": 2, "k_start": 1, "k_end": 6, "buckets": 3, "cd": 1.0, "rud": 0.0, "mbi": 0.0,
         "ecs": 1.0},
        {},
        "EcsReport(p=2, k_start=1, k_end=6, buckets=3, cd=1.0, rud=0.0, mbi=0.0, ecs=1.0)",
    ),
    (
        EntropyToken, {"bits": 5, "width": 4, "source_id": "hex"}, {},
        "EntropyToken(bits=5, width=4, source_id='hex')",
    ),
    (
        HybridSeed, {"h": 13, "width": 8, "k": None, "p": 3, "method": "xor"}, {},
        "HybridSeed(h=13, width=8, k=None, p=3, method='xor')",
    ),
    (
        TimingStats,
        {"variant": "ct", "p": 3, "k_start": 1, "k_end": 2, "reps": 30, "mean_ns": 1.5,
         "median_ns": 1.0, "max_jitter_ns": 2.0, "cv": 0.25, "iter_min": 5, "iter_max": 5},
        {},
        "TimingStats(variant='ct', p=3, k_start=1, k_end=2, reps=30, mean_ns=1.5, "
        "median_ns=1.0, max_jitter_ns=2.0, cv=0.25, iter_min=5, iter_max=5)",
    ),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls,kwargs,derived,text", RECORDS, ids=IDS)
def test_keyword_construction_sets_every_field_in_order(cls, kwargs, derived, text):
    record = cls(**kwargs)
    assert record._asdict() == {**kwargs, **derived}
    assert list(record._asdict()) == list(cls.__slots__)
    assert cls(*kwargs.values()) == record


@pytest.mark.parametrize("cls,kwargs,derived,text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields_within_one_class(cls, kwargs, derived, text):
    record, twin = cls(**kwargs), cls(**kwargs)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    values = tuple(record._asdict().values())
    assert hash(record) == hash(values)
    assert record != values and values != record
    assert record != list(values) and record != record._asdict()


def test_records_of_different_classes_or_fields_differ():
    assert Modulus(2) != Modulus(3)
    assert EntropyToken(5, 4) != EntropyToken(5, 4, "hex")
    assert HybridSeed(1, 4, None, 1, "xor") != EntropyToken(1, 4)
    witness = IdentityWitness(2, 0, 8, 4, 0, 1)
    assert witness != IdentityWitness(2, 0, 8, 4, 0, 3)
    assert len({Modulus(2), make_modulus(2), Modulus(3)}) == 2


@pytest.mark.parametrize("cls,kwargs,derived,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(cls, kwargs, derived, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls,kwargs,derived,text", RECORDS, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, kwargs, derived, text):
    record = cls(**kwargs)
    before = record._asdict()
    for name in [*cls.__slots__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record._asdict() == before
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls,kwargs,derived,text", RECORDS, ids=IDS)
def test_missing_or_unknown_field_is_a_type_error(cls, kwargs, derived, text):
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    for name in kwargs:
        if cls is EntropyToken and name == "source_id":
            assert cls(**{k: v for k, v in kwargs.items() if k != name}).source_id == "explicit"
            continue
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != name})
    for name in derived:  # p alone fixes a Modulus's M and phi
        with pytest.raises(TypeError):
            cls(**kwargs, **{name: derived[name]})


def test_asdict_keys_are_the_cli_json_key_order():
    ecs_keys = list(json.loads((GOLDEN_DIR / "ecs_p2_k1-6.json").read_text()))
    assert [*EcsReport(**RECORDS[4][1])._asdict(), "admitted", "threshold"] == ecs_keys
    decompose_keys = list(json.loads((GOLDEN_DIR / "decompose_p3_s2.json").read_text()))
    assert [*IdentityWitness(**RECORDS[3][1])._asdict(), "verified"] == decompose_keys


def test_make_modulus_shares_one_modulus_per_p():
    assert make_modulus(5) is make_modulus(5) is make_modulus(5.0)
    assert make_modulus(True) is make_modulus(1)
    assert make_modulus(80) == Modulus(80) and make_modulus(80) is not Modulus(80)
    for p in (0, -1, 81, 5.5, 10**100, "5"):
        with pytest.raises(OutOfRange):
            make_modulus(p)
