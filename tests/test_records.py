"""The immutable value types: the record contract of the symbols and specs,
their int field checks, immutability, pickling and deep copies of every
type, and the one base they all share."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import ellsoule
from ellsoule.cyclotomic import CycloElement
from ellsoule.formal import (
    CycSym,
    EisSym,
    FormalClass,
    SouleSym,
    WeightFunction,
    eis_residue_closed,
    residue_soule_closed,
)
from ellsoule.measures import GroupSpec, Measure, TorsorSpec
from ellsoule.numutil import _Record, _Value
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.tsym import TSym

RECORDS = [
    (EisSym(2, 3, (4, 0)), (2, 3, (1, 0))),
    (SouleSym(2, 3, 5, (4, 3)), (2, 3, 5, (1, 0))),
    (CycSym(2, 3, -1), (2, 3, 2)),
    (TorsorSpec(2, 1, 3), (2, 1, 3, 1, "reduction", (0,))),
    (TorsorSpec(3, 2, 4, 2, "multiplication", (5, -1)), (3, 2, 4, 2, "multiplication", (1, 3))),
    (GroupSpec(8), (8, 1)),
    (GroupSpec(5, 2), (5, 2)),
]

# reprs of the frozen dataclasses these records replaced
REPRS = [
    "EisSym(k=2, N=3, t=(1, 0))",
    "SouleSym(k=2, N=3, c=5, t=(1, 0))",
    "CycSym(k=2, N=3, b=2)",
    "TorsorSpec(ell=2, r=1, N=3, d=1, flavor='reduction', t=(0,))",
    "TorsorSpec(ell=3, r=2, N=4, d=2, flavor='multiplication', t=(1, 3))",
    "GroupSpec(m=8, d=1)",
    "GroupSpec(m=5, d=2)",
]


NAMES = {
    EisSym: ("k", "N", "t"),
    SouleSym: ("k", "N", "c", "t"),
    CycSym: ("k", "N", "b"),
    TorsorSpec: ("ell", "r", "N", "d", "flavor", "t"),
    GroupSpec: ("m", "d"),
}


@pytest.mark.parametrize("rec, fields", RECORDS)
def test_records_hash_and_compare_as_their_field_tuples(rec, fields):
    assert hash(rec) == hash(fields)
    same = type(rec)(*fields)
    assert same == rec and hash(same) == hash(rec) and not same != rec
    names = NAMES[type(rec)]
    assert tuple(getattr(rec, name) for name in names) == fields
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_record_reprs_are_unchanged():
    assert [repr(rec) for rec, _ in RECORDS] == REPRS
    x = FormalClass(
        {EisSym(2, 3, (1, 0)): Fraction(1, 3), SouleSym(3, 5, 7, (1, 2)): -2, CycSym(1, 4, 3): 5}
    )
    assert repr(x) == (
        "(5)*CycSym(k=1, N=4, b=3) + (1/3)*EisSym(k=2, N=3, t=(1, 0)) + "
        "(-2)*SouleSym(k=3, N=5, c=7, t=(1, 2))"
    )


class Pair(_Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self._fix(a, b)


class OtherPair(_Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self._fix(a, b)


def test_records_of_different_classes_are_unequal():
    assert Pair(1, (2,)) == Pair(1, (2,))
    assert OtherPair(1, (2,)) != Pair(1, (2,)) and Pair(1, (2,)) != OtherPair(1, (2,))
    assert hash(OtherPair(1, (2,))) == hash(Pair(1, (2,)))
    assert len({Pair(1, 2), OtherPair(1, 2), Pair(1, 2)}) == 2
    assert repr(OtherPair(1, (2,))) == "OtherPair(a=1, b=(2,))"
    eis = EisSym(2, 3, (1, 0))
    assert eis != CycSym(2, 3, 1) and GroupSpec(3, 1) != TorsorSpec(3, 1, 2, 1)
    assert eis != (2, 3, (1, 0)) and (eis == (2, 3, (1, 0))) is False


def test_records_take_keywords_and_defaults():
    assert TorsorSpec(ell=2, r=1, N=3) == TorsorSpec(2, 1, 3, 1, "reduction", (0,))
    assert TorsorSpec(2, 1, 5, t=(7,), flavor="multiplication").t == (2,)
    assert GroupSpec(m=6) == GroupSpec(6, 1)
    assert SouleSym(k=1, N=4, c=3, t=(1, 1)).c == 3
    assert EisSym(t=(1, 1), N=2, k=0) == EisSym(0, 2, (1, 1))
    assert CycSym(b=5, N=4, k=2).b == 1


@pytest.mark.parametrize(
    "make, field",
    [
        # each was accepted: EisSym(True, 3, (1, 0)) took weight 1, a float
        # level stored float coordinates, and True passed as a level or rank
        (lambda: EisSym(True, 3, (1, 0)), "weight k"),
        (lambda: EisSym(2, 3.0, (1, 0)), "level N"),
        (lambda: SouleSym(2.0, 3, 5, (1, 0)), "weight k"),
        (lambda: SouleSym(2, 3.0, 5, (1, 0)), "level N"),
        (lambda: CycSym(2, 3.0, 1), "level N"),
        (lambda: CycSym(False, 3, 1), "weight k"),
        (lambda: TorsorSpec(2, True, 3), "level r"),
        (lambda: TorsorSpec(2.0, 1, 3), "prime ell"),
        (lambda: TorsorSpec(2, 1, 3.0), "level N"),
        (lambda: TorsorSpec(2, 1, 3, True), "rank d"),
        (lambda: GroupSpec(True), "modulus m"),
        (lambda: GroupSpec(3.0), "modulus m"),
        (lambda: GroupSpec(3, True), "rank d"),
        # the value constructors took these too: a float or bool conductor,
        # series denominator, window or rank
        (lambda: CycloElement(6.0, [1, 0]), "conductor M"),
        (lambda: CycloElement(True, [1]), "conductor M"),
        (lambda: PuiseuxSeries(True, 5, {0: 1}), "exponent denominator M"),
        (lambda: PuiseuxSeries(6, 12.5, {0: 1}), "window T"),
        (lambda: TSym(True, "Q", {(1,): 1}), "rank d"),
    ],
)
def test_record_int_fields_reject_floats_and_bools(make, field):
    with pytest.raises(TypeError, match=field):
        make()


@pytest.mark.parametrize("N", [0, -3])
def test_symbol_records_reject_a_level_below_one(N):
    # SouleSym(2, -3, 5, (1, 0)) was stored with t = (-2, 0), so
    # residue_soule_closed(2, -3, 5, (1, 0)) returned -169/125, and
    # EisSym(2, 0, (1, 0)) raised "integer modulo by zero"
    for make in (
        lambda: EisSym(2, N, (1, 0)),
        lambda: SouleSym(2, N, 5, (1, 0)),
        lambda: CycSym(2, N, 1),
        lambda: residue_soule_closed(2, N, 5, (1, 0)),
        lambda: eis_residue_closed(2, N, (1, 0)),
    ):
        with pytest.raises(ValueError, match=f"level N = {N} must be >= 1"):
            make()


VALUES = [rec for rec, _ in RECORDS] + [
    FormalClass({EisSym(2, 3, (1, 0)): Fraction(1, 3), SouleSym(3, 5, 7, (1, 2)): -2}),
    FormalClass({CycSym(1, 4, 3): 5}),
    FormalClass({}),
    WeightFunction(2, 3, {(1, 0): Fraction(1, 2), (0, 2): -4}),
    CycloElement(5, [1, Fraction(1, 2), 0, 3]),
    Measure(TorsorSpec(2, 1, 3, 1, "reduction", (1,)), {(4,): Fraction(2, 3), (1,): 1}),
    Measure(GroupSpec(4, 2), {(1, 3): Fraction(-1, 7)}),
    PuiseuxSeries(6, 12, {-2: CycloElement(6, [1, Fraction(1, 2)]), 3: 5}),
    PuiseuxSeries(1, 4, {}),
    TSym(2, "Q", {(1, 0): Fraction(1, 2), (0, 2): 3}),
    TSym(1, "Z/9", {(2,): 5}),
]


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_values_survive_pickle_and_deepcopy(x):
    # deepcopy and pickle raised AttributeError ("... is immutable") for the
    # classes, weight functions, cyclotomic elements and measures, and later
    # for series and divided-power tensors
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x
        assert hash(y) == hash(x)
        assert repr(y) == repr(x)


@pytest.mark.parametrize("x", VALUES, ids=lambda x: type(x).__name__)
def test_values_refuse_setattr_and_delattr(x):
    # `del` succeeded on the fields of every type but the records
    before = copy.deepcopy(x)
    for name in type(x).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
    assert x == before


def _package_classes():
    for info in pkgutil.iter_modules(ellsoule.__path__):
        mod = importlib.import_module(f"ellsoule.{info.name}")
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__:
                yield cls


def test_every_value_type_subclasses_the_one_base():
    slotted = [
        cls
        for cls in _package_classes()
        if "__slots__" in vars(cls) and not issubclass(cls, BaseException)
    ]
    assert {cls.__name__ for cls in slotted} >= {
        "CycloElement", "PuiseuxSeries", "Measure", "TSym", "FormalClass",
        "WeightFunction", "EisSym", "SouleSym", "CycSym",
        "TorsorSpec", "GroupSpec",
    }
    for cls in slotted:
        assert issubclass(cls, _Value), cls
    for cls in _package_classes():
        if cls is not _Value:
            assert not {"__setattr__", "__delattr__", "__reduce__"} & set(vars(cls)), cls
    for path in Path(ellsoule.__file__).parent.glob("*.py"):
        assert "object.__setattr__" not in path.read_text(), path
