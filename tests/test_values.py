"""Value semantics of the library's immutable classes, the suite's PropertyResult among them."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from graev.certificates import ConjugateDecomposition, PowerCertificate
from graev.maps import PartialContraction, PointMap, triangular_translation
from graev.norm import SigmaMatching
from graev.spaces import FiniteSpace, IntervalSpace
from graev.suite import PropertyResult
from graev.words import Letter, Word

TWO_FIFTHS = Word((Letter(Fraction(2, 5)),))

# each maker builds a new, equal value on every call
MAKERS = {
    "Letter": lambda: Letter("e1", -1),
    "Word": lambda: Word((Letter("e1"), Letter("e2", -1))),
    "SigmaMatching": lambda: SigmaMatching((3, 2, 1)),
    "IntervalSpace": IntervalSpace,
    "FiniteSpace": lambda: FiniteSpace("e", ("e", "a"), {("e", "a"): Fraction(1)}),
    "PointMap": lambda: PointMap(IntervalSpace(), IntervalSpace(), "affine", scale=Fraction(1, 2)),
    "PartialContraction": lambda: PartialContraction(
        (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1, 4))
    ),
    "BasisTranslation": lambda: triangular_translation(2),
    "ConjugateDecomposition": lambda: ConjugateDecomposition(3, Word(), ()),
    "PowerCertificate": lambda: PowerCertificate(3, Fraction(1, 2), TWO_FIFTHS, (TWO_FIFTHS,)),
}

# printed by the dataclasses these classes replaced
REPRS = {
    "Letter": "Letter(point='e1', sign=-1)",
    "Word": "Word(letters=(Letter(point='e1', sign=1), Letter(point='e2', sign=-1)))",
    "SigmaMatching": "SigmaMatching(map=(3, 2, 1))",
    "IntervalSpace": "IntervalSpace()",
    "PointMap": (
        "PointMap(domain=IntervalSpace(), codomain=IntervalSpace(), kind='affine', "
        "table=None, scale=Fraction(1, 2), breakpoints=None)"
    ),
    "PowerCertificate": (
        "PowerCertificate(n=3, c=Fraction(1, 2), "
        "target=Word(letters=(Letter(point=Fraction(2, 5), sign=1),)), "
        "bases=(Word(letters=(Letter(point=Fraction(2, 5), sign=1),)),))"
    ),
}


# each constructor that takes numbers, as a function of one number x in
# (0, 1], and the numbers the value stores
NUMBERS = {
    "FiniteSpace": (lambda x: FiniteSpace("e", ("e", "a"), {("e", "a"): x}), lambda v: [*v.table.values()]),
    "PointMap-affine": (lambda x: PointMap(IntervalSpace(), IntervalSpace(), "affine", scale=x), lambda v: [v.scale]),
    "PointMap-piecewise": (
        lambda x: PointMap(IntervalSpace(), IntervalSpace(), "piecewise", breakpoints=[(0, 0), (1, x)]),
        lambda v: [n for point in v.breakpoints for n in point],
    ),
    "PartialContraction": (lambda x: PartialContraction((0, 1), (0, x)), lambda v: [*v.points, *v.values]),
    "PowerCertificate": (lambda x: PowerCertificate(3, x, TWO_FIFTHS, (TWO_FIFTHS,)), lambda v: [v.c]),
}


@pytest.mark.parametrize("make, numbers", NUMBERS.values(), ids=NUMBERS)
def test_constructors_take_ints_and_fractions_only(make, numbers):
    half = Fraction(1, 2)
    stored = numbers(make(half))
    assert any(n is half for n in stored)  # a Fraction is kept, not rebuilt
    for x in (half, 1):
        stored = numbers(make(x))
        assert x in stored and {type(n) for n in stored} == {Fraction}
    for x in (0.5, 1.0, "1/2"):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(x))} is not an int or a Fraction$"):
            make(x)


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_equal_fields_give_equal_values_with_equal_hashes(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_a_value_never_equals_the_tuple_of_its_fields(make):
    value = make()
    assert value != _fields(value) and _fields(value) != value


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_values_refuse_assignment_and_deletion(make):
    value = make()
    for name in value._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for table in (field for field in _fields(value) if isinstance(field, dict)):
        with pytest.raises(TypeError):  # nor can a table it holds be changed
            table[next(iter(table))] = None
    assert value == make()


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_values_survive_copy_and_pickle(make):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


@pytest.mark.parametrize("name", REPRS)
def test_repr_is_that_of_the_replaced_dataclass(name):
    assert repr(MAKERS[name]()) == REPRS[name]


def test_values_differ_when_a_field_differs():
    assert Letter("e1", -1) != Letter("e1") and Letter("e1") != Letter("e2")
    assert SigmaMatching((2, 1)) != SigmaMatching((1, 2))


def test_finite_space_signed_table_is_not_a_field():
    space = MAKERS["FiniteSpace"]()
    for name in ("signed", "scaled", "table_scale"):
        assert name not in repr(space) and name not in space._fields
    row = space.scaled[space.signed["a", 1]]  # d~(a, y^-1) for each signed letter y
    assert (row[space.signed["a", -1]], row[space.signed["a", 1]]) == (0, 2) and space.table_scale == 1


def test_property_result_is_an_immutable_hashable_value():
    result = PropertyResult("p", 2, 0)
    assert repr(result) == "PropertyResult(name='p', cases=2, failures=0, counterexample=None)"
    with pytest.raises(AttributeError):
        result.cases = 6
    with pytest.raises(AttributeError):
        del result.counterexample
    assert result == PropertyResult("p", 2, 0) and result.passed
    assert hash(result) == hash(PropertyResult("p", 2, 0))
    assert result != ("p", 2, 0, None)
    assert not PropertyResult("p", 2, 1, "w").passed
