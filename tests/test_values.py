"""Value semantics of the package's immutable scalars and report records:
literal reprs, equality with matching hashes, no equality with tuples,
read-only fields, copies and pickles, and constructor validation."""

import copy
import pickle
from fractions import Fraction

import pytest

import bergspace
from bergspace import (
    Block,
    Disc,
    GaussianRational,
    PiRational,
    Polynomial,
    QuadratureGrid,
    SparseSeries,
    StepOneBound,
    make_partition,
    rough_tail_geometric_bound,
)

REPRS = [
    (lambda: GaussianRational(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4i"),
    (lambda: GaussianRational(3), "3"),
    (lambda: GaussianRational(0, 2), "2i"),
    (lambda: PiRational(Fraction(1, 2)), "(1/2)*pi"),
    (lambda: PiRational(Fraction(1, 2), Fraction(1, 3)), "(1/2+1/3i)*pi"),
    (lambda: Disc(Fraction(3, 2)), "Disc(radius=Fraction(3, 2))"),
    (lambda: Disc(2), "Disc(radius=Fraction(2, 1))"),
    (lambda: QuadratureGrid(), "QuadratureGrid(n_r=512, n_theta=512)"),
    (lambda: Polynomial([6, -5, GaussianRational(Fraction(1, 2), 1)]),
     "Polynomial([6, -5, 1/2+1i])"),
    (lambda: SparseSeries({0: 1, 3: Fraction(1, 2)}, 5), "<(1) + (1/2)z^3 | truncated at 5>"),
    (lambda: SparseSeries(), "<0>"),
    (lambda: Block("z", SparseSeries.monomial(1)), "Block(label='z', series=<(1)z^1>)"),
    (
        lambda: rough_tail_geometric_bound(make_partition(5, 12), 12),
        "RoughTailBound(tail=Fraction(167, 385), geometric_bound=Fraction(167, 218), "
        "partial_sum=Fraction(167, 385), terms=12, holds=True)",
    ),
    (
        lambda: StepOneBound(3, 8, PiRational(1), PiRational(2), PiRational(Fraction(1, 2)),
                             Fraction(1, 3), True),
        "StepOneBound(pk=3, degree=8, lhs=(1)*pi, rhs=(2)*pi, f_norm_sq=(1/2)*pi, "
        "smooth_recip_sum=Fraction(1, 3), holds=True)",
    ),
]


@pytest.mark.parametrize("make,text", REPRS, ids=[text[:40] for _, text in REPRS])
def test_literal_repr(make, text):
    assert repr(make()) == text


# (make a value, the tuple of its fields in declaration order, one field name)
VALUES = [
    (lambda: GaussianRational(Fraction(1, 2), Fraction(3)), (Fraction(1, 2), Fraction(3)), "re"),
    (lambda: PiRational(Fraction(2, 3)), (Fraction(2, 3), Fraction(0)), "coefficient"),
    (lambda: Disc(Fraction(1, 2)), (Fraction(1, 2),), "radius"),
    (lambda: QuadratureGrid(16, 32), (16, 32), "n_r"),
    (lambda: Polynomial([1, 0, 2]),
     ((GaussianRational(1), GaussianRational(0), GaussianRational(2)),), "coeffs"),
    (lambda: SparseSeries({3: 2, 0: 1}, 5),
     ((0, 3), (GaussianRational(1), GaussianRational(2)), 5), "_coeffs"),
    (lambda: Block("z", SparseSeries.monomial(1)), ("z", SparseSeries.monomial(1)), "label"),
    (lambda: make_partition(5, 12), (5, (2, 3), 12, (5, 7, 11)), "p2"),
    (
        lambda: StepOneBound(3, 8, PiRational(1), PiRational(2), PiRational(0), Fraction(1), False),
        (3, 8, PiRational(1), PiRational(2), PiRational(0), Fraction(1), False),
        "holds",
    ),
]
IDS = [name for _, _, name in VALUES]


@pytest.mark.parametrize("make,fields,name", VALUES, ids=IDS)
def test_equal_values_hash_alike(make, fields, name):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("make,fields,name", VALUES, ids=IDS)
def test_not_equal_to_a_tuple_of_its_fields(make, fields, name):
    value = make()
    assert value != fields and fields != value
    assert value != list(fields)


@pytest.mark.parametrize("make,fields,name", VALUES, ids=IDS)
def test_fields_are_read_only(make, fields, name):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("make,fields,name", VALUES, ids=IDS)
def test_copies_and_pickles_round_trip(make, fields, name):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)


def test_differing_fields_compare_unequal():
    assert GaussianRational(1) != GaussianRational(1, 1)
    assert PiRational(1) != PiRational(1, 1)
    assert Disc(1) != Disc(2)
    assert QuadratureGrid(8, 16) != QuadratureGrid(16, 8)
    assert make_partition(5, 12) != make_partition(5, 13)
    assert Polynomial([1, 2]) != Polynomial([1, 3])
    assert SparseSeries({1: 1}) != SparseSeries({1: 1}, 1)


def test_records_of_different_types_compare_unequal():
    assert GaussianRational(1) != PiRational(1)
    assert Disc(1) != GaussianRational(1)


@pytest.mark.parametrize(
    "make", [lambda: Disc(0), lambda: Disc(Fraction(-1, 2)), lambda: QuadratureGrid(4, 4),
             lambda: QuadratureGrid(8, 7), lambda: Polynomial([]), lambda: Polynomial([1, 0])],
    ids=["Disc(0)", "Disc(-1/2)", "QuadratureGrid(4, 4)", "QuadratureGrid(8, 7)",
         "Polynomial([])", "Polynomial([1, 0])"],
)
def test_constructor_validation(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Block("z", SparseSeries.monomial(1), "extra"), "Block takes 2 fields, got 3"),
        (lambda: Block("z"), "Block missing field 'series'"),
        (lambda: Block("z", SparseSeries.monomial(1), size=1),
         "Block got unexpected or repeated ['size']"),
    ],
    ids=["too-many", "missing", "unexpected"],
)
def test_record_fields_are_taken_exactly_once(make, message):
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_keyword_construction_matches_positional():
    assert QuadratureGrid(n_theta=16, n_r=8) == QuadratureGrid(8, 16)
    assert GaussianRational(im=Fraction(1, 2)) == GaussianRational(0, Fraction(1, 2))
    assert Block(series=SparseSeries.monomial(0), label="1") == Block("1", SparseSeries.monomial(0))


def test_record_fields_match_their_annotations():
    from bergspace._record import Record

    for name in bergspace.__all__:  # loads every module that defines a record
        getattr(bergspace, name)
    records = Record.__subclasses__()
    assert {GaussianRational, PiRational, Disc, Polynomial, SparseSeries} <= set(records)
    for cls in records:
        assert tuple(cls.__annotations__) == cls.__slots__, cls.__name__
        assert "__eq__" not in vars(cls), cls.__name__  # equality is Record's alone
