"""Value semantics of the package's record classes.

Every record compares and hashes by its fields, refuses field assignment,
keeps its constructor checks, and copies and pickles to an equal record.
"""

import copy
import pickle
from collections import Counter

import pytest

from bouncepaths.bounce import BounceTable, bounce_table
from bouncepaths.closed_forms import Restriction, Slope, Step
from bouncepaths.enumeration import BounceProfile, InvalidShape, TwoRowShape
from bouncepaths.series import Series
from bouncepaths.verify import CheckResult


def _table(order=2, entries=None):
    return BounceTable(
        slope=Slope(1, 1),
        trunc_order=order,
        max_left=0,
        max_right=1,
        restriction=Restriction.ALL,
        entries=entries or ((Series((0, 2, 4)), Series((0, 0, 1))),),
    )


# (make(variant) -> record, field names); variants 0 and 1 differ
FROZEN = {
    "Series": (lambda v: Series((1, v, 2)), ("coeffs",)),
    "Slope": (lambda v: Slope(2 + v, 1), ("alpha", "beta")),
    "TwoRowShape": (lambda v: TwoRowShape(3, v), ("first_row", "second_row")),
    "BounceProfile": (
        lambda v: BounceProfile(v, 1, None, Step.E, Step.N),
        ("left", "right", "horizontal_crosses", "first", "last"),
    ),
    "BounceTable": (
        lambda v: _table(entries=((Series((0, 2, 4 + v)), Series((0, 0, 1))),)),
        ("slope", "trunc_order", "max_left", "max_right", "restriction", "entries"),
    ),
    "CheckResult": (lambda v: CheckResult("demo", bool(v), "k=1"), ("name", "passed", "detail")),
}


@pytest.mark.parametrize("name", FROZEN)
def test_records_compare_and_hash_by_value(name):
    make, _ = FROZEN[name]
    a, b, other = make(0), make(0), make(1)
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert Counter([a, b, other]) == Counter({make(0): 2, make(1): 1})
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", FROZEN)
def test_records_refuse_field_assignment(name):
    make, fields = FROZEN[name]
    record = make(0)
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("name", FROZEN)
def test_records_copy_and_pickle_to_equal_records(name):
    make, _ = FROZEN[name]
    record = make(1)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record and hash(clone) == hash(record)


def test_records_of_another_class_are_never_equal():
    # same field values, different classes
    assert Slope(2, 1) != TwoRowShape(2, 1)
    assert TwoRowShape(2, 1) != Slope(2, 1)
    assert Slope(2, 1) != (2, 1) and Series((1, 2)) != (1, 2)
    assert Slope(2, 1).__eq__(TwoRowShape(2, 1)) is NotImplemented
    assert Series((1,)).__eq__((1,)) is NotImplemented
    assert Slope(1, 1) == Slope(alpha=1, beta=1)


def test_record_reprs():
    # test ids and failure messages print these
    assert repr(Slope(1, 2)) == "Slope(alpha=1, beta=2)"
    assert repr(TwoRowShape(3, 1)) == "TwoRowShape(first_row=3, second_row=1)"
    assert repr(BounceProfile(1, 0, None, Step.E, Step.N)) == (
        "BounceProfile(left=1, right=0, horizontal_crosses=None, "
        "first=<Step.E: 'E'>, last=<Step.N: 'N'>)"
    )
    assert repr(Series((1, 0, 3))) == "Series[2](1 + 3*x^2)"
    assert repr(CheckResult("demo", True)) == (
        "CheckResult(name='demo', passed=True, detail='')"
    )


def test_series_freezes_its_coefficients():
    assert Series([0, 1]).coeffs == (0, 1)
    assert type(Series([0, 1]).coeffs) is tuple
    assert Series(coeffs=(4,)) == Series((4,))
    with pytest.raises(ValueError, match="^a series needs at least its constant coefficient$"):
        Series([])


def test_slope_checks():
    with pytest.raises(ValueError, match=r"^slope \(2, 4\) is not coprime$"):
        Slope(2, 4)
    for alpha, beta in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="^slope components must be positive integers$"):
            Slope(alpha, beta)


def test_two_row_shape_checks():
    with pytest.raises(InvalidShape, match=r"^rows \(1, 2\) must be weakly decreasing$"):
        TwoRowShape(1, 2)
    with pytest.raises(InvalidShape, match=r"^rows \(1, -1\) must be weakly decreasing$"):
        TwoRowShape(1, -1)
    shape = TwoRowShape(2, 2)
    assert shape.first_row + shape.second_row == 4


def test_bounce_table_checks():
    assert _table().entry(0, 1) == Series((0, 0, 1))
    with pytest.raises(ValueError, match=r"^entry \(0, 1\) has a negative coefficient$"):
        _table(entries=((Series((0, 2, 4)), Series((0, -1, 1))),))
    with pytest.raises(ValueError, match="^entry grid does not match the declared bounds$"):
        _table(entries=((Series((0, 2, 4)),),))
    with pytest.raises(ValueError, match="^entry grid does not match the declared bounds$"):
        _table(entries=((Series((0, 2, 4)), Series((0, 0, 1))),) * 2)
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) has the wrong order$"):
        _table(order=3)
    built = bounce_table(Slope(1, 1), Restriction.ALL, 1, 1, 3)
    assert built == bounce_table(Slope(1, 1), Restriction.ALL, 1, 1, 3)


def test_bounce_table_checks_shared_cells_at_their_first_position():
    # a built table shares one object between mirrored cells; the record
    # names the first failing position in row-major order all the same
    def grid(entries):
        return BounceTable(Slope(1, 1), 2, 1, 1, Restriction.ALL, entries)

    good, negative = Series((0, 2, 4)), Series((0, -1, 1))
    with pytest.raises(ValueError, match=r"^entry \(0, 1\) has a negative coefficient$"):
        grid(((good, negative), (negative, good)))
    with pytest.raises(ValueError, match=r"^entry \(1, 1\) has a negative coefficient$"):
        grid(((good, good), (good, Series((0, -1, 1)))))
    short = Series((0, 1))
    with pytest.raises(ValueError, match=r"^entry \(0, 1\) has the wrong order$"):
        grid(((good, short), (short, good)))


def test_check_result_is_a_frozen_record():
    # value semantics as FROZEN checks them; here the default and the text
    result = CheckResult("demo", False)
    assert result.detail == ""
    assert result == CheckResult(name="demo", passed=False, detail="")
    assert result.__eq__(("demo", False, "")) is NotImplemented
    assert str(result) == "FAIL  demo"
    assert str(CheckResult("demo", False, "k=1")) == "FAIL  demo  [k=1]"
    assert {result: 1}[CheckResult("demo", False)] == 1
    with pytest.raises(AttributeError):
        result.detail = "k=1"
