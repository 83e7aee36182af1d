"""Value semantics of the package's records.

Each record is built twice from equal inputs, in the positional and the
keyword spelling its constructor accepts.  The two must be equal with
equal hashes; no field can be reassigned and no attribute added; a
shallow copy, a deep copy and a pickle round trip give an equal record of
the same type; and an invalid argument is still refused.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from poisson_forge.exactnum import (
    SQRT2,
    Matrix,
    Polynomial,
    SolutionSpace,
)
from poisson_forge.linclass import LinearPair, StdFormLabel, Witness
from poisson_forge.quaddef import (
    DIAG_DISTINCT,
    DIAG_REPEATED,
    OTHER,
    JordanFamily,
    P2Point,
    QuadraticPair,
)

XYZ = {(1, 1, 1): 1}


def _linear_pair():
    return (LinearPair((0, 0, 1), Matrix.diagonal([1, 1, 0])),
            LinearPair(k=(F(0), F(0), F(1)),
                       gram=Matrix.diagonal([F(1), F(1), F(0)])))


def _std_form_label():
    return StdFormLabel(8, 2), StdFormLabel(case_id=8, a_squared=F(2))


def _witness():
    return (Witness(Matrix([[1, 2, 0], [0, 1, 0], [0, 0, 3]]), (1, 2, 0)),
            Witness(base=Matrix([[1, 2, 0], [0, 1, 0], [0, 0, 3]]),
                    scales=(F(1), F(2), F(0))))


def _quadratic_pair():
    return (QuadraticPair(Matrix.diagonal([1, -1, 0]), Polynomial(3, XYZ)),
            QuadraticPair(twist=Matrix.diagonal([1, -1, 0]),
                          cubic=Polynomial(3, XYZ)))


def _jordan_family():
    return (JordanFamily(DIAG_DISTINCT, (1, 2, -3)),
            JordanFamily(tag=DIAG_DISTINCT, lambdas=(F(1), F(2), F(-3)),
                         eigen_report=()))


def _p2_point():
    return P2Point((2, 4, 2)), P2Point(coords=(F(1), F(2), F(1)))


def _solution_space():
    return (SolutionSpace(3, (F(1), F(0), F(0)), ((F(0), F(1), F(0)),)),
            SolutionSpace(ambient_dim=3, particular=(F(1), F(0), F(0)),
                          basis=((F(0), F(1), F(0)),)))


#: record name -> (two records built from equal inputs, the name of one of
#: their fields, and one call with an invalid argument)
RECORDS = {
    "LinearPair": (
        _linear_pair, "gram",
        lambda: LinearPair((1, 0, 0), Matrix.diagonal([1, 1, 0]))),
    "StdFormLabel": (_std_form_label, "a_squared", lambda: StdFormLabel(11)),
    "Witness": (
        _witness, "scales",
        lambda: Witness(Matrix.identity(3), (1, -1, 0))),
    "QuadraticPair": (
        _quadratic_pair, "cubic",
        lambda: QuadraticPair(Matrix.diagonal([1, -1, 0]),
                              Polynomial(3, {(3, 0, 0): 1}))),
    "JordanFamily": (
        _jordan_family, "lambdas",
        lambda: JordanFamily(DIAG_DISTINCT, (1, 1, -2))),
    "P2Point": (_p2_point, "coords", lambda: P2Point((0, 0, 0))),
    "SolutionSpace": (_solution_space, "basis", lambda: SolutionSpace(3)),
}

#: the six records that validate their arguments
VALIDATING = [name for name in RECORDS if name != "SolutionSpace"]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_inputs_give_equal_records_with_equal_hashes(name):
    build, _, _ = RECORDS[name]
    a, b = build()
    assert type(a) is type(b)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    build, field, _ = RECORDS[name]
    record = build()[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.note = "added"
    assert getattr(record, field) is before
    assert not hasattr(record, "note")


@pytest.mark.parametrize("name", sorted(RECORDS))
@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_give_an_equal_record(name, duplicate):
    build, _, _ = RECORDS[name]
    record = build()[0]
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record
    assert hash(twin) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_an_invalid_argument_still_raises(name):
    _, _, invalid = RECORDS[name]
    with pytest.raises((ValueError, TypeError)):
        invalid()


@pytest.mark.parametrize("name", VALIDATING)
def test_validating_records_normalise_their_arguments(name):
    build, _, _ = RECORDS[name]
    a, b = build()
    assert repr(a) == repr(b)


def test_record_constructors_keep_their_defaults():
    assert StdFormLabel(3).a_squared is None
    assert StdFormLabel(3) == StdFormLabel(case_id=3, a_squared=None)
    family = JordanFamily(DIAG_REPEATED, lambdas=(2,))
    assert family.lambdas == (F(2),) and type(family.lambdas[0]) is F
    assert family.eigen_report == ()
    other = JordanFamily(OTHER, eigen_report=((1.0, 0.0),))
    assert other.lambdas == () and other.eigen_report == ((1.0, 0.0),)
    assert P2Point((SQRT2, 0, 2)).coords == (SQRT2 / 2, F(0), F(1))
