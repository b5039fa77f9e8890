"""The nine immutable record classes: constructors, equality, immutability, validation.

No field of a record can be assigned or deleted.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from raaghom.acceptance import CriterionResult
from raaghom.complexes import ChainVector, HomologyProfile, SimplicialComplex
from raaghom.exact import F2, QQ, FieldSpec, SmithForm
from raaghom.fibring import CoefficientRing, FibringReport
from raaghom.kernels import LivingDeadPartition, PushResult
from raaghom.raags import CoverHomologyReport

POINT = SimplicialComplex(["a"], [])
EDGE = SimplicialComplex(["a", "b"], [("a", "b")])
Z = CoefficientRing("Z", None, 0)

# class, its field names, one set of field values, a second set differing in one
# field, whether instances are equal and hashed by value, and the constructor
# arguments each check rejects with its message
RECORDS = [
    (FieldSpec, ("char",), (2,), (3,), True,
     [((4,), "characteristic must be 0 or a prime, got 4")]),
    (SmithForm, ("rank", "elementary_divisors"), (2, (1, 2)), (2, (1, 4)), True, [
        ((2, (1,)), "number of divisors must equal rank"),
        ((2, (0, 2)), "divisors must be >= 1"),
        ((2, (2, 3)), "divisibility chain violated"),
    ]),
    (HomologyProfile, ("field", "reduced_betti"), (QQ, (0, 1)), (QQ, (0, 2)), False, []),
    (CoefficientRing, ("kind", "field", "modulus"), ("Z/m", None, 6), ("Z/m", None, 4), True, [
        (("field",), "field ring needs a FieldSpec"),
        (("Z",), "the integers have modulus 0"),
        (("Z", None, 2), "the integers have modulus 0"),
        (("Z/m",), "modulus must be >= 2"),
        (("Z/m", None, 1), "modulus must be >= 2"),
        (("R", None, 0), "unknown ring kind 'R'"),
    ]),
    (FibringReport, ("complex", "ring", "level", "verdict", "witnesses", "obstruction_degree"),
     (EDGE, Z, 1, True, (), None), (EDGE, Z, 2, True, (), None), False, [
        ((EDGE, Z, 1, True, (), 1), "a positive verdict cannot carry an obstruction"),
        ((EDGE, Z, 1, False, (), None), "a negative verdict needs an obstruction degree"),
    ]),
    (LivingDeadPartition, ("living", "dead"), (POINT, EDGE), (EDGE, POINT), False, []),
    (PushResult, ("cycle", "witness"),
     (ChainVector(0, QQ, {("a",): 1}), ChainVector(1, QQ, {})),
     (ChainVector(0, QQ, {("a",): 2}), ChainVector(1, QQ, {})), False, []),
    (CoverHomologyReport, ("order", "betti", "normalized"),
     (2, (1,), (Fraction(1, 2),)), (4, (1,), (Fraction(1, 4),)), False, [
        ((2, (-1,), (Fraction(-1, 2),)), "negative Betti number"),
        ((2, (1,), (Fraction(1),)), "normalised values must equal betti/order exactly"),
    ]),
    (CriterionResult, ("number", "name", "passed", "detail"),
     (1, "headline", True, "ok"), (1, "headline", False, "ok"), False, []),
]


@pytest.mark.parametrize(
    "cls, names, values, other, by_value, rejected", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, names, values, other, by_value, rejected):
    record = cls(*values)
    assert tuple(getattr(record, n) for n in names) == values
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_keyword, n) for n in names) == values
    if by_value:
        assert record == by_keyword and hash(record) == hash(by_keyword)
        assert record.__eq__(values) is NotImplemented
    assert record != cls(*other)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(record, n, getattr(record, n))
        with pytest.raises(AttributeError):
            delattr(record, n)
    assert tuple(getattr(record, n) for n in names) == values
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    for args, message in rejected:
        with pytest.raises(ValueError) as excinfo:
            cls(*args)
        assert str(excinfo.value) == message


def test_record_defaults():
    assert FieldSpec() == FieldSpec(0) == QQ
    ring = CoefficientRing("field", F2)
    assert (ring.field, ring.modulus) == (F2, None)
    assert CoefficientRing("Z/m", modulus=6) == CoefficientRing.integers_mod(6)


def test_record_repr():
    # one field-wise repr for every record, so a failing comparison shows the fields
    assert repr(QQ) == "FieldSpec(char=0)"
    assert repr(SmithForm(2, (1, 2))) == "SmithForm(rank=2, elementary_divisors=(1, 2))"
    assert repr(HomologyProfile(F2, (0, 1))) == "HomologyProfile(field=FieldSpec(char=2), reduced_betti=(0, 1))"
