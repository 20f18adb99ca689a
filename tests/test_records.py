"""The seven value records: equality and hashing, immutability, keyword
and default construction, copies, and the checks each one makes when it
is built."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from sasano import (
    Chart,
    ClassificationResult,
    Generator,
    GeneratorWord,
    InvariantReport,
    LaurentSeries,
    ParameterTuple,
    Polynomial,
    RF,
    SolutionTuple,
    System,
    ZERO_POINT,
)

T = RF.t()
ALPHAS = ("1/4", "1/4", "1/4", "-1/4", "1/4")  # on both the B4 and the D4 normalization
P = ParameterTuple(System.B4, ALPHAS)
SOL = SolutionTuple(Chart.AFFINE, RF.ZERO, RF.const(F(1, 2)), T * 2, RF.ZERO)
WORD = GeneratorWord(System.B4, (Generator(System.B4, "s1"), Generator(System.B4, "T2", True)))
REPORT = (F(1), F(0), True, F(0), F(1, 2), F(1, 2), True, ((F(1), F(2), True),))

# record: (fields in order, other values, defaults the constructor supplies)
CASES = {
    LaurentSeries: ((ZERO_POINT, -1, Polynomial([1, 2]), 3), (ZERO_POINT, -1, Polynomial([1, 3]), 3),
                    {}),
    InvariantReport: ((*REPORT, True), (*REPORT, False), {"unchecked_irrational_poles": False}),
    ParameterTuple: ((System.B4, tuple(map(F, ALPHAS))), (System.D4, tuple(map(F, ALPHAS))), {}),
    SolutionTuple: ((Chart.AFFINE, RF.ZERO, RF.const(F(1, 2)), T * 2, RF.ZERO),
                    (Chart.AFFINE, RF.ZERO, RF.const(F(1, 2)), T * 2, RF.ONE), {}),
    Generator: ((System.B4, "T1", True), (System.B4, "T1", False), {"inverse": False}),
    GeneratorWord: ((System.B4, WORD.tokens), (System.B4, WORD.tokens[::-1]), {}),
    ClassificationResult: ((P, True, 1, WORD, SOL), (P, True, 2, WORD, SOL),
                           {"matched_condition": None, "witness_word": None, "solution": None}),
}


def _check_construction(cls):
    if cls is Generator:
        assert Generator(System.B4, "s1", True).inverse is False  # primitives are involutions
        assert Generator(System.B4, "T1", True).inverse is True
        with pytest.raises(ValueError, match="unknown b4 generator 'psi'"):
            Generator(System.B4, "psi")
    elif cls is GeneratorWord:
        with pytest.raises(ValueError, match="mixes generators"):
            GeneratorWord(System.B4, (Generator(System.D4, "s1"),))
    elif cls is ParameterTuple:
        coerced = ParameterTuple(System.B4, [F(1, 4), "1/4", F(1, 4), "-1/4", "1/4"])
        assert coerced == P and coerced.alphas == tuple(map(F, ALPHAS))
        assert all(type(a) is F for a in coerced.alphas)
        with pytest.raises(ValueError, match="b4 normalization"):
            ParameterTuple(System.B4, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="five parameters"):
            ParameterTuple(System.B4, ALPHAS[:4])
    elif cls is SolutionTuple:
        assert SOL.replace(w=RF.ONE) == SolutionTuple(Chart.AFFINE, SOL.x, SOL.y, SOL.z, RF.ONE)
        assert SOL.replace(chart=Chart.M3, x=T).components() == (T, SOL.y, SOL.z, SOL.w)
        assert SOL.replace() == SOL
        with pytest.raises(TypeError):
            SOL.replace(v=T)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    values, other_values, defaults = CASES[cls]
    fields = cls.__slots__
    assert len(fields) == len(values)
    a, b, other = cls(*values), cls(*values), cls(*other_values)

    assert a == b and hash(a) == hash(b) and not a != b
    assert a != other and not a == other
    assert a != values and a != None  # noqa: E711
    twin = type("Twin", (cls,), {"__slots__": fields})(*values)  # equal fields, another class
    assert twin != a and a != twin
    assert len({a, b, other}) == 2
    assert tuple(getattr(a, name) for name in fields) == values
    assert repr(a).startswith(f"{cls.__name__}({fields[0]}=")

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert a == b

    assert cls(**dict(zip(fields, values))) == a
    positional = [value for name, value in zip(fields, values) if name not in defaults]
    assert cls(*positional) == cls(*positional, **defaults)

    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a

    _check_construction(cls)
