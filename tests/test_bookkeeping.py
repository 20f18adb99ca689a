"""The bookkeeping around a construction, done once and in integers.

`normalize_to_standard` reads its word off integer lattice coordinates
and builds it from its tokens; `reference_normalize_to_standard` below
reads it off Fraction coordinates, writes it out as text for `word` and
checks it by `act_word`, and the two must agree token for token.  `systems.invert_side` reduces over the cofactors that u*v's own
gcds find, and must equal `invert_side_reference`.  `ParameterTuple`'s
JSON reader names the field it cannot read.
"""

import importlib
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import from_lattice, invert_side_reference
from sasano import (
    NormalizationFailed,
    ParameterTuple,
    RF,
    System,
    act_word,
    construct_rational_solution,
    lattice_coordinates,
    normalize_to_standard,
    word,
)
from sasano import backlund, systems
from sasano.classify import CONDITION_SLOTS, _translation_tokens, is_standard_form

# the module, which the package's `classify` function shadows
classify_module = importlib.import_module("sasano.classify")

HALF = F(1, 2)


def reference_normalize_to_standard(p: ParameterTuple):
    """`normalize_to_standard` on Fraction lattice coordinates, its word
    joined to text and parsed by `word`, checked by `act_word`."""
    f = list(lattice_coordinates(p))
    index = next((k for k, (i, j) in CONDITION_SLOTS.items()
                  if {f[i - 1].denominator, f[j - 1].denominator} == {1, 2}), None)
    if index is None:
        raise ValueError("parameters admit no rational solution; nothing to normalize")
    system, tokens = p.system, []

    def swap(k):
        tokens.append(f"s{k}")
        f[k - 1], f[k] = f[k], f[k - 1]

    def translate(slot, steps):
        for _ in range(abs(steps)):
            tokens.extend(_translation_tokens(system, slot, increment=steps > 0))
        f[slot - 1] += steps

    slot_a, slot_b = CONDITION_SLOTS[index]
    if f[slot_a - 1].denominator == 2:
        half_pos, int_pos = slot_a, slot_b
    else:
        half_pos, int_pos = slot_b, slot_a
    for k in range(half_pos - 1, 0, -1):
        swap(k)
    int_pos += int_pos < half_pos
    for k in range(int_pos - 1, 2, -1):
        swap(k)
    for k in range(int_pos, 3):
        swap(k)
    translate(1, int(HALF - f[0]))
    translate(3, int(-f[2]))
    if f[3] == 0:
        translate(4, 1)
    if system is System.D5 and f[1] == HALF:
        translate(2, -1)
    result_word = word(system, tokens)
    q, _ = act_word(result_word, p)
    if not is_standard_form(q) or lattice_coordinates(q) != tuple(f):
        raise NormalizationFailed("normalization left the target form")
    return result_word, q


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return type(exc)


# integers and half-odd integers are frequent, so most points admit a
# solution; the generic values have denominators 3 and 5
_COORDINATE = st.one_of(st.integers(-3, 3).map(F), st.integers(-3, 2).map(lambda k: HALF + k),
                        st.builds(F, st.integers(-9, 9), st.sampled_from([3, 5])))


@settings(max_examples=300, deadline=None)
@given(system=st.sampled_from(list(System)), f=st.tuples(*[_COORDINATE] * 4))
@example(system=System.B4, f=(HALF, F(1, 3), F(0), F(2, 5)))  # standard form: the empty word
@example(system=System.D5, f=(HALF, HALF, F(0), F(-1, 3)))  # D5's f2 = 1/2
@example(system=System.D5, f=(F(5, 2), HALF, F(-2), F(0)))
def test_normalize_to_standard_equals_the_fraction_reference(system, f):
    p = from_lattice(system, *f)
    got, expected = (_outcome(lambda: normalize(p))
                     for normalize in (normalize_to_standard, reference_normalize_to_standard))
    if isinstance(expected, tuple):
        assert got[0].to_json() == expected[0].to_json() and got == expected
        assert len(got[0]) or got[1] == p
    else:
        assert got is expected


@pytest.mark.parametrize("system", list(System))
def test_a_corrupted_translation_token_fails_the_normalization(system, monkeypatch):
    # one token of every translation word swapped for another generator
    def corrupted(system, slot, increment):
        tokens = list(_translation_tokens(system, slot, increment))
        middle = len(tokens) // 2
        tokens[middle] = "s2" if tokens[middle] == "s1" else "s1"
        return tuple(tokens)

    monkeypatch.setattr(classify_module, "_translation_tokens", corrupted)
    with pytest.raises(NormalizationFailed):
        normalize_to_standard(from_lattice(system, F(5, 2), F(1, 3), 2, F(2, 5)))
    with pytest.raises(NormalizationFailed):
        construct_rational_solution(from_lattice(system, F(3, 2), F(1, 3), 1, F(2, 5)))


@pytest.mark.parametrize("system", list(System))
def test_one_construction_takes_the_lattice_coordinates_once_and_parses_no_word(system, monkeypatch):
    calls = []

    def counting(name, function):
        return lambda *args: calls.append(name) or function(*args)

    for name in ("_lattice", "lattice_coordinates"):
        if hasattr(classify_module, name):
            monkeypatch.setattr(classify_module, name, counting(name, getattr(classify_module, name)))
    monkeypatch.setattr(backlund, "parse_word", counting("parse_word", backlund.parse_word))
    assert construct_rational_solution(from_lattice(system, F(3, 2), F(1, 3), 1, F(2, 5))).exists
    assert calls.count("parse_word") == 0
    assert len(calls) == 1


# products of a few shared factors, with multiplicities, so that the gcds
# that `invert_side` cancels are often proper
_FACTORS = (RF.t(), RF([-1, 1]), RF([2, 1]), RF([1, 0, 1]), RF([-3, 2]))
_SCALE = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))
_POLY = st.builds(lambda scale, powers: scale * _product(powers), _SCALE,
                  st.lists(st.integers(0, 2), min_size=len(_FACTORS), max_size=len(_FACTORS)))


def _product(powers):
    out = RF.ONE
    for factor, power in zip(_FACTORS, powers):
        for _ in range(power):
            out = out * factor
    return out


_B = st.one_of(st.just(F(0)), st.builds(F, st.integers(-5, 5), st.integers(1, 4)))


@settings(max_examples=400, deadline=None)
@given(u=st.builds(lambda n, d: n / d, _POLY, _POLY), v=st.builds(lambda n, d: n / d, _POLY, _POLY),
       b=_B, kind=st.sampled_from(["generic", "zero", "cancelling"]))
@example(u=RF.t() / RF([-1, 1]), v=RF([-1, 1]) * RF([-1, 1]) / (RF.t() * RF.t()), b=F(0),
         kind="generic")
@example(u=RF.t() * RF.t() / RF([2, 1]), v=RF([2, 1]) * RF([2, 1]) / (RF.t() * RF.t() * RF.t()),
         b=F(3), kind="generic")
def test_invert_side_by_cofactors_equals_the_written_formula(u, v, b, kind):
    # v == 0, b = 0 and u*v + b == 0 included; equality is structural,
    # so an unreduced result fails it
    if kind == "zero":
        v = RF.ZERO
    elif kind == "cancelling":
        v = -b / u
    assert systems.invert_side(u, v, b) == invert_side_reference(u, v, b)


def test_invert_side_keeps_the_zero_division_of_u_zero():
    with pytest.raises(ZeroDivisionError):
        systems.invert_side(RF.ZERO, RF.t(), F(1))


@pytest.mark.parametrize("data, field", [
    ({}, "'system'"), ({"system": "b4"}, "'alphas'"),
    ({"system": "b4", "alphas": None}, "'alphas'"),
    ({"system": 5, "alphas": ["1/4", "1/4", "1/4", "-1/4", "1/4"]}, "'system'"),
    (["b4", ["1/4", "1/4", "1/4", "-1/4", "1/4"]], "'system'"),
    ({"system": "b4", "alphas": [None] * 5}, "'alphas'"),
])
def test_parameter_json_errors_name_the_field(data, field):
    with pytest.raises(ValueError, match=field):
        ParameterTuple.from_json(data)


def test_parameter_json_reads_what_it_writes():
    p = ParameterTuple(System.D5, ("0", "1/4", "1/4", "-1/4", "1/4"))
    assert ParameterTuple.from_json(p.to_json()) == p
