"""The existence rule and the normalization in lattice coordinates.

For all three systems, condition k holds when the lattice slot pair
CONDITION_SLOTS[k] holds one integer and one half-odd integer; the
tests check that rule against the conditions written in the alphas.
s1, s2, s3 swap lattice slots and each translation word moves one slot
by one, which is all the normalization tracks.
"""

import importlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_lattice
from sasano import (
    NormalizationFailed,
    ParameterTuple,
    System,
    act_word,
    condition_holds,
    lattice_coordinates,
    normalize_to_standard,
    solve_last_alpha,
    word,
)
from sasano.classify import is_standard_form

# the module, which the package's `classify` function shadows
classify_module = importlib.import_module("sasano.classify")

HALF = F(1, 2)

# denominators 2 and 4 make integer/half-odd splits frequent
_FRACTION = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))


def _conditions_by_alphas(p: ParameterTuple) -> list:
    """The 18 condition rows written in the alphas: the reference oracle."""
    a0, a1, a2, a3, a4 = p.alphas

    def integers(*vals):
        return all(v.denominator == 1 for v in vals)

    def congruent(u, v):
        return integers(u, v) and (u - v) % 2 == 0

    def incongruent(u, v):
        return integers(u, v) and (u - v) % 2 == 1

    def odd_with(u, v):
        return integers(u, v) and u % 2 == 1

    if p.system is System.B4:
        rows = [
            congruent(a0 - a1, 2 * a3 + 2 * a4),
            congruent(a0 - a1, 2 * a4),
            congruent(a0 + a1, 2 * a3 + 2 * a4),
            congruent(a0 + a1, 2 * a4),
            incongruent(a0 - a1, a0 + a1),
            odd_with(2 * a3, 2 * a4),
        ]
    elif p.system is System.D4:
        rows = [
            congruent(a0 - a1, a3 + a4),
            congruent(a0 - a1, a3 - a4),
            congruent(a0 + a1, a3 + a4),
            congruent(a0 + a1, a3 - a4),
            incongruent(a0 - a1, a0 + a1),
            incongruent(a3 - a4, a3 + a4),
        ]
    else:
        rows = [
            congruent(2 * a0, 2 * a3 + 2 * a4),
            congruent(2 * a0, 2 * a4),
            congruent(2 * a0 + 2 * a1, 2 * a3 + 2 * a4),
            congruent(2 * a0 + 2 * a1, 2 * a4),
            odd_with(2 * a1, 2 * a0),
            odd_with(2 * a3, 2 * a4),
        ]
    return [k + 1 for k, hit in enumerate(rows) if hit]


def _standard_by_alphas(p: ParameterTuple) -> bool:
    a0, a1, a2, a3, a4 = p.alphas
    if p.system is System.D5:
        return a0 == 0 and a3 + a4 == 0 and a4 != 0 and a1 != 0
    return a0 - a1 == 0 and a3 + a4 == 0 and a4 != 0


def _conditions(p: ParameterTuple) -> list:
    return [k for k in range(1, 7) if condition_holds(p, k)]


@pytest.mark.parametrize("system", list(System))
@settings(max_examples=300, deadline=None)
@given(first=st.lists(_FRACTION, min_size=4, max_size=4))
def test_conditions_match_the_alphas_table(system, first):
    p = ParameterTuple(system, (*first, solve_last_alpha(system, first)))
    assert _conditions(p) == _conditions_by_alphas(p)


@pytest.mark.parametrize("system", list(System))
@settings(max_examples=300, deadline=None)
@given(f1=st.one_of(st.just(HALF), _FRACTION), f2=st.one_of(st.just(HALF), _FRACTION),
       f3=st.one_of(st.just(F(0)), _FRACTION), f4=st.one_of(st.just(F(0)), _FRACTION))
def test_standard_form_and_conditions_match_the_alphas_form(system, f1, f2, f3, f4):
    p = from_lattice(system, f1, f2, f3, f4)
    assert is_standard_form(p) == _standard_by_alphas(p)
    assert _conditions(p) == _conditions_by_alphas(p)


@pytest.mark.parametrize("system", list(System))
@settings(max_examples=60, deadline=None)
@given(coords=st.lists(_FRACTION, min_size=4, max_size=4))
def test_swaps_and_translations_move_lattice_slots(system, coords):
    p = from_lattice(system, *coords)
    f = lattice_coordinates(p)
    for k in (1, 2, 3):
        expected = list(f)
        expected[k - 1], expected[k] = f[k], f[k - 1]
        q, _ = act_word(word(system, [f"s{k}"]), p)
        assert lattice_coordinates(q) == tuple(expected)
    for slot in (1, 2, 3, 4):
        for increment in (True, False):
            expected = list(f)
            expected[slot - 1] += 1 if increment else -1
            tokens = classify_module._translation_tokens(system, slot, increment)
            q, _ = act_word(word(system, tokens), p)
            assert lattice_coordinates(q) == tuple(expected), (slot, increment)


@pytest.mark.parametrize("system", list(System))
def test_normalization_rejects_a_wrong_translation_word(system, monkeypatch):
    right = classify_module._translation_tokens
    monkeypatch.setattr(classify_module, "_translation_tokens",
                        lambda system, slot, increment: right(system, slot, not increment))
    with pytest.raises(NormalizationFailed):
        normalize_to_standard(from_lattice(system, F(5, 2), F(1, 3), 2, F(2, 5)))
