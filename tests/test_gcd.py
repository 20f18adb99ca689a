"""The integer polynomial gcd kernel against the subresultant reference.

Inputs carry a planted common factor and mix small coefficients with ones
past 2**64, so that the GF(p) coprimality exit, the divisor shortcut, the
heuristic gcd and its fallback all run.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from sasano import Polynomial, exactmath
from sasano.exactmath import (
    _GCD_PRIME,
    _heuristic_gcd_cofactors,
    _int_poly_gcd_cofactors,
    _int_poly_gcd_subresultant,
)


@st.composite
def int_polys(draw, max_degree):
    bits = draw(st.sampled_from((3, 40, 72)))
    n = draw(st.integers(0, max_degree))
    coeffs = draw(st.lists(st.integers(-2 ** bits, 2 ** bits), min_size=n + 1, max_size=n + 1))
    coeffs[-1] = coeffs[-1] or 1
    return coeffs


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _normal(a):
    """Primitive part with a positive leading coefficient."""
    content = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [c // content for c in a]


def _reference(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _normal(_int_poly_gcd_subresultant(list(a), list(b)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.just([1]), int_polys(20)), int_polys(40), int_polys(40))
def test_gcd_matches_subresultant_reference(g, u, v):
    a, b = _normal(_mul(g, u)), _normal(_mul(g, v))
    assume(len(a) > 1 and len(b) > 1)  # Polynomial.gcd handles constants itself
    expected = _reference(a, b)
    assert len(expected) >= len(_normal(g))
    assert _normal(_int_poly_gcd_cofactors(a, b)[0]) == expected
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    heuristic = _heuristic_gcd_cofactors(big, small)
    assert heuristic is None or _normal(heuristic[0]) == expected


P = _GCD_PRIME


@pytest.mark.parametrize("a, b, gcd", [
    # p divides one leading coefficient, or both: the images lose degree
    ([1, 0, P], [-3, 1], [1]),
    ([1, 0, P], [-3, P], [1]),
    (_mul([1, P], [2, 1]), _mul([1, P], [3, 1]), [1, P]),
    # an unlucky prime: the images share t - 1, the inputs nothing
    ([-1, 0, 1], [-1 - P, 1], [1]),
])
def test_gcd_where_reduction_mod_p_misleads(a, b, gcd):
    assert _reference(a, b) == gcd
    assert _normal(_int_poly_gcd_cofactors(a, b)[0]) == gcd
    assert _normal(_int_poly_gcd_cofactors(b, a)[0]) == gcd


@pytest.mark.parametrize("a, b, gcd", [
    # xi = 6: gcd(a(6), b(6)) = 17 reads back as 3t - 1, which divides a only
    (_mul([-1, 3], [1, 1]), [-2, 0, 1], [1]),
    # gcd(a(6), b(6)) = 5 reads back as t - 1 only through a negative digit
    (_mul([-1, 1], [2, 1]), _mul([-1, 1], [3, 1]), [-1, 1]),
])
def test_heuristic_gcd_candidates(a, b, gcd):
    assert _reference(a, b) == gcd
    assert _normal(_heuristic_gcd_cofactors(a, b)[0]) == gcd


def test_heuristic_failure_falls_back_to_subresultant(monkeypatch):
    monkeypatch.setattr(exactmath, "_heuristic_gcd_cofactors", lambda a, b: None)
    calls = []
    subresultant = exactmath._int_poly_gcd_subresultant
    monkeypatch.setattr(exactmath, "_int_poly_gcd_subresultant",
                        lambda a, b: calls.append((a, b)) or subresultant(a, b))
    a = _mul([1, 1], [5, 0, 7])
    b = _mul([1, 1], [-2, 3])
    assert _normal(exactmath._int_poly_gcd_cofactors(a, b)[0]) == [1, 1]
    assert len(calls) == 1


def _assert_cofactors(a, b, found):
    g, qa, qb = found
    assert _mul(g, qa) == list(a) and _mul(g, qb) == list(b)
    assert _normal(g) == _reference(a, b)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.just([1]), int_polys(20)), int_polys(40), int_polys(40))
def test_gcd_cofactors_rebuild_the_inputs(g, u, v):
    a, b = _normal(_mul(g, u)), _normal(_mul(g, v))
    assume(len(a) > 1 and len(b) > 1)
    _assert_cofactors(a, b, _int_poly_gcd_cofactors(a, b))
    _assert_cofactors(b, a, _int_poly_gcd_cofactors(b, a))
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    found = _heuristic_gcd_cofactors(big, small)
    if found is not None:
        _assert_cofactors(big, small, found)


def test_subresultant_fallback_returns_cofactors(monkeypatch):
    monkeypatch.setattr(exactmath, "_heuristic_gcd_cofactors", lambda a, b: None)
    a = _mul([1, 1], [5, 0, 7])
    b = _mul([1, 1], [-2, 3])
    _assert_cofactors(a, b, exactmath._int_poly_gcd_cofactors(a, b))


_SMALL_POLY = st.lists(st.fractions(-4, 4, max_denominator=4), max_size=4)


@settings(max_examples=80, deadline=None)
@given(_SMALL_POLY, _SMALL_POLY, _SMALL_POLY)
def test_polynomial_gcd_cofactors(common, u, v):
    # zero and constant operands included; the gcd is monic
    a, b = Polynomial(common) * Polynomial(u), Polynomial(common) * Polynomial(v)
    assume(not (a.is_zero() and b.is_zero()))
    g, qa, qb = a.gcd(b, cofactors=True)
    assert g == a.gcd(b) and g.leading == 1
    assert g * qa == a and g * qb == b
