"""The integer polynomial gcd kernel against the subresultant reference.

Inputs carry a planted common factor and mix small coefficients with ones
past 2**64, so that the heuristic gcd's coprime and divisor exits and its
retries at a wider xi all run; products of factors with small roots give
coefficients wide against the roots, where the first point is narrow.
The subresultant remainder sequence below is the reference only: the
kernel has no other path.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from sasano import Polynomial, exactmath
from sasano.exactmath import _int_pack, _int_pdivmod, _int_poly_gcd_cofactors, _int_unpack, _root_bits


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


def _int_poly_gcd_subresultant(a, b):
    """Primitive gcd up to sign by the subresultant remainder sequence, for
    len(a) >= len(b) >= 1."""
    g = h = 1
    while True:
        if len(b) == 1:
            return [1]  # nonzero constant remainder: coprime
        delta = len(a) - len(b)
        r = _int_pdivmod(a, b)[1]
        if not r:
            return _normal(b)
        divisor = g * h ** delta
        a, b = b, [c // divisor for c in r]
        g = a[-1]
        if delta > 0:
            h = g ** delta // h ** (delta - 1)


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
    assert _normal(_int_poly_gcd_cofactors(b, a)[0]) == expected


# the cases below mislead a gcd taken modulo this prime
P = 32749


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


def _spy(monkeypatch, name):
    """Record (args, result) of every call to exactmath.<name>."""
    calls = []
    original = getattr(exactmath, name)

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]
    monkeypatch.setattr(exactmath, name, spy)
    return calls


@pytest.mark.parametrize("a, b, gcd", [
    # xi = 8: gcd(a(8), b(8)) = 5 reads back as t - 3, which divides a only
    (_mul([-3, 1], [-4, 1]), [-3, 0, 2], [1]),
    # gcd(a(8), b(8)) = 7 reads back as t - 1 only through a negative digit
    (_mul([-1, 1], [2, 1]), _mul([-1, 1], [3, 1]), [-1, 1]),
])
def test_heuristic_gcd_candidates(a, b, gcd):
    assert _reference(a, b) == gcd
    assert _normal(_int_poly_gcd_cofactors(a, b)[0]) == gcd


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


@st.composite
def packable(draw):
    k = draw(st.integers(2, 200))
    lo, hi = -2 ** (k - 1), 2 ** (k - 1) - 1
    coeff = st.one_of(st.sampled_from((lo, hi)), st.integers(lo, hi))
    a = draw(st.lists(coeff, max_size=12))
    assume(not a or a[-1])
    return a, k


@settings(max_examples=200, deadline=None)
@given(packable())
def test_unpack_inverts_pack_on_balanced_digits(case):
    a, k = case
    assert _int_pack(a, k) == sum(c << (k * i) for i, c in enumerate(a))
    assert _int_unpack(_int_pack(a, k), k) == a


def test_heuristic_retries_with_a_wider_xi(monkeypatch):
    # k = 2: gcd(a(4), b(4)) = 2 reads back as t - 2, which divides neither;
    # k = 4: gcd(a(16), b(16)) = 2 is one digit, so they are coprime
    a, b = [2, 0, 1], [0, 1]
    assert _int_unpack(math.gcd(_int_pack(a, 2), _int_pack(b, 2)), 2) == [-2, 1]
    packs = _spy(monkeypatch, "_int_pack")
    assert _int_poly_gcd_cofactors(a, b) == ([1], a, b)
    assert [args[1] for args, _ in packs] == [2, 2, 4, 4]


def test_a_constant_candidate_returns_the_inputs_without_division(monkeypatch):
    divisions = _spy(monkeypatch, "_int_exact_div")
    a, b = [1, 0, 1], [-1, 1]
    g, qa, qb = _int_poly_gcd_cofactors(a, b)
    assert g == [1] and qa is a and qb is b
    assert divisions == []


def test_a_candidate_equal_to_b_divides_a_only(monkeypatch):
    divisions = _spy(monkeypatch, "_int_exact_div")
    a, b = _mul([-1, 1], [2, 1]), [-1, 1]
    assert _int_poly_gcd_cofactors(a, b) == (b, [2, 1], [1])
    assert divisions == [((a, b), [2, 1])]


def test_a_candidate_that_divides_a_only_is_retried(monkeypatch):
    # xi = 8 reads t - 3 off gcd(20, 125) = 5; xi = 32 proves coprimality
    divisions = _spy(monkeypatch, "_int_exact_div")
    a, b = _mul([-3, 1], [-4, 1]), [-3, 0, 2]
    assert _int_poly_gcd_cofactors(a, b) == ([1], a, b)
    assert divisions == [((a, [-3, 1]), [-4, 1]), ((b, [-3, 1]), None)]


@pytest.mark.parametrize("r", [3, 5, 6, 7, 1000, 2 ** 70 - 1])
def test_heuristic_xi_clears_the_roots(r):
    # the root r of the common factor sits just below xi / 2; a narrower
    # xi makes gcd(a(xi), b(xi)) one digit and the pair look coprime
    a, b = [-r, 1], _mul([-r, 1], [1, 1])
    assert _int_poly_gcd_cofactors(a, b) == (a, [1], [1, 1])
    assert _int_poly_gcd_cofactors(b, a) == (a, [1, 1], [1])


def _roots_product(roots):
    out = [1]
    for r in roots:
        out = _mul(out, [-r, 1])
    return out


@settings(max_examples=150, deadline=None)
@given(st.one_of(int_polys(8), st.lists(st.integers(-40, 40), min_size=1, max_size=16).map(_roots_product)))
def test_root_bits_bound_every_root(a):
    numpy = pytest.importorskip("numpy")
    assume(len(a) > 1)
    radius = max(abs(numpy.roots([float(c) for c in reversed(a)])))
    assert 2 * radius + 2 <= 2 ** _root_bits(a) * (1 + 1e-9)


# coefficients past 2**60 against roots below 2**6: the first point is narrow
WIDE = _roots_product(range(1, 21))


def _narrow_point(monkeypatch, a, b):
    assert _root_bits(b) < (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    return _spy(monkeypatch, "_int_eval"), _spy(monkeypatch, "_int_pack"), _spy(monkeypatch, "_int_exact_div")


# 4**10 A(t / 4) and 4**8 B(t / 4) for a coprime pair A, B: the low
# coefficients share powers of two, and so do the values at any power of two
SCALED = [[c << 2 * (len(h) - 1 - i) for i, c in enumerate(h)]
          for h in ([1, 1, -3, 3, -1, -3, -1, -3, 1, 3, -1], [3, -3, -1, -3, -1, 3, 1, -1, 3])]


def test_a_narrow_odd_point_proves_a_wide_pair_coprime(monkeypatch):
    # one pair of values at a point narrower than the packing's first xi
    # settles the pair; the power of two just below that point would not
    a, b = SCALED
    norm_bits = (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    evals, packs, divisions = _narrow_point(monkeypatch, a, b)
    assert _int_poly_gcd_cofactors(a, b) == ([1], a, b)
    polys, points = zip(*(args for args, _ in evals))
    assert sorted(polys) == sorted((a, b)) and len(set(points)) == 1
    x = points[0]
    assert x % 2 and x < 2 ** norm_bits
    k = x.bit_length() - 1
    assert math.gcd(_int_pack(a, k), _int_pack(b, k)) >> k
    assert packs == [] and divisions == []


def test_a_narrow_point_does_not_take_a_common_root_for_coprimality(monkeypatch):
    # t - 5 divides both: h = x - 5 lies between x / 2 and x
    a, b = (_mul(h, [-5, 1]) for h in SCALED)
    x = 2 ** _root_bits(b) + 1
    evals, packs, divisions = _narrow_point(monkeypatch, a, b)
    assert _int_poly_gcd_cofactors(a, b) == ([-5, 1], *SCALED)
    assert math.gcd(*(value for _, value in evals)) == x - 5


def test_a_narrow_point_finds_b_dividing_a(monkeypatch):
    b = _roots_product(range(3, 11))
    evals, packs, divisions = _narrow_point(monkeypatch, WIDE, b)
    g, qa, qb = _int_poly_gcd_cofactors(WIDE, b)
    assert g == b and qb == [1] and _mul(b, qa) == WIDE
    assert len(evals) == 2 and packs == [] and len(divisions) == 1


def test_a_narrow_point_reads_no_candidate(monkeypatch):
    # the common factor (t - 15)...(t - 20) is read at the theorem's xi only
    b = _roots_product(range(15, 26))
    evals, packs, divisions = _narrow_point(monkeypatch, WIDE, b)
    unpacks = _spy(monkeypatch, "_int_unpack")
    _assert_cofactors(WIDE, b, _int_poly_gcd_cofactors(WIDE, b))
    assert len(evals) == 2
    norm_bits = (2 * max(map(abs, b)) + 1).bit_length()
    assert [args[1] for args, _ in unpacks] == [norm_bits]


@st.composite
def small_root_polys(draw, max_degree):
    """Primitive products of factors c t + r, whose roots -r / c are small."""
    out = [draw(st.sampled_from((1, -1)))]
    for _ in range(draw(st.integers(1, max_degree))):
        out = _mul(out, [draw(st.integers(-60, 60)), draw(st.integers(1, 3))])
    return _normal(out)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just([1]), small_root_polys(6)), small_root_polys(12), small_root_polys(12))
def test_gcd_of_small_root_products_matches_the_reference(g, u, v):
    a, b = _normal(_mul(g, u)), _normal(_mul(g, v))
    _assert_cofactors(a, b, _int_poly_gcd_cofactors(a, b))
    _assert_cofactors(b, a, _int_poly_gcd_cofactors(b, a))


# b = +-t against a of degree 6 with 2**v dividing a(0): gcd(a(xi), xi) is
# xi itself at every xi = 2**k with k <= v, so b is the candidate there and
# fails to divide a, and only the first k past v + 1 settles the pair
@pytest.mark.parametrize("v, rounds", [(19, 7), (25, 8), (200, 16)])
@pytest.mark.parametrize("sign", [1, -1])
def test_b_linear_at_zero_against_a_divisible_by_a_power_of_two(monkeypatch, v, rounds, sign):
    a, b = [3 << v, -5, 0, 7, 2, -1, 4], [0, sign]
    assert _reference(a, b) == [1]
    packs = _spy(monkeypatch, "_int_pack")
    _assert_cofactors(a, b, _int_poly_gcd_cofactors(a, b))
    assert len(packs) == 2 * rounds
    _assert_cofactors(b, a, _int_poly_gcd_cofactors(b, a))


# A = t and B = t + 2 share the factor 2 at every power of two, so the
# digits of gcd(a(xi), b(xi)) are those of 2 g until xi outgrows it
@pytest.mark.parametrize("g", [[1], [-3, 1], [5, -1, 3]])
def test_values_sharing_a_constant_at_every_power_of_two(g):
    a, b = _mul(g, [0, 1]), _mul(g, [2, 1])
    assert _reference(a, b) == _normal(g)
    _assert_cofactors(a, b, _int_poly_gcd_cofactors(a, b))
    _assert_cofactors(b, a, _int_poly_gcd_cofactors(b, a))
