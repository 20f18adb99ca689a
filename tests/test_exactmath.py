"""Exact arithmetic layer: canonical forms, division, expansion, residues."""

import math
import random
import re
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sasano import (
    INFINITY,
    Polynomial,
    RF,
    RationalFunction,
    ZERO_POINT,
    finite_point,
    laurent_expand,
    rat,
    rat_str,
    rational_roots,
    residue,
)
from sasano.exactmath import _series_quotient, _taylor_shift, float_function, has_real_root

T = RF.t()


def poly(*coeffs):
    return Polynomial(list(coeffs))


def long_division(num, den):
    """Independent long-division oracle used to pin the division example."""
    quo, rem = divmod(num, den)
    assert rem.is_zero()
    return quo


def test_add_common_denominator():
    f = T / (T - 1)
    g = RF.ONE / (T - 1)
    assert f + g == (T + 1) / (T - 1)


def test_mul_by_zero_absorbs():
    for f in (T, (T + 1) / (T - 2), RF.const(F(3, 7))):
        assert (f * RF.ZERO).is_zero()


_FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, -1, 0]), _FRACTIONS.filter(lambda c: c > 0),
       st.lists(_FRACTIONS, max_size=6))
def test_product_with_a_constant_equals_the_schoolbook_product(sign, c, coeffs):
    # a constant operand takes the rescaling path on either side
    k, p = Polynomial.const(sign * c), Polynomial(coeffs)
    out = [F(0)] * (len(p.coeffs) + len(k.coeffs))
    for i, a in enumerate(k.coeffs):
        for j, b in enumerate(p.coeffs):
            out[i + j] += a * b
    assert k * p == p * k == Polynomial(out)


def test_division_matches_long_division_oracle():
    num = poly(-1, 0, 1)   # t^2 - 1
    den = poly(-1, 1)      # t - 1
    expected = long_division(num, den)
    assert expected == poly(1, 1)
    assert RF(num) / RF(den) == RF(expected)


def test_division_by_zero_function_raises():
    with pytest.raises(ZeroDivisionError):
        T / RF.ZERO


def test_derivative_simple():
    assert (T * T).derivative() == 2 * T
    assert (RF.ONE / T).derivative() == -RF.ONE / (T * T)


def test_derivative_quotient_rule_by_hand():
    # d/dt (t+1)/(t-1) = ((t-1) - (t+1)) / (t-1)^2 = -2/(t-1)^2
    f = (T + 1) / (T - 1)
    assert f.derivative() == RF.const(-2) / ((T - 1) * (T - 1))


def test_derivative_matches_finite_differences():
    rng = random.Random(11)
    f = (2 * T * T - T + F(1, 3)) / (T * T + 5)
    df = f.derivative()
    checked = 0
    while checked < 5:
        pt = F(rng.randint(1, 40), rng.randint(1, 7))
        h = 1e-6
        numeric = (float_function(f)(float(pt) + h) - float_function(f)(float(pt) - h)) / (2 * h)
        exact = float_function(df)(float(pt))
        assert abs(numeric - exact) <= 1e-9 * max(1.0, abs(exact))
        checked += 1


def test_expand_polynomial_at_infinity():
    series = laurent_expand(2 * T, INFINITY, 5)
    assert series.lead == 1
    assert series.coefficient(1) == 2
    assert all(series.coefficient(k) == 0 for k in range(-5, 1))


def test_expand_simple_pole_at_finite_point():
    series = laurent_expand(RF.ONE / (T - 2), finite_point(2), 3)
    assert series.lead == -1
    assert series.coefficient(-1) == 1
    assert all(series.coefficient(k) == 0 for k in range(0, 4))


def test_expand_linear_seed_component_at_infinity():
    # z = t/(2*a4) with a4 = 1/4 is 2t; its top coefficient is 2
    a4 = F(1, 4)
    z = T / (2 * a4)
    series = laurent_expand(z, INFINITY, 3)
    assert series.lead == 1
    assert series.coefficient(1) == 2


def test_expand_at_zero_with_pole():
    f = (T + 1) / (T * T)
    series = laurent_expand(f, ZERO_POINT, 4)
    assert series.lead == -2
    assert series.coefficient(-2) == 1
    assert series.coefficient(-1) == 1
    assert series.coefficient(0) == 0


def test_geometric_series_at_zero():
    series = laurent_expand(RF.ONE / (1 - T), ZERO_POINT, 6)
    assert series.lead == 0
    assert all(series.coefficient(k) == 1 for k in range(0, 7))


def test_residue_simple_pole():
    assert residue(RF.ONE / (T - 2), 2) == 1


def test_residue_holomorphic_point():
    assert residue(T * T, 0) == 0


def test_residue_partial_fractions_by_hand():
    # 3t/(t^2-1) = (3/2)/(t-1) + (3/2)/(t+1)
    f = (3 * T) / (T * T - 1)
    assert residue(f, 1) == F(3, 2)
    assert residue(f, -1) == F(3, 2)


def test_rational_roots_examples():
    assert rational_roots(poly(-1, 0, 1)) == {F(1): 1, F(-1): 1}
    assert rational_roots(poly(1, 0, 1)) == {}
    assert rational_roots(poly(-1, 2)) == {F(1, 2): 1}


def test_rational_roots_multiplicities():
    # (t-1)^2 (2t+3) t
    p = poly(-1, 1) * poly(-1, 1) * poly(3, 2) * poly(0, 1)
    assert rational_roots(p) == {F(1): 2, F(-3, 2): 1, F(0): 1}


def _from_factors(*factors):
    acc = Polynomial.ONE
    for f in factors:
        acc = acc * poly(*f)
    return acc


@pytest.mark.parametrize("factors, roots", [
    # extremes past 10**12: a numeric search rounded 3/999999999959 away
    ([(999999999989, 1), (-3, 999999999959), (1, 1, 1)],
     {F(-999999999989): 1, F(3, 999999999959): 1}),
    ([(-1, 1234567891), (-2, 0, 1), (-(10 ** 13 + 37), 1)],
     {F(1, 1234567891): 1, F(10 ** 13 + 37): 1}),
    # extremes under 10**12 with many divisors: a trial-division search
    # over their divisor pairs took minutes
    ([(-720720, 1), (-1, 963761198400), (1, 0, 1)], {F(720720): 1, F(1, 963761198400): 1}),
    ([(-45045, 16), (16, 45045), (720720, 0, 1)], {F(45045, 16): 1, F(-16, 45045): 1}),
])
def test_rational_roots_with_large_or_divisor_rich_extremes(factors, roots):
    assert rational_roots(_from_factors(*factors)) == roots
    assert rational_roots(_from_factors(*factors).scale(F(-7, 3))) == roots


@pytest.mark.parametrize("factors, roots", [
    # t**2 + 4 = t**2 + 1 mod 3, so f mod 3 is not square-free, but its one
    # root mod 3, that of 2t - 1, is simple: 3 serves as the prime
    ([(1, 0, 1), (4, 0, 1), (-1, 2)], {F(1, 2): 1}),
    ([(1, 0, 1), (4, 0, 1), (-1, 2), (-1, 2)], {F(1, 2): 2}),
    # the roots 1 and 4 meet mod 3 in a double root: 3 must be refused
    ([(-1, 1), (-4, 1)], {F(1): 1, F(4): 1}),
])
def test_rational_roots_need_only_the_roots_mod_the_prime_simple(factors, roots):
    assert rational_roots(_from_factors(*factors)) == roots


_BIG = st.integers(-2 ** 80, 2 ** 80)


@st.composite
def _planted_roots(draw):
    """(p, roots): p a product of linear factors with random multiplicities
    and of irreducible quadratics, scaled; roots the planted ones."""
    roots = {}
    for _ in range(draw(st.integers(1, 4))):
        root = F(draw(_BIG), draw(st.integers(1, 2 ** 80)))
        roots[root] = roots.get(root, 0) + draw(st.integers(1, 3))
    p = Polynomial.const(F(draw(_BIG.filter(bool)), draw(st.integers(1, 2 ** 20))))
    for root, mult in roots.items():
        for _ in range(mult):
            p = p * poly(-root.numerator, root.denominator)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(1, 2 ** 40)), draw(st.integers(-2 ** 40, 2 ** 40))
        if draw(st.booleans()):  # complex roots: b**2 - 4ac < 0
            c = b * b // (4 * a) + draw(st.integers(1, 2 ** 40))
        else:  # real irrational roots: t**2 - c with c no square
            a, b, c = 1, 0, -draw(st.integers(2, 2 ** 40).filter(lambda v: math.isqrt(v) ** 2 != v))
        p = p * poly(c, b, a)
    return p, roots


@settings(max_examples=60, deadline=None)
@given(_planted_roots())
def test_rational_roots_return_the_planted_roots(case):
    p, roots = case
    assert rational_roots(p) == roots


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=2, max_size=7).filter(lambda c: c[-1]),
       st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=3))
def test_rational_roots_match_sympy(coeffs, linear):
    sympy = pytest.importorskip("sympy")
    p = poly(*coeffs)
    for a, b in linear:
        p = p * poly(-a, b)
    t = sympy.Symbol("t")
    expr = sum(int(c) * t ** i for i, c in enumerate(p.coeffs))
    want = {F(int(r.p), int(r.q)): m for r, m in sympy.Poly(expr, t).ground_roots().items()}
    assert rational_roots(p) == want


def _horner_shift(p, c):
    """p(t + c) by Horner's scheme on Polynomials, an independent oracle."""
    acc = Polynomial.ZERO
    for a in reversed(p.coeffs):
        acc = acc * poly(c, 1) + Polynomial.const(a)
    return acc


def test_expansion_at_a_finite_point_is_the_expansion_at_zero_of_the_shift():
    rng = random.Random(17)
    for _ in range(40):
        f = _random_rf(rng)
        c = F(rng.randint(-9, 9), rng.randint(1, 7))
        shifted = RationalFunction(_horner_shift(f.num, c), _horner_shift(f.den, c))
        for order in (None, -2, 3):
            got = laurent_expand(f, finite_point(c), order)
            want = laurent_expand(shifted, ZERO_POINT, order)
            assert (got.lead, got.coeffs, got.order) == (want.lead, want.coeffs, want.order)


_SHIFT_ENTRIES = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                           st.integers(-2 ** 200, 2 ** 200))


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(_SHIFT_ENTRIES, max_size=40), a=st.sampled_from([1, -1, 2, 999]))
@example(coeffs=[], a=1)
@example(coeffs=[-2 ** 200, 0, 0, 2 ** 200 - 1], a=1)
def test_taylor_shift_is_the_binomial_expansion(coeffs, a):
    # sum_i c_i (u + a)**i = sum_k u**k sum_{i >= k} c_i C(i, k) a**(i - k)
    want = [sum(c * math.comb(i, k) * a ** (i - k) for i, c in enumerate(coeffs) if i >= k)
            for k in range(len(coeffs))]
    assert _taylor_shift(coeffs, a) == want


def test_canonical_form_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        num = poly(*[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
        den = poly(*[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] + [1])
        f = RationalFunction(num, den)
        again = RationalFunction(f.num, f.den)
        assert again.num == f.num and again.den == f.den
        assert f.den.leading == 1
        assert f.num.gcd(f.den).degree <= 0


def test_series_of_product_is_product_of_series():
    rng = random.Random(5)
    for _ in range(12):
        def rand_rf():
            num = poly(*[rng.randint(-4, 4) for _ in range(3)])
            den = poly(*[rng.randint(-4, 4) for _ in range(2)] + [1])
            if num.is_zero():
                num = Polynomial.ONE
            return RationalFunction(num, den)

        f, g = rand_rf(), rand_rf()
        for point in (ZERO_POINT, INFINITY, finite_point(F(1, 2))):
            order = 6
            sf = laurent_expand(f, point, order)
            sg = laurent_expand(g, point, order)
            sprod = laurent_expand(f * g, point, order)
            truncated = sf.mul(sg)
            for k in truncated.exponents():
                if point.kind == "infinity" and k < sprod.order:
                    continue
                if point.kind != "infinity" and k > sprod.order:
                    continue
                assert truncated.coefficient(k) == sprod.coefficient(k)


def test_residue_equals_series_coefficient():
    f = (T * T + 3) / ((T - 1) * (T + 2) * (T + 2))
    for c in (F(1), F(-2), F(5)):
        series = laurent_expand(f, finite_point(c), 0)
        assert residue(f, c) == series.coefficient(-1)


def test_residue_theorem_for_rational_pole_sets():
    # sum of residues at all finite rational poles equals the t^-1
    # coefficient of the expansion at infinity
    rng = random.Random(9)
    for _ in range(10):
        pole_values = {F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
        den = Polynomial.ONE
        for c in pole_values:
            den = den * poly(-c, 1)
        num = poly(*[rng.randint(-6, 6) for _ in range(len(pole_values))])
        if num.is_zero():
            num = Polynomial.ONE
        f = RationalFunction(num, den)
        total = sum(residue(f, c) for c in f.poles())
        assert total == laurent_expand(f, INFINITY, order=1).coefficient(-1)


def test_substitute_negate():
    f = (T * T + T) / (T - 1)
    g = f.substitute_negate()
    for pt in (F(2), F(3), F(-5)):
        assert g.evaluate(pt) == f.evaluate(-pt)


# -- exact text -----------------------------------------------------------------

@pytest.mark.parametrize("num_digits, den_digits", [
    (1, 1), (4300, 1), (4301, 1), (1, 4301), (4301, 4300), (8601, 12899), (20_000, 20_000),
])
def test_rat_reads_what_rat_str_writes_at_any_length(num_digits, den_digits):
    # str and int refuse more than sys.get_int_max_str_digits() digits, 4,300
    # by default; str with that limit lifted is the reference text
    rng = random.Random(num_digits + 7 * den_digits)
    for sign in (1, -1):
        x = F(sign * rng.randrange(10 ** (num_digits - 1), 10 ** num_digits),
              rng.randrange(10 ** (den_digits - 1), 10 ** den_digits))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(x)
        finally:
            sys.set_int_max_str_digits(limit)
        assert rat_str(x) == want
        assert rat(want) == x and rat(f" {want}\n") == x


@pytest.mark.parametrize("text", [
    "1e30000000", "0.5", ".5", "1_000", "1/2/3", "", " ", "1 / 2", "1/-2", "+-1", "-", "inf", "nan", "0x10",
])
def test_rat_refuses_what_rat_str_never_writes(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^not an exact rational: {re.escape(repr(text))}$"):
        rat(text)
    assert time.perf_counter() - start < 1  # 1e30000000 is not worked out first


def test_rat_signs_and_zero_denominators():
    assert [rat(s) for s in ("-6/4", "+6/4", " 0 ", "-0/3")] == [F(-3, 2), F(3, 2), 0, 0]
    for text in ("1/0", " -3/0 "):
        with pytest.raises(ValueError, match=f"^zero denominator in {re.escape(repr(text))}$"):
            rat(text)


# -- integer-image arithmetic and the gcd-free shortcuts -------------------------

def _fraction_poly(rng, degree):
    return [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)]


def _reference(coeffs):
    """A polynomial built from Fraction coefficients by the constructor,
    not by the arithmetic."""
    return Polynomial(coeffs)


def _sum(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _product(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_polynomial_arithmetic_matches_coefficientwise_reference():
    rng = random.Random(11)
    for _ in range(200):
        a = _fraction_poly(rng, rng.randint(0, 6))
        b = _fraction_poly(rng, rng.randint(0, 6))
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        p, q = Polynomial(a), Polynomial(b)
        cases = [
            (p + q, _sum(a, b)),
            (p - q, _sum(a, [-x for x in b])),
            (p * q, _product(a, b)),
            (-p, [-x for x in a]),
            (p.scale(c), [c * x for x in a]),
            (p.derivative(), [i * x for i, x in enumerate(a)][1:]),
            (p.compose_negate(), [(-x if i % 2 else x) for i, x in enumerate(a)]),
        ]
        for got, want in cases:
            ref = _reference(want)
            assert got == ref and ref == got
            assert hash(got) == hash(ref)
            assert got.coeffs == ref.coeffs
            assert got.degree == ref.degree
        if not p.is_zero():
            assert p.monic().leading == 1
            assert (p * q) // p == q


_FRACTIONS = st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 9)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_FRACTIONS, max_size=8), other=st.lists(_FRACTIONS, max_size=4))
@example(coeffs=[], other=[])
@example(coeffs=[F(0), F(0)], other=[F(1)])
@example(coeffs=[F(-3, 4), F(0), F(6, 8), F(0)], other=[F(0), F(-1, 3)])
def test_every_route_to_a_polynomial_gives_one_image(coeffs, other):
    # from Fractions, from scaled integers (either sign of the scale) and
    # through the arithmetic: one primitive image, so one ==, hash and view
    p, q = Polynomial(coeffs), Polynomial(other)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    scaled = [int(c * lcm) for c in coeffs]
    routes = [Polynomial._from_ints(list(scaled), 1, lcm),
              Polynomial._from_ints([-v for v in scaled], -1, lcm),
              p * Polynomial.ONE, p + Polynomial.ZERO, (p + q) - q, p.scale(1)]
    want = list(coeffs)
    while want and want[-1] == 0:
        want.pop()
    ints, sn, sd = p._ints
    if want:
        assert math.gcd(*ints) == 1 and ints[-1] and sn > 0
    else:
        assert (ints, sn, sd) == ((), 0, 1)
    assert p.coeffs == tuple(want) and p.degree == len(want) - 1
    for r in routes:
        assert r._ints == (ints, sn, sd)
        assert r == p and p == r and hash(r) == hash(p)
        assert r.coeffs == p.coeffs


def _assert_stored_reduced(p):
    """The scale pair is coprime and positive, the image primitive, and the
    state the one that `Polynomial(p.coeffs)` builds from scratch."""
    ints, sn, sd = p._ints
    if ints:
        assert math.gcd(sn, sd) == 1 and sn > 0 and sd > 0
        assert math.gcd(*ints) == 1 and ints[-1]
    else:
        assert (sn, sd) == (0, 1)
    fresh = Polynomial(p.coeffs)
    assert fresh._ints == p._ints
    assert fresh == p and hash(fresh) == hash(p) and fresh.coeffs == p.coeffs


@settings(max_examples=150, deadline=None)
@given(a=st.lists(_FRACTIONS, max_size=6),
       b=st.lists(_FRACTIONS, min_size=1, max_size=4).filter(any),
       common=st.lists(_FRACTIONS, min_size=2, max_size=3).filter(lambda cs: cs[-1]),
       c=_FRACTIONS.filter(bool))
@example(a=[F(3, 4), F(-6, 5)], b=[F(-2, 3)], common=[F(1), F(-7, 2)], c=F(-9, 4))
@example(a=[], b=[F(5), F(-10)], common=[F(0), F(-3)], c=F(1))
def test_every_arithmetic_route_stores_a_reduced_scale_pair(a, b, common, c):
    # each route is checked against its Fraction reference, and its stored
    # state against the one built from those coefficients
    p, q, g = Polynomial(a), Polynomial(b), Polynomial(common)
    prod = p * q
    want = [F(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            want[i + j] += x * y
    assert prod == Polynomial(want)
    quo, rem = divmod(p, q)
    assert quo * q + rem == p and prod // q == p
    pg, qg = p * g, q * g
    gcd, pa, qb = pg.gcd(qg, cofactors=True)
    assert gcd.leading == 1 and gcd * pa == pg and gcd * qb == qg
    assert p.derivative().coeffs == tuple(i * x for i, x in enumerate(p.coeffs))[1:]
    assert p.compose_negate().coeffs == tuple(-x if i % 2 else x for i, x in enumerate(p.coeffs))
    negative = -abs(c)
    assert p.scale(negative).coeffs == tuple(negative * x for x in p.coeffs)
    f = RationalFunction(pg, qg)
    assert f.num * qg == f.den * pg
    if f.num:
        d = f.den._ints
        assert d[1:] == (1, d[0][-1])  # monic: (sn, sd) == (1, lead)
    for r in (prod, prod // q, quo, rem, gcd, pa, qb, p.derivative(), p.compose_negate(),
              p.scale(negative), p.scale(c), -p, p + q, q.monic(), f.num, f.den):
        _assert_stored_reduced(r)


def _fraction_divmod(a, b):
    """Long division on the Fraction coefficients: the reference for
    `divmod`, which divides the integer images."""
    rem = list(a.coeffs)
    quo = [F(0)] * max(len(rem) - b.degree, 0)
    while rem and len(rem) - 1 >= b.degree:
        k = len(rem) - 1 - b.degree
        q = rem[-1] / b.leading
        quo[k] = q
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return Polynomial(quo), Polynomial(rem)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(_FRACTIONS, max_size=9),
       b=st.lists(_FRACTIONS, min_size=1, max_size=5).filter(any))
@example(a=[F(1), F(2)], b=[F(0), F(0), F(3)])  # deg a < deg b
@example(a=[F(1, 2), F(-3), F(5, 7)], b=[F(-2, 3)])  # constant divisor
@example(a=[], b=[F(1), F(1)])
@example(a=[F(-1), F(0), F(1)], b=[F(-2), F(2)])  # exact
def test_divmod_matches_fraction_long_division(a, b):
    a, b = Polynomial(a), Polynomial(b)
    q, r = divmod(a, b)
    assert (q, r) == _fraction_divmod(a, b)
    assert q * b + r == a and r.degree < b.degree
    assert a // b == q and a % b == r
    assert (a * b) // b == a


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_FRACTIONS, max_size=8), point=_FRACTIONS)
@example(coeffs=[], point=F(3, 7))
@example(coeffs=[F(-5, 3)], point=F(-2, 9))
@example(coeffs=[0, 0, F(1, 2)], point=F(0))
def test_evaluate_matches_fraction_horner(coeffs, point):
    # the integer-image evaluation against Horner on the Fraction coefficients
    p = Polynomial(coeffs)
    want = F(0)
    for c in reversed(p.coeffs):
        want = want * point + c
    got = p.evaluate(point)
    assert type(got) is F and got == want
    assert Polynomial(coeffs).evaluate(point.numerator) == p.evaluate(F(point.numerator))


def _fraction_series(num, den, terms):
    """Power-series coefficients of num/den at t = 0 by the recursion on
    Fraction coefficients: the reference for `_series_quotient`."""
    out = []
    for k in range(terms):
        acc = num.coefficient(k) - sum(den.coefficient(j) * out[k - j] for j in range(1, k + 1))
        out.append(acc / den.coefficient(0))
    return out


@settings(max_examples=150, deadline=None)
@given(num=st.lists(_FRACTIONS, max_size=6), den=st.lists(_FRACTIONS, min_size=1, max_size=6),
       terms=st.integers(0, 10))
@example(num=[F(1)], den=[F(1), F(-1)], terms=6)
def test_series_quotient_matches_the_fraction_recursion(num, den, terms):
    num, den = Polynomial(num), Polynomial(den)
    assume(den.coefficient(0) != 0)
    (n, nn, nd), (d, dn, dd) = num._ints, den._ints
    scale = F(nn, nd) / F(dn, dd)
    assert _series_quotient(n, d, scale, terms) == _fraction_series(num, den, terms)


def _condition(p, t: F) -> F:
    """sum |c_k| |t|**k over |p(t)|: how far rounding in Horner's scheme can
    move p(t), relative to its value."""
    return sum(abs(c) * abs(t) ** k for k, c in enumerate(p.coeffs)) / abs(p.evaluate(t))


@settings(max_examples=150, deadline=None)
@given(num=st.lists(_FRACTIONS, max_size=6).filter(any),
       den=st.lists(_FRACTIONS, min_size=1, max_size=6).filter(any), t=st.floats(-50, 50))
@example(num=[F(1), F(-3), F(1, 7)], den=[F(2), F(0), F(5)], t=0.75)
@example(num=[F(1), F(-3), F(1, 7)], den=[F(2), F(0), F(5)], t=-31.5)
def test_float_function_agrees_with_the_exact_value_where_well_conditioned(num, den, t):
    # Horner in t for |t| <= 1 and in 1/t beyond, then one rounding: on
    # inputs whose num and den Horner cannot move far, within 1e-12
    f = RationalFunction(Polynomial(num), Polynomial(den))
    assume(f.num and f.den.evaluate(F(t)) and f.num.evaluate(F(t)))
    assume(_condition(f.num, F(t)) <= 100 and _condition(f.den, F(t)) <= 100)
    exact = float(f.evaluate(F(t)))
    assert abs(float_function(f)(t) - exact) <= 1e-12 * abs(exact)


def _naive_horner(f, t: float):
    """Horner's scheme on the float coefficients, as `float_function` ran
    before; None where a coefficient has no float."""
    try:
        num, den = ([float(c) for c in reversed(p.coeffs)] for p in (f.num, f.den))
    except OverflowError:
        return None
    n = d = 0.0
    for c in num:
        n = n * t + c
    for c in den:
        d = d * t + c
    return n / d if d else None


def _monomial(k):
    return RF(Polynomial.t(k))


@pytest.mark.parametrize("f, t", [
    (2 * _monomial(40) / (_monomial(40) + 1), 1e8),  # inf / inf
    ((_monomial(300) + 7) / (2 * _monomial(300) - T), 20.0),  # t**300 overflows
    ((T - 10 ** 400) / (T + 10 ** 400), 3.0),  # coefficients with no float
    ((10 ** 350 * T * T + 1) / (10 ** 350 + T), 0.5),  # the same, at |t| <= 1
    (10 ** 300 * _monomial(3) / (_monomial(3) + 1), 1e8),  # 10**300 * t**3 overflows
])
def test_float_function_is_finite_where_naive_horner_overflows(f, t):
    naive = _naive_horner(f, t)
    assert naive is None or not math.isfinite(naive)
    exact = float(f.evaluate(F(t)))
    assert abs(float_function(f)(t) - exact) <= 1e-12 * abs(exact)


def test_float_function_saturates_past_the_float_range():
    f = 10 ** 400 * (T - 1)
    assert float_function(f)(2.0) == math.inf and float_function(-f)(2.0) == -math.inf
    assert float_function(f)(1.0) == 0.0


def _random_rf(rng):
    num = Polynomial(_fraction_poly(rng, rng.randint(0, 3)))
    den = Polynomial(_fraction_poly(rng, rng.randint(0, 3)))
    if den.is_zero():
        den = Polynomial.ONE
    # shared factors make the reductions nontrivial
    common = Polynomial([F(rng.randint(-3, 3)), 1])
    if rng.random() < 0.5:
        num, den = num * common, den * common
    return RationalFunction(num, den)


def test_rational_function_shortcuts_match_reduction_from_scratch():
    # sums, products, quotients and scalar operations skip gcds that the
    # canonical form of their operands makes redundant; the constructor,
    # which reduces by a full gcd, must agree with every one of them
    rng = random.Random(12)
    for _ in range(150):
        f, g = _random_rf(rng), _random_rf(rng)
        c = F(rng.randint(-4, 4), rng.randint(1, 3))
        cases = [
            (f + g, f.num * g.den + g.num * f.den, f.den * g.den),
            (f - g, f.num * g.den - g.num * f.den, f.den * g.den),
            (f * g, f.num * g.num, f.den * g.den),
            (f * f, f.num * f.num, f.den * f.den),
            (-f, -f.num, f.den),
            (f + c, f.num + f.den.scale(c), f.den),
            (c * f, f.num.scale(c), f.den),
            (f.substitute_negate(), f.num.compose_negate(), f.den.compose_negate()),
        ]
        if not g.is_zero():
            cases.append((f / g, f.num * g.den, f.den * g.num))
        if not f.is_zero() and c:
            cases.append((c / f, f.den.scale(c), f.num))
        for got, num, den in cases:
            want = RationalFunction(num, den)
            assert got == want
            assert got.den.leading == 1
            assert got.num.gcd(got.den).degree <= 0


def test_has_real_root_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(13)
    for _ in range(300):
        p = Polynomial([rng.randint(-4, 4) or 1])
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                p = p * poly(F(-rng.randint(-20, 20), rng.randint(1, 5)), 1)
            else:
                p = p * poly(rng.randint(-15, 15), rng.randint(-8, 8), rng.randint(1, 4))
        lo = F(rng.randint(-8, 8), rng.randint(1, 4))
        hi = lo + F(rng.randint(0, 12), rng.randint(1, 4))
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                   for i, c in enumerate(p.coeffs))
        count = sympy.Poly(expr, t).count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                                 sympy.Rational(hi.numerator, hi.denominator))
        assert has_real_root(p, lo, hi) == (count > 0), (p, lo, hi)


def test_has_real_root_endpoints_and_multiple_roots():
    square = poly(-1, 1) * poly(-1, 1) * poly(1, 0, 1)  # (t - 1)^2 (t^2 + 1)
    assert has_real_root(square, F(1, 2), F(3, 2))
    assert has_real_root(square, 1, 2) and has_real_root(square, 0, 1)
    assert not has_real_root(square, F(11, 10), 5)
    assert not has_real_root(poly(1, 0, 1), -100, 100)  # roots +-i only
    # complex pairs 1/3 +- 10**-10 i and 1/3 +- 10**-400 i: the count on
    # [0, 1] stays 2 for about 33 and 1,330 halvings, and no cap or
    # recursion limit may answer in place of the exact test
    for e in (20, 800):
        assert not has_real_root(poly(F(1, 9) + F(1, 10 ** e), F(-2, 3), 1), 0, 1)


@st.composite
def _products_with_multiplicities(draw):
    """A nonzero constant times 1 to 4 linear or quadratic factors, each
    raised to a power from 1 to 3."""
    p = poly(draw(st.integers(-4, 4).filter(bool)))
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            factor = poly(-draw(st.builds(F, st.integers(-20, 20), st.integers(1, 5))), 1)
        else:
            factor = poly(draw(st.integers(-15, 15)), draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(1, 3))):
            p = p * factor
    return p


@settings(max_examples=120, deadline=None)
@given(p=_products_with_multiplicities(), lo=st.builds(F, st.integers(-8, 8), st.integers(1, 4)),
       width=st.builds(F, st.integers(0, 12), st.integers(1, 4)))
@example(p=poly(-2, 0, 1) * poly(-2, 0, 1), lo=F(1), width=F(1))  # (t^2 - 2)^2
# (t - 3/2)^3 (t^2 + 1), its triple root at an end
@example(p=poly(F(-27, 8), F(27, 4), F(-9, 2), 1) * poly(1, 0, 1), lo=F(3, 2), width=F(1, 2))
# (t - 1/2)^2 (t - 5/2)^2, its double roots outside [1, 2]
@example(p=poly(F(1, 4), -1, 1) * poly(F(-5, 2), 1) * poly(F(-5, 2), 1), lo=F(1), width=F(1))
def test_has_real_root_matches_sympy_with_multiplicities(p, lo, width):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    hi = lo + width
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** i for i, c in enumerate(p.coeffs))
    count = sympy.Poly(expr, t).count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                             sympy.Rational(hi.numerator, hi.denominator))
    assert has_real_root(p, lo, hi) == (count > 0)


def test_has_real_root_reduces_the_polynomial_it_is_given(monkeypatch):
    # on [1/4, 3/4] the count is 2 (the double root 1/3) and the image of p
    # composed onto [0, 1] is not p, so the square-free step must be seen
    # to run on p itself, not on a scaled copy
    p = poly(F(-1, 3), 1) * poly(F(-1, 3), 1) * poly(-2, 0, 1)
    reduced = []
    gcd = Polynomial.gcd

    def recording_gcd(self, *args, **kwargs):
        reduced.append(self)
        return gcd(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "gcd", recording_gcd)
    assert has_real_root(p, F(1, 4), F(3, 4))
    assert reduced == [p]


# -- Laurent series arithmetic --------------------------------------------------

_SMALL = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _rational_functions(draw):
    """Small rational functions, zero among them, with poles at 0 and
    at the finite expansion point now and then."""
    num = Polynomial(draw(st.lists(_SMALL, max_size=5)))
    den = Polynomial(draw(st.lists(_SMALL, min_size=1, max_size=4).filter(any)))
    for factor in draw(st.lists(st.sampled_from([poly(0, 1), poly(F(-1, 2), 1)]), max_size=2)):
        den = den * factor
    return RationalFunction(num, den)


def _window_arg(series):
    """The `order` argument of laurent_expand that gives series' window."""
    return -series.order if series.point.kind == "infinity" else series.order


@settings(max_examples=150, deadline=None)
@given(f=_rational_functions(), g=_rational_functions(), c=_SMALL,
       point=st.sampled_from([ZERO_POINT, INFINITY, finite_point(F(1, 2))]),
       orders=st.tuples(st.integers(-3, 6), st.integers(-3, 6)))
@example(f=RF.ZERO, g=T / (T - 1), c=F(2), point=INFINITY, orders=(2, 2))
@example(f=RF.t(-2), g=RF.ZERO, c=F(0), point=ZERO_POINT, orders=(1, 3))
def test_series_arithmetic_matches_expansion_of_the_result(f, g, c, point, orders):
    sf, sg = (laurent_expand(h, point, order) for h, order in zip((f, g), orders))
    cases = [
        (sf + sg, f + g),
        (sf - sg, f - g),
        (sf * sg, f * g),
        (-sf, -f),
        (c * sf, c * f),
        (sf * 3, f * 3),
        (sf + c, f + c),
        (1 - sf, 1 - f),
    ]
    for got, exact in cases:
        assert got == laurent_expand(exact, point, _window_arg(got))


def _inverted(p):
    """p(1/u) as a rational function of u, term by term."""
    return sum((RF.t(-i, a) for i, a in enumerate(p.coeffs)), RF.ZERO)


@settings(max_examples=150, deadline=None)
@given(f=_rational_functions(), c=_SMALL, order=st.one_of(st.none(), st.integers(-4, 6)))
@example(f=RF.ZERO, c=F(1, 2), order=None)
@example(f=RF.t(-2) / (T - F(1, 2)), c=F(1, 2), order=-3)
def test_expansions_are_expansions_at_zero_in_the_local_parameter(f, c, order):
    # at c: the expansion at t = 0 of f(t + c), shifted by Horner on Polynomials
    got = laurent_expand(f, finite_point(c), order)
    want = laurent_expand(RF(_horner_shift(f.num, c), _horner_shift(f.den, c)), ZERO_POINT, order)
    assert (got.lead, got.coeffs, got.order) == (want.lead, want.coeffs, want.order)
    assert list(got.exponents()) == list(want.exponents())
    for s in (got, want):
        with pytest.raises(ValueError, match=f"^exponent {want.order + 1} above truncation {want.order}$"):
            s.coefficient(want.order + 1)
    # at infinity: the expansion at u = 0 of f(1/u), its exponents negated
    got = laurent_expand(f, INFINITY, order)
    want = laurent_expand(_inverted(f.num) / _inverted(f.den), ZERO_POINT, order)
    assert (got.lead, got.coeffs, got.order) == (-want.lead, want.coeffs, -want.order)
    assert list(got.exponents()) == [-k for k in want.exponents()]
    with pytest.raises(ValueError, match=f"^exponent {got.order - 1} below truncation {got.order}$"):
        got.coefficient(got.order - 1)
