"""The solution check by exact evaluation against the symbolic residual.

`is_solution` decides at B + 1 integer points, with B a bound on the
degree of each residual's numerator; `residual` builds the four residuals
as rational functions.  The two must agree on genuine solutions in all
seven system/chart pairs and on copies with one coefficient changed; the
formal denominator must clear each residual's denominator, and B must
never fall below the true degree of the numerator over it.  B is read off
the compiled pair program's trace; `reference_degree_bounds` runs the
written field on `_DegreeBound` values instead, and the two must agree.
The field is written in Horner form; `expanded_side`, its monomials as
they were written before, must give the same field and the same B, and
the compiled programs must take the Horner form's steps per call.
"""

import ast
import math
import operator
import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    b4,
    b4_m3_infinite_solution,
    d5,
    d5_r1_infinite_solution,
    d5_r3_infinite_solution,
    d5_r5_infinite_solution,
    from_lattice,
    random_params,
    random_standard_form,
    residual,
)
from sasano import (
    Chart,
    ChartMismatch,
    Generator,
    Polynomial,
    RF,
    SolutionTuple,
    System,
    UndefinedAction,
    act_params,
    act_solution,
    construct_rational_solution,
    equivalence_map,
    is_solution,
    seed_solution,
)
from sasano import systems
from sasano.backlund import PRIMITIVES
from sasano.systems import VALID_CHARTS, vector_field

T = RF.t()
SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _symbolic(p, sol) -> bool:
    return all(r.is_zero() for r in residual(p, sol))


def _seed(system):
    p = random_standard_form(system, random.Random(5))
    return p, seed_solution(p)


def _b4_m3():
    p = b4(F(1, 7), F(1, 5), (1 - F(1, 7) - F(1, 5) - 1) / 2, F(1, 2), 0)
    return p, b4_m3_infinite_solution(p)


def _d5_affine():
    # the y == 0 family, at a0 + a1 = a3 + a4 = 0
    a1, a4 = F(1, 3), F(1, 5)
    p = d5(-a1, a1, "1/2", -a4, a4)
    return p, SolutionTuple(Chart.AFFINE, RF.const(-1 / (2 * a1)), RF.ZERO, T / (2 * a4), RF.ZERO)


def _d5_r1():
    p = d5(0, "1/2", "-1/2", "1/4", "1/4")
    return p, d5_r1_infinite_solution(p)


def _d5_r3():
    p = d5("1/5", "1/10", "-3/10", "1/2", 0)
    return p, d5_r3_infinite_solution(p)


def _d5_r5():
    return d5(0, "1/5", "1/10", "1/5", 0), d5_r5_infinite_solution()


FIXTURES = [
    lambda: _seed(System.B4), _b4_m3, lambda: _seed(System.D4), _d5_affine,
    lambda: _seed(System.D5), _d5_r1, _d5_r3, _d5_r5,
]


def test_fixtures_cover_every_system_chart_pair():
    pairs = set()
    for make in FIXTURES:
        p, sol = make()
        assert is_solution(p, sol) and _symbolic(p, sol)
        pairs.add((p.system, sol.chart))
    assert pairs == {(s, c) for s, charts in VALID_CHARTS.items() for c in charts}


def _push(p, sol, names):
    """The image of (p, sol) under the letters in turn, up to the first
    one that is undefined."""
    for name in names:
        g = Generator(p.system, name)
        try:
            sol = act_solution(g, p, sol)
        except UndefinedAction:
            break
        p = act_params(g, p)
    return p, sol


def _change_one_coefficient(sol, index, power, delta):
    comps = list(sol.components())
    c = comps[index]
    k = power % (c.num.degree + 1) if c.num.degree >= 0 else 0
    comps[index] = RF(c.num + Polynomial.t(k, delta), c.den)
    return SolutionTuple(sol.chart, *comps)


@pytest.mark.parametrize("make", FIXTURES)
@SETTINGS
@given(
    letters=st.lists(st.integers(0, 10), max_size=3),
    index=st.integers(0, 3),
    power=st.integers(0, 50),
    delta=st.sampled_from([F(1), F(-1), F(1, 3), F(5, 2)]),
)
def test_evaluation_verdict_matches_symbolic_residual(make, letters, index, power, delta):
    p, sol = make()
    names = PRIMITIVES[p.system]
    q, image = _push(p, sol, [names[i % len(names)] for i in letters])
    assert is_solution(q, image) and _symbolic(q, image)
    broken = _change_one_coefficient(image, index, power, delta)
    assert is_solution(q, broken) == _symbolic(q, broken)


class _Pair:
    """An exact rational n/d kept as a pair of ints, with no gcd taken: the
    point values that `vector_field` ran on before it was compiled, kept as
    the reference for the compiled pair program."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d

    def __add__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.n * other.d + other.n * self.d, self.d * other.d)
        # an int or a Fraction
        return _Pair(self.n * other.denominator + other.numerator * self.d,
                     self.d * other.denominator)

    def __mul__(self, other):
        if isinstance(other, _Pair):
            return _Pair(self.n * other.n, self.d * other.d)
        return _Pair(self.n * other.numerator, self.d * other.denominator)

    def __neg__(self):
        return _Pair(-self.n, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    __radd__ = __add__
    __rmul__ = __mul__


def _residuals(field, t, values, t_derivatives):
    """t*X' - RHS on any values that `vector_field` runs on."""
    return tuple(td - r for td, r in zip(t_derivatives, field(t, *values)))


class _DegreeBound:
    """A bound for a value N / prod_k D_k**e[k] built from the components
    c = N_c / D_c: deg N - sum_k e[k] * deg D_k <= h.  Products add h and
    e; sums take the larger h and the elementwise larger e; scalars leave
    both alone.  The value type the degree bound ran `vector_field` on
    before it read the pair program's trace: the reference for it."""

    __slots__ = ("h", "e")

    def __init__(self, h: int, e: tuple):
        self.h, self.e = h, e

    def __add__(self, other):
        if not isinstance(other, _DegreeBound):
            return _DegreeBound(max(self.h, 0), self.e)
        return _DegreeBound(max(self.h, other.h), tuple(map(max, self.e, other.e)))

    def __mul__(self, other):
        if not isinstance(other, _DegreeBound):
            return self
        return _DegreeBound(self.h + other.h, tuple(map(operator.add, self.e, other.e)))

    def __neg__(self):
        return self

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def reference_degree_bounds(field, comps):
    """`systems._degree_bounds` as it ran the written field on
    `_DegreeBound` values: the distinct denominators D_k and, per
    residual, (B, e)."""
    dens = list(dict.fromkeys(c.den for c in comps))

    def bound(c, power):
        return _DegreeBound(c.num.degree - c.den.degree,
                            tuple(power if d == c.den else 0 for d in dens))

    t = _DegreeBound(1, (0,) * len(dens))
    residuals = _residuals(field, t, [bound(c, 1) for c in comps], [bound(c, 2) for c in comps])
    return dens, [(r.h + sum(e * d.degree for e, d in zip(r.e, dens)), r.e) for r in residuals]


def _reference_vanish(p, sol, points=None) -> bool:
    """`systems._residuals_vanish` as it ran `vector_field` itself on
    `_Pair` point values."""
    field = vector_field(p.system, sol.chart, p.alphas)
    comps = sol.components()
    dens = list(dict.fromkeys(c.den for c in comps))
    if points is None:
        points = max(b for b, _ in reference_degree_bounds(field, comps)[1]) + 1
    images = []
    for c in comps:
        n, nn, nd = c.num._ints
        k = dens.index(c.den)
        scale = F(nn, nd) / F(*dens[k]._ints[1:])
        images.append((n, scale.numerator, scale.denominator, k))
    t = 0
    while points > 0:
        t += 1
        at = [systems._horner(d._ints[0], t) for d in dens]
        if not all(v for v, _ in at):
            continue
        values, t_derivatives = [], []
        for n, sn, sd, k in images:
            nv, ns = systems._horner(n, t)
            dv, ds = at[k]
            values.append(_Pair(sn * nv, sd * dv))
            t_derivatives.append(_Pair(sn * t * (ns * dv - nv * ds), sd * dv * dv))
        if any(r.n for r in _residuals(field, t, values, t_derivatives)):
            return False
        points -= 1
    return True


@pytest.mark.parametrize("make", FIXTURES)
@SETTINGS
@given(
    letters=st.lists(st.integers(0, 10), max_size=3),
    index=st.integers(0, 3),
    power=st.integers(0, 50),
    delta=st.sampled_from([F(1), F(-1), F(1, 3), F(5, 2)]),
)
def test_pair_program_verdict_matches_the_pair_reference(make, letters, index, power, delta):
    # in the solution's own chart, at one point and at B + 1 points
    p, sol = make()
    names = PRIMITIVES[p.system]
    q, image = _push(p, sol, [names[i % len(names)] for i in letters])
    for s in (image, _change_one_coefficient(image, index, power, delta)):
        for points in (1, None):
            assert systems._residuals_vanish(q, s, points) == _reference_vanish(q, s, points)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=40), q=st.integers(-60, 60))
def test_paired_horner_is_horner_at_q_and_minus_q(coeffs, q):
    pm = systems._horner_pm((coeffs[::2], coeffs[1::2]), q)
    assert pm == (systems._horner(coeffs, q), systems._horner(coeffs, -q))


@pytest.mark.parametrize("system, chart", list(systems.INVERTED_SIDES))
@settings(max_examples=60, deadline=None)
@given(
    alphas=st.lists(st.floats(-4, 4), min_size=5, max_size=5),
    t=st.floats(0.01, 8),
    v=st.lists(st.floats(-8, 8), min_size=4, max_size=4),
)
def test_float_program_equals_the_written_field(system, chart, alphas, t, v):
    field = vector_field(system, chart, alphas)
    assert systems.float_rhs(system, chart, alphas)(t, v) == [r / t for r in field(t, *v)]


def test_compiled_programs_store_no_value_they_never_read(monkeypatch):
    # every name a program assigns is read by a later line or its return
    sources = []

    def capture(source, *rest):
        sources.append(source)
        return compile(source, *rest)

    monkeypatch.setattr(systems, "_PROGRAMS", {})
    monkeypatch.setattr(systems, "compile", capture, raising=False)
    for system, chart in systems.INVERTED_SIDES:
        for kind in ("float", "pair"):
            systems._program(system, chart, kind)
    assert len(sources) == 14
    dead = []
    for source in sources:
        stores, last_read = {}, {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                seen = stores if isinstance(node.ctx, ast.Store) else last_read
                seen[node.id] = max(seen.get(node.id, 0), node.lineno)
        dead += [name for name, line in stores.items() if last_read.get(name, 0) <= line]
    assert dead == []


# per system and chart, the steps one call of the float and of the pair
# program takes: the field in Horner form
_INNER_STEPS = {
    (System.B4, Chart.AFFINE): (34, 38), (System.B4, Chart.M3): (27, 31),
    (System.D4, Chart.AFFINE): (27, 31),
    (System.D5, Chart.AFFINE): (42, 46), (System.D5, Chart.R1): (34, 38),
    (System.D5, Chart.R3): (35, 39), (System.D5, Chart.R5): (27, 31),
}


def test_compiled_programs_take_the_steps_of_the_horner_form(monkeypatch):
    # one assignment per step in the body of each generated field
    sources = {}

    def capture(source, filename, *rest):
        sources[filename] = source
        return compile(source, filename, *rest)

    monkeypatch.setattr(systems, "_PROGRAMS", {})
    monkeypatch.setattr(systems, "compile", capture, raising=False)
    steps = {}
    for (system, chart), counts in _INNER_STEPS.items():
        for kind, count in zip(("float", "pair"), counts):
            systems._program(system, chart, kind)
            source = sources[f"<{kind} field of {system.value} in chart {chart.value}>"]
            field = next(node for node in ast.walk(ast.parse(source))
                         if isinstance(node, ast.FunctionDef) and node.name == "field")
            steps[system, chart, kind] = sum(
                isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                for node in field.body)
            assert steps[system, chart, kind] == len(systems._program(system, chart, kind)[1])
    assert steps == {(s, c, kind): count for (s, c), counts in _INNER_STEPS.items()
                     for kind, count in zip(("float", "pair"), counts)}


def expanded_side(p_form: bool, c, b, inverted: bool, t, u, v, v2, k2):
    """`systems._side` as it was written before its Horner form, monomial by
    monomial, with k2 = 2 * k and v2 unused: the reference for the degree
    bound and the field's values."""
    if p_form:
        du, dv = 2 * u * u * v - u * u + c * u + t, -2 * u * v * v + 2 * u * v - c * v + b
    else:
        du, dv = 2 * u * u * v - t * u * u - c * u + 1, -2 * u * v * v + 2 * t * u * v + c * v + b * t
    if inverted:
        return du + k2 * u * u, dv - k2 * (2 * u * v + b)
    return du - k2, dv


@pytest.mark.parametrize("system, chart", list(systems.INVERTED_SIDES))
def test_horner_form_is_the_expanded_field(system, chart):
    t, *state = sp.symbols("t x y z w")
    alphas = sp.symbols("a0:5")
    horner = vector_field(system, chart, alphas)(t, *state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_side", expanded_side)
        expanded = vector_field(system, chart, alphas)(t, *state)
    assert [sp.expand(h - e) for h, e in zip(horner, expanded)] == [0] * 4


@pytest.mark.parametrize("make", FIXTURES)
@SETTINGS
@given(letters=st.lists(st.integers(0, 10), max_size=3))
def test_horner_form_keeps_the_degree_bound_of_the_expanded_field(make, letters):
    # each extra unit of B would cost one more residual point
    p, sol = make()
    names = PRIMITIVES[p.system]
    q, image = _push(p, sol, [names[i % len(names)] for i in letters])
    comps = image.components()
    bounds = systems._degree_bounds(q.system, image.chart, comps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "_side", expanded_side)
        reference = reference_degree_bounds(vector_field(q.system, image.chart, q.alphas), comps)
    assert reference == bounds


def _random_rf(rng, dens):
    num = Polynomial([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randint(0, 4))])
    return RF(num, rng.choice(dens))


def _random_solution(rng, chart):
    # a small pool of denominators, so that components share some
    linear = [T - k for k in range(-2, 3)]
    dens = [Polynomial.ONE, (T * T + 1).num] + [
        (rng.choice(linear) * rng.choice(linear)).num for _ in range(3)]
    return SolutionTuple(chart, *(_random_rf(rng, dens) for _ in range(4)))


@pytest.mark.parametrize("system, chart", list(systems.INVERTED_SIDES))
@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_degree_bound_read_off_the_trace_equals_the_reference(system, chart, seed):
    rng = random.Random(seed)
    p = random_params(system, rng)
    comps = _random_solution(rng, chart).components()
    field = vector_field(system, chart, p.alphas)
    assert systems._degree_bounds(system, chart, comps) == reference_degree_bounds(field, comps)


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_degree_bound_is_never_below_the_true_degree(seed):
    rng = random.Random(seed)
    system = rng.choice(list(System))
    chart = rng.choice(VALID_CHARTS[system])
    p = random_params(system, rng)
    sol = _random_solution(rng, chart)
    dens, bounds = systems._degree_bounds(system, chart, sol.components())
    for r, (bound, exponents) in zip(residual(p, sol), bounds):
        formal = math.prod((d for d, e in zip(dens, exponents) for _ in range(e)), start=Polynomial.ONE)
        assert (formal % r.den).is_zero()
        if not r.is_zero():
            assert r.num.degree - r.den.degree + formal.degree <= bound
    assert is_solution(p, sol) == _symbolic(p, sol)


def test_points_where_a_denominator_vanishes_are_skipped():
    # z has a pole at t = 2, among the first points of the check
    p = from_lattice(System.B4, F(3, 2), F(-1, 3), 1, F(2, 5))
    sol = construct_rational_solution(p).solution
    assert sol.z.den.evaluate(2) == 0
    assert is_solution(p, sol) and _symbolic(p, sol)


@pytest.mark.parametrize("system", list(System))
def test_perturbation_vanishing_to_second_order_at_the_first_points_is_rejected(system):
    # x + prod (t - k)**2 keeps x and x' at t = 1..m, so every residual
    # vanishes there; a check capped at m points would accept it
    m = 20
    p = from_lattice(system, F(3, 2), F(1, 3), 1, F(2, 5))
    sol = construct_rational_solution(p).solution
    assert sol.chart is Chart.AFFINE and is_solution(p, sol)
    bump = math.prod((T - k) * (T - k) for k in range(1, m + 1))
    bad = sol.replace(x=sol.x + bump)
    res = residual(p, bad)
    assert not all(r.is_zero() for r in res)
    assert all(r.evaluate(k) == 0 for r in res for k in range(1, m + 1) if r.den.evaluate(k))
    assert not is_solution(p, bad)


def _forbid_d4_image(monkeypatch):
    def fail(params, sol):
        raise AssertionError("the D4 image was built")

    monkeypatch.setattr(systems, "_d4_image", fail)


@pytest.mark.parametrize("make, index", [
    (lambda: _seed(System.B4), 2), (_d5_affine, 0), (_d5_affine, 2),
    (lambda: _seed(System.D5), 2), (_d5_r1, 2), (_d5_r3, 0),
])
def test_identically_zero_inverted_side_is_rejected_by_the_screen(monkeypatch, make, index):
    # the u-residual of an inverted side with u == 0 is -t or -1, so the
    # check rejects before 1/u would be formed
    p, sol = make()
    assert systems.INVERTED_SIDES[p.system, sol.chart][index // 2]
    comps = list(sol.components())
    comps[index] = RF.ZERO
    broken = SolutionTuple(sol.chart, *comps)
    assert not _symbolic(p, broken)
    _forbid_d4_image(monkeypatch)
    assert not is_solution(p, broken)


@pytest.mark.parametrize("system", [System.B4, System.D5])
def test_corrupted_solution_is_rejected_before_the_d4_image(monkeypatch, system):
    p = from_lattice(system, F(7, 2), F(1, 3), 3, F(2, 5))
    sol = construct_rational_solution(p).solution
    images = []
    d4_image = systems._d4_image
    monkeypatch.setattr(systems, "_d4_image", lambda *args: images.append(args) or d4_image(*args))
    assert is_solution(p, sol) and len(images) == 1  # a genuine one is decided on D4
    broken = sol.replace(x=RF(sol.x.num + Polynomial.ONE, sol.x.den))
    _forbid_d4_image(monkeypatch)
    assert not is_solution(p, broken)


@pytest.mark.parametrize("make", [_b4_m3, _d5_r5])
def test_charts_without_an_inverted_side_are_decided_on_d4s_field(monkeypatch, make):
    # B4 m3 and D5 r5 are D4 itself: only D4's pair program is built
    p, sol = make()
    broken = sol.replace(w=sol.w + 1)
    monkeypatch.setattr(systems, "_PROGRAMS", {})
    assert is_solution(p, sol) and not is_solution(p, broken) and not _symbolic(p, broken)
    assert list(systems._PROGRAMS) == [(System.D4, Chart.AFFINE, "pair")]


@pytest.mark.parametrize("make", [make for make in FIXTURES if make()[0].system is not System.D4])
@SETTINGS
@given(letters=st.lists(st.integers(0, 10), max_size=4))
def test_d4_image_maps_back_under_the_equivalence(make, letters):
    p, sol = make()
    names = PRIMITIVES[p.system]
    q, image = _push(p, sol, [names[i % len(names)] for i in letters])
    d4_params, d4_sol = systems._d4_image(q, image)
    assert is_solution(d4_params, d4_sol)
    assert equivalence_map(System.D4, q.system, d4_params, d4_sol) == (q, image)


@pytest.mark.parametrize("system, chart", [
    (System.D4, Chart.M3), (System.B4, Chart.R1), (System.D5, Chart.M3),
])
def test_a_chart_the_system_does_not_have_is_a_chart_mismatch(system, chart):
    p, sol = _seed(system)
    with pytest.raises(ChartMismatch, match=f"^chart {chart.value} is not a {system.value} chart$"):
        is_solution(p, sol.replace(chart=chart))


def _record_points(monkeypatch, system, chart):
    """The t of each call of the pair program's residuals, from now on."""
    make, trace, results = systems._program(system, chart, "pair")
    points = []

    def recording(*alphas):
        residuals = make(*alphas)
        return lambda t, *values: points.append(t) or residuals(t, *values)

    monkeypatch.setitem(systems._PROGRAMS, (system, chart, "pair"), (recording, trace, results))
    return points


def test_the_screen_takes_one_point_and_the_check_alternates_around_the_poles(monkeypatch):
    # denominators t**2 - 1 and t**2 - 4 in B4's affine chart, which
    # inverts the z-side, so that a screen runs first
    p = from_lattice(System.B4, F(1, 2), F(-1, 3), 1, F(3, 4))
    sol = construct_rational_solution(p).solution
    assert sol.chart is Chart.AFFINE and systems.INVERTED_SIDES[p.system, sol.chart][1]
    assert {c.den for c in sol.components()} == {Polynomial.ONE, (T * T - 1).num, (T * T - 4).num}
    screened = _record_points(monkeypatch, System.B4, Chart.AFFINE)
    checked = _record_points(monkeypatch, System.D4, Chart.AFFINE)
    assert is_solution(p, sol)
    first = next(t for t in range(1, 10) if all(c.den.evaluate(t) for c in sol.components()))
    assert screened == [first] == [3]
    comps = systems._d4_image(p, sol)[1].components()
    bound = max(b for b, _ in systems._degree_bounds(System.D4, Chart.AFFINE, comps)[1])
    order = [s * q for q in range(1, bound + 2) for s in (1, -1)]
    expected = [t for t in order if all(c.den.evaluate(t) for c in comps)][:bound + 1]
    assert checked == expected and len(checked) == bound + 1 and checked[:4] == [3, -3, 4, -4]
