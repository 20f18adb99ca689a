"""The solution check by exact evaluation against the symbolic residual.

`is_solution` decides at B + 1 integer points, with B a bound on the
degree of each residual's numerator; `residual` builds the four residuals
as rational functions.  The two must agree on genuine solutions in all
seven system/chart pairs and on copies with one coefficient changed; the
formal denominator must clear each residual's denominator, and B must
never fall below the true degree of the numerator over it.
"""

import math
import random
from fractions import Fraction as F

import pytest
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
)
from sasano import (
    Chart,
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
    residual,
    seed_solution,
)
from sasano import systems
from sasano.backlund import PRIMITIVES
from sasano.systems import VALID_CHARTS, _degree_bounds, vector_field

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


def _random_rf(rng, dens):
    num = Polynomial([F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randint(0, 4))])
    return RF(num, rng.choice(dens))


@SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_degree_bound_is_never_below_the_true_degree(seed):
    rng = random.Random(seed)
    system = rng.choice(list(System))
    chart = rng.choice(VALID_CHARTS[system])
    p = random_params(system, rng)
    # a small pool of denominators, so that components share some
    linear = [T - k for k in range(-2, 3)]
    dens = [Polynomial.ONE, (T * T + 1).num] + [
        (rng.choice(linear) * rng.choice(linear)).num for _ in range(3)]
    sol = SolutionTuple(chart, *(_random_rf(rng, dens) for _ in range(4)))
    dens, bounds = _degree_bounds(vector_field(system, chart, p.alphas), sol.components())
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
