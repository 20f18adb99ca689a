"""Verification engine: symbolic checks, invariants, numeric cross-check."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import b4, prop_x_zero_branch_solution, push_word, random_standard_form
from sasano import (
    INFINITY,
    Chart,
    InvariantReport,
    LaurentSeries,
    PoleOnPath,
    Polynomial,
    RF,
    SolutionTuple,
    System,
    ZERO_POINT,
    construct_rational_solution,
    hamiltonian,
    hamiltonian_constant_oracle,
    invariant_report,
    laurent_expand,
    numeric_crosscheck,
    pole_free_interval,
    seed_solution,
    verify_solution,
)
from conftest import random_params
from sasano.backlund import PRIMITIVES
from sasano.classify import classify
from sasano.systems import hamiltonian_polynomial
from sasano.verify import IntegratorFailed, _dopri5

T = RF.t()
HALF = RF.const(F(1, 2))


def test_verify_seed_true():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    assert verify_solution(p, seed_solution(p))


def test_verify_perturbed_false():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p).replace(w=RF.ONE)
    assert not verify_solution(p, sol)


def test_verify_pole_fixture_true():
    p = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    assert verify_solution(p, prop_x_zero_branch_solution(p))


def test_invariant_report_of_seed():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    report = invariant_report(p, seed_solution(p))
    assert report.a_inf_0 == 0 and report.a_0_0 == 0
    assert report.integrality_a
    assert report.h_inf_0 == 0 and report.h_0_0 == 0
    assert report.integrality_h
    assert report.b_inf_m1_plus_d_inf_m1 == 0
    assert report.finite_pole_residues == ()
    assert report.all_invariants_hold()


def test_invariant_report_of_pole_fixture():
    p = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    report = invariant_report(p, prop_x_zero_branch_solution(p))
    assert report.b_inf_m1_plus_d_inf_m1 == 0
    assert report.h_inf_0 == F(-1, 4) and report.h_0_0 == F(-1, 4)
    assert report.all_invariants_hold()


def test_finite_pole_residues_are_integer_multiples():
    # pull a fixture with finite poles out of the constructor
    p = b4("5/4", "1/4", "1/4", "-1/4", "-1/4")
    out = construct_rational_solution(p)
    assert out.solution.chart is Chart.AFFINE
    report = invariant_report(p, out.solution)
    assert report.all_invariants_hold()
    for c, res, flag in report.finite_pole_residues:
        assert flag and (res / c).denominator == 1


def test_seed_constant_matches_oracle():
    rng = random.Random(37)
    for _ in range(20):
        p = random_standard_form(System.B4, rng)
        report = invariant_report(p, seed_solution(p))
        assert report.h_inf_0 == hamiltonian_constant_oracle(p, pole_order_one=True)


def test_numeric_crosscheck_seed():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    deviation = numeric_crosscheck(p, seed_solution(p), 1, 2)
    assert deviation <= 1e-8


def test_numeric_crosscheck_power():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    deviation = numeric_crosscheck(
        p, seed_solution(p), 1, 2, initial_offset=[0.0, 1e-3, 0.0, 0.0]
    )
    assert deviation >= 1e-4


def test_numeric_crosscheck_pole_fixture():
    p = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    deviation = numeric_crosscheck(p, prop_x_zero_branch_solution(p), 1, 2)
    assert deviation <= 1e-8


@pytest.mark.parametrize("steps", [0, 1])
def test_numeric_crosscheck_rejects_fewer_than_two_steps(steps):
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    with pytest.raises(ValueError, match="steps must be at least 2"):
        numeric_crosscheck(p, seed_solution(p), 1, 2, steps=steps)


def test_pole_on_path_detection():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p).replace(y=HALF + 1 / (T - F(3, 2)))
    with pytest.raises(PoleOnPath):
        numeric_crosscheck(p, sol, 1, 2)


def test_irrational_pole_on_path_detected():
    # y has poles at +-sqrt(2); the one at 1.414... lies in [1, 2]
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p).replace(y=HALF + 1 / (T * T - 2))
    with pytest.raises(PoleOnPath):
        numeric_crosscheck(p, sol, 1, 2)
    t0, t1 = pole_free_interval(sol)
    assert (t0, t1) == (2, 3)


def test_pole_free_interval_shifts_right():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p).replace(y=HALF + 1 / (T - F(3, 2)))
    t0, t1 = pole_free_interval(sol)
    assert t0 >= 2 and t1 == t0 + 1


def test_constructed_solutions_pass_numeric_check():
    rng = random.Random(39)
    checked = 0
    while checked < 5:
        p = random_params(System.B4, rng, span=2)
        if not classify(p).exists:
            continue
        out = construct_rational_solution(p)
        if out.solution.chart is not Chart.AFFINE:
            continue
        assert verify_solution(p, out.solution)
        t0, t1 = pole_free_interval(out.solution)
        assert numeric_crosscheck(p, out.solution, t0, t1) <= 1e-6
        checked += 1


def test_dopri5_lands_on_the_stops_of_a_known_flow():
    # y' = y and z' = -2 t z from (1, 1) at t = 0: e**t and exp(-t**2)
    stops = [k / 8 for k in range(1, 17)]
    states = _dopri5(lambda t, v: (v[0], -2 * t * v[1]), 0.0, (1.0, 1.0), stops,
                     rtol=1e-12, atol=1e-12)
    assert len(states) == len(stops)
    for t, (y, z) in zip(stops, states):
        assert abs(y - math.exp(t)) <= 1e-10 * math.exp(t)
        assert abs(z - math.exp(-t * t)) <= 1e-10


def test_dopri5_reports_blow_up():
    # y' = y**2 from y(0) = 1 is 1/(1 - t), which leaves every float before t = 1
    with pytest.raises(IntegratorFailed):
        _dopri5(lambda t, v: (v[0] * v[0],), 0.0, (1.0,), [0.5, 2.0], rtol=1e-12, atol=1e-12)


# -- the invariants off truncated series, against the symbolic Hamiltonian ------

def _symbolic_report(p, sol, report):
    """report's series-derived fields recomputed from the symbolic
    Hamiltonian and plain expansions; the finite residues are copied."""
    h = hamiltonian(p, sol)

    def at_inf(f, k):
        return laurent_expand(f, INFINITY, order=1).coefficient(k)

    def at_0(f):
        return laurent_expand(f, ZERO_POINT, order=0).coefficient(0)

    a_inf, a_0, h_inf, h_0 = at_inf(sol.x, 0), at_0(sol.x), at_inf(h, 0), at_0(h)
    return InvariantReport(
        a_inf_0=a_inf, a_0_0=a_0, integrality_a=(a_inf - a_0).denominator == 1,
        b_inf_m1_plus_d_inf_m1=at_inf(sol.y, -1) + at_inf(sol.w, -1),
        h_inf_0=h_inf, h_0_0=h_0, integrality_h=(h_inf - h_0).denominator == 1,
        finite_pole_residues=report.finite_pole_residues,
        unchecked_irrational_poles=report.unchecked_irrational_poles,
    )


def _assert_matches_symbolic(p, sol):
    report = invariant_report(p, sol)
    assert report == _symbolic_report(p, sol, report)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), letters=st.lists(st.integers(0, 10), max_size=3),
       index=st.integers(0, 3), power=st.integers(0, 6), delta=st.sampled_from([F(1), F(-1, 3)]))
def test_invariant_report_matches_symbolic_hamiltonian(seed, letters, index, power, delta):
    p = random_standard_form(System.B4, random.Random(seed))
    names = PRIMITIVES[System.B4]
    q, image = push_word(p, seed_solution(p), [names[i % len(names)] for i in letters])
    assume(image.chart is Chart.AFFINE)
    _assert_matches_symbolic(q, image)
    comps = list(image.components())
    c = comps[index]
    comps[index] = RF(c.num + Polynomial.t(power, delta), c.den)
    _assert_matches_symbolic(q, SolutionTuple(Chart.AFFINE, *comps))


def test_invariant_report_of_pole_fixture_matches_symbolic_hamiltonian():
    p = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    _assert_matches_symbolic(p, prop_x_zero_branch_solution(p))


# y has a double pole at infinity and x, z, w none, so the constant term
# of x*x*y*y needs x down to t**-4: a window that counts each component's
# pole once (2 + 1) falls short of it
_DOMINANT_Y = SolutionTuple(Chart.AFFINE, T / (T - 1), T * T + 1 / (T - 2), 1 / (T + 1),
                            (T + 3) / (T - 1))


def test_invariant_report_where_one_pole_order_dominates():
    _assert_matches_symbolic(b4("1/4", "1/4", "1/4", "-1/4", "1/4"), _DOMINANT_Y)


def test_invariant_report_where_the_window_bound_is_tight():
    # x and y with double poles at infinity and at 0: the factor x of
    # x*x*y*y must reach past three double poles, 3 * 2 deep
    sol = SolutionTuple(Chart.AFFINE, T * T + 1 / (T * T), T * T - 3 / (T * T) + 1 / (T - 1),
                        1 / (T + 1), (T + 3) / (T - 1))
    _assert_matches_symbolic(b4("1/4", "1/4", "1/4", "-1/4", "1/4"), sol)


def test_short_window_raises_instead_of_answering():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    short = [laurent_expand(c, INFINITY, order=3) for c in _DOMINANT_Y.components()]
    t = LaurentSeries(INFINITY, 1, (F(1),), -3)
    h = hamiltonian_polynomial(p.alphas)(t, *short)
    with pytest.raises(ValueError):
        h.coefficient(0)
