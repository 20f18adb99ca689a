"""System definitions: residuals, Hamiltonian, parameter constraints."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from conftest import (
    b4,
    b4_m3_infinite_solution,
    d4,
    d5,
    from_lattice,
    hamiltonian,
    hamiltonian_constant_oracle,
    hamiltonian_expanded,
    invert_side_reference,
    random_standard_form,
    residual,
)
from sasano import (
    Chart,
    ChartMismatch,
    ParameterTuple,
    RF,
    SolutionTuple,
    System,
    construct_rational_solution,
    is_solution,
    seed_solution,
    solve_last_alpha,
)
from sasano import systems
from sasano.exactmath import INFINITY, laurent_expand
from sasano.systems import (
    INVERTED_SIDES,
    _invert_sides,
    hamiltonian_polynomial,
    to_d4_alphas,
    vector_field,
)

T = RF.t()
HALF = RF.const(F(1, 2))


def test_constraint_validation():
    with pytest.raises(ValueError):
        b4(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        d4("1/4", "1/4", "1/4", "1/4", "1/4")
    with pytest.raises(ValueError, match=r"violate the d5 normalization: \['1/4', '1/4', "):
        d5("1/4", "1/4", "1/4", "1/4", "1/4")
    # valid tuples construct fine
    b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    d4("1/4", "1/4", "1/4", "-1/4", "1/4")
    d5("1/4", "1/4", "-1/4", "-1/4", "1/2")
    d5(0, 0, 0, 0, "1/2")


# each system's normalization as written in its own coordinates
WRITTEN_NORMALIZATIONS = {
    System.B4: lambda a0, a1, a2, a3, a4: a0 + a1 + 2 * a2 + 2 * a3 + 2 * a4 == 1,
    System.D4: lambda a0, a1, a2, a3, a4: a0 + a1 + 2 * a2 + a3 + a4 == 1,
    System.D5: lambda a0, a1, a2, a3, a4: a0 + a1 + a2 + a3 + a4 == F(1, 2),
}


@pytest.mark.parametrize("system", list(System))
@settings(max_examples=60, deadline=None)
@given(first=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                      min_size=4, max_size=4),
       offset=st.sampled_from([0, 0, F(1, 2), F(-1, 3), 1]))
def test_parameter_tuple_accepts_exactly_the_written_normalization(system, first, offset):
    holds = WRITTEN_NORMALIZATIONS[system]
    last = solve_last_alpha(system, first)
    assert holds(*first, last)
    alphas = (*first, last + offset)
    if holds(*alphas):
        assert ParameterTuple(system, alphas).alphas == alphas
    else:
        with pytest.raises(ValueError, match=f"violate the {system.value} normalization"):
            ParameterTuple(system, alphas)


def test_b4_field_is_hamiltons_equations():
    """t x' = H_y, t y' = -H_x, t z' = H_w, t w' = -H_z on the affine chart,
    on sympy symbols: both functions use only +, - and *."""
    t, x, y, z, w, a1, a2, a3, a4 = sp.symbols("t x y z w a1 a2 a3 a4")
    alphas = (1 - a1 - 2 * a2 - 2 * a3 - 2 * a4, a1, a2, a3, a4)
    field = vector_field(System.B4, Chart.AFFINE, alphas)(t, x, y, z, w)
    h = hamiltonian_polynomial(alphas)(t, x, y, z, w)
    hamilton = (sp.diff(h, y), -sp.diff(h, x), sp.diff(h, w), -sp.diff(h, z))
    assert all(sp.expand(f - g) == 0 for f, g in zip(field, hamilton))


def test_factored_hamiltonian_is_the_expanded_one():
    t, x, y, z, w, a1, a2, a3, a4 = sp.symbols("t x y z w a1 a2 a3 a4")
    alphas = (1 - a1 - 2 * a2 - 2 * a3 - 2 * a4, a1, a2, a3, a4)
    args = (t, x, y, z, w)
    assert sp.expand(hamiltonian_polynomial(alphas)(*args) - hamiltonian_expanded(alphas)(*args)) == 0


def test_chart_validity():
    p = d4("1/4", "1/4", "1/4", "-1/4", "1/4")
    bad = SolutionTuple(Chart.M3, RF.ZERO, HALF, T, RF.ZERO)
    with pytest.raises(ChartMismatch):
        residual(p, bad)


def test_corollary_seed_residual_is_zero():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, 2 * T, RF.ZERO)
    assert all(r.is_zero() for r in residual(p, sol))


def test_non_solution_third_residual():
    # (0, 0, t, 0): substituting into the z-equation by hand gives
    # t*z' - RHS = t - (-t^2 + (1-2a4)t + t) = t^2 + (2a4-1)t, never zero.
    for a4 in (F(0), F(1, 4), F(1, 2)):
        p = ParameterTuple(System.B4, (F(1, 4), F(1, 4), F(1, 4), -a4, a4))
        sol = SolutionTuple(Chart.AFFINE, RF.ZERO, RF.ZERO, T, RF.ZERO)
        res = residual(p, sol)
        assert res[2] == T * T + (2 * a4 - 1) * T
        assert not res[2].is_zero()


def test_d4_seed_residual_is_zero():
    p = d4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, RF.t(-1, F(1, 2)), T / 2)
    assert all(r.is_zero() for r in residual(p, sol))


def test_hamiltonian_of_seed():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, 2 * T, RF.ZERO)
    assert hamiltonian(p, sol) == T / 2


def test_hamiltonian_of_zero_tuple():
    # z == 0 admits no solution, but the Hamiltonian formula still
    # evaluates and every term vanishes
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = SolutionTuple(Chart.AFFINE, RF.ZERO, RF.ZERO, RF.ZERO, RF.ZERO)
    assert hamiltonian(p, sol).is_zero()


def test_hamiltonian_constant_term_with_pole_fixture():
    p = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    sol = SolutionTuple(
        Chart.AFFINE, RF.ZERO, HALF + RF.t(-1, F(1, 4)), 2 * T, RF.t(-1, F(-1, 4))
    )
    assert is_solution(p, sol)
    h = hamiltonian(p, sol)
    h_inf_0 = laurent_expand(h, INFINITY, 1).coefficient(0)
    assert h_inf_0 == F(-1, 4)
    # cross-check against the pole-order-one closed form
    assert h_inf_0 == hamiltonian_constant_oracle(p, pole_order_one=True)


def test_hamiltonian_requires_b4_affine():
    p = d4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, RF.t(-1, F(1, 2)), T / 2)
    with pytest.raises(ValueError):
        hamiltonian(p, sol)


def test_oracle_examples():
    assert hamiltonian_constant_oracle(
        b4("1/4", "1/4", "1/4", "-1/4", "1/4"), pole_order_one=True
    ) == 0
    assert hamiltonian_constant_oracle(
        b4(0, 0, 0, 0, "1/2"), pole_order_one=True
    ) == F(-1, 4)
    assert hamiltonian_constant_oracle(
        b4(0, 0, "1/2", "1/2", "-1/2"), pole_order_one=False
    ) == F(-3, 4)


def test_seed_constant_term_matches_oracle_on_random_standard_forms():
    rng = random.Random(23)
    for _ in range(50):
        p = random_standard_form(System.B4, rng)
        sol = seed_solution(p)
        h = hamiltonian(p, sol)
        h_inf_0 = laurent_expand(h, INFINITY, 1).coefficient(0)
        assert h_inf_0 == hamiltonian_constant_oracle(p, pole_order_one=True)


def test_chart_consistency_affine_vs_m3():
    # a finite solution solves the affine system iff its m3 coordinates
    # solve the m3 system
    p = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    a3 = p.alphas[3]
    sol = SolutionTuple(
        Chart.AFFINE, RF.ZERO, HALF + RF.t(-1, F(1, 4)), 2 * T, RF.t(-1, F(-1, 4))
    )
    x, y, z, w = sol.components()
    m3 = SolutionTuple(Chart.M3, x, y, 1 / z, -(w * z + a3) * z)
    assert is_solution(p, sol) and is_solution(p, m3)
    broken = sol.replace(w=RF.ONE)
    broken_m3 = SolutionTuple(Chart.M3, x, y, 1 / z, -(RF.ONE * z + a3) * z)
    assert not is_solution(p, broken) and not is_solution(p, broken_m3)


def test_m3_infinite_solution_solves_m3_system():
    # the z == infinity representative exists when a3 = 1/2 and a4 = 0
    a0, a1 = F(1, 7), F(1, 5)
    p = b4(a0, a1, (1 - a0 - a1 - 1) / 2, F(1, 2), 0)
    assert is_solution(p, b4_m3_infinite_solution(p))


def test_parameter_json_roundtrip():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    assert ParameterTuple.from_json(p.to_json()) == p
    sol = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, 2 * T, RF.ZERO)
    assert SolutionTuple.from_json(sol.to_json()) == sol


@pytest.mark.parametrize("system, charts", [(System.B4, (Chart.M3,)),
                                            (System.D5, (Chart.R1, Chart.R3, Chart.R5))])
def test_finite_solutions_solve_every_chart_of_their_system(system, charts):
    # x1 = 1/x, y1 = -(x*y + a1)*x and z3 = 1/z, w3 = -(z*w + a3)*z carry a
    # finite solution into the other charts, where it must solve their systems
    p = from_lattice(system, F(3, 2), F(1, 3), 1, F(2, 5))
    a1, a3 = p.alphas[1], p.alphas[3]
    x, y, z, w = construct_rational_solution(p).solution.components()
    x1, y1 = 1 / x, -(x * y + a1) * x
    z3, w3 = 1 / z, -(z * w + a3) * z
    coordinates = {Chart.M3: (x, y, z3, w3), Chart.R1: (x1, y1, z, w),
                   Chart.R3: (x, y, z3, w3), Chart.R5: (x1, y1, z3, w3)}
    for chart in charts:
        sol = SolutionTuple(chart, *coordinates[chart])
        assert all(r.is_zero() for r in residual(p, sol)), chart
        assert is_solution(p, sol), chart


@pytest.mark.parametrize("system, chart", list(INVERTED_SIDES))
def test_every_chart_field_is_d4_field_conjugated_by_its_inversions(monkeypatch, system, chart):
    """The image X of the state under the chart's inversions, at D4's
    parameters, moves by D4's field: t*dX/dt, taken along the chart's own
    field by the chain rule, equals D4's field at X, on sympy symbols.
    `invert_side` takes rational functions only, so `_invert_sides` runs
    here on its formula as written (`invert_side_reference`)."""
    monkeypatch.setattr(systems, "invert_side", invert_side_reference)
    t, *state = sp.symbols("t x y z w")
    alphas = sp.symbols("a0:5")
    c = to_d4_alphas(system, alphas)
    image = _invert_sides(c, *INVERTED_SIDES[system, chart], *state)
    flow = vector_field(system, chart, alphas)(t, *state)
    d4_field = vector_field(System.D4, Chart.AFFINE, c)(t, *image)
    for u, target in zip(image, d4_field):
        along = sum(sp.diff(u, s) * f for s, f in zip(state, flow))
        assert sp.cancel(along - target) == 0
