"""Shared fixture builders for the test suite, and the symbolic
references that the exact checks of the package are compared against."""

from __future__ import annotations

import random
import resource
from fractions import Fraction as F

from sasano import (
    Chart,
    ChartMismatch,
    ParameterTuple,
    RF,
    RationalFunction,
    SolutionTuple,
    System,
    solve_last_alpha,
)
from sasano.systems import hamiltonian_polynomial, vector_field


# The suite peaks near 100 MB; under this cap on the address space of the
# test process, a runaway allocation fails with MemoryError in the test
# that makes it instead of exhausting the machine.
MEMORY_CAP_BYTES = 2_500_000 * 1024


def pytest_configure(config):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, hard))


def b4(a0, a1, a2, a3, a4) -> ParameterTuple:
    return ParameterTuple(System.B4, (F(a0), F(a1), F(a2), F(a3), F(a4)))


def d4(a0, a1, a2, a3, a4) -> ParameterTuple:
    return ParameterTuple(System.D4, (F(a0), F(a1), F(a2), F(a3), F(a4)))


def d5(a0, a1, a2, a3, a4) -> ParameterTuple:
    return ParameterTuple(System.D5, (F(a0), F(a1), F(a2), F(a3), F(a4)))


def from_lattice(system: System, f1, f2, f3, f4) -> ParameterTuple:
    """Parameters with the given lattice coordinates (inverse of
    classify.lattice_coordinates)."""
    f1, f2, f3, f4 = F(f1), F(f2), F(f3), F(f4)
    if system is System.B4:
        return b4(1 - f1 - f2, f1 - f2, f2 - f3, f3 - f4, f4)
    if system is System.D4:
        return d4(1 - f1 - f2, f1 - f2, f2 - f3, f3 - f4, f3 + f4)
    return d5(F(1, 2) - f1, f1 - f2, f2 - f3, f3 - f4, f4)


def random_params(system: System, rng: random.Random, span: int = 3) -> ParameterTuple:
    """A random valid parameter tuple with small entries."""
    vals = [
        F(rng.randint(-span, span), rng.choice([1, 2, 3, 4]))
        for _ in range(4)
    ]
    return ParameterTuple(system, (*vals, solve_last_alpha(system, vals)))


def random_standard_form(system: System, rng: random.Random) -> ParameterTuple:
    """Random parameters in standard form I of the given system."""
    while True:
        a4 = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 5]))
        if a4 == 0:
            continue
        break
    a3 = -a4
    if system is System.B4:
        a1 = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5]))
        a0 = a1
        a2 = (1 - a0 - a1 - 2 * a3 - 2 * a4) / 2
        return ParameterTuple(System.B4, (a0, a1, a2, a3, a4))
    if system is System.D4:
        a1 = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5]))
        a0 = a1
        a2 = (1 - a0 - a1 - a3 - a4) / 2
        return ParameterTuple(System.D4, (a0, a1, a2, a3, a4))
    while True:
        a1 = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5]))
        if a1 != 0:
            break
    a2 = F(1, 2) - a1 - a3 - a4
    return ParameterTuple(System.D5, (F(0), a1, a2, a3, a4))


def b4_m3_infinite_solution(p: ParameterTuple) -> SolutionTuple:
    """The z == infinity solution of B4 in m3 coordinates."""
    a0, a1 = p.alphas[0], p.alphas[1]
    c = (a0 + a1) * (a0 - a1)
    return SolutionTuple(
        Chart.M3,
        RF.const(a0 - a1),
        RF.const(F(1, 2)),
        RF.ZERO,
        RF.t() / 2 + RF.const(c / 2),
    )


def d5_r1_infinite_solution(p: ParameterTuple) -> SolutionTuple:
    """The x == infinity solution of D5 in r1 coordinates."""
    a3, a4 = p.alphas[3], p.alphas[4]
    return SolutionTuple(
        Chart.R1,
        RF.ZERO,
        RF.const(F(1, 2)) + RF.t(-1, 2 * a4 * (a3 + a4)),
        RF.t() / (2 * a4),
        -RF.t(-1, 2 * a4 * (a3 + a4)),
    )


def d5_r3_infinite_solution(p: ParameterTuple) -> SolutionTuple:
    """The z == infinity solution of D5 in r3 coordinates."""
    a0, a1 = p.alphas[0], p.alphas[1]
    c = 2 * a0 * (a0 + a1)
    return SolutionTuple(
        Chart.R3,
        RF.const(1 / (2 * a0)),
        RF.const(-c),
        RF.ZERO,
        RF.t() / 2 + RF.const(c),
    )


def d5_r5_infinite_solution() -> SolutionTuple:
    """The x == z == infinity solution of D5 in r5 coordinates."""
    return SolutionTuple(Chart.R5, RF.ZERO, RF.const(F(1, 2)), RF.ZERO, RF.t() / 2)


def prop_x_zero_branch_solution(p: ParameterTuple) -> SolutionTuple:
    """The second x == 0 family of B4 (exists when a0 = a1 = 1/2)."""
    a3, a4 = p.alphas[3], p.alphas[4]
    c = 2 * a4 * (a3 + a4)
    return SolutionTuple(
        Chart.AFFINE,
        RF.ZERO,
        RF.const(F(1, 2)) + RF.t(-1, c),
        RF.t() / (2 * a4),
        RF.t(-1, -c),
    )


def push_word(p: ParameterTuple, sol: SolutionTuple, names):
    """The image of (p, sol) under the named letters in turn, up to the
    first one that is undefined."""
    from sasano import Generator, UndefinedAction, act_params, act_solution

    for name in names:
        g = Generator(p.system, name)
        try:
            sol = act_solution(g, p, sol)
        except UndefinedAction:
            break
        p = act_params(g, p)
    return p, sol


# -- symbolic references --------------------------------------------------------

T = RF.t()


def residual(params: ParameterTuple, sol: SolutionTuple):
    """The four exact residuals t*X' - RHS of the system/chart pair, as
    rational functions: all four are identically zero iff sol solves the
    system in its chart.  `is_solution` decides the same by evaluation."""
    field = vector_field(params.system, sol.chart, params.alphas)
    comps = sol.components()
    return tuple(T * c.derivative() - r for c, r in zip(comps, field(T, *comps)))


def invert_side_reference(u, v, b):
    """`systems.invert_side` as written, (1/u, -u*(u*v + b)): on
    `RationalFunction`s each operation reduces its result by full gcds, and
    it takes any other values too, such as sympy symbols."""
    return 1 / u, -u * (u * v + b)


def hamiltonian(params: ParameterTuple, sol: SolutionTuple) -> RationalFunction:
    """The B4 Hamiltonian evaluated along an affine-chart solution, the
    symbolic reference for `verify.invariant_report`."""
    if params.system is not System.B4:
        raise ValueError("the Hamiltonian is only defined for the B4 system")
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("Hamiltonian evaluation needs the affine chart")
    return hamiltonian_polynomial(params.alphas)(T, *sol.components())


def hamiltonian_expanded(alphas):
    """The B4 Hamiltonian as it reads term by term, 13 products of two
    non-scalars: the reference for the factored `hamiltonian_polynomial`."""
    a0, a1, a2, a3, a4 = alphas
    beta = 1 - 2 * a2 - 2 * a3 - 2 * a4

    def h(t, x, y, z, w):
        return (x * x * y * (y - 1) + x * (beta * y - a1) + t * y
                + z * z * w * (w - 1) + z * ((1 - 2 * a4) * w - a3) + t * w
                + 2 * y * z * (z * w + a3))

    return h


def hamiltonian_constant_oracle(params: ParameterTuple, pole_order_one: bool) -> F:
    """Closed form of the constant term of the B4 Hamiltonian at t = infinity.

    The two cases correspond to z having a pole of order one (True) or of
    order at least two (False) at infinity.
    """
    if params.system is not System.B4:
        raise ValueError("oracle defined for B4 parameters only")
    a0, a1, a2, a3, a4 = params.alphas
    base = F(1, 4) * (a0 - a1) ** 2
    if pole_order_one:
        return base + (a3 + a4) ** 2 - (a3 + a4)
    return base + a3 * (a3 + 2 * a4 - 1)
