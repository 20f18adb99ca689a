"""Verification engine: exact residual checks, Laurent/residue/Hamiltonian
integrality invariants, and an independent floating-point ODE cross-check.

The invariant report extracts, for a rational B4 solution in the affine
chart, the constant Laurent coefficients of x at infinity and at zero,
the t**-1 coefficients of y and w at infinity, the constant terms of the
Hamiltonian at infinity and zero, and the residues of x at its finite
rational poles.  For genuine rational solutions the two constant-term
differences are integers, the y/w residue coefficients cancel, and each
finite residue of x is an integer multiple of the pole location.
All but the residues are read off one truncated Laurent expansion per
component and point, the Hamiltonian polynomial run on those series;
`systems.hamiltonian` runs it on rational functions, the symbolic oracle.

The cross-check integrates in plain Python floats, and poles are located
exactly, so no part of the package needs numpy or scipy here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exactmath import (
    INFINITY,
    LaurentSeries,
    RationalFunction,
    ZERO_POINT,
    has_real_root,
    is_integer,
    laurent_expand,
    rat,
    rat_str,
    residue,
)
from .systems import (
    Chart,
    ChartMismatch,
    ParameterTuple,
    SolutionTuple,
    System,
    hamiltonian_polynomial,
    is_solution,
    vector_field,
)


class PoleOnPath(ValueError):
    """The integration interval touches a pole of the exact solution."""


class IntegratorFailed(RuntimeError):
    """The integrator stopped short of the interval's end (the flow blew up)."""


# the exact residual check, under the name the CLI reports it by
verify_solution = is_solution


def _expansions(sol: SolutionTuple, point):
    """t, x, y, z and w as Laurent series at t = infinity or t = 0.

    Every term of the Hamiltonian has at most four factors, so a window
    3 * m + 1 deep, with m the largest pole order there (at least 1, for
    t), lets each factor reach past the poles of the three others.  Too
    short a window makes `coefficient(0)` raise, never answer wrongly.
    """
    at_inf = point == INFINITY
    depth = 3 * max([1] + [c.num.degree - c.den.degree if at_inf
                           else c.den.trailing_order() - c.num.trailing_order()
                           for c in sol.components() if c]) + 1
    t = LaurentSeries(point, 1, (Fraction(1),), -depth if at_inf else depth)
    return (t, *(laurent_expand(c, point, order=depth) for c in sol.components()))


@dataclass(frozen=True)
class InvariantReport:
    a_inf_0: Fraction
    a_0_0: Fraction
    integrality_a: bool
    b_inf_m1_plus_d_inf_m1: Fraction
    h_inf_0: Fraction
    h_0_0: Fraction
    integrality_h: bool
    finite_pole_residues: Tuple[Tuple[Fraction, Fraction, bool], ...]
    # x may also have irrational poles; their residue condition is not
    # checkable in exact rational arithmetic and is reported as such
    unchecked_irrational_poles: bool = False

    def all_invariants_hold(self) -> bool:
        return (
            self.integrality_a
            and self.b_inf_m1_plus_d_inf_m1 == 0
            and self.integrality_h
            and all(flag for _, _, flag in self.finite_pole_residues)
        )

    def to_json(self) -> dict:
        return {
            "a_inf_0": rat_str(self.a_inf_0),
            "a_0_0": rat_str(self.a_0_0),
            "integrality_a": self.integrality_a,
            "b_inf_m1_plus_d_inf_m1": rat_str(self.b_inf_m1_plus_d_inf_m1),
            "h_inf_0": rat_str(self.h_inf_0),
            "h_0_0": rat_str(self.h_0_0),
            "integrality_h": self.integrality_h,
            "finite_pole_residues": [
                {"c": rat_str(c), "res": rat_str(r), "multiple_of_c": flag}
                for c, r, flag in self.finite_pole_residues
            ],
            "unchecked_irrational_poles": self.unchecked_irrational_poles,
        }


def invariant_report(params: ParameterTuple, sol: SolutionTuple) -> InvariantReport:
    """Exact Laurent/residue/Hamiltonian invariants of a B4 affine solution."""
    if params.system is not System.B4:
        raise ValueError("invariant report is defined for the B4 system")
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("invariant report needs the affine chart")

    h = hamiltonian_polynomial(params.alphas)
    at_inf, at_0 = _expansions(sol, INFINITY), _expansions(sol, ZERO_POINT)
    _, x_inf, y_inf, _, w_inf = at_inf
    a_inf_0, a_0_0 = x_inf.coefficient(0), at_0[1].coefficient(0)
    bd = y_inf.coefficient(-1) + w_inf.coefficient(-1)
    h_inf_0, h_0_0 = h(*at_inf).coefficient(0), h(*at_0).coefficient(0)

    pole_rows = []
    rational_pole_degree = 0
    poles = sol.x.poles()
    for c in sorted(poles):
        rational_pole_degree += poles[c]
        if c == 0:
            continue  # t = 0 is a fixed singular point, not a movable pole
        res = residue(sol.x, c)
        pole_rows.append((c, res, is_integer(res / c)))

    return InvariantReport(
        a_inf_0=a_inf_0,
        a_0_0=a_0_0,
        integrality_a=is_integer(a_inf_0 - a_0_0),
        b_inf_m1_plus_d_inf_m1=bd,
        h_inf_0=h_inf_0,
        h_0_0=h_0_0,
        integrality_h=is_integer(h_inf_0 - h_0_0),
        finite_pole_residues=tuple(pole_rows),
        unchecked_irrational_poles=rational_pole_degree < sol.x.den.degree,
    )


# -- numeric cross-check ------------------------------------------------------

# Dormand-Prince 5(4) tableau, as in Hairer, Norsett and Wanner (1993),
# one name per weight; the zero weights b2, e2 and b7 are left out
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order minus embedded fourth-order weights, the last for f(t + h, y_new)
_E1, _E3, _E4, _E5 = -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200
_E6, _E7 = -22 / 525, 1 / 40
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _dopri5(f, t: float, y, stops, rtol: float, atol: float) -> list:
    """The states at the increasing times `stops` (all > t) of an adaptive
    Dormand-Prince 5(4) run of y' = f(t, y) from (t, y).

    Steps are shortened to land on each stop.  Step-size control and the
    first step follow Hairer, Norsett and Wanner, Solving ODEs I, II.4,
    with the error measured in the RMS norm scaled by atol + rtol * |y|.
    Raises IntegratorFailed when the step size falls to the spacing of
    floats at t, as it does when the solution blows up.
    """
    y = list(y)
    k1 = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(k1, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    k_h0 = f(t + h0, [v + h0 * k for v, k in zip(y, k1)])
    d2 = _rms([(b - a) / s for a, b, s in zip(k1, k_h0, scale)]) / h0
    h_abs = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
             else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h_abs)

    out = []
    for stop in stops:
        while t < stop:
            if h_abs < 10 * (math.nextafter(t, math.inf) - t):
                raise IntegratorFailed(
                    f"integrator failed at t = {t:.6g}: step size below float spacing")
            clipped = h_abs >= stop - t
            h = stop - t if clipped else h_abs
            # sums run left to right in tableau order: tests compare states with ==
            k2 = f(t + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
            k3 = f(t + _C3 * h, [v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)])
            k4 = f(t + _C4 * h, [v + h * (_A41 * a + _A42 * b + _A43 * c)
                                 for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = f(t + _C5 * h, [v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                                 for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                           for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            t_new = stop if clipped else t + h
            k7 = f(t_new, y_new)
            error = _rms([h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
                          / (atol + max(abs(v), abs(u)) * rtol)
                          for v, u, a, c, d, e, g, k in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if error < 1:  # accept; NaN and inf reject
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** -0.2)
                h_abs = max(h_abs, h * factor) if clipped else h * factor
                t, y, k1 = t_new, y_new, k7
            else:
                h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** -0.2)
        out.append(y)
    return out


def _real_pole_in(sol: SolutionTuple, lo: Fraction, hi: Fraction) -> bool:
    """Whether some component has a real pole, rational or not, in [lo, hi]."""
    return any(comp.den.degree > 0 and has_real_root(comp.den, lo, hi)
               for comp in sol.components())


# poles this close to an interval's ends still break the integrator
_POLE_MARGIN = Fraction(1, 1000)


def pole_free_interval(sol: SolutionTuple, width: int = 1) -> Tuple[Fraction, Fraction]:
    """[1, 1+width] shifted right by integers until no real pole of the
    solution lies in it or within a small safety margin of it."""
    t0 = Fraction(1)
    for _ in range(1000):
        t1 = t0 + width
        if not _real_pole_in(sol, t0 - _POLE_MARGIN, t1 + _POLE_MARGIN):
            return t0, t1
        t0 += 1
    raise PoleOnPath("no pole-free interval of the requested width found")


def numeric_crosscheck(
    params: ParameterTuple,
    sol: SolutionTuple,
    t0,
    t1,
    steps: int = 64,
    initial_offset=None,
) -> float:
    """Max deviation between the exact solution and an adaptive RK45 run.

    Integrates t*X' = RHS from the exact initial condition sol(t0) (plus
    an optional perturbation, used for power checks) and samples the
    deviation at `steps` evenly spaced points of [t0, t1].
    """
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("numeric cross-check needs the affine chart")
    t0, t1 = rat(t0), rat(t1)
    if t0 <= 0 or t1 <= t0:
        raise ValueError("need 0 < t0 < t1 to stay clear of the fixed singularity")
    if steps < 2:
        raise ValueError(f"steps must be at least 2 (both ends of [t0, t1]), got {steps}")
    if _real_pole_in(sol, t0, t1):
        raise PoleOnPath(f"solution has a pole in [{rat_str(t0)}, {rat_str(t1)}]")

    start = [float(c.evaluate(t0)) for c in sol.components()]
    if initial_offset is not None:
        start = [v + float(o) for v, o in zip(start, initial_offset)]
    # t0 + (t1 - t0) * i / (steps - 1) over one integer denominator: int
    # division rounds correctly, as float(Fraction) does
    n0, n1 = t0.numerator * t1.denominator, t1.numerator * t0.denominator
    den = t0.denominator * t1.denominator * (steps - 1)
    samples = [(n0 * (steps - 1) + (n1 - n0) * i) / den for i in range(steps)]
    field = vector_field(params.system, Chart.AFFINE, [float(a) for a in params.alphas])
    states = [start] + _dopri5(lambda t, v: [r / t for r in field(t, *v)], samples[0],
                               start, samples[1:], rtol=1e-12, atol=1e-12)
    exact = [_float_function(c) for c in sol.components()]

    def clamp(v: float) -> float:
        # documents the check's domain; fixture components are small
        return min(max(v, -1e6), 1e6)

    return max(abs(clamp(n) - clamp(c(t)))
               for t, state in zip(samples, states)
               for n, c in zip(state, exact))


def _float_function(f: RationalFunction):
    """t -> f(t) in floats by Horner, with the coefficients converted once."""
    num, den = ([float(c) for c in reversed(p.coeffs)] for p in (f.num, f.den))

    def value(t: float) -> float:
        n = d = 0.0
        for c in num:
            n = n * t + c
        for c in den:
            d = d * t + c
        return n / d

    return value
