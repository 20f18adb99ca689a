"""Verification engine: exact residual checks, Laurent/residue/Hamiltonian
integrality invariants, and an independent floating-point ODE cross-check.

The invariant report extracts, for a rational B4 solution in the affine
chart, the constant Laurent coefficients of x at infinity and at zero,
the t**-1 coefficients of y and w at infinity, the constant terms of the
Hamiltonian at infinity and zero, and the residues of x at its finite
rational poles.  For genuine rational solutions the two constant-term
differences are integers, the y/w residue coefficients cancel, and each
finite residue of x is an integer multiple of the pole location.

The cross-check integrates in plain Python floats, and poles are located
exactly, so no part of the package needs numpy or scipy here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Tuple

from .exactmath import (
    INFINITY,
    RationalFunction,
    ZERO_POINT,
    has_real_root,
    is_integer,
    laurent_expand,
    rat,
    rat_str,
    residue,
    residue_at_infinity_coefficient,
)
from .systems import (
    Chart,
    ChartMismatch,
    ParameterTuple,
    SolutionTuple,
    System,
    hamiltonian,
    is_solution,
    vector_field,
)


class PoleOnPath(ValueError):
    """The integration interval touches a pole of the exact solution."""


class IntegratorFailed(RuntimeError):
    """The integrator stopped short of the interval's end (the flow blew up)."""


# the exact residual check, under the name the CLI reports it by
verify_solution = is_solution


def _constant_coefficient_at_infinity(f: RationalFunction) -> Fraction:
    return laurent_expand(f, INFINITY, order=1).coefficient(0)


def _constant_coefficient_at_zero(f: RationalFunction) -> Fraction:
    return laurent_expand(f, ZERO_POINT, order=0).coefficient(0)


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

    a_inf_0 = _constant_coefficient_at_infinity(sol.x)
    a_0_0 = _constant_coefficient_at_zero(sol.x)
    bd = residue_at_infinity_coefficient(sol.y) + residue_at_infinity_coefficient(sol.w)

    h = hamiltonian(params, sol)
    h_inf_0 = _constant_coefficient_at_infinity(h)
    h_0_0 = _constant_coefficient_at_zero(h)

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

# Dormand-Prince 5(4) tableau, as in Hairer, Norsett and Wanner (1993)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# fifth-order minus embedded fourth-order weights, the last for f(t + h, y_new)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
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
    y = tuple(y)
    k0 = f(t, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(k0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    k1 = f(t + h0, tuple(v + h0 * k for v, k in zip(y, k0)))
    d2 = _rms([(b - a) / s for a, b, s in zip(k0, k1, scale)]) / h0
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
            ks = [k0]
            for c, a in zip(_DP_C[1:], _DP_A[1:]):
                # zip(*ks) runs over components: the stage slopes of each
                state = tuple(v + h * sum(map(mul, a, col)) for v, col in zip(y, zip(*ks)))
                ks.append(f(t + c * h, state))
            y_new = tuple(v + h * sum(map(mul, _DP_B, col)) for v, col in zip(y, zip(*ks)))
            t_new = stop if clipped else t + h
            ks.append(f(t_new, y_new))
            error = _rms([h * sum(map(mul, _DP_E, col)) / (atol + max(abs(a), abs(b)) * rtol)
                          for a, b, col in zip(y, y_new, zip(*ks))])
            if error < 1:  # accept; NaN and inf reject
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** -0.2)
                h_abs = max(h_abs, h * factor) if clipped else h * factor
                t, y, k0 = t_new, y_new, ks[-1]
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
    if _real_pole_in(sol, t0, t1):
        raise PoleOnPath(f"solution has a pole in [{rat_str(t0)}, {rat_str(t1)}]")

    start = [float(c.evaluate(t0)) for c in sol.components()]
    if initial_offset is not None:
        start = [v + float(o) for v, o in zip(start, initial_offset)]
    samples = [float(t0 + (t1 - t0) * Fraction(i, steps - 1)) for i in range(steps)]
    field = vector_field(params.system, Chart.AFFINE, [float(a) for a in params.alphas])
    states = [start] + _dopri5(lambda t, v: tuple(r / t for r in field(t, *v)), samples[0],
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
