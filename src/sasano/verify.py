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
component and point, the Hamiltonian polynomial run on those series.

The cross-check integrates in plain Python floats, with the system's
vector field and the integrator's step compiled to straight-line code
(`systems.float_rhs`, `_step`) and a bound on the number of steps, and
poles are located exactly (`exactmath.has_real_root` bisects the square-free
part of the denominator itself, uncapped), so the package needs no numpy or scipy.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._record import Record
from .exactmath import (
    INFINITY,
    RationalFunction,
    ZERO_POINT,
    float_function,
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
    float_rhs,
    hamiltonian_polynomial,
    is_solution,
)


class PoleOnPath(ValueError):
    """The integration interval touches a pole of the exact solution."""


class IntegratorFailed(RuntimeError):
    """The integrator stopped short of the interval's end (the flow blew up)."""


# `is_solution` under its exported name; the CLI reports it as `residual`
verify_solution = is_solution


def _expansions(sol: SolutionTuple, point):
    """t, x, y, z and w as Laurent series at t = infinity or t = 0.

    Every chain of products in `hamiltonian_polynomial` multiplies at
    most four of them, so a window 3 * m + 1 deep, with m the largest pole
    order there (at least 1, for t), lets each factor reach past the poles
    of the three others.  Its factored form reaches as deep as the
    expanded one: a product keeps each factor's window shifted by the
    other's pole order, and a sum's pole order is at most its terms'.  Too
    short a window makes `coefficient(0)` raise, never answer wrongly.
    """
    depth = 3 * max([1] + [c.num.degree - c.den.degree if point == INFINITY
                           else c.den.trailing_order() - c.num.trailing_order()
                           for c in sol.components() if c]) + 1
    return tuple(laurent_expand(c, point, order=depth)
                 for c in (RationalFunction.t(), *sol.components()))


class InvariantReport(Record):
    __slots__ = ("a_inf_0", "a_0_0", "integrality_a", "b_inf_m1_plus_d_inf_m1", "h_inf_0",
                 "h_0_0", "integrality_h", "finite_pole_residues", "unchecked_irrational_poles")

    def __init__(self, a_inf_0: Fraction, a_0_0: Fraction, integrality_a: bool,
                 b_inf_m1_plus_d_inf_m1: Fraction, h_inf_0: Fraction, h_0_0: Fraction,
                 integrality_h: bool, finite_pole_residues: tuple[tuple[Fraction, Fraction, bool], ...],
                 unchecked_irrational_poles: bool = False):
        # x may also have irrational poles; their residue condition is not
        # checkable in exact rational arithmetic and is reported as such
        self._fill(a_inf_0, a_0_0, integrality_a, b_inf_m1_plus_d_inf_m1, h_inf_0, h_0_0,
                   integrality_h, finite_pole_residues, unchecked_irrational_poles)

    def checks(self) -> tuple[tuple[str, bool], ...]:
        """The four invariant checks, named, in the order `sasano verify`
        prints them."""
        return (
            ("laurent_integrality_x", self.integrality_a),
            ("series_residue_sum_yw", self.b_inf_m1_plus_d_inf_m1 == 0),
            ("hamiltonian_integrality", self.integrality_h),
            ("finite_pole_residues", all(flag for _, _, flag in self.finite_pole_residues)),
        )

    def all_invariants_hold(self) -> bool:
        return all(flag for _, flag in self.checks())

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

# Dormand-Prince 5(4) tableau, as in Hairer, Norsett and Wanner (1993): the
# time and the weights of each stage after the first, the fifth-order
# weights, and those minus the embedded fourth-order ones, the last for
# f(t + h, y_new); zero weights are left out of every sum
_STAGES = (
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
)
_B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _TOL = 0.9, 0.2, 10.0, 1e-12  # _TOL: both rtol and atol


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


@functools.cache
def _step(dim: int):
    """step(f, t, h, t_new, y, dy) -> (y_new, dy_new, error): one
    Dormand-Prince step from (t, y), with dy = f(t, y), compiled for states of
    `dim` floats.  It calls f with (time, list) in stage order and runs each
    weighted sum left to right, and the RMS as `_rms`: tests compare with ==."""

    def names(s):
        return ", ".join(f"{s}{i}" for i in range(dim))

    def weighted(weights, i):  # of the slopes a, b, ..., g and k, f(t_new, y_new)
        return " + ".join(f"{w!r} * {s}{i}" for w, s in zip(weights, "abcdegk") if w)

    def updates(weights):
        return ", ".join(f"y{i} + h * ({weighted(weights, i)})" for i in range(dim))

    lines = ["def step(f, t, h, t_new, y, dy):",
             f"    {names('y')}, = y", f"    {names('a')}, = dy",
             *(f"    {names(s)}, = f(t + {c!r} * h, [{updates(weights)}])"
               for s, (c, weights) in zip("bcdeg", _STAGES)),
             f"    {names('n')}, = y_new = [{updates(_B)}]",
             f"    {names('k')}, = dy_new = f(t_new, y_new)",
             *(f"    r{i} = h * ({weighted(_E, i)})"
               f" / ({_TOL!r} + max(abs(y{i}), abs(n{i})) * {_TOL!r})" for i in range(dim)),
             "    return y_new, dy_new, sqrt(("
             + " + ".join(f"r{i} * r{i}" for i in range(dim)) + f") / {dim})"]
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n".join(lines), f"<Dormand-Prince step for {dim} floats>", "exec"), namespace)
    return namespace["step"]


def _dopri5(f, t: float, y, stops) -> list:
    """The states at the increasing times `stops` (all > t) of an adaptive
    Dormand-Prince 5(4) run of y' = f(t, y) from (t, y).

    Steps are shortened to land on each stop.  Step-size control and the
    first step follow Hairer, Norsett and Wanner, Solving ODEs I, II.4,
    with the error measured in the RMS norm scaled by _TOL + _TOL * |y|.
    Raises IntegratorFailed when the step size falls to the spacing of
    floats at t, as it does when the solution blows up, or when the run
    has taken max(10000, 200 * len(stops)) steps, accepted or rejected,
    as a flow that grows fast without blowing up would.
    """
    y = list(y)
    step = _step(len(y))
    k1 = f(t, y)
    scale = [_TOL + abs(v) * _TOL for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(k1, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    k_h0 = f(t + h0, [v + h0 * k for v, k in zip(y, k1)])
    d2 = _rms([(b - a) / s for a, b, s in zip(k1, k_h0, scale)]) / h0
    h_abs = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
             else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h_abs)

    budget = steps_left = max(10_000, 200 * len(stops))
    out = []
    for stop in stops:
        while t < stop:
            if h_abs < 10 * (math.nextafter(t, math.inf) - t):
                raise IntegratorFailed(
                    f"integrator failed at t = {t:.6g}: step size below float spacing")
            if steps_left == 0:
                raise IntegratorFailed(
                    f"integrator failed at t = {t:.6g}: budget of {budget} steps spent")
            steps_left -= 1
            clipped = h_abs >= stop - t
            h = stop - t if clipped else h_abs
            t_new = stop if clipped else t + h
            y_new, k7, error = step(f, t, h, t_new, y, k1)
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
    return any(den.degree > 0 and has_real_root(den, lo, hi)
               for den in dict.fromkeys(comp.den for comp in sol.components()))


# poles this close to an interval's ends still break the integrator
_POLE_MARGIN = Fraction(1, 1000)
# the cross-check's evenly spaced samples of [t0, t1], both ends included
_SAMPLES = 64
# (sol, lo, hi): the last window [lo, hi] `pole_free_interval` proved free of
# sol's real poles.  Only `numeric_crosscheck` reads it, and only for that
# very object: an equal solution built apart is searched again.  Solutions
# are immutable, so whichever caller set it, it saves a search, never
# changes an answer; it holds one solution alive
_cleared = (None, 0, 0)


def pole_free_interval(sol: SolutionTuple) -> tuple[Fraction, Fraction]:
    """[1, 2] shifted right by integers until no real pole of the
    solution lies in it or within a small safety margin of it.

    Every call searches afresh; the window it clears, margin included,
    is recorded for `numeric_crosscheck` on the same solution object."""
    global _cleared
    t0 = Fraction(1)
    for _ in range(1000):
        lo, hi = t0 - _POLE_MARGIN, t0 + 1 + _POLE_MARGIN
        if not _real_pole_in(sol, lo, hi):
            _cleared = (sol, lo, hi)
            return t0, t0 + 1
        t0 += 1
    raise PoleOnPath("no pole-free interval [t0, t0 + 1] with t0 <= 1000 found")


def numeric_crosscheck(
    params: ParameterTuple,
    sol: SolutionTuple,
    t0,
    t1,
    initial_offset=None,
) -> float:
    """Max deviation between the exact solution and an adaptive RK45 run.

    Integrates t*X' = RHS, with RHS compiled from `vector_field`
    (`float_rhs`), from the exact initial condition sol(t0) (plus an
    optional perturbation, used for power checks) and samples the
    deviation at `_SAMPLES` = 64 evenly spaced points of [t0, t1].  A
    real pole in [t0, t1], found exactly, raises PoleOnPath, and an
    offset of other than 4 entries ValueError.  The pole search is
    skipped only when `pole_free_interval` last cleared a window holding
    [t0, t1] for this very object (`is`, not ==).  Raises IntegratorFailed
    when `_dopri5` stops short, or when an alpha, a start value, an offset
    or the exact solution at a sample lies outside the float range.
    """
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("numeric cross-check needs the affine chart")
    if initial_offset is not None and len(initial_offset) != 4:
        raise ValueError(f"initial_offset has {len(initial_offset)} entries; expected 4")
    t0, t1 = rat(t0), rat(t1)
    if t0 <= 0 or t1 <= t0:
        raise ValueError("need 0 < t0 < t1 to stay clear of the fixed singularity")
    cleared_sol, lo, hi = _cleared
    if not (cleared_sol is sol and lo <= t0 and t1 <= hi) and _real_pole_in(sol, t0, t1):
        raise PoleOnPath(f"solution has a pole in [{rat_str(t0)}, {rat_str(t1)}]")

    # t0 + (t1 - t0) * i / (_SAMPLES - 1) over one integer denominator: int
    # division rounds correctly, as float(Fraction) does
    n0, n1 = t0.numerator * t1.denominator, t1.numerator * t0.denominator
    den = t0.denominator * t1.denominator * (_SAMPLES - 1)
    samples = [(n0 * (_SAMPLES - 1) + (n1 - n0) * i) / den for i in range(_SAMPLES)]
    exact = list(zip(*([f(t) for t in samples] for f in map(float_function, sol.components()))))
    try:
        alphas = [float(a) for a in params.alphas]
        start = [float(c.evaluate(t0)) for c in sol.components()]
        if initial_offset is not None:
            start = [v + float(o) for v, o in zip(start, initial_offset)]
    except OverflowError:
        raise IntegratorFailed("an alpha, start value or offset is outside the float range") from None
    if any(abs(v) == math.inf for values in exact for v in values):
        raise IntegratorFailed("the exact solution is outside the float range at a sample")
    rhs = float_rhs(params.system, Chart.AFFINE, alphas)
    states = [start] + _dopri5(rhs, samples[0], start, samples[1:])
    # the deviations in the check's domain, [-1e6, 1e6]; a NaN wins only if first
    return max(abs(min(max(v, -1e6), 1e6) - min(max(value, -1e6), 1e6))
               for state, values in zip(states, exact) for v, value in zip(state, values))
