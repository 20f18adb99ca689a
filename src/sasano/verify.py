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
vector field compiled to straight-line code (`systems.float_rhs`), the
DOP853 step written out from its coefficients (`_dop853_step`) and a
bound on the number of steps, and
poles are located exactly (`exactmath.has_real_root` bisects the square-free
part of the denominator itself, uncapped), so the package needs no numpy or scipy.
"""

from __future__ import annotations

import bisect
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

# Dormand and Prince's 8(5,3) pair with its dense output, DOP853 in Hairer,
# Norsett and Wanner, Solving ODEs I (1993), II.5-II.6, written out with the
# coefficients of their code: kj is the slope of stage j and pj one of its
# components.  Each stage is one comprehension over the components, each
# weighted sum runs left to right in stage order without its zero weights,
# and f is called with (time, list) in stage order: tests compare with ==.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _TOL = 0.9, 0.2, 10.0, 1e-12  # _TOL: both rtol and atol


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _dop853_step(f, t, h, y, k1):
    """(y_new, error, (k1, ..., k12)): one step from (t, y), with k1 = f(t, y).

    The error is that of Hairer's code: the fifth-order estimate in the
    2-norm scaled by _TOL + _TOL * max(|y|, |y_new|), damped by the
    third-order one, which is the eighth-order increment d less the
    third-order solution's weights on stages 1, 9 and 12."""
    k2 = f(t + 0.05260015195876773 * h,
           [v + h * (0.05260015195876773 * p1)
            for v, p1 in zip(y, k1)])
    k3 = f(t + 0.0789002279381516 * h,
           [v + h * (0.0197250569845379 * p1 + 0.0591751709536137 * p2)
            for v, p1, p2 in zip(y, k1, k2)])
    k4 = f(t + 0.1183503419072274 * h,
           [v + h * (0.02958758547680685 * p1 + 0.08876275643042054 * p3)
            for v, p1, p3 in zip(y, k1, k3)])
    k5 = f(t + 0.2816496580927726 * h,
           [v + h * (0.2413651341592667 * p1 - 0.8845494793282861 * p3 + 0.924834003261792 * p4)
            for v, p1, p3, p4 in zip(y, k1, k3, k4)])
    k6 = f(t + 0.3333333333333333 * h,
           [v + h * (0.037037037037037035 * p1 + 0.17082860872947386 * p4
                     + 0.12546768756682242 * p5)
            for v, p1, p4, p5 in zip(y, k1, k4, k5)])
    k7 = f(t + 0.25 * h,
           [v + h * (0.037109375 * p1 + 0.17025221101954405 * p4 + 0.06021653898045596 * p5
                     - 0.017578125 * p6)
            for v, p1, p4, p5, p6 in zip(y, k1, k4, k5, k6)])
    k8 = f(t + 0.3076923076923077 * h,
           [v + h * (0.03709200011850479 * p1 + 0.17038392571223998 * p4 + 0.10726203044637328 * p5
                     - 0.015319437748624402 * p6 + 0.008273789163814023 * p7)
            for v, p1, p4, p5, p6, p7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = f(t + 0.6512820512820513 * h,
           [v + h * (0.6241109587160757 * p1 - 3.3608926294469414 * p4 - 0.868219346841726 * p5
                     + 27.59209969944671 * p6 + 20.154067550477894 * p7 - 43.48988418106996 * p8)
            for v, p1, p4, p5, p6, p7, p8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = f(t + 0.6 * h,
            [v + h * (0.47766253643826434 * p1 - 2.4881146199716677 * p4 - 0.590290826836843 * p5
                      + 21.230051448181193 * p6 + 15.279233632882423 * p7 - 33.28821096898486 * p8
                      - 0.020331201708508627 * p9)
             for v, p1, p4, p5, p6, p7, p8, p9 in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = f(t + 0.8571428571428571 * h,
            [v + h * (-0.9371424300859873 * p1 + 5.186372428844064 * p4 + 1.0914373489967295 * p5
                      - 8.149787010746927 * p6 - 18.52006565999696 * p7 + 22.739487099350505 * p8
                      + 2.4936055526796523 * p9 - 3.0467644718982196 * p10)
             for v, p1, p4, p5, p6, p7, p8, p9, p10 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = f(t + h,
            [v + h * (2.273310147516538 * p1 - 10.53449546673725 * p4 - 2.0008720582248625 * p5
                      - 17.9589318631188 * p6 + 27.94888452941996 * p7 - 2.8589982771350235 * p8
                      - 8.87285693353063 * p9 + 12.360567175794303 * p10 + 0.6433927460157636 * p11)
             for v, p1, p4, p5, p6, p7, p8, p9, p10, p11
             in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new, sq5, sq3 = [], 0.0, 0.0
    for v, p1, p6, p7, p8, p9, p10, p11, p12 in zip(y, k1, k6, k7, k8, k9, k10, k11, k12):
        d = (0.054293734116568765 * p1 + 4.450312892752409 * p6 + 1.8915178993145003 * p7
             - 5.801203960010585 * p8 + 0.3111643669578199 * p9 - 0.1521609496625161 * p10
             + 0.20136540080403034 * p11 + 0.04471061572777259 * p12)
        n = v + h * d
        y_new.append(n)
        s = _TOL + max(abs(v), abs(n)) * _TOL
        e5 = (0.01312004499419488 * p1 - 1.2251564463762044 * p6 - 0.4957589496572502 * p7
              + 1.6643771824549864 * p8 - 0.35032884874997366 * p9 + 0.3341791187130175 * p10
              + 0.08192320648511571 * p11 - 0.022355307863886294 * p12) / s
        e3 = (d - 0.2440944881889764 * p1 - 0.7338466882816118 * p9
              - 0.022058823529411766 * p12) / s
        sq5 += e5 * e5
        sq3 += e3 * e3
    error = 0.0 if sq5 == sq3 == 0 else h * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y))
    return y_new, error, (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12)


def _dop853_dense(f, t, h, y, y_new, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13):
    """Per component, the coefficients (y, F0, ..., F6) of the interpolant of
    a step from (t, y) to y_new that `_interpolate` evaluates, given the
    step's stages and k13 = f(t + h, y_new): the three extra stages run here."""
    k14 = f(t + 0.1 * h,
            [v + h * (0.056167502283047954 * p1 + 0.25350021021662483 * p7
                      - 0.2462390374708025 * p8 - 0.12419142326381637 * p9
                      + 0.15329179827876568 * p10 + 0.00820105229563469 * p11
                      + 0.007567897660545699 * p12 - 0.008298 * p13)
             for v, p1, p7, p8, p9, p10, p11, p12, p13
             in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
    k15 = f(t + 0.2 * h,
            [v + h * (0.03183464816350214 * p1 + 0.028300909672366776 * p6
                      + 0.053541988307438566 * p7 - 0.05492374857139099 * p8
                      - 0.00010834732869724932 * p11 + 0.0003825710908356584 * p12
                      - 0.00034046500868740456 * p13 + 0.1413124436746325 * p14)
             for v, p1, p6, p7, p8, p11, p12, p13, p14
             in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
    k16 = f(t + 0.7777777777777778 * h,
            [v + h * (-0.42889630158379194 * p1 - 4.697621415361164 * p6 + 7.683421196062599 * p7
                      + 4.06898981839711 * p8 + 0.3567271874552811 * p9
                      - 0.0013990241651590145 * p13 + 2.9475147891527724 * p14
                      - 9.15095847217987 * p15)
             for v, p1, p6, p7, p8, p9, p13, p14, p15
             in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
    return [(v, n - v, h * p1 - (n - v), 2 * (n - v) - h * (p13 + p1),
             h * (-8.428938276109013 * p1 + 0.5667149535193777 * p6 - 3.0689499459498917 * p7
                  + 2.38466765651207 * p8 + 2.117034582445028 * p9 - 0.871391583777973 * p10
                  + 2.2404374302607883 * p11 + 0.6315787787694688 * p12 - 0.08899033645133331 * p13
                  + 18.148505520854727 * p14 - 9.194632392478356 * p15 - 4.436036387594894 * p16),
             h * (10.427508642579134 * p1 + 242.28349177525817 * p6 + 165.20045171727028 * p7
                  - 374.5467547226902 * p8 - 22.113666853125306 * p9 + 7.733432668472264 * p10
                  - 30.674084731089398 * p11 - 9.332130526430229 * p12 + 15.697238121770845 * p13
                  - 31.139403219565178 * p14 - 9.35292435884448 * p15 + 35.81684148639408 * p16),
             h * (19.985053242002433 * p1 - 387.0373087493518 * p6 - 189.17813819516758 * p7
                  + 527.8081592054236 * p8 - 11.57390253995963 * p9 + 6.8812326946963 * p10
                  - 1.0006050966910838 * p11 + 0.7777137798053443 * p12 - 2.778205752353508 * p13
                  - 60.19669523126412 * p14 + 84.32040550667716 * p15 + 11.99229113618279 * p16),
             h * (-25.69393346270375 * p1 - 154.18974869023643 * p6 - 231.5293791760455 * p7
                  + 357.6391179106141 * p8 + 93.40532418362432 * p9 - 37.45832313645163 * p10
                  + 104.0996495089623 * p11 + 29.8402934266605 * p12 - 43.53345659001114 * p13
                  + 96.32455395918828 * p14 - 39.17726167561544 * p15 - 149.72683625798564 * p16))
            for v, n, p1, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15, p16
            in zip(y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16)]


def _interpolate(rows, x: float) -> list:
    """The state at t + x * h of a step from t, from the rows of `_dop853_dense`: Hairer's
    CONTD8 in nested form."""
    x1 = 1 - x
    return [u + x * (f0 + x1 * (f1 + x * (f2 + x1 * (f3 + x * (f4 + x1 * (f5 + x * f6))))))
            for u, f0, f1, f2, f3, f4, f5, f6 in rows]


def _dop853(f, t: float, y, stops) -> list:
    """The states at the increasing times `stops` (all > t) of an adaptive
    DOP853 run of y' = f(t, y) from (t, y).

    Steps are clipped only at the last stop; the others are interpolated
    by the dense output, whose three extra stages run only on an accepted
    step that holds a stop short of its end.  Step-size control and the
    first step follow Hairer, Norsett and Wanner, Solving ODEs I, II.4,
    for an eighth-order method, with f(t + h, y_new) taken on accepted
    steps only, as in their code.  Raises IntegratorFailed when the step
    size falls to the spacing of floats at t, as it does when the
    solution blows up, or when the run has taken max(10000, 200 *
    len(stops)) steps, accepted or rejected, as a flow that grows fast
    without blowing up would.
    """
    y = list(y)
    k1 = f(t, y)
    scale = [_TOL + abs(v) * _TOL for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(k1, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    k_h0 = f(t + h0, [v + h0 * k for v, k in zip(y, k1)])
    d2 = _rms([(b - a) / s for a, b, s in zip(k1, k_h0, scale)]) / h0
    h_abs = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
             else (0.01 / max(d1, d2)) ** 0.125)
    h_abs = min(100 * h0, h_abs)

    budget = steps_left = max(10_000, 200 * len(stops))
    end, out = stops[-1], []
    while t < end:
        if h_abs < 10 * (math.nextafter(t, math.inf) - t):
            raise IntegratorFailed(
                f"integrator failed at t = {t:.6g}: step size below float spacing")
        if steps_left == 0:
            raise IntegratorFailed(
                f"integrator failed at t = {t:.6g}: budget of {budget} steps spent")
        steps_left -= 1
        h, t_new = h_abs, t + h_abs
        if t_new >= end:  # clipped at the last stop
            h, t_new = end - t, end
        y_new, error, stages = _dop853_step(f, t, h, y, k1)
        if error < 1:  # accept; NaN and inf reject
            k13 = f(t_new, y_new)
            inside = bisect.bisect_left(stops, t_new, len(out))
            if inside > len(out):
                rows = _dop853_dense(f, t, h, y, y_new, *stages, k13)
                out += [_interpolate(rows, (s - t) / h) for s in stops[len(out):inside]]
            if stops[inside] == t_new:
                out.append(y_new)
            factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR, _SAFETY * error ** -0.125)
            h_abs = h * factor
            t, y, k1 = t_new, y_new, k13
        else:
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** -0.125)
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
    """Max deviation between the exact solution and an adaptive DOP853 run.

    Integrates t*X' = RHS, with RHS compiled from `vector_field`
    (`float_rhs`), from the exact initial condition sol(t0) (plus an
    optional perturbation, used for power checks) and samples the
    deviation at `_SAMPLES` = 64 evenly spaced points of [t0, t1].  A
    real pole in [t0, t1], found exactly, raises PoleOnPath, and an
    offset of other than 4 entries ValueError.  The pole search is
    skipped only when `pole_free_interval` last cleared a window holding
    [t0, t1] for this very object (`is`, not ==).  Raises IntegratorFailed
    when `_dop853` stops short, or when an alpha, a start value, an offset
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
    states = [start] + _dop853(rhs, samples[0], start, samples[1:])
    # the deviations in the check's domain, [-1e6, 1e6]; a NaN wins only if first
    return max(abs(min(max(v, -1e6), 1e6) - min(max(value, -1e6), 1e6))
               for state, values in zip(states, exact) for v, value in zip(state, values))
