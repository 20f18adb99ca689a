"""The three coupled Painlevé-III type systems (B4, D4, D5), their
alternative coordinate charts, parameter normalizations, the solution
check and the B4 Hamiltonian.

Every system is written in the form t * X' = RHS(X, t), with one
`vector_field` for all seven system/chart pairs: D4 with some of its
sides inverted (`INVERTED_SIDES`).  `residual` gives the four exact
rational functions t*X' - RHS, which vanish identically precisely on
solutions; `is_solution` reaches the same verdict by exact evaluation,
screening B4 and D5 inputs at one point and then carrying them to D4,
whose cubic field it evaluates at B + 1 points, with B a bound on the
degree of each residual's numerator.

Charts: the affine chart carries (x, y, z, w) directly.  Solutions with
a component identically infinite live in an alternative chart, which
applies `invert_side` to that component's side: B4 m3 and D5 r3 to the
z-side (z == inf), D5 r1 to the x-side (x == inf), D5 r5 to both.  D4
needs no extra chart.  With the linear parameter map `to_d4_alphas` (and
its inverse `from_d4_alphas`), these involutions carry every system/chart
pair to D4 and back: the solution check (`_d4_image`), the equivalences
and every Bäcklund letter (`backlund`) go through D4 this way.

Parameters go through D4 the same way: every system's normalization is
D4's, c0 + c1 + 2*c2 + c3 + c4 = 1 at c = `to_d4_alphas(system, alphas)`,
which reads as a0 + a1 + 2*a2 + 2*a3 + 2*a4 = 1 for B4 and as
a0 + ... + a4 = 1/2 for D5.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exactmath import (
    RF,
    RationalFunction,
    rat,
    rat_str,
    rf_from_json,
    rf_to_json,
)


class System(enum.Enum):
    B4 = "b4"
    D4 = "d4"
    D5 = "d5"


class Chart(enum.Enum):
    AFFINE = "affine"
    M3 = "m3"
    R1 = "r1"
    R3 = "r3"
    R5 = "r5"


# the valid charts and which sides, (x-side, z-side), each writes inverted
# against D4's coordinates (`invert_side`): D5 has both sides inverted in
# the affine chart, B4 its z-side; m3, r1, r3 and r5 undo z, x, z and both
INVERTED_SIDES = {
    (System.B4, Chart.AFFINE): (False, True), (System.B4, Chart.M3): (False, False),
    (System.D4, Chart.AFFINE): (False, False),
    (System.D5, Chart.AFFINE): (True, True), (System.D5, Chart.R1): (False, True),
    (System.D5, Chart.R3): (True, False), (System.D5, Chart.R5): (False, False),
}
VALID_CHARTS = {s: tuple(c for t, c in INVERTED_SIDES if t is s) for s in System}


def parse_system(name: str) -> System:
    try:
        return System(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown system {name!r}; expected b4, d4 or d5") from None


class ChartMismatch(ValueError):
    """Raised when a solution chart is invalid for the requested system."""


@dataclass(frozen=True)
class ParameterTuple:
    """The five parameters a0..a4 of one system, with its affine constraint."""

    system: System
    alphas: Tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        alphas = tuple(rat(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) != 5:
            raise ValueError("expected five parameters")
        if _d4_level(to_d4_alphas(self.system, alphas)) != 1:
            raise ValueError(
                f"parameters violate the {self.system.value} normalization: "
                f"{[rat_str(a) for a in alphas]}"
            )

    def __iter__(self):
        return iter(self.alphas)

    def __getitem__(self, i):
        return self.alphas[i]

    def to_json(self) -> dict:
        return {
            "system": self.system.name,
            "alphas": [rat_str(a) for a in self.alphas],
        }

    @staticmethod
    def from_json(data) -> "ParameterTuple":
        return ParameterTuple(
            parse_system(data["system"]), tuple(rat(a) for a in data["alphas"])
        )


def _d4_level(c) -> Fraction:
    """c0 + c1 + 2*c2 + c3 + c4, which D4's normalization sets to 1.  Read
    through `to_d4_alphas` it is every system's normalization."""
    c0, c1, c2, c3, c4 = c
    return c0 + c1 + 2 * c2 + c3 + c4


def solve_last_alpha(system: System, first_four) -> Fraction:
    """The a4 forced by the normalization, given a0..a3: D4's c4, mapped back."""
    c = to_d4_alphas(system, [rat(a) for a in first_four] + [Fraction(0)])
    return from_d4_alphas(system, (*c[:4], c[4] + 1 - _d4_level(c)))[4]


@dataclass(frozen=True)
class SolutionTuple:
    """Four rational functions of t plus the chart they live in."""

    chart: Chart
    x: RationalFunction
    y: RationalFunction
    z: RationalFunction
    w: RationalFunction

    def components(self):
        return (self.x, self.y, self.z, self.w)

    def replace(self, **kw) -> "SolutionTuple":
        return dataclasses.replace(self, **kw)

    def to_json(self) -> dict:
        return {"chart": self.chart.value,
                **{name: rf_to_json(c) for name, c in zip("xyzw", self.components())}}

    @staticmethod
    def from_json(data) -> "SolutionTuple":
        """The inverse of `to_json`; malformed data raises ValueError naming
        the component and the field."""
        components = []
        for name in "xyzw":
            if not isinstance(data, dict) or name not in data:
                raise ValueError(f"solution has no component {name!r}")
            try:
                components.append(rf_from_json(data[name]))
            except ValueError as exc:
                raise ValueError(f"solution component {name!r}: {exc}") from None
        return SolutionTuple(Chart(data.get("chart", "affine")), *components)


T = RF.t()


def _check_chart(system: System, chart: Chart):
    if chart not in VALID_CHARTS[system]:
        raise ChartMismatch(f"chart {chart.value} is not a {system.value} chart")


def invert_side(u, v, b):
    """(1/u, -u*(u*v + b)) for u not identically zero: the involution between
    a side in D4's coordinates and inverted ones (b = a1 on x, a3 on z)."""
    return 1 / u, -u * (u * v + b)


def to_d4_alphas(system: System, alphas):
    """The D4 parameters equivalent to the system's parameters (b0, ..., b4):
    (b0, b1, b2, b3, 2b4 + b3) for B4, (2b0 + b1, b1, b2, b3, 2b4 + b3) for D5."""
    if system is System.D4:
        return tuple(alphas)
    b0, b1, b2, b3, b4 = alphas
    return (2 * b0 + b1 if system is System.D5 else b0, b1, b2, b3, 2 * b4 + b3)


def from_d4_alphas(system: System, alphas):
    """The inverse of `to_d4_alphas`."""
    if system is System.D4:
        return tuple(alphas)
    c0, c1, c2, c3, c4 = alphas
    return ((c0 - c1) / 2 if system is System.D5 else c0, c1, c2, c3, (c4 - c3) / 2)


def _side(p_form: bool, c, b, inverted: bool, t, u, v, k):
    """t*u' and t*v' on one side, (x, y) or (z, w), of the coupled system.

    Its own part has the P form (x, y of D4) or the Q form (z, w of D4)
    with the parameters c and b.  k is the other side's coupling
    coordinate; the coupling term of the Hamiltonian is -2 * y * w in D4
    coordinates, and on an inverted side y or w is -u*(u*v + b).
    """
    if p_form:
        du, dv = 2 * u * u * v - u * u + c * u + t, -2 * u * v * v + 2 * u * v - c * v + b
    else:
        du, dv = 2 * u * u * v - t * u * u - c * u + 1, -2 * u * v * v + 2 * t * u * v + c * v + b * t
    if inverted:
        return du + 2 * k * u * u, dv - 2 * k * (2 * u * v + b)
    return du - 2 * k, dv


def vector_field(system: System, chart: Chart, alphas):
    """RHS(t, x, y, z, w) of t*X' = RHS for the system in the chart.

    All three systems are D4 seen through charts: a side (x, y) or (z, w)
    is either in D4's coordinates or inverted by `invert_side`, which turns
    its P form into the Q form and back; `INVERTED_SIDES` says which.

    The returned function uses only +, - and *, so one definition serves
    the exact residual (RationalFunctions), its degree bound and point
    values (`_DegreeBound`, `_Pair`) and the float integrator; the alphas
    may be Fractions or floats.
    """
    _check_chart(system, chart)
    a0, a1, a2, a3, a4 = alphas
    x_inverted, z_inverted = INVERTED_SIDES[system, chart]
    # D4's s = a0 + a1 and g = 1 - a3 - a4 as each system reads them; an
    # inverted side's other form has its parameter moved by 2*b
    s = (2 if system is System.D5 else 1) * (a0 + a1) - (2 * a1 if x_inverted else 0)
    g = (1 - a3 - a4 if system is System.D4 else 1 - 2 * a3 - 2 * a4) + (2 * a3 if z_inverted else 0)

    def field(t, x, y, z, w):
        ky = -x * (x * y + a1) if x_inverted else y
        kw = -z * (z * w + a3) if z_inverted else w
        return (*_side(not x_inverted, s, a1, x_inverted, t, x, y, kw),
                *_side(z_inverted, g, a3, z_inverted, t, z, w, ky))

    return field


def _residuals(field, t, values, t_derivatives):
    return tuple(td - r for td, r in zip(t_derivatives, field(t, *values)))


def residual(params: ParameterTuple, sol: SolutionTuple):
    """The four exact residuals t*X' - RHS of the system/chart pair.

    All four are identically zero iff sol solves the selected system in
    the selected chart.
    """
    field = vector_field(params.system, sol.chart, params.alphas)
    comps = sol.components()
    return _residuals(field, T, comps, [T * c.derivative() for c in comps])


class _DegreeBound:
    """A bound for a value N / prod_k D_k**e[k] built from the components
    c = N_c / D_c: deg N - sum_k e[k] * deg D_k <= h.  Products add h and
    e; sums take the larger h and the elementwise larger e; scalars leave
    both alone."""

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


class _Pair:
    """An exact rational n/d kept as a pair of ints, with no gcd taken."""

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


def _horner(coeffs, p: int):
    """(f(p), f'(p)) for the integer polynomial with coefficients coeffs."""
    value = slope = 0
    for c in reversed(coeffs):
        slope = slope * p + value
        value = value * p + c
    return value, slope


def _degree_bounds(field, comps):
    """The distinct denominators D_k of the components and, per residual,
    (B, e): the residual times prod_k D_k**e[k] is a polynomial of degree
    at most B."""
    dens = list(dict.fromkeys(c.den for c in comps))

    def bound(c, power):
        return _DegreeBound(c.num.degree - c.den.degree,
                            tuple(power if d == c.den else 0 for d in dens))

    t = _DegreeBound(1, (0,) * len(dens))
    residuals = _residuals(field, t, [bound(c, 1) for c in comps], [bound(c, 2) for c in comps])
    return dens, [(r.h + sum(e * d.degree for e, d in zip(r.e, dens)), r.e) for r in residuals]


def _residuals_vanish(field, comps, points=None) -> bool:
    """Whether field's residuals on comps vanish at the first `points` integers
    t >= 1 where no denominator vanishes (by default B + 1, `_degree_bounds`)."""
    dens = list(dict.fromkeys(c.den for c in comps))
    if points is None:
        points = max(b for b, _ in _degree_bounds(field, comps)[1]) + 1
    den_ints = [d._int_form()[0] for d in dens]
    images = []
    for c in comps:
        n, scale = c.num._int_form()
        k = dens.index(c.den)
        scale /= dens[k]._int_form()[1]  # c = scale * n / d on the integer images
        images.append((n, scale.numerator, scale.denominator, k))
    p = 0
    while points > 0:
        p += 1
        at = [_horner(d, p) for d in den_ints]
        if not all(v for v, _ in at):
            continue
        values, t_derivatives = [], []
        for n, sn, sd, k in images:
            nv, ns = _horner(n, p)
            dv, ds = at[k]
            values.append(_Pair(sn * nv, sd * dv))
            t_derivatives.append(_Pair(sn * p * (ns * dv - nv * ds), sd * dv * dv))
        if any(r.n for r in _residuals(field, p, values, t_derivatives)):
            return False
        points -= 1
    return True


def _d4_image(params: ParameterTuple, sol: SolutionTuple):
    """The D4 parameters and solution equivalent to a B4 or D5 (params,
    sol), with every inverted side of sol's chart undone."""
    x_inverted, z_inverted = INVERTED_SIDES[params.system, sol.chart]
    x, y, z, w = sol.components()
    if x_inverted:
        x, y = invert_side(x, y, params.alphas[1])
    if z_inverted:
        z, w = invert_side(z, w, params.alphas[3])
    d4 = to_d4_alphas(params.system, params.alphas)
    return ParameterTuple(System.D4, d4), SolutionTuple(Chart.AFFINE, x, y, z, w)


def is_solution(params: ParameterTuple, sol: SolutionTuple) -> bool:
    """Whether sol solves the system in its chart, decided exactly.

    Each residual t*X' - RHS is N / prod_k D_k**e[k] over the components'
    denominators D_k, with deg N <= B (`_degree_bounds`).  N is zero iff
    it vanishes at B + 1 distinct points, so the residuals are evaluated
    in exact integer pairs at t = 1, 2, ..., skipping the points where
    some D_k vanishes, until B + 1 points have passed (Schwartz 1980,
    Zippel 1979).  `residual` builds the same residuals symbolically.

    A chart with an inverted side is first screened at one point, which
    rejects most non-solutions and any inverted side with u == 0 (its
    u-residual is -t or -1).  Then `_d4_image` undoes the inversions and the
    image is checked on D4's cubic field, with a smaller B; `vector_field` is
    D4's field conjugated by the same involutions, so the verdict is the same.
    """
    if any(INVERTED_SIDES[params.system, sol.chart]):
        screen = vector_field(params.system, sol.chart, params.alphas)
        if not _residuals_vanish(screen, sol.components(), points=1):
            return False
        params, sol = _d4_image(params, sol)
    return _residuals_vanish(vector_field(params.system, sol.chart, params.alphas), sol.components())


def hamiltonian_polynomial(alphas):
    """H(t, x, y, z, w), the B4 Hamiltonian, with +, - and * only: like
    `vector_field`, one definition for RationalFunctions (`hamiltonian`)
    and truncated Laurent series (`verify.invariant_report`)."""
    a0, a1, a2, a3, a4 = alphas
    beta = 1 - 2 * a2 - 2 * a3 - 2 * a4

    def h(t, x, y, z, w):
        return (x * x * y * (y - 1) + x * (beta * y - a1) + t * y
                + z * z * w * (w - 1) + z * ((1 - 2 * a4) * w - a3) + t * w
                + 2 * y * z * (z * w + a3))

    return h


def hamiltonian(params: ParameterTuple, sol: SolutionTuple) -> RationalFunction:
    """The B4 Hamiltonian evaluated along an affine-chart solution."""
    if params.system is not System.B4:
        raise ValueError("the Hamiltonian is only defined for the B4 system")
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("Hamiltonian evaluation needs the affine chart")
    return hamiltonian_polynomial(params.alphas)(T, *sol.components())


def hamiltonian_constant_oracle(params: ParameterTuple, pole_order_one: bool) -> Fraction:
    """Closed form of the constant term of the B4 Hamiltonian at t = infinity.

    The two cases correspond to z having a pole of order one (True) or of
    order at least two (False) at infinity.
    """
    if params.system is not System.B4:
        raise ValueError("oracle defined for B4 parameters only")
    a0, a1, a2, a3, a4 = params.alphas
    base = Fraction(1, 4) * (a0 - a1) ** 2
    if pole_order_one:
        return base + (a3 + a4) ** 2 - (a3 + a4)
    return base + a3 * (a3 + 2 * a4 - 1)
