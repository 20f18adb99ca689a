"""The three coupled Painlevé-III type systems (B4, D4, D5), their
alternative coordinate charts, parameter normalizations, the solution
check and the B4 Hamiltonian polynomial.

Every system is written in the form t * X' = RHS(X, t), with one
`vector_field` for all seven system/chart pairs: D4 with some of its
sides inverted (`INVERTED_SIDES`).  The residuals t*X' - RHS vanish
identically precisely on solutions; `is_solution` decides that by exact
evaluation on one path, which `construct` takes too: every input goes to
D4 (`_d4_image`, after a one-point screen where its chart inverts a side),
whose cubic field one kernel evaluates at B + 1 points t = 1, -1, 2, -2,
..., two per `_horner_pm` run, B bounding each residual numerator's degree.

One trace has three readings: `_program` traces `vector_field` once per
system, chart and kind with recording values (`_Traced`) and emits it as
straight-line Python, on floats for the numeric check (`float_rhs`) and
on integer numerators over monomial denominators for the point values;
`_degree_bounds` runs the latter's steps, prepared with the program,
again on exponents to find B.

Charts: the affine chart carries (x, y, z, w) directly.  Solutions with
a component identically infinite live in an alternative chart, which
applies `invert_side` to that component's side: B4 m3 and D5 r3 to the
z-side (z == inf), D5 r1 to the x-side (x == inf), D5 r5 to both.  D4
needs no extra chart.  With the linear parameter map `to_d4_alphas` (and
its inverse `from_d4_alphas`), these involutions carry every system/chart
pair to D4 (`_d4_image`, for the solution check and Bäcklund words) and
back (`_settle`, for Bäcklund words and the equivalences), both by
`_invert_sides`; no other module inverts a side.

Parameters go through D4 the same way: every system's normalization is
D4's, c0 + c1 + 2*c2 + c3 + c4 = 1 at c = `to_d4_alphas(system, alphas)`,
which reads as a0 + a1 + 2*a2 + 2*a3 + 2*a4 = 1 for B4 and as
a0 + ... + a4 = 1/2 for D5.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction

from ._record import Record
from .exactmath import (
    RF,
    RatLike,
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
# the chart of each system that writes the sides as (x inverted, z inverted)
_CHART_OF = {(system, *sides): chart for (system, chart), sides in INVERTED_SIDES.items()}


def parse_system(name: str) -> System:
    try:
        return System(name.strip().lower())
    except ValueError:
        raise ValueError(f"unknown system {name!r}; expected b4, d4 or d5") from None


class ChartMismatch(ValueError):
    """Raised when a solution chart is invalid for the requested system."""


class UndefinedAction(ValueError):
    """The generator's birational map is undefined on this solution."""


class NormalizationFailed(RuntimeError):
    """Parameter normalization did not reach the target form (a bug)."""


class ParameterTuple(Record):
    """The five parameters a0..a4 of one system, with its affine constraint."""

    __slots__ = ("system", "alphas")

    def __init__(self, system: System, alphas: tuple[RatLike, ...]):
        alphas = tuple(rat(a) for a in alphas)
        if len(alphas) != 5:
            raise ValueError("expected five parameters")
        if _d4_level(to_d4_alphas(system, alphas)) != 1:
            raise ValueError(
                f"parameters violate the {system.value} normalization: "
                f"{[rat_str(a) for a in alphas]}"
            )
        self._fill(system, alphas)

    def to_json(self) -> dict:
        return {
            "system": self.system.name,
            "alphas": [rat_str(a) for a in self.alphas],
        }

    @staticmethod
    def from_json(data) -> "ParameterTuple":
        """The inverse of `to_json`; malformed data raises ValueError naming
        the field."""
        for name, kind in (("system", str), ("alphas", list)):
            if not isinstance(data, dict) or name not in data:
                raise ValueError(f"parameters have no field {name!r}")
            if not isinstance(data[name], kind):
                raise ValueError(f"parameters field {name!r}: {data[name]!r} is not a {kind.__name__}")
        try:
            return ParameterTuple(parse_system(data["system"]), data["alphas"])
        except TypeError as exc:
            raise ValueError(f"parameters field 'alphas': {exc}") from None


def _integers(c):
    """(ints, den): the Fractions c as integers over their common denominator."""
    den = math.lcm(*(a.denominator for a in c))
    return tuple(a.numerator * (den // a.denominator) for a in c), den


def _d4_level(c) -> Fraction:
    """c0 + c1 + 2*c2 + c3 + c4, which D4's normalization sets to 1.  Read
    through `to_d4_alphas` it is every system's normalization."""
    c0, c1, c2, c3, c4 = c
    return c0 + c1 + 2 * c2 + c3 + c4


def solve_last_alpha(system: System, first_four) -> Fraction:
    """The a4 forced by the normalization, given a0..a3: D4's c4, mapped back."""
    c = to_d4_alphas(system, [rat(a) for a in first_four] + [Fraction(0)])
    return from_d4_alphas(system, (*c[:4], c[4] + 1 - _d4_level(c)))[4]


class SolutionTuple(Record):
    """Four rational functions of t plus the chart they live in."""

    __slots__ = ("chart", "x", "y", "z", "w")

    def __init__(self, chart: Chart, x: RationalFunction, y: RationalFunction,
                 z: RationalFunction, w: RationalFunction):
        self._fill(chart, x, y, z, w)

    def components(self):
        return (self.x, self.y, self.z, self.w)

    def replace(self, **kw) -> "SolutionTuple":
        """A copy with the named fields replaced."""
        return SolutionTuple(**dict(zip(self.__slots__, self._values(self)), **kw))

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
        chart = data.get("chart", "affine")
        if chart not in [c.value for c in Chart]:
            raise ValueError(f"solution field 'chart': {chart!r} is not one of "
                             f"{', '.join(c.value for c in Chart)}")
        return SolutionTuple(Chart(chart), *components)


T = RF.t()


def _check_chart(system: System, chart: Chart):
    """The chart's inverted sides, `INVERTED_SIDES`; ChartMismatch if the
    system has no such chart."""
    if chart not in VALID_CHARTS[system]:
        raise ChartMismatch(f"chart {chart.value} is not a {system.value} chart")
    return INVERTED_SIDES[system, chart]


def invert_side(u, v, b):
    """(1/u, -u*(u*v + b)) for rational functions u, not identically zero,
    and v: the involution between a side in D4's coordinates and inverted
    ones (b = a1 on x, a3 on z).

    With u = A/B and v = C/E, it is taken over the cofactors of the gcds
    k = gcd(A, E) and h = gcd(C, B) that u*v takes:
    A = k A1, E = k E1, C = h C1, B = h B1 and M = A1 C1 + b B1 E1 give
    -u*(u*v + b) = -k A1 M/(h B1**2 E1), reduced once gcd(k, E1) and
    gcd(M, h) are cancelled, as A1 is coprime to B, h and E1, k to B, and
    M to B1 and E1.
    """
    (k, a1, e1), (h, c1, b1) = u.num.gcd(v.den, cofactors=True), v.num.gcd(u.den, cofactors=True)
    m = a1 * c1 + (b1 * e1).scale(b)
    (_, k1, e2), (_, m1, h1) = k.gcd(e1, cofactors=True), m.gcd(h, cofactors=True)
    return 1 / u, RationalFunction._coprime(-(k1 * a1 * m1), h1 * b1 * b1 * e2)


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


def _side(p_form: bool, c, b, inverted: bool, t, u, v, v2, k2):
    """t*u' and t*v' on one side, (x, y) or (z, w), of the coupled system,
    given v2 = 2 * v.

    Its own part has the P form (x, y of D4) or the Q form (z, w of D4) with
    the parameters c and b, one formula in Horner form: (r, e, s) = (1, c, t)
    for P and (t, -c, 1) for Q.  k2 is twice the other side's coupling
    coordinate k; the coupling term of the Hamiltonian is -2 * y * w in D4
    coordinates, and on an inverted side y or w is -u*(u*v + b).  Factored,
    the field keeps the expanded one's B (`_degree_bounds`), as
    a + max(b, c) = max(a + b, a + c).
    """
    r, e, s = (1, c, t) if p_form else (t, -c, 1)
    if inverted:
        return u * (u * (v2 - r + k2) + e) + s, v * (2 * u * (r - v - k2) - e) + b * (r - k2)
    return u * (u * (v2 - r) + e) + s - k2, v * (2 * u * (r - v) - e) + b * r


def vector_field(system: System, chart: Chart, alphas):
    """RHS(t, x, y, z, w) of t*X' = RHS for the system in the chart.

    All three systems are D4 seen through charts: a side (x, y) or (z, w)
    is either in D4's coordinates or inverted by `invert_side`, which turns
    its P form into the Q form and back; `INVERTED_SIDES` says which.
    The parameters are D4's, c = `to_d4_alphas(system, alphas)`: s = c0 + c1
    and g = 1 - c3 - c4, each moved by 2*b (b = c1, c3) on an inverted side.

    The returned function uses only +, - and *, so one definition, traced
    once per system, chart and kind (`_program`), serves the residuals' degree
    bound, the exact point values and the float integrator; the alphas may
    be Fractions, floats or the tracer's recording values.
    """
    x_inverted, z_inverted = _check_chart(system, chart)
    c0, a1, _, a3, c4 = to_d4_alphas(system, alphas)
    s = c0 + a1 - (2 * a1 if x_inverted else 0)
    g = 1 - a3 - c4 + (2 * a3 if z_inverted else 0)

    def field(t, x, y, z, w):
        # a side in D4's coordinates couples the other by 2v, which it takes itself
        y2, w2 = 2 * y, 2 * w
        ky2 = 2 * (-x * (x * y + a1)) if x_inverted else y2
        kw2 = 2 * (-z * (z * w + a3)) if z_inverted else w2
        return (*_side(not x_inverted, s, a1, x_inverted, t, x, y, y2, kw2),
                *_side(z_inverted, g, a3, z_inverted, t, z, w, w2, ky2))

    return field


def _recorder(op, swap=False):
    """The _Traced method for op; swap for the reflected one, as in 2 * x."""
    return lambda self, other=None: self._step(op, *((other, self) if swap else (self, other)))


class _Traced:
    """A named value that records each +, - or * it takes part in, with
    another _Traced or an int, Fraction or float constant, as one step
    (out, op, a, b) of a trace.  `inner` marks the values that depend on t
    or the state, not on the alphas alone."""

    __slots__ = ("trace", "name", "inner")

    def __init__(self, trace: list, name: str, inner: bool):
        self.trace, self.name, self.inner = trace, name, inner

    def _step(self, op, a, b=None):
        inner = any(isinstance(v, _Traced) and v.inner for v in (a, b))
        out = _Traced(self.trace, f"v{len(self.trace)}", inner)
        self.trace.append((out, op, a, b))
        return out

    __add__, __sub__, __mul__, __neg__ = (_recorder(op) for op in ("+", "-", "*", "neg"))
    __radd__, __rsub__, __rmul__ = (_recorder(op, swap=True) for op in "+-*")


def _float_step(out, op, a, b, exponents):
    """One traced step in floats, with each constant as the float that
    Python's mixed arithmetic would convert it to."""
    a, b = (v.name if isinstance(v, _Traced) else repr(float(v)) for v in (a, b or 0))
    return f"-{a}" if op == "neg" else f"{a} {op} {b}"


_BASES = ("ad", "xd", "yd", "zd", "wd")  # the alphas' common denominator, x's at the point, ...


def _combine(op, a, b):
    """The exponents of `a op b`, for `_exact_step` and `_degree_bounds`
    alike: a product adds those of a and b, a sum or difference takes the
    elementwise larger ones, and a negation passes a's through."""
    if op == "neg":
        return a
    return tuple(map(operator.add if op == "*" else max, a, b))


def _exact_step(out, op, a, b, exponents):
    """One traced step on exact values, each a numerator over the monomial
    prod _BASES[k]**e[k], e = exponents[name] (`_combine`), so that only
    the numerator is computed; a sum first raises both terms to its
    exponents.  Constants are ints."""
    assert all(isinstance(v, (_Traced, int)) for v in (a, b or 0)), "a constant is no int"
    (an, ae), (bn, be) = ((v.name, exponents[v.name]) if isinstance(v, _Traced)
                          else (str(v), (0,) * len(_BASES)) for v in (a, b or 0))
    e = exponents[out.name] = _combine(op, ae, be)
    if op == "neg":
        return f"-{an}"
    if op != "*":
        an, bn = (" * ".join([n, *(base for base, k, j in zip(_BASES, e, f) for _ in range(k - j))])
                  for n, f in ((an, ae), (bn, be)))
    return f"{an} {op} {bn}"


_PROGRAMS = {}  # (system, chart, kind) -> (factory, steps, result slots); at most 7 * 2 entries


def _program(system: System, chart: Chart, kind: str):
    """(make, steps, result slots): `vector_field` of the system in the
    chart as straight-line Python, built on first use by tracing it once,
    with the trace's steps on t and the state, prepared once for
    `_degree_bounds` to run on exponents, and its results' slots there.
    Steps on the alphas alone run once per call of the factory, the others
    once per call of its result.

    kind "float": make(a0, ..., a4) -> field(t, v), which returns
    [RHS_i / t] with the float operations of `vector_field` in its order,
    so equal (==) to its values over t.  kind "pair": make(ad, a0, ...,
    a4), with a_i / ad the alphas, -> field(t, x, xd, ..., w, wd, tx, ...,
    tw), the numerators of the residuals t*X' - RHS over their monomial
    denominators (`_exact_step`) at an integer t, given each component as
    x / xd and its t-derivative as tx / xd**2, ints.
    """
    key = system, chart, kind
    if key not in _PROGRAMS:
        trace = []
        alphas = [_Traced(trace, f"a{i}", False) for i in range(5)]
        t, *state = (_Traced(trace, name, True) for name in "txyzw")
        results = rhs = vector_field(system, chart, alphas)(t, *state)
        if kind == "float":
            step, exponents, inner = _float_step, None, ["x, y, z, w = v"]
            args, inner_args = "a0, a1, a2, a3, a4", "t, v"
            result = "[" + ", ".join(f"{v.name} / t" for v in results) + "]"
        else:
            t_derivatives = [_Traced(trace, f"t{v.name}", True) for v in state]
            step, inner = _exact_step, []
            def over(base, power=1):
                return tuple(power * (b == base) for b in _BASES)

            # t over 1, each alpha over ad, x over xd and its t-derivative tx over xd**2, ...
            exponents = {"t": over("", 0), **{v.name: over("ad") for v in alphas},
                         **{v.name: over(f"{v.name}d") for v in state},
                         **{f"t{v.name}": over(f"{v.name}d", 2) for v in state}}
            args = "ad, a0, a1, a2, a3, a4"
            inner_args = ", ".join(["t", *(f"{v.name}, {v.name}d" for v in state),
                                    *(v.name for v in t_derivatives)])
            results = [td - r for td, r in zip(t_derivatives, rhs)]
            result = ", ".join(v.name for v in results)
        outer = []
        for out, op, a, b in trace:
            (inner if out.inner else outer).append(f"{out.name} = {step(out, op, a, b, exponents)}")
        source = "\n".join([f"def make({args}):", *(f"    {line}" for line in outer),
                            f"    def field({inner_args}):", *(f"        {line}" for line in inner),
                            f"        return {result}", "    return field"])
        namespace = {}
        exec(compile(source, f"<{kind} field of {system.value} in chart {chart.value}>", "exec"),
             namespace)
        # the trace's inner steps as (op, slot of a, slot of b) on a list that
        # `_degree_bounds` fills: slot 0 for a constant or a value of the alphas
        # alone, then t, x, ..., w, tx, ..., tw, then each step's value in turn
        slots = {name: k for k, name in enumerate(["t", *"xyzw", *(f"t{v}" for v in "xyzw")], 1)}
        steps = []
        for out, op, a, b in trace:
            if out.inner:
                steps.append((op, *(slots.get(getattr(v, "name", None), 0) for v in (a, b))))
                slots[out.name] = len(slots) + 1
        _PROGRAMS[key] = namespace["make"], steps, [slots[v.name] for v in results]
    return _PROGRAMS[key]


def float_rhs(system: System, chart: Chart, alphas):
    """rhs(t, v) = [RHS_i(t, *v) / t], X' of t*X' = RHS for float alphas,
    compiled from `vector_field` and equal (==) to its values over t."""
    return _program(system, chart, "float")[0](*alphas)


def _horner(coeffs, p: int):
    """(f(p), f'(p)) for the integer polynomial with coefficients coeffs."""
    value = slope = 0
    for c in reversed(coeffs):
        slope = slope * p + value
        value = value * p + c
    return value, slope


def _horner_pm(halves, q: int):
    """((f(q), f'(q)), (f(-q), f'(-q))) for f(t) = E(t**2) + t * O(t**2), given
    the integer coefficients halves = (E, O): one `_horner` run of each at q**2,
    as f'(t) = O(t**2) + 2 t**2 O'(t**2) + 2 t E'(t**2)."""
    qq = q * q
    (e, e1), (o, o1) = _horner(halves[0], qq), _horner(halves[1], qq)
    odd, slope, odd_slope = q * o, o + 2 * qq * o1, 2 * q * e1
    return (e + odd, slope + odd_slope), (e - odd, slope - odd_slope)


def _degree_bounds(system: System, chart: Chart, comps):
    """The distinct denominators D_k of the components and, per residual,
    (B, e): the residual times prod_k D_k**e[k] is a polynomial of degree
    at most B.  The pair program's steps (`_program`) run on tuples (h, *e)
    by `_combine`, each bounding deg N - sum_k e[k] * deg D_k by h for
    N / prod_k D_k**e[k]: a constant is all 0, t is (1, 0, ...), a component
    N_c / D_c (deg N_c - deg D_c) with 1 at D_c, its t-derivative the same
    with 2 there."""
    dens = list(dict.fromkeys(c.den for c in comps))
    _, steps, results = _program(system, chart, "pair")
    zero = (0,) * (len(dens) + 1)
    values = [zero, (1, *zero[1:])]
    for power in (1, 2):
        values += [(c.num.degree - c.den.degree, *(power * (d == c.den) for d in dens)) for c in comps]
    for op, a, b in steps:
        values.append(_combine(op, values[a], values[b]))
    return dens, [(h + sum(k * d.degree for k, d in zip(e, dens)), tuple(e))
                  for h, *e in (values[r] for r in results)]


def _residuals_vanish(params: ParameterTuple, sol: SolutionTuple, points=None) -> bool:
    """Whether the residuals of sol vanish at the first `points` of t = 1, -1,
    2, -2, ... (of t >= 1 for one point) where no denominator vanishes (by default
    B + 1, `_degree_bounds`), by the compiled pair program of the system and chart."""
    system, chart, alphas, comps = params.system, sol.chart, params.alphas, sol.components()
    signs = (1,) if points == 1 else (1, -1)
    if points is None:
        points = max(b for b, _ in _degree_bounds(system, chart, comps)[1]) + 1
    ints, ad = _integers(alphas)
    residuals = _program(system, chart, "pair")[0](ad, *ints)
    # c = (sn / sd) * n / d on the integer images, split into even and odd
    # halves for `_horner_pm`; a monic den is keyed by its image d
    images = [c._image() for c in comps]
    dens = list(dict.fromkeys(d for _, d, _, _ in images))
    keyed = [((n[::2], n[1::2]), sn, sd, sn * sd, dens.index(d)) for n, d, sn, sd in images]
    dens = [(d[::2], d[1::2]) for d in dens]
    q = 0
    while points > 0:
        q += 1
        at = [_horner_pm(d, q) for d in dens]
        at_nums = [_horner_pm(f, q) for f, *_ in keyed]
        for i, sign in enumerate(signs):
            if not points or not all(pm[i][0] for pm in at):
                continue
            p, values, t_derivatives = sign * q, [], []
            for (_, sn, sd, snsd, k), pm in zip(keyed, at_nums):
                nv, ns = pm[i]
                dv, ds = at[k][i]
                values += sn * nv, sd * dv
                # t * c' = sn * t * (n' d - n d') / (sd * d**2), over (sd * d)**2
                t_derivatives.append(snsd * p * (ns * dv - nv * ds))
            if any(residuals(p, *values, *t_derivatives)):
                return False
            points -= 1
    return True


def _invert_sides(c, x_inverted: bool, z_inverted: bool, x, y, z, w):
    """(x, y, z, w) with the flagged sides inverted by `invert_side`, with
    b = c1 and c3: every system's a1 and a3, which `to_d4_alphas` keeps."""
    if x_inverted:
        x, y = invert_side(x, y, c[1])
    if z_inverted:
        z, w = invert_side(z, w, c[3])
    return x, y, z, w


def _d4_image(params: ParameterTuple, sol: SolutionTuple):
    """The D4 parameters and solution equivalent to (params, sol), with the
    inverted sides of sol's chart undone; ChartMismatch for another chart."""
    sides = _check_chart(params.system, sol.chart)
    if any(inv and u.is_zero() for inv, u in zip(sides, (sol.x, sol.z))):
        raise UndefinedAction("an inverted side with u == 0 solves no system")
    comps = _invert_sides(params.alphas, *sides, *sol.components())
    return (ParameterTuple(System.D4, to_d4_alphas(params.system, params.alphas)),
            SolutionTuple(Chart.AFFINE, *comps))


def _settle(system: System, c, x, y, z, w) -> SolutionTuple:
    """The inverse of `_d4_image`, at the D4 parameters c: each side is
    inverted where the system's affine chart inverts it, unless its u is
    identically zero, which marks an infinite chart."""
    affine = INVERTED_SIDES[system, Chart.AFFINE]
    sides = [inv and not u.is_zero() for inv, u in zip(affine, (x, z))]
    return SolutionTuple(_CHART_OF[(system, *sides)], *_invert_sides(c, *sides, x, y, z, w))


def is_solution(params: ParameterTuple, sol: SolutionTuple) -> bool:
    """Whether sol solves the system in its chart, decided exactly.

    Each residual t*X' - RHS is N / prod_k D_k**e[k] over the components'
    denominators D_k, with deg N <= B (`_degree_bounds`).  N is zero iff
    it vanishes at B + 1 distinct points, so the pair program (`_program`)
    evaluates the residuals exactly at t = 1, -1, 2, -2, ... (`_horner_pm`),
    skipping the points where some D_k vanishes, until B + 1 points have
    passed (Schwartz 1980, Zippel 1979).

    One path for every system and chart, `construct_rational_solution`'s
    too: `_d4_image`, the identity on D4, carries the input to D4's cubic
    field; `vector_field` is D4's field conjugated by the same involutions,
    so the verdict is the same.  A chart with an inverted side is first
    screened at one point, the first t >= 1 where no D_k vanishes, by the
    +q half of the same paired runs, which rejects most non-solutions and
    any inverted side with u == 0 (its u-residual is -t or -1).
    """
    if any(_check_chart(params.system, sol.chart)) and not _residuals_vanish(params, sol, 1):
        return False
    return _residuals_vanish(*_d4_image(params, sol))


def hamiltonian_polynomial(alphas):
    """H(t, x, y, z, w), the B4 Hamiltonian, with +, - and * only: like
    `vector_field`, one definition for any values with those operations:
    truncated Laurent series in `verify.invariant_report`, and rational
    functions and sympy symbols in the tests.

    x^2 y (y - 1) + x (beta y - a1) + t y + z^2 w (w - 1) + z ((1 - 2 a4) w
    - a3) + t w + 2 y z (z w + a3) with t, x and z factored out and z w
    taken once: 8 products of two non-scalars, not 13.  Each chain of
    products multiplies at most four of t, x, y, z, w (x x y y, z z w w,
    z y z w, t y), the bound behind `verify._expansions`' window.
    """
    a0, a1, a2, a3, a4 = alphas
    beta = 1 - 2 * a2 - 2 * a3 - 2 * a4

    def h(t, x, y, z, w):
        zw = z * w
        return (t * (y + w) + x * (x * y * (y - 1) + beta * y - a1)
                + z * (zw * (w - 1) + (1 - 2 * a4) * w - a3 + 2 * y * (zw + a3)))

    return h
