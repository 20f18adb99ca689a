"""Seeded inputs for the benchmark workloads.

Points are written in the lattice coordinates f1..f4 of
`sasano.classify` (the inverse map is `from_lattice`).  A rational
solution exists exactly when some condition slot pair holds one integer
and one half-odd integer; normalization moves that pair to f1 = 1/2 and
f3 = 0.  A point "at lattice distance n" puts 1/2 +- n and +-n on such a
pair, so its witness word holds n translations for each of the two
slots, and the denominator degree of the solution grows roughly with n².
The other two slots take generic values with denominator 3, 4 or 5,
which are never integers or half-integers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sasano import (
    Chart,
    ParameterTuple,
    RF,
    SolutionTuple,
    System,
    UndefinedAction,
    act_word,
    construct_rational_solution,
    parse_word,
    rat_str,
)
from sasano.backlund import PRIMITIVES, SHIFTS

SYSTEMS = (System.B4, System.D4, System.D5)
HALF = Fraction(1, 2)

# slot pairs of the six existence conditions (sasano.classify.CONDITION_SLOTS)
CONDITION_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4), (1, 2), (3, 4))

GENERIC_DENOMINATORS = (3, 4, 5)
GENERIC_FRACTIONS = tuple(
    Fraction(a, b) for b in GENERIC_DENOMINATORS for a in range(1, b) if Fraction(a, b).denominator == b
)


def from_lattice(system: System, f) -> ParameterTuple:
    f1, f2, f3, f4 = (Fraction(v) for v in f)
    if system is System.B4:
        alphas = (1 - f1 - f2, f1 - f2, f2 - f3, f3 - f4, f4)
    elif system is System.D4:
        alphas = (1 - f1 - f2, f1 - f2, f2 - f3, f3 - f4, f3 + f4)
    else:
        alphas = (HALF - f1, f1 - f2, f2 - f3, f3 - f4, f4)
    return ParameterTuple(system, alphas)


def generic_value(rng: random.Random, denominator: int | None = None) -> Fraction:
    """A generic coordinate: a fraction of denominator 3, 4 or 5, of the
    given one if any, plus an integer offset of -1, 0 or 1."""
    choices = (GENERIC_FRACTIONS if denominator is None
               else [f for f in GENERIC_FRACTIONS if f.denominator == denominator])
    return rng.choice(choices) + rng.randint(-1, 1)


def lattice_point(rng: random.Random, system: System, n: int) -> ParameterTuple:
    """A point with a rational solution at lattice distance n, on a random
    condition slot pair with random signs."""
    pair = rng.choice(CONDITION_PAIRS)
    half_slot, int_slot = pair if rng.random() < 0.5 else pair[::-1]
    f = [generic_value(rng) for _ in range(4)]
    f[half_slot - 1] = HALF + rng.choice((-n, n))
    f[int_slot - 1] = Fraction(rng.choice((-n, n)))
    return from_lattice(system, f)


def scaling_point(rng: random.Random, system: System, n: int, denominators) -> ParameterTuple:
    """A point (1/2 + n, g, n, g') with generic g, g' of the given pair of
    denominators: the shape of the ROADMAP baseline table, whose witness
    word is the same n translations for every seed."""
    g, g2 = (generic_value(rng, d) for d in denominators)
    return from_lattice(system, (HALF + n, g, n, g2))


def reference_point(system: System, n: int) -> ParameterTuple:
    """The ROADMAP baseline point (1/2 + n, 1/3, n, 2/5)."""
    return from_lattice(system, (HALF + n, Fraction(1, 3), n, Fraction(2, 5)))


def no_solution_point(rng: random.Random, system: System) -> ParameterTuple:
    """A point with no integer/half-odd split on any slot pair."""
    return from_lattice(system, [generic_value(rng) for _ in range(4)])


def standard_point(rng: random.Random, system: System) -> ParameterTuple:
    """A point in standard form I (f1 = 1/2, f3 = 0), where the seed lives."""
    return from_lattice(system, (HALF, generic_value(rng), 0, generic_value(rng)))


# Lattice shapes whose solutions have an identically infinite component:
# z = inf needs f4 = 0 with f3 half-odd, x = inf (D5) needs f1 = 1/2 with
# f2 = 0, and both (D5 r5) need f1 = 1/2 with f4 = 0.
_CHART_SHAPES = {
    (System.B4, Chart.M3): lambda r: (generic_value(r), generic_value(r), HALF + r.randint(-1, 1), 0),
    (System.D5, Chart.R1): lambda r: (HALF, 0, generic_value(r), generic_value(r)),
    (System.D5, Chart.R3): lambda r: (generic_value(r), generic_value(r), HALF + r.randint(-1, 1), 0),
    (System.D5, Chart.R5): lambda r: (HALF, generic_value(r), generic_value(r), 0),
}
CHARTS = tuple(_CHART_SHAPES)


def chart_point(rng: random.Random, system: System, chart: Chart, tries: int = 200):
    """A point whose constructed solution lives in the given chart, drawn
    from that chart's lattice shape until the construction lands there."""
    shape = _CHART_SHAPES[system, chart]
    for _ in range(tries):
        p = from_lattice(system, shape(rng))
        result = construct_rational_solution(p)
        if result.solution.chart is chart:
            return p, result.solution
    raise RuntimeError(f"no {system.value}/{chart.value} point in {tries} draws")


def corrupt(sol: SolutionTuple) -> SolutionTuple:
    """A copy of sol with 1 added to the constant term of the numerator of
    its first nonzero component."""
    name, comp = next(((n, c) for n, c in zip("xyzw", sol.components()) if not c.is_zero()),
                      ("x", sol.x))
    coeffs = list(comp.num.coeffs) or [Fraction(0)]
    coeffs[0] += 1
    return sol.replace(**{name: RF(coeffs, comp.den)})


def random_word(rng: random.Random, p: ParameterTuple, sol: SolutionTuple, max_len: int = 3):
    """A short random word whose action on (p, sol) is defined."""
    names = PRIMITIVES[p.system] + SHIFTS[p.system]
    while True:
        tokens = []
        for _ in range(rng.randint(1, max_len)):
            name = rng.choice(names)
            tokens.append(f"inv({name})" if name in SHIFTS[p.system] and rng.random() < 0.5 else name)
        text = " ".join(tokens)
        try:
            act_word(parse_word(p.system, text), p, sol)
        except UndefinedAction:
            continue
        return text


def alphas_arg(p: ParameterTuple) -> str:
    return ",".join(rat_str(a) for a in p.alphas)

