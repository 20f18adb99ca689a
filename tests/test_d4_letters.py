"""Every B4 and D5 generator is a D4 letter under the linear parameter map.

The equivalence D4 -> B4 or D5 (`equivalence_map`) carries each D4 letter
to its B4 or D5 generator: on parameters, on solutions with the charts
they land in, and on where the action is undefined.  An inverted side
whose u is identically zero solves no system, and every generator
refuses it.  `act_word` runs a whole word in D4's coordinates; the letters
written on inverted sides and settled after each one are its reference.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    b4_m3_infinite_solution,
    d5,
    d5_r1_infinite_solution,
    d5_r3_infinite_solution,
    d5_r5_infinite_solution,
    from_lattice,
    push_word,
    random_standard_form,
)
from sasano import (
    Chart,
    Generator,
    ParameterTuple,
    RF,
    SolutionTuple,
    System,
    UndefinedAction,
    act_params,
    act_solution,
    act_word,
    construct_rational_solution,
    equivalence_map,
    parse_word,
    seed_solution,
    shift_word,
    solve_last_alpha,
)
from sasano import backlund, systems
from sasano.backlund import PRIMITIVES, SHIFTS

T = RF.t()
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# the D4 letter of each B4 and D5 generator
LETTER = {
    System.B4: {"s0": "s0", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "pi2",
                "pi1": "pi1", "pi2": "pi3"},
    System.D5: {"s0": "pi1", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "pi2",
                "psi": "pi3"},
}


def _b4_seed():
    p = random_standard_form(System.B4, random.Random(5))
    return p, seed_solution(p)


def _b4_m3():
    a0, a1 = F(1, 7), F(1, 5)
    p = ParameterTuple(System.B4, (a0, a1, (1 - a0 - a1 - 1) / 2, F(1, 2), F(0)))
    return p, b4_m3_infinite_solution(p)


def _d5_affine():
    # the y == 0 family, at a0 + a1 = a3 + a4 = 0
    a1, a4 = F(1, 3), F(1, 5)
    p = d5(-a1, a1, "1/2", -a4, a4)
    return p, SolutionTuple(Chart.AFFINE, RF.const(-1 / (2 * a1)), RF.ZERO, T / (2 * a4), RF.ZERO)


def _d5_r1():
    p = d5(0, "1/2", "-1/2", "1/4", "1/4")
    return p, d5_r1_infinite_solution(p)


def _d5_r3():
    p = d5("1/5", "1/10", "-3/10", "1/2", 0)
    return p, d5_r3_infinite_solution(p)


def _d5_r5():
    return d5(0, "1/5", "1/10", "1/5", 0), d5_r5_infinite_solution()


def _d4_seed():
    p = random_standard_form(System.D4, random.Random(7))
    return p, seed_solution(p)


# D4 solutions, among them images of infinite ones with x == 0 or z == 0
D4_FIXTURES = [pytest.param(_d4_seed, id="d4")] + [
    pytest.param(lambda make=make: systems._d4_image(*make()), id=make.__name__[1:])
    for make in (_b4_m3, _d5_affine, _d5_r1, _d5_r3, _d5_r5)
]


def _image(g, p, sol):
    """(parameters, solution) of g's image, or None where it is undefined."""
    try:
        return act_params(g, p), act_solution(g, p, sol)
    except UndefinedAction:
        return None


@pytest.mark.parametrize("target", [System.B4, System.D5])
@pytest.mark.parametrize("make", D4_FIXTURES)
@SETTINGS
@given(letters=st.lists(st.integers(0, 12), max_size=3))
def test_each_letter_is_its_d4_letter_under_the_equivalence(target, make, letters):
    p, sol = make()
    names = PRIMITIVES[System.D4] + SHIFTS[System.D4]
    c, d4_sol = push_word(p, sol, [names[i % len(names)] for i in letters])
    q, image = equivalence_map(System.D4, target, c, d4_sol)
    for name, d4_name in LETTER[target].items():
        direct = _image(Generator(target, name), q, image)
        via_d4 = _image(Generator(System.D4, d4_name), c, d4_sol)
        if via_d4 is not None:
            via_d4 = equivalence_map(System.D4, target, *via_d4)
        assert direct == via_d4, (name, d4_name)


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)

# the B4 and D5 parameter maps written in each system's own coordinates:
# the reference for `act_params`, which acts by D4's maps on `to_d4_alphas`
WRITTEN_MAPS = {
    System.B4: {
        "s0": lambda a0, a1, a2, a3, a4: (-a0, a1, a2 + a0, a3, a4),
        "s1": lambda a0, a1, a2, a3, a4: (a0, -a1, a2 + a1, a3, a4),
        "s2": lambda a0, a1, a2, a3, a4: (a0 + a2, a1 + a2, -a2, a3 + a2, a4),
        "s3": lambda a0, a1, a2, a3, a4: (a0, a1, a2 + a3, -a3, a4 + a3),
        "s4": lambda a0, a1, a2, a3, a4: (a0, a1, a2, a3 + 2 * a4, -a4),
        "pi1": lambda a0, a1, a2, a3, a4: (a1, a0, a2, a3, a4),
        "pi2": lambda a0, a1, a2, a3, a4: (2 * a4 + a3, a3, a2, a1, (a0 - a1) / 2),
    },
    System.D5: {
        "s0": lambda a0, a1, a2, a3, a4: (-a0, a1 + 2 * a0, a2, a3, a4),
        "s1": lambda a0, a1, a2, a3, a4: (a0 + a1, -a1, a2 + a1, a3, a4),
        "s2": lambda a0, a1, a2, a3, a4: (a0, a1 + a2, -a2, a3 + a2, a4),
        "s3": lambda a0, a1, a2, a3, a4: (a0, a1, a2 + a3, -a3, a4 + a3),
        "s4": lambda a0, a1, a2, a3, a4: (a0, a1, a2, a3 + 2 * a4, -a4),
        "psi": lambda a0, a1, a2, a3, a4: (a4, a3, a2, a1, a0),
    },
}


def _random_word(system, tokens):
    """The text of a word drawn as (index, inverse) pairs, shift tokens
    included, and its letters in order."""
    names = PRIMITIVES[system] + SHIFTS[system]
    text, letters = [], []
    for i, inverse in tokens:
        name = names[i % len(names)]
        if name in SHIFTS[system]:
            shift = [str(g) for g in shift_word(system, int(name[1]))]
            letters += shift[::-1] if inverse else shift
            text.append(f"inv({name})" if inverse else name)
        else:
            letters.append(name)
            text.append(name)
    return " ".join(text), letters


@pytest.mark.parametrize("system", [System.B4, System.D5])
@SETTINGS
@given(first=st.lists(_FRACTIONS, min_size=4, max_size=4),
       tokens=st.lists(st.tuples(st.integers(0, 10), st.booleans()), max_size=6))
def test_parameter_maps_are_the_d4_maps_conjugated_by_the_linear_map(system, first, tokens):
    p = ParameterTuple(system, (*first, solve_last_alpha(system, first)))
    assert backlund.D4_LETTER[system] == LETTER[system]
    for name, written in WRITTEN_MAPS[system].items():
        assert act_params(Generator(system, name), p).alphas == written(*p.alphas)

    # a random word, shift tokens included, against the written maps
    # folded letter by letter
    text, letters = _random_word(system, tokens)
    alphas = p.alphas
    for name in letters:
        alphas = WRITTEN_MAPS[system][name](*alphas)
    assert act_word(parse_word(system, text), p)[0].alphas == alphas


def test_t_flip_letters_are_the_d4_ones():
    flipping = {s: {g for g in PRIMITIVES[s] if backlund.D4_LETTER[s][g] in backlund.T_FLIP}
                for s in System}
    assert flipping == {System.B4: {"s4", "pi1"}, System.D4: {"pi1", "pi2"},
                        System.D5: {"s0", "s4"}}


@pytest.mark.parametrize("make, index", [
    (_b4_seed, 2), (_d5_affine, 0), (_d5_affine, 2), (_d5_r1, 2), (_d5_r3, 0),
])
def test_every_letter_refuses_an_identically_zero_inverted_side(make, index):
    p, sol = make()
    assert systems.INVERTED_SIDES[p.system, sol.chart][index // 2]
    comps = list(sol.components())
    comps[index] = RF.ZERO
    broken = SolutionTuple(sol.chart, *comps)
    for name in PRIMITIVES[p.system]:
        with pytest.raises(UndefinedAction):
            act_solution(Generator(p.system, name), p, broken)


# -- the letters written on inverted sides -----------------------------------
#
# Each letter written for sides in D4's coordinates or inverted by
# `invert_side`, with the image settled in the system's charts after every
# letter: the reference for `act_word`, which converts a solution to D4's
# coordinates once, runs plain D4 letters and settles once at the end.

def _written_s_side(name, b, inverted, u, v):
    """s1 on (x, y) or s3 on (z, w), u -> u + b/v in either coordinates:
    the image side's flag and components."""
    if inverted and v.is_zero():
        # in D4's coordinates the side is (1/u, -b*u) and its image
        # (0, -b*u), which only D4's coordinates can hold
        return (True, u, v) if b == 0 else (False, RF.ZERO, -b * u)
    if not backlund._acts(name, v, b, 1):
        return inverted, u, v
    u = u + b / v
    if inverted and u.is_zero():  # v == 0 in D4 coordinates, with b != 0
        raise UndefinedAction(f"{name} divides by an identically zero component")
    return inverted, u, v


def _written_letter(name, c, x_inv, z_inv, x, y, z, w):
    """D4's letter `name` at the D4 parameters c on the sides (x, y) and
    (z, w), each in D4's coordinates or, where its flag is set, inverted.
    Returns the image's flags and components, before any t -> -t.  No
    system meets s0, s4 or pi4 on an inverted side."""
    if name == "s0":
        if backlund._acts(name, y - 1, c[0], 1):
            x = x + c[0] / (y - 1)
    elif name == "s1":
        x_inv, x, y = _written_s_side(name, c[1], x_inv, x, y)
    elif name == "s2":
        # y and w move by -c2 * (dy, dw) / d, with d = x*z - 1 and (dy, dw)
        # = (z, x) when both sides or neither are inverted; one inverted side
        # turns them into x - z and (1, -1)
        mixed = x_inv != z_inv
        d = x - z if mixed else x * z - 1
        if backlund._acts(name, d, c[2], 1):
            dy, dw = (1, -1) if mixed else (z, x)
            y, w = y - c[2] * dy / d, w - c[2] * dw / d
    elif name == "s3":
        z_inv, z, w = _written_s_side(name, c[3], z_inv, z, w)
    elif name == "s4":
        if backlund._acts(name, w - T, c[4], 1):
            z = z + c[4] / (w - T)
    elif name == "pi1":
        y = -y + (c[0] - c[1]) / x - 1 / (x * x) if x_inv else 1 - y
        x, z, w = -x, -z, -w
    elif name == "pi2":
        w = w - (c[4] - c[3]) / z + T / (z * z) if z_inv else w - T
    elif name == "pi3":
        # the sides swap, each keeping its coordinates
        x_side = (z / T, T * w) if z_inv else (T * z, w / T)
        z_side = (T * x, y / T) if x_inv else (x / T, T * y)
        (x, y), (z, w), x_inv, z_inv = x_side, z_side, z_inv, x_inv
    else:  # pi4
        x, y, z, w = -(T * z), (T - w) / T, -(x / T), T - T * y
    return x_inv, z_inv, x, y, z, w


def _written_settle(system, c, x_inv, z_inv, x, y, z, w):
    """The image written as the system's affine chart writes it, except a
    side in D4's coordinates with u identically zero; this also undoes an
    inversion no chart of the system makes (B4's x-side after pi2)."""
    x_affine, z_affine = systems.INVERTED_SIDES[system, Chart.AFFINE]
    if x_inv != x_affine and not x.is_zero():
        x_inv, (x, y) = x_affine, systems.invert_side(x, y, c[1])
    if z_inv != z_affine and not z.is_zero():
        z_inv, (z, w) = z_affine, systems.invert_side(z, w, c[3])
    return SolutionTuple(systems._CHART_OF[system, x_inv, z_inv], x, y, z, w)


def _written_fold(p, sol, letters):
    """(p, sol) carried by the written letters one at a time, the image
    settled in the system's charts after each."""
    system = p.system
    c = systems.to_d4_alphas(system, p.alphas)
    for letter in letters:
        name = backlund.D4_LETTER[system][letter]
        image = backlund._D4_PARAMS_MAPS[name](*c)
        x_inv, z_inv = systems.INVERTED_SIDES[system, sol.chart]
        if (x_inv and sol.x.is_zero()) or (z_inv and sol.z.is_zero()):
            raise UndefinedAction("an inverted side with u == 0 solves no system")
        *flags, x, y, z, w = _written_letter(name, c, x_inv, z_inv, *sol.components())
        if name in backlund.T_FLIP:
            x, y, z, w = (v.substitute_negate() for v in (x, y, z, w))
        sol = _written_settle(system, image, *flags, x, y, z, w)
        c = image
    return ParameterTuple(system, systems.from_d4_alphas(system, c)), sol


CHART_FIXTURES = [pytest.param(make, id=make.__name__[1:]) for make in (
    _b4_seed, _b4_m3, _d5_affine, _d5_r1, _d5_r3, _d5_r5, _d4_seed)]


@pytest.mark.parametrize("make", CHART_FIXTURES)
@SETTINGS
@given(tokens=st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=6))
def test_act_word_equals_the_written_letters_folded_one_by_one(make, tokens):
    p, sol = make()
    text, letters = _random_word(p.system, tokens)
    try:
        expected = _written_fold(p, sol, letters)
    except UndefinedAction:
        expected = None
    try:
        got = act_word(parse_word(p.system, text), p, sol)
    except UndefinedAction:
        got = None
    assert got == expected


@pytest.mark.parametrize("system, chart", [(System.B4, Chart.M3), (System.D5, Chart.R5)])
def test_an_empty_word_returns_the_solution_as_given(system, chart):
    # a solution with both sides in D4's coordinates, where no letter's
    # image is left unless a u is identically zero
    p = from_lattice(system, F(3, 2), F(1, 3), 1, F(2, 5))
    sol = systems._d4_image(p, construct_rational_solution(p).solution)[1]
    sol = SolutionTuple(chart, *sol.components())
    assert systems.is_solution(p, sol) and not (sol.x.is_zero() or sol.z.is_zero())
    q, image = act_word(parse_word(system, ""), p, sol)
    assert q == p and image is sol
    # s1 s1 is the identity, and its image is settled in the affine chart
    assert act_word(parse_word(system, "s1 s1"), p, sol)[1].chart is Chart.AFFINE


# -- reduced letter sequences ---------------------------------------------------

@pytest.mark.parametrize("letters, reduced", [
    ("s1 s2 s1 s2", "s2 s1"), ("s1 s3 s1", "s3"), ("s2 s1 s1 s2", ""), ("pi1 pi1", ""),
    # a replacement's letters arrive again: s2 s1 s2 s1 -> s1 s2 leaves s1 s3 s1
    ("s1 s3 s2 s1 s2 s1", "s3 s2"),
    # pi letters cancel only with themselves, s2 s1 s2 is already short
    ("pi1 s1 pi1", "pi1 s1 pi1"), ("s2 s1 s2", "s2 s1 s2"),
])
def test_reduced_hand_cases(letters, reduced):
    assert backlund._reduced(letters.split()) == reduced.split()


_D4_NAMES = tuple(backlund._D4_PARAMS_MAPS)


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.one_of(st.sampled_from(_D4_NAMES), st.sampled_from(("s1", "s2"))),
                      max_size=40),
       c=st.tuples(*[st.fractions(-3, 3, max_denominator=6)] * 5))
def test_reduced_letters_act_on_parameters_as_the_written_ones(names, c):
    # the parameter action is a group action, so the relations that
    # `_reduced` applies leave the folded parameters as they are
    reduced = backlund._reduced(names)
    assert len(reduced) <= len(names)
    assert backlund._reduced(reduced) == reduced
    c, den = systems._integers(c)
    assert backlund._fold(reduced, c, den) == backlund._fold(names, c, den)
