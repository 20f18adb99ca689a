"""Every B4 and D5 generator is a D4 letter under the linear parameter map.

The equivalence D4 -> B4 or D5 (`equivalence_map`) carries each D4 letter
to its B4 or D5 generator: on parameters, on solutions with the charts
they land in, and on where the action is undefined.  An inverted side
whose u is identically zero solves no system, and every generator
refuses it.
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
    alphas = p.alphas
    for name in letters:
        alphas = WRITTEN_MAPS[system][name](*alphas)
    assert act_word(parse_word(system, " ".join(text)), p)[0].alphas == alphas


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
