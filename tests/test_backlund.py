"""Group actions: parameter maps, solution maps, words, shifts, charts."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    b4,
    b4_m3_infinite_solution,
    d4,
    d5,
    d5_r1_infinite_solution,
    d5_r3_infinite_solution,
    d5_r5_infinite_solution,
    prop_x_zero_branch_solution,
    random_params,
    random_standard_form,
)
from sasano import (
    Chart,
    ChartMismatch,
    Generator,
    GeneratorWord,
    ParameterTuple,
    Polynomial,
    RF,
    SolutionTuple,
    System,
    UndefinedAction,
    act_params,
    act_solution,
    act_word,
    equivalence_map,
    invert_word,
    is_solution,
    parse_word,
    seed_solution,
    shift_word,
    word,
)
from sasano.backlund import PRIMITIVES, SHIFTS

T = RF.t()
HALF = RF.const(F(1, 2))


def alphas(p):
    return p.alphas


# -- parameter actions --------------------------------------------------------

def test_pi1_swaps_first_two():
    p = b4("3/8", "1/8", "1/8", "-1/4", "3/8")
    q = act_params(Generator(System.B4, "pi1"), p)
    assert q.alphas == (F(1, 8), F(3, 8), F(1, 8), F(-1, 4), F(3, 8))


def test_pi2_parameter_map():
    p = b4("3/8", "1/8", "1/8", "-1/4", "3/8")
    a0, a1, a2, a3, a4 = p.alphas
    q = act_params(Generator(System.B4, "pi2"), p)
    assert q.alphas == (2 * a4 + a3, a3, a2, a1, (a0 - a1) / 2)


def test_s0_with_zero_alpha0_fixes_parameters():
    p = b4(0, "1/8", "1/8", "-1/4", "9/16")
    q = act_params(Generator(System.B4, "s0"), p)
    assert q == p


def test_involutivity_on_parameters():
    rng = random.Random(41)
    for system in System:
        for _ in range(100):
            p = random_params(system, rng)
            for name in PRIMITIVES[system]:
                g = Generator(system, name)
                assert act_params(g, act_params(g, p)) == p


def test_normalization_preserved_by_every_generator():
    # ParameterTuple raises on violation, so surviving construction is
    # the check; run a spread of systems and generators
    rng = random.Random(43)
    for system in System:
        for _ in range(40):
            p = random_params(system, rng)
            for name in PRIMITIVES[system]:
                act_params(Generator(system, name), p)


def test_shift_identities_b4():
    rng = random.Random(47)
    vectors = {1: (1, -1, 0, 0, 0), 2: (-1, -1, 1, 0, 0), 3: (0, 0, -1, 1, 0), 4: (0, 0, 0, -1, 1)}
    for _ in range(100):
        p = random_params(System.B4, rng)
        for i, vec in vectors.items():
            q, _ = act_word(shift_word(System.B4, i), p)
            assert tuple(b - a for a, b in zip(p.alphas, q.alphas)) == tuple(map(F, vec))


def test_shift_identities_d4():
    rng = random.Random(53)
    vectors = {1: (1, 0, -1, 1, 0), 2: (0, 1, -1, 0, 1), 3: (0, 0, 0, 1, -1), 4: (0, 0, -1, 1, 1)}
    for _ in range(100):
        p = random_params(System.D4, rng)
        for i, vec in vectors.items():
            q, _ = act_word(shift_word(System.D4, i), p)
            assert tuple(b - a for a, b in zip(p.alphas, q.alphas)) == tuple(map(F, vec))


@pytest.mark.parametrize("system, i, message", [
    (System.D5, 1, "no shift operators for system d5"),
    (System.B4, 5, "shift index must be 1..4"),
    (System.D4, 0, "shift index must be 1..4"),
])
def test_shift_word_refuses_what_has_no_shift(system, i, message):
    with pytest.raises(ValueError, match=message):
        shift_word(system, i)


def test_act_word_refuses_a_word_of_another_system():
    p = b4("3/8", "1/8", "1/8", "-1/4", "3/8")
    with pytest.raises(ValueError, match="different systems"):
        act_word(word(System.D4, ["s1"]), p)


def test_empty_word_is_identity():
    p = b4("3/8", "1/8", "1/8", "-1/4", "3/8")
    q, _ = act_word(word(System.B4, []), p)
    assert q == p


def test_s3_squared_is_identity_on_parameters():
    rng = random.Random(59)
    for _ in range(20):
        p = random_params(System.B4, rng)
        q, _ = act_word(word(System.B4, ["s3", "s3"]), p)
        assert q == p


def test_t1_parameter_shift():
    p = b4("3/8", "1/8", "1/8", "-1/4", "3/8")
    q, _ = act_word(word(System.B4, ["T1"]), p)
    assert q.alphas == (F(11, 8), F(-7, 8), F(1, 8), F(-1, 4), F(3, 8))


def test_invert_word_restores_parameters():
    rng = random.Random(61)
    for system in System:
        names = PRIMITIVES[system] + (("T1", "T3") if system is not System.D5 else ())
        for _ in range(25):
            p = random_params(system, rng)
            tokens = [rng.choice(names) for _ in range(rng.randint(1, 6))]
            w = word(system, tokens)
            q, _ = act_word(w, p)
            back, _ = act_word(invert_word(w), q)
            assert back == p


def test_invert_single_involution():
    w = word(System.B4, ["s3"])
    assert invert_word(w).to_json() == ["s3"]
    w = word(System.B4, ["pi1", "s2"])
    assert invert_word(w).to_json() == ["s2", "pi1"]


def test_pi2_parameter_order_is_two():
    # the documented inverse-by-repetition search: iterate until identity
    rng = random.Random(67)
    for _ in range(20):
        p = random_params(System.B4, rng)
        g = Generator(System.B4, "pi2")
        q = p
        for steps in range(1, 13):
            q = act_params(g, q)
            if q == p:
                break
        assert steps == 2


def test_parse_word_with_inverse():
    w = parse_word(System.B4, "s3 T1 inv(T2) pi2")
    assert w.to_json() == ["s3", "T1", "inv(T2)", "pi2"]
    wi = parse_word(System.B4, "inv(s3 T1)")
    assert wi.to_json() == ["inv(T1)", "s3"]


# -- the word reader ----------------------------------------------------------

def _chunked_parse_token(system, text):
    """The reader's former token rule: inv(x) inside one chunk."""
    text = text.strip()
    if text.startswith("inv(") and text.endswith(")"):
        return _chunked_parse_token(system, text[4:-1]).inverted()
    canon = text.lower() if text.lower().startswith(("s", "p")) else text.upper()
    return Generator(system, canon)


def _chunked_parse_word(system, text):
    """The reader's former loop over whitespace chunks, where inv( ... )
    may span chunks but holds no nested spanning group: the reference on
    the words it accepts."""
    tokens = []
    chunks = text.replace(",", " ").split()
    i = 0
    while i < len(chunks):
        chunk = chunks[i]
        if chunk.startswith("inv(") and not chunk.endswith(")"):
            inner = [chunk[4:]]
            i += 1
            while i < len(chunks) and not chunks[i].endswith(")"):
                inner.append(chunks[i])
                i += 1
            if i == len(chunks):
                raise ValueError("unbalanced inv( in word")
            inner.append(chunks[i][:-1])
            sub = [_chunked_parse_token(system, c) for c in inner if c]
            tokens.extend(tok.inverted() for tok in reversed(sub))
        else:
            tokens.append(_chunked_parse_token(system, chunk))
        i += 1
    return GeneratorWord(system, tuple(tokens))


def _flatten(system, tree):
    """The tokens of a word tree: a name is one token, a tuple an inv( ... )
    group, inverted as a whole."""
    tokens = []
    for node in tree:
        if isinstance(node, str):
            tokens.append(Generator(system, node))
        else:
            tokens.extend(tok.inverted() for tok in reversed(_flatten(system, node)))
    return tokens


_GAPS = st.sampled_from([" ", ",", ", ", "  ", " , ", "\t"])


def _render(draw, tree):
    """The tree as text, with random gaps, commas and name casing; a gap
    may be empty only after a closing parenthesis or inside a group."""
    text = ""
    for k, node in enumerate(tree):
        if k:
            text += draw(st.just("") | _GAPS) if text.endswith(")") else draw(_GAPS)
        if isinstance(node, str):
            text += draw(st.sampled_from([node, node.lower(), node.upper(), node.capitalize()]))
        else:
            pad = st.just("") | _GAPS
            text += f"inv({draw(pad)}{_render(draw, node)}{draw(pad)})"
    return text


@pytest.mark.parametrize("system", list(System))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_word_reads_random_nested_words(system, data):
    names = st.sampled_from(PRIMITIVES[system] + SHIFTS[system])
    tree = data.draw(st.lists(st.recursive(names, lambda inner: st.lists(inner, max_size=3).map(tuple),
                                           max_leaves=10), max_size=5))
    text = _render(data.draw, tree)
    expected = GeneratorWord(system, tuple(_flatten(system, tree)))
    assert parse_word(system, text) == expected
    assert word(system, text.split()) == expected
    try:
        chunked = _chunked_parse_word(system, text)
    except ValueError:
        return  # the former reader refused nested or unspaced groups
    assert chunked == expected


@pytest.mark.parametrize("text, expected", [
    ("inv( s2 inv(pi2) )", ["pi2", "s2"]),
    ("inv(s1 inv(T1 s2))", ["T1", "s2", "s1"]),
    ("inv(T1)s2", ["inv(T1)", "s2"]),
    ("inv()", []),
    ("inv( inv( ) ) s1", ["s1"]),
    ("inv(inv(inv(T2)))", ["inv(T2)"]),
    ("S1,PI1 t2", ["s1", "pi1", "T2"]),
])
def test_parse_word_examples(text, expected):
    assert parse_word(System.B4, text).to_json() == expected


@pytest.mark.parametrize("text, message", [
    ("s1 )", "unmatched \\) in word"),
    ("inv(s1 T1", "unbalanced inv\\( in word"),
    ("s1 (s2)", "stray \\( in word"),
    ("inv(s1 (s2))", "stray \\( in word"),
    ("inv(s2 inv(pi9))", "unknown b4 generator 'pi9'"),
    ("s1inv(s2)", "unknown b4 generator 's1inv'"),
])
def test_parse_word_names_its_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_word(System.B4, text)


# -- solution actions ---------------------------------------------------------

def test_s3_on_w_zero_lands_in_m3():
    # w == 0 with a3 != 0: the image is the z == infinity solution
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p)
    g = Generator(System.B4, "s3")
    img = act_solution(g, p, sol)
    q = act_params(g, p)
    assert img.chart is Chart.M3
    assert img.z.is_zero()
    assert is_solution(q, img)
    # image components match the m3 representative of the new parameters
    assert img == b4_m3_infinite_solution(q)


def test_s1_identity_when_y_zero_and_alpha1_zero():
    p = d5(0, 0, "1/2", "-1/4", "1/4")
    sol = SolutionTuple(Chart.AFFINE, RF.const(2), RF.ZERO, T * 2, RF.ZERO)
    img = act_solution(Generator(System.D5, "s1"), p, sol)
    assert img == sol


def test_s1_undefined_when_denominator_vanishes_structurally():
    p = b4(0, "1/2", "1/8", "-1/4", "3/8")
    bad = SolutionTuple(Chart.AFFINE, T, RF.ZERO, T, RF.ONE)  # y == 0, a1 != 0
    with pytest.raises(UndefinedAction):
        act_solution(Generator(System.B4, "s1"), p, bad)


def test_act_word_folds_the_letters_as_written():
    # s1 s1 is the identity in the group, but act_word does not reduce a
    # word: its first s1 divides by y == 0 with c1 != 0 (rule 3)
    p = b4(0, "1/2", "1/8", "-1/4", "3/8")
    bad = SolutionTuple(Chart.AFFINE, T, RF.ZERO, T, RF.ONE)
    with pytest.raises(UndefinedAction):
        act_word(parse_word(System.B4, "s1 s1"), p, bad)



# s2 at the D4 parameters (1 - 2 c2, 0, c2, 0, 0) against its generic
# formulas y - c2 z/(xz - 1) and w - c2 x/(xz - 1)
def _s2(c2, x, y, z, w):
    return act_solution(Generator(System.D4, "s2"), d4(1 - 2 * c2, 0, c2, 0, 0),
                        SolutionTuple(Chart.AFFINE, x, y, z, w))


def _generic_s2(c2, x, y, z, w):
    d = x * z - 1
    return SolutionTuple(Chart.AFFINE, x, y - c2 * z / d, z, w - c2 * x / d)


_SMALL_POLY = st.lists(st.integers(-4, 4), max_size=4).map(Polynomial)


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(_SMALL_POLY, min_size=8, max_size=8),
       plant=st.sampled_from(["none", "h", "k"]),
       c2=st.builds(F, st.integers(-3, 3), st.integers(1, 3)))
def test_s2_over_one_denominator_equals_the_generic_formulas(parts, plant, c2):
    # x = k A1/(h B1) and z = h C1/(k E1), with k or h planted as t - 2 and
    # A1 C1 - B1 E1 then made to vanish at t = 2 where it can be
    a1, b1, c1, e1, k, h, yn, wn = parts
    b1, e1, k, h = (v or Polynomial.ONE for v in (b1, e1, k, h))
    root, at = Polynomial([-2, 1]), (lambda v: v.evaluate(2))
    if plant == "h":
        h = root
        if at(a1):
            c1 = c1 + Polynomial.const(at(b1) * at(e1) / at(a1) - at(c1))
    elif plant == "k":
        k = root
        if at(c1):
            a1 = a1 + Polynomial.const(at(b1) * at(e1) / at(c1) - at(a1))
    x, z = RF(k * a1, h * b1), RF(h * c1, k * e1)
    y, w = RF(yn, b1 * e1 * k), RF(wn, h)
    if (x * z - 1).is_zero():
        return
    assert _s2(c2, x, y, z, w) == _generic_s2(c2, x, y, z, w)


@pytest.mark.parametrize("x, z", [
    (1 / (T - 2), (T - 2) * (T - 1)),  # xz - 1 = t - 2 = gcd(C, B) = h
    ((T - 3) * (T - 2), 1 / (T - 3)),  # xz - 1 = t - 3 = gcd(A, E) = k
    (RF.ZERO, T), (T, RF.ZERO), (RF.ZERO, RF.ZERO),
])
@pytest.mark.parametrize("c2", [F(0), F(1, 3), F(-2)])
def test_s2_cancels_what_xz_minus_one_shares_with_the_gcds(x, z, c2):
    y, w = 1 / (T + 1), T / (T - 2)
    assert _s2(c2, x, y, z, w) == _generic_s2(c2, x, y, z, w)


def test_s2_on_xz_identically_one():
    x, z, y, w = (T + 1) / (T - 2), (T - 2) / (T + 1), T, 1 / T
    sol = SolutionTuple(Chart.AFFINE, x, y, z, w)
    assert _s2(F(0), x, y, z, w) == sol  # the identity convention
    with pytest.raises(UndefinedAction):
        _s2(F(1, 3), x, y, z, w)


def test_pi2_on_m3_infinite_with_equal_first_parameters():
    # a0 - a1 = 0 keeps the image at z == infinity
    a0 = a1 = F(1, 5)
    p = b4(a0, a1, (1 - a0 - a1 - 1) / 2, F(1, 2), 0)
    rep = b4_m3_infinite_solution(p)
    img = act_solution(Generator(System.B4, "pi2"), p, rep)
    assert img.chart is Chart.M3
    assert img == SolutionTuple(Chart.M3, RF.ZERO, HALF, RF.ZERO, T / 2)


def test_solution_mapping_property_b4():
    # every generator maps fixture solutions to solutions, chart-aware
    fixtures = []
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    fixtures.append((p, seed_solution(p)))
    p2 = b4("1/2", "1/2", "-1/2", "1/4", "1/4")
    fixtures.append((p2, prop_x_zero_branch_solution(p2)))
    a0, a1 = F(1, 7), F(1, 5)
    p3 = b4(a0, a1, (1 - a0 - a1 - 1) / 2, F(1, 2), 0)
    fixtures.append((p3, b4_m3_infinite_solution(p3)))
    p4 = b4(a0, a0, (1 - 2 * a0 - 1) / 2, F(1, 2), 0)
    fixtures.append((p4, b4_m3_infinite_solution(p4)))
    for p, sol in fixtures:
        assert is_solution(p, sol)
        for name in PRIMITIVES[System.B4]:
            g = Generator(System.B4, name)
            img = act_solution(g, p, sol)
            assert is_solution(act_params(g, p), img), (name, p.alphas)


def test_solution_mapping_property_d4():
    p = d4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p)
    for name in PRIMITIVES[System.D4]:
        g = Generator(System.D4, name)
        img = act_solution(g, p, sol)
        assert is_solution(act_params(g, p), img), name


def test_solution_mapping_property_d5():
    fixtures = []
    p = d5(0, "1/4", "1/4", "-1/4", "1/4")
    fixtures.append((p, seed_solution(p)))
    # x == infinity representative with a3 + a4 != 0 (needs a1 = 1/2)
    p2 = d5(0, "1/2", "-1/2", "1/4", "1/4")
    fixtures.append((p2, d5_r1_infinite_solution(p2)))
    # z == infinity representative (a3 = 1/2, a4 = 0)
    p3 = d5("1/5", "1/10", "-3/10", "1/2", 0)
    fixtures.append((p3, d5_r3_infinite_solution(p3)))
    # x == z == infinity representative (a0 = a4 = 0)
    p4 = d5(0, "1/5", "1/10", "1/5", 0)
    fixtures.append((p4, d5_r5_infinite_solution()))
    # finite solution of the y == 0 family (a0 + a1 = a3 + a4 = 0)
    a1, a4 = F(1, 3), F(1, 5)
    p5 = d5(-a1, a1, "1/2", -a4, a4)
    sol5 = SolutionTuple(Chart.AFFINE, RF.const(-1 / (2 * a1)), RF.ZERO, T / (2 * a4), RF.ZERO)
    fixtures.append((p5, sol5))
    for p, sol in fixtures:
        assert is_solution(p, sol), p.alphas
        for name in PRIMITIVES[System.D5]:
            g = Generator(System.D5, name)
            img = act_solution(g, p, sol)
            assert is_solution(act_params(g, p), img), (name, p.alphas, sol.chart)


def test_seed_orbit_under_random_words():
    rng = random.Random(71)
    for system in System:
        for _ in range(10):
            p = random_standard_form(system, rng)
            sol = seed_solution(p)
            names = [rng.choice(PRIMITIVES[system]) for _ in range(4)]
            q, img = act_word(word(system, names), p, sol)
            assert is_solution(q, img), (system, names)


def test_generators_are_involutions_on_solutions():
    # applying a generator twice restores the solution, also when the
    # first image passes through an infinite chart
    cases = [
        (b4("1/4", "1/4", "1/4", "-1/4", "1/4"), None),
        (d4("1/4", "1/4", "1/4", "-1/4", "1/4"), None),
        (d5(0, "1/4", "1/4", "-1/4", "1/4"), None),
    ]
    for p, _ in cases:
        sol = seed_solution(p)
        for name in PRIMITIVES[p.system]:
            g = Generator(p.system, name)
            q = act_params(g, p)
            img = act_solution(g, p, sol)
            back = act_solution(g, q, img)
            assert back == sol, (p.system, name)


def test_word_inverse_restores_solution():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p)
    w = word(System.B4, ["s3", "pi2", "T1", "s2"])
    q, img = act_word(w, p, sol)
    assert is_solution(q, img)
    back_p, back_sol = act_word(invert_word(w), q, img)
    assert back_p == p and back_sol == sol


def test_residual_is_deterministic():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p)
    from conftest import residual

    assert residual(p, sol) == residual(p, sol)


# -- infinite-action tables ---------------------------------------------------

def test_b4_infinite_action_table_generic():
    a0, a1 = F(1, 7), F(1, 5)
    p = b4(a0, a1, (1 - a0 - a1 - 1) / 2, F(1, 2), 0)
    rep = b4_m3_infinite_solution(p)
    prod = (a0 + a1) * (a0 - a1)

    def m3_row(x_const):
        return ("m3", RF.const(x_const), HALF)

    expected = {
        "s0": m3_row(-a0 - a1),
        "s1": m3_row(a0 + a1),
        "s2": m3_row(a0 - a1),
        "s4": m3_row(a0 - a1),
        "pi1": m3_row(a1 - a0),
    }
    for name, (chart, x_img, y_img) in expected.items():
        img = act_solution(Generator(System.B4, name), p, rep)
        assert img.chart.value == chart
        assert img.x == x_img and img.y == y_img
        assert img.z.is_zero()

    a3 = p.alphas[3]
    img = act_solution(Generator(System.B4, "s3"), p, rep)
    assert img.chart is Chart.AFFINE
    assert img.x == RF.const(a0 - a1) and img.y == HALF
    assert img.z == T / (2 * a3) + RF.const(prod / (2 * a3))
    assert img.w.is_zero()

    img = act_solution(Generator(System.B4, "pi2"), p, rep)
    assert img.chart is Chart.AFFINE
    assert img.x.is_zero()
    assert img.y == HALF + RF.t(-1, prod / 2)
    assert img.z == T / (a0 - a1)
    assert img.w == RF.t(-1, -prod / 2)


def test_d5_x_infinity_action_table():
    p = d5(0, "1/2", "-1/2", "1/4", "1/4")
    a0, a1, a2, a3, a4 = p.alphas
    rep = d5_r1_infinite_solution(p)
    s = a3 + a4

    img = act_solution(Generator(System.D5, "s0"), p, rep)
    assert img == rep  # row (0): fixed, in the flipped variable

    img = act_solution(Generator(System.D5, "s1"), p, rep)  # a1 != 0
    assert img.chart is Chart.AFFINE
    assert img.x == RF.const(1 / (2 * a1)) + RF.t(-1, 2 * a4 * s / a1)
    assert img.y.is_zero()
    assert img.z == T / (2 * a4)
    assert img.w == RF.t(-1, -2 * a4 * s)

    img = act_solution(Generator(System.D5, "s2"), p, rep)
    assert img.chart is Chart.R1
    assert img.w == RF.t(-1, -2 * a4 * (a2 + a3 + a4))

    img = act_solution(Generator(System.D5, "s3"), p, rep)  # a3 + a4 != 0
    assert img.chart is Chart.R1
    assert img.z == T / (2 * s)
    assert img.w == RF.t(-1, -2 * a4 * s)

    img = act_solution(Generator(System.D5, "s4"), p, rep)
    assert img.chart is Chart.R1
    assert img.z == T / (2 * -a4)
    assert img.w == RF.t(-1, -2 * (-a4) * s)

    img = act_solution(Generator(System.D5, "psi"), p, rep)
    assert img.chart is Chart.R3
    assert img.x == RF.const(1 / (2 * a4))
    assert img.y == RF.const(-2 * a4 * s)
    assert img.z.is_zero()

    # row (3)-(ii): with a3 + a4 = 0 the s3 image doubles to x = z = inf
    p0 = d5(0, "1/4", "1/4", "-1/4", "1/4")
    img = act_solution(Generator(System.D5, "s3"), p0, d5_r1_infinite_solution(p0))
    assert img.chart is Chart.R5
    assert img == SolutionTuple(Chart.R5, RF.ZERO, HALF, RF.ZERO, T / 2)

    # row (1)-(ii): with a1 = 0 the s1 action is the identity
    p1 = d5(0, 0, 0, "1/4", "1/4")
    rep1 = d5_r1_infinite_solution(p1)
    assert act_solution(Generator(System.D5, "s1"), p1, rep1) == rep1


def test_d5_z_infinity_action_table():
    p = d5("1/5", "1/10", "-3/10", "1/2", 0)
    a0, a1, a2, a3, a4 = p.alphas
    rep = d5_r3_infinite_solution(p)
    c = 2 * a0 * (a0 + a1)

    img = act_solution(Generator(System.D5, "s0"), p, rep)
    assert img.chart is Chart.R3
    assert img.x == RF.const(-1 / (2 * a0)) and img.y == RF.const(c)

    img = act_solution(Generator(System.D5, "s1"), p, rep)  # a0 + a1 != 0
    assert img.chart is Chart.R3
    assert img.x == RF.const(1 / (2 * (a0 + a1)))

    img = act_solution(Generator(System.D5, "s2"), p, rep)
    assert img.chart is Chart.R3
    assert img.y == RF.const(-2 * a0 * (a0 + a1 + a2))

    img = act_solution(Generator(System.D5, "s3"), p, rep)  # a3 != 0
    assert img.chart is Chart.AFFINE
    assert img.x == RF.const(1 / (2 * a0))
    assert img.y == RF.const(-c)
    assert img.z == T / (2 * a3) + RF.const(c / a3)
    assert img.w.is_zero()

    img = act_solution(Generator(System.D5, "s4"), p, rep)
    assert img == rep  # row (4): fixed

    img = act_solution(Generator(System.D5, "psi"), p, rep)
    assert img.chart is Chart.R1
    assert img.z == T / (2 * a0)
    assert img.w == RF.t(-1, -c)

    # row (1)-(ii): a0 + a1 = 0 sends the solution to x = z = infinity
    p1 = d5("1/5", "-1/5", 0, "1/2", 0)
    img = act_solution(Generator(System.D5, "s1"), p1, d5_r3_infinite_solution(p1))
    assert img.chart is Chart.R5
    assert img == d5_r5_infinite_solution()


def test_d5_double_infinity_action_table():
    p = d5(0, "1/5", "1/10", "1/5", 0)
    a1, a3 = p.alphas[1], p.alphas[3]
    rep = d5_r5_infinite_solution()

    for name in ("s0", "s2", "s4", "psi"):
        img = act_solution(Generator(System.D5, name), p, rep)
        assert img == rep, name

    img = act_solution(Generator(System.D5, "s1"), p, rep)  # a1 != 0
    assert img.chart is Chart.R3
    assert img.x == RF.const(1 / (2 * a1)) and img.y.is_zero()

    img = act_solution(Generator(System.D5, "s3"), p, rep)  # a3 != 0
    assert img.chart is Chart.R1
    assert img.z == T / (2 * a3) and img.w.is_zero()

    # a1 = 0 and a3 = 0 rows are identities
    p0 = d5(0, 0, "3/10", 0, "1/5")
    rep0 = d5_r5_infinite_solution()
    assert act_solution(Generator(System.D5, "s1"), p0, rep0) == rep0
    assert act_solution(Generator(System.D5, "s3"), p0, rep0) == rep0


# -- equivalences -------------------------------------------------------------

def test_equivalence_parameter_maps():
    p = d4("3/8", "1/8", "1/8", "-1/4", "1/2")
    a0, a1, a2, a3, a4 = p.alphas
    dummy = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, T, T / 2)
    q, _ = equivalence_map(System.D4, System.B4, p, dummy)
    assert q.alphas == (a0, a1, a2, a3, (a4 - a3) / 2)
    q5, _ = equivalence_map(System.D4, System.D5, p, dummy)
    assert q5.alphas == ((a0 - a1) / 2, a1, a2, a3, (a4 - a3) / 2)


def test_theorem_chain_d4_to_d5():
    for a4 in (F(1, 4), F(1, 2), F(-1, 3)):
        a1 = F(1, 8)
        a0 = a1
        a3 = -a4
        a2 = (1 - a0 - a1 - a3 - a4) / 2
        p = ParameterTuple(System.D4, (a0, a1, a2, a3, a4))
        sol = seed_solution(p)
        q, img = equivalence_map(System.D4, System.D5, p, sol)
        assert q.alphas == (0, a1, a2, a3, (a4 - a3) / 2)
        assert img.chart is Chart.R1
        # the image is exactly the standard seed of the image parameters
        A4 = (a4 - a3) / 2
        assert img == SolutionTuple(Chart.R1, RF.ZERO, HALF, T / (2 * A4), RF.ZERO)
        assert is_solution(q, img)


def test_equivalence_d4_to_b4_solution():
    p = d4("1/4", "1/4", "1/4", "-1/4", "1/4")
    sol = seed_solution(p)
    q, img = equivalence_map(System.D4, System.B4, p, sol)
    assert is_solution(q, img)
    assert img.chart is Chart.AFFINE


@pytest.mark.parametrize("source, target, p, chart, message", [
    (System.D4, System.B4, b4("1/4", "1/4", "1/4", "-1/4", "1/4"), Chart.AFFINE,
     "do not belong to the source system"),
    (System.B4, System.D5, b4("1/4", "1/4", "1/4", "-1/4", "1/4"), Chart.AFFINE,
     "unsupported equivalence b4 -> d5"),
    (System.D4, System.D4, d4("1/4", "1/4", "1/4", "-1/4", "1/4"), Chart.AFFINE,
     "unsupported equivalence d4 -> d4"),
    (System.D4, System.B4, d4("1/4", "1/4", "1/4", "-1/4", "1/4"), Chart.M3,
     "act on affine D4 solutions"),
])
def test_equivalence_map_names_its_refusals(source, target, p, chart, message):
    sol = SolutionTuple(chart, RF.ZERO, HALF, T, T / 2)
    kind = ChartMismatch if chart is not Chart.AFFINE else ValueError
    with pytest.raises(kind, match=message):
        equivalence_map(source, target, p, sol)


# the generator tables as literals: `backlund` reads them off D4_LETTER and
# the shift words, and random words draw from these tuples with a seeded
# rng, so their type and order are pinned too
PRIMITIVES_REFERENCE = {
    System.B4: ("s0", "s1", "s2", "s3", "s4", "pi1", "pi2"),
    System.D4: ("s0", "s1", "s2", "s3", "s4", "pi1", "pi2", "pi3", "pi4"),
    System.D5: ("s0", "s1", "s2", "s3", "s4", "psi"),
}
SHIFTS_REFERENCE = {
    System.B4: ("T1", "T2", "T3", "T4"),
    System.D4: ("T1", "T2", "T3", "T4"),
    System.D5: (),
}


def test_derived_generator_tables_keep_their_literal_values():
    for table, reference in ((PRIMITIVES, PRIMITIVES_REFERENCE), (SHIFTS, SHIFTS_REFERENCE)):
        assert list(table) == list(reference)
        for system, names in reference.items():
            assert type(table[system]) is tuple and table[system] == names
