"""Existence decision, normalization to standard form, and construction."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import b4, d4, d5, from_lattice, random_params
from sasano import (
    Chart,
    Generator,
    NormalizationFailed,
    NotStandardForm,
    Polynomial,
    RF,
    SolutionTuple,
    System,
    act_params,
    act_word,
    classify,
    condition_holds,
    construct_rational_solution,
    equivalence_map,
    invert_word,
    is_solution,
    normalize_to_standard,
    seed_solution,
)
from sasano import backlund, systems
from sasano.backlund import PRIMITIVES
from sasano.classify import _translation_tokens, is_standard_form, lattice_coordinates

T = RF.t()
HALF = RF.const(F(1, 2))


def test_classify_seed_parameters():
    result = classify(b4("1/4", "1/4", "1/4", "-1/4", "1/4"))
    assert result.exists and result.matched_condition == 1


def test_classify_not_exists_regression():
    result = classify(b4(0, 0, 0, 0, "1/2"))
    assert not result.exists
    assert result.matched_condition is None


def test_classify_d5_quarter_offsets():
    p = d5(0, "1/4", "1/2", "-1/2", "1/4")
    # 2*a0 is an integer but neither 2a3+2a4 nor 2a4 nor 2a1 is; walking
    # all six condition rows by hand gives no match
    assert not any(condition_holds(p, k) for k in range(1, 7))
    assert not classify(p).exists


def test_classify_reports_lowest_matching_index():
    # (1/2, 1/2, 0, -1, 1) satisfies conditions 1, 2 and 5; report 1
    p = b4("1/2", "1/2", 0, -1, 1)
    assert condition_holds(p, 1) and condition_holds(p, 2) and condition_holds(p, 5)
    assert classify(p).matched_condition == 1


def test_lattice_roundtrip():
    rng = random.Random(11)
    for system in System:
        for _ in range(30):
            p = random_params(system, rng)
            f = lattice_coordinates(p)
            assert from_lattice(system, *f) == p


def test_normalize_standard_input_returns_empty_word():
    p = b4("1/4", "1/4", "1/4", "-1/4", "1/4")
    w, q = normalize_to_standard(p)
    assert len(w) == 0 and q == p


def test_normalize_odd_difference_example():
    p = b4("5/4", "1/4", "1/4", "-1/4", "-1/4")
    w, q = normalize_to_standard(p)
    assert is_standard_form(q)
    check, _ = act_word(w, p)
    assert check == q


def test_normalize_keeps_alpha4_nonzero():
    p = b4(0, 0, "1/2", "1/2", "-1/2")
    w, q = normalize_to_standard(p)
    assert is_standard_form(q)
    assert q.alphas[4] != 0


def test_normalize_enforces_alpha4_nonzero_via_shift():
    # a tuple whose direct reduction would land on a4 = 0
    p = from_lattice(System.B4, "1/2", "1/3", 0, 0)
    w, q = normalize_to_standard(p)
    assert is_standard_form(q)


@pytest.mark.parametrize("alphas, witness", [
    ((0, 0, "1/2", "-1/3", "1/3"), "s1 s0 s1 s2 s3 s4 s3 s2 s1 s1"),
    ((0, 0, "-1/2", "3/5", "2/5"),
     "s2 s1 s0 s1 s2 s3 s4 s3 s2 s1 s1 s2 s1 s0 s1 s2 s3 s4 s3 s2 s1 s1"),
])
def test_normalize_moves_d5_slot_two_off_one_half(alphas, witness):
    # slots 1 and 3 set, both points sit at f2 = 1/2, where D5's seed
    # would need a1 = 0: the word ends in slot 2's translation down
    p = d5(*alphas)
    assert lattice_coordinates(p)[1] == F(1, 2)
    out = construct_rational_solution(p)
    assert str(out.witness_word) == witness
    assert witness.endswith(" ".join(_translation_tokens(System.D5, 2, increment=False)))
    assert lattice_coordinates(normalize_to_standard(p)[1])[1] == F(-1, 2)
    assert is_solution(p, out.solution)


def test_normalize_rejects_not_exists():
    with pytest.raises(ValueError):
        normalize_to_standard(b4(0, 0, 0, 0, "1/2"))


def test_seed_solution_examples():
    assert seed_solution(b4(0, 0, "1/2", "-1/2", "1/2")) == SolutionTuple(
        Chart.AFFINE, RF.ZERO, HALF, T, RF.ZERO
    )
    assert seed_solution(b4("1/4", "1/4", "1/4", "-1/4", "1/4")) == SolutionTuple(
        Chart.AFFINE, RF.ZERO, HALF, 2 * T, RF.ZERO
    )
    assert seed_solution(d5(0, "1/4", "1/4", "-1/4", "1/4")) == SolutionTuple(
        Chart.R1, RF.ZERO, HALF, 2 * T, RF.ZERO
    )


def test_seed_solution_rejects_non_standard():
    with pytest.raises(NotStandardForm):
        seed_solution(b4("5/4", "1/4", "1/4", "-1/4", "-1/4"))


def test_construct_seed_case():
    out = construct_rational_solution(b4("1/4", "1/4", "1/4", "-1/4", "1/4"))
    assert out.exists
    assert out.solution == SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, 2 * T, RF.ZERO)
    assert len(out.witness_word) == 0


def test_construct_d4_standard_form():
    out = construct_rational_solution(d4("1/4", "1/4", "1/4", "-1/4", "1/4"))
    assert out.exists
    assert out.solution == SolutionTuple(
        Chart.AFFINE, RF.ZERO, HALF, RF.t(-1, F(1, 2)), T / 2
    )


def test_construct_d5_standard_form():
    out = construct_rational_solution(d5(0, "1/4", "1/4", "-1/4", "1/4"))
    assert out.exists
    assert out.solution.chart is Chart.R1
    assert out.solution == SolutionTuple(Chart.R1, RF.ZERO, HALF, 2 * T, RF.ZERO)


def test_construct_not_exists_returns_verdict_only():
    out = construct_rational_solution(b4(0, 0, 0, 0, "1/2"))
    assert not out.exists
    assert out.solution is None and out.witness_word is None


def test_construct_soundness_on_random_parameters():
    rng = random.Random(13)
    built = 0
    for system in System:
        tried = 0
        while built < 6 * (list(System).index(system) + 1) and tried < 60:
            tried += 1
            p = random_params(system, rng, span=2)
            if not classify(p).exists:
                continue
            out = construct_rational_solution(p)
            assert out.solution is not None
            assert is_solution(p, out.solution)
            built += 1
    assert built >= 18


def test_verdict_is_backlund_invariant():
    rng = random.Random(17)
    for system in System:
        for _ in range(100):
            p = random_params(system, rng)
            v = classify(p).exists
            for name in PRIMITIVES[system]:
                q = act_params(Generator(system, name), p)
                assert classify(q).exists == v, (system, name, p.alphas)


def test_d4_verdict_agrees_with_b4_image():
    rng = random.Random(19)
    dummy = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, T, T / 2)
    for _ in range(100):
        p = random_params(System.D4, rng)
        q, _ = equivalence_map(System.D4, System.B4, p, dummy)
        assert classify(p).exists == classify(q).exists


def test_d4_verdict_agrees_with_d5_image():
    rng = random.Random(29)
    dummy = SolutionTuple(Chart.AFFINE, RF.ZERO, HALF, T, T / 2)
    for _ in range(100):
        p = random_params(System.D4, rng)
        q, _ = equivalence_map(System.D4, System.D5, p, dummy)
        assert classify(p).exists == classify(q).exists


def test_pullback_word_roundtrip():
    rng = random.Random(31)
    for _ in range(10):
        p = random_params(System.B4, rng, span=2)
        if not classify(p).exists:
            continue
        w, q = normalize_to_standard(p)
        back, _ = act_word(invert_word(w), q)
        assert back == p


def test_condition_six_with_generic_first_parameters():
    # 2a3 odd and 2a4 integral admits a solution no matter how wild the
    # other parameters are; with a4 = 0 the solution itself is infinite
    # (z == inf), so the pullback ends in the m3 chart
    p = b4("1/7", "1/5", "-6/35", "1/2", 0)
    result = classify(p)
    assert result.exists and result.matched_condition == 6
    out = construct_rational_solution(p)
    assert is_solution(p, out.solution)
    assert out.solution.chart is Chart.M3
    assert out.solution.z.is_zero()
    # its s3 image is a finite rational solution of the image system
    g = Generator(System.B4, "s3")
    from sasano import act_solution

    finite = act_solution(g, p, out.solution)
    assert finite.chart is Chart.AFFINE
    assert is_solution(act_params(g, p), finite)


def test_pullback_gcd_count_at_the_d4_distance_two_reference_point(monkeypatch):
    # a deterministic guard on the cost of the pullback: s2 takes its
    # quotients over the factors of xz that it has already found
    calls = []
    gcd = Polynomial.gcd

    def counting_gcd(self, *args, **kwargs):
        calls.append(None)
        return gcd(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "gcd", counting_gcd)
    assert construct_rational_solution(from_lattice(System.D4, F(5, 2), F(1, 3), 2, F(2, 5))).exists
    assert len(calls) <= 129


def test_reduced_pullback_gcd_count_at_the_d4_distance_two_reference_point(monkeypatch):
    # the pullback folds the inverse word's letters reduced by the group's
    # relations: 30 letters where the written word has 40
    calls = []
    gcd = Polynomial.gcd

    def counting_gcd(self, *args, **kwargs):
        calls.append(None)
        return gcd(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "gcd", counting_gcd)
    assert construct_rational_solution(from_lattice(System.D4, F(5, 2), F(1, 3), 2, F(2, 5))).exists
    assert len(calls) <= 85


_DEGENERATE = (F(0), F(1, 2), F(-1, 2), F(1), F(3, 2), F(1, 3))


def _outcome(compute):
    """The value of compute(), or the type of the error it raises."""
    try:
        return compute()
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return type(exc)


def test_construct_at_degenerate_parameters_is_the_written_pullback():
    # construct folds reduced letters, act_word the written inverse word:
    # the same solution, or the same error, where parameters vanish
    for system in System:
        for d1 in range(-2, 3):
            for d3 in range(abs(d1) - 2, 3 - abs(d1)):
                for f2 in _DEGENERATE:
                    for f4 in _DEGENERATE:
                        p = from_lattice(system, F(1, 2) + d1, f2, d3, f4)

                        def written():
                            w, q = normalize_to_standard(p)
                            return act_word(invert_word(w), q, seed_solution(q))[1]

                        got = _outcome(lambda: construct_rational_solution(p).solution)
                        assert got == _outcome(written), (system, d1, d3, f2, f4)


_LATTICE_STEPS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda s: abs(s[0]) + abs(s[1]) <= 2)
_GENERIC = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(max_examples=30, deadline=None)
@given(system=st.sampled_from(list(System)), steps=_LATTICE_STEPS, f2=_GENERIC, f4=_GENERIC)
def test_construct_is_the_seed_pulled_back_by_act_word(system, steps, f2, f4):
    # construct's D4 path against the public one: the seed settled in the
    # system's charts, the inverse word run by act_word
    p = from_lattice(system, F(1, 2) + steps[0], f2, steps[1], f4)
    out = construct_rational_solution(p)
    _, q = normalize_to_standard(p)
    assert out.solution == act_word(invert_word(out.witness_word), q, seed_solution(q))[1]


def test_construct_raises_when_the_d4_image_fails_the_residual_check(monkeypatch):
    # one letter's image corrupted in one component: the check still decides
    letter, corrupted = backlund._d4_letter, []

    def corrupting_letter(*args):
        x, y, z, w = letter(*args)
        if not corrupted:
            corrupted.append(None)
            y = y + T
        return x, y, z, w

    monkeypatch.setattr(backlund, "_d4_letter", corrupting_letter)
    with pytest.raises(NormalizationFailed, match="residual check"):
        construct_rational_solution(from_lattice(System.B4, F(5, 2), F(1, 3), 2, F(2, 5)))
    assert corrupted


@pytest.mark.parametrize("system, inversions", [(System.B4, 1), (System.D5, 2)])
def test_construct_settles_once_and_negates_t_at_most_once(monkeypatch, system, inversions):
    # B4 inverts its z-side in the affine chart and D5 both sides: the final
    # settle alone inverts them, and t -> -t rewrites each of the four
    # numerators and denominators at most once
    inverted, negated = [], []
    invert_side, compose_negate = systems.invert_side, Polynomial.compose_negate
    monkeypatch.setattr(systems, "invert_side", lambda *a: inverted.append(None) or invert_side(*a))
    monkeypatch.setattr(Polynomial, "compose_negate",
                        lambda self: negated.append(None) or compose_negate(self))
    assert construct_rational_solution(from_lattice(system, F(5, 2), F(1, 3), 2, F(2, 5))).exists
    assert len(inverted) == inversions and len(negated) <= 8
