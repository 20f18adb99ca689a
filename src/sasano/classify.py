"""Existence decision and explicit construction of rational solutions.

The decision procedure evaluates six integrality/parity conditions on
the parameters (one list per system, checked in their documented order;
the lowest matching index is reported).

Construction normalizes parameters to standard form I, plants the
explicit seed solution there, and pulls it back along the inverse word.

The normalization works in lattice coordinates (f1..f4) in which every
generator acts by signed permutations, affine flips or translations:

    B4:  a0 = 1-f1-f2, a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f4
    D4:  a0 = 1-f1-f2, a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f3+f4
    D5:  a0 = 1/2-f1,  a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f4

In these coordinates s1, s2, s3 swap the slot pairs (1,2), (2,3), (3,4),
condition k holds exactly when the k-th slot pair below contains one
integer and one half-odd-integer, and standard form I is f1 = 1/2,
f3 = 0, f4 != 0.  A word is then read off: swaps sort the split pair
into slots 1 and 3, translations finish the job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .backlund import (
    GeneratorWord,
    NormalizationFailed,
    act_word,
    equivalence_map,
    invert_word,
    word,
)
from .exactmath import RF, is_integer, is_odd_integer, rat_str
from .systems import (
    Chart,
    ParameterTuple,
    SolutionTuple,
    System,
    is_solution,
    to_d4_alphas,
)


class NotStandardForm(ValueError):
    """Parameters are not in the standard form the seed requires."""


# Slot pair whose integer/half-odd split realizes each condition.
CONDITION_SLOTS = {1: (1, 3), 2: (1, 4), 3: (2, 3), 4: (2, 4), 5: (1, 2), 6: (3, 4)}


def _congruent_pair(u: Fraction, v: Fraction) -> bool:
    """u, v both integers with u = v (mod 2)."""
    return is_integer(u) and is_integer(v) and (u - v).numerator % 2 == 0


def _incongruent_pair(u: Fraction, v: Fraction) -> bool:
    """u, v both integers with u != v (mod 2)."""
    return is_integer(u) and is_integer(v) and (u - v).numerator % 2 != 0


def condition_holds(p: ParameterTuple, index: int) -> bool:
    """Evaluate one of the six existence conditions (index 1..6)."""
    a0, a1, a2, a3, a4 = p.alphas
    if p.system is System.B4:
        checks = {
            1: lambda: _congruent_pair(a0 - a1, 2 * a3 + 2 * a4),
            2: lambda: _congruent_pair(a0 - a1, 2 * a4),
            3: lambda: _congruent_pair(a0 + a1, 2 * a3 + 2 * a4),
            4: lambda: _congruent_pair(a0 + a1, 2 * a4),
            5: lambda: _incongruent_pair(a0 - a1, a0 + a1),
            6: lambda: is_integer(2 * a3) and is_integer(2 * a4) and is_odd_integer(2 * a3),
        }
    elif p.system is System.D4:
        checks = {
            1: lambda: _congruent_pair(a0 - a1, a3 + a4),
            2: lambda: _congruent_pair(a0 - a1, a3 - a4),
            3: lambda: _congruent_pair(a0 + a1, a3 + a4),
            4: lambda: _congruent_pair(a0 + a1, a3 - a4),
            5: lambda: _incongruent_pair(a0 - a1, a0 + a1),
            6: lambda: _incongruent_pair(a3 - a4, a3 + a4),
        }
    else:
        checks = {
            1: lambda: _congruent_pair(2 * a0, 2 * a3 + 2 * a4),
            2: lambda: _congruent_pair(2 * a0, 2 * a4),
            3: lambda: _congruent_pair(2 * a0 + 2 * a1, 2 * a3 + 2 * a4),
            4: lambda: _congruent_pair(2 * a0 + 2 * a1, 2 * a4),
            5: lambda: is_integer(2 * a0) and is_integer(2 * a1) and is_odd_integer(2 * a1),
            6: lambda: is_integer(2 * a3) and is_integer(2 * a4) and is_odd_integer(2 * a3),
        }
    return checks[index]()


@dataclass(frozen=True)
class ClassificationResult:
    params: ParameterTuple
    exists: bool
    matched_condition: Optional[int] = None
    witness_word: Optional[GeneratorWord] = None
    solution: Optional[SolutionTuple] = None

    def to_json(self) -> dict:
        out: dict = {"verdict": "exists" if self.exists else "not_exists"}
        if self.matched_condition is not None:
            out["condition"] = self.matched_condition
        if self.witness_word is not None:
            out["word"] = self.witness_word.to_json()
        if self.solution is not None:
            out["solution"] = self.solution.to_json()
            out["chart"] = self.solution.chart.value
        return out


def classify(p: ParameterTuple) -> ClassificationResult:
    """Existence verdict with the lowest matching condition index."""
    for index in range(1, 7):
        if condition_holds(p, index):
            return ClassificationResult(p, True, index)
    return ClassificationResult(p, False)


# -- lattice coordinates ------------------------------------------------------

def lattice_coordinates(p: ParameterTuple) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    a0, a1, a2, a3, a4 = p.alphas
    if p.system is System.B4:
        return ((1 - (a0 - a1)) / 2, (1 - (a0 + a1)) / 2, a3 + a4, a4)
    if p.system is System.D4:
        return ((1 - (a0 - a1)) / 2, (1 - (a0 + a1)) / 2, (a3 + a4) / 2, (a4 - a3) / 2)
    g1 = Fraction(1, 2) - a0
    g2 = g1 - a1
    return (g1, g2, a3 + a4, a4)


def _half_odd(v: Fraction) -> bool:
    return v.denominator == 2


# Direct translation words per slot: (increment tokens, decrement tokens).
_TRANSLATIONS = {
    System.B4: {
        1: (("inv(T1)",), ("T1",)),
        2: (("T2",), ("inv(T2)",)),
        3: (("T3",), ("inv(T3)",)),
        4: (("T4",), ("inv(T4)",)),
    },
    System.D4: {
        1: (("T2", "inv(T1)", "T3"), ("inv(T3)", "T1", "inv(T2)")),
        2: (("inv(T1)", "inv(T2)", "T4"), ("inv(T4)", "T2", "T1")),
        3: (("T4",), ("inv(T4)",)),
        4: (("inv(T3)",), ("T3",)),
    },
}

_D5_SLOT1_DEC = ("s0", "s1", "s2", "s3", "s4", "s3", "s2", "s1")
_D5_SLOT1_INC = tuple(reversed(_D5_SLOT1_DEC))
_D5_CONJ = {2: ("s1",), 3: ("s2", "s1"), 4: ("s3", "s2", "s1")}


def _translation_tokens(system: System, slot: int, increment: bool) -> Tuple[str, ...]:
    if system in _TRANSLATIONS:
        inc, dec = _TRANSLATIONS[system][slot]
        return inc if increment else dec
    base = _D5_SLOT1_INC if increment else _D5_SLOT1_DEC
    if slot == 1:
        return base
    conj = _D5_CONJ[slot]
    return conj + base + tuple(reversed(conj))


def normalize_to_standard(p: ParameterTuple) -> Tuple[GeneratorWord, ParameterTuple]:
    """A word sending p to standard form I, together with its image.

    Requires classify(p) to report existence; raises NormalizationFailed
    if the emitted word does not reach the target, which would indicate
    a transcription bug rather than a mathematical obstruction.
    """
    verdict = classify(p)
    if not verdict.exists:
        raise ValueError("parameters admit no rational solution; nothing to normalize")

    system = p.system
    tokens: list = []
    current = p

    def emit(*names: str):
        nonlocal current
        w = word(system, names)
        current = act_word(w, current)[0]
        tokens.extend(names)

    slot_a, slot_b = CONDITION_SLOTS[verdict.matched_condition]
    coords = lattice_coordinates(current)
    if _half_odd(coords[slot_a - 1]):
        half_pos, int_pos = slot_a, slot_b
    else:
        half_pos, int_pos = slot_b, slot_a

    # Sort the split pair into slots 1 (half-odd) and 3 (integer) with
    # adjacent swaps; s1, s2, s3 swap slots (1,2), (2,3), (3,4).
    while half_pos > 1:
        emit(f"s{half_pos - 1}")
        if int_pos == half_pos - 1:
            int_pos = half_pos
        half_pos -= 1
    while int_pos > 3:
        emit(f"s{int_pos - 1}")
        int_pos -= 1
    while int_pos < 3:
        emit(f"s{int_pos}")
        int_pos += 1

    # Translate slot 1 to exactly 1/2 and slot 3 to exactly 0.
    delta = Fraction(1, 2) - lattice_coordinates(current)[0]
    assert is_integer(delta)
    for _ in range(abs(int(delta))):
        emit(*_translation_tokens(system, 1, increment=delta > 0))
    delta = -lattice_coordinates(current)[2]
    assert is_integer(delta)
    for _ in range(abs(int(delta))):
        emit(*_translation_tokens(system, 3, increment=delta > 0))

    # The seed needs a4 != 0, i.e. slot 4 nonzero (and for D5 also
    # a1 != 0, i.e. slot 2 != 1/2).
    if lattice_coordinates(current)[3] == 0:
        emit(*_translation_tokens(system, 4, increment=True))
    if system is System.D5 and lattice_coordinates(current)[1] == Fraction(1, 2):
        emit(*_translation_tokens(system, 2, increment=False))

    result_word = word(system, tokens)
    q, _ = act_word(result_word, p)
    if q != current or not is_standard_form(q):
        raise NormalizationFailed(
            f"normalization left {[rat_str(a) for a in q.alphas]} off the target form"
        )
    return result_word, q


def is_standard_form(p: ParameterTuple) -> bool:
    a0, a1, a2, a3, a4 = p.alphas
    if p.system in (System.B4, System.D4):
        return a0 - a1 == 0 and a3 + a4 == 0 and a4 != 0
    return a0 == 0 and a3 + a4 == 0 and a4 != 0 and a1 != 0


def seed_solution(q: ParameterTuple) -> SolutionTuple:
    """The explicit rational solution at standard-form-I parameters."""
    if not is_standard_form(q):
        raise NotStandardForm(
            f"{[rat_str(a) for a in q.alphas]} is not in standard form I"
        )
    if q.system is not System.D4:
        # the D4 seed at the D4 parameters, which are in standard form too
        c = ParameterTuple(System.D4, to_d4_alphas(q.system, q.alphas))
        return equivalence_map(System.D4, q.system, c, seed_solution(c))[1]
    return SolutionTuple(Chart.AFFINE, RF.ZERO, RF.const(Fraction(1, 2)),
                         RF.t(-1, 2 * q.alphas[4]), RF.t() / 2)


def construct_rational_solution(p: ParameterTuple) -> ClassificationResult:
    """Full decision: verdict, witness word, and a verified solution."""
    verdict = classify(p)
    if not verdict.exists:
        return verdict
    to_standard, q = normalize_to_standard(p)
    seed = seed_solution(q)
    back = invert_word(to_standard)
    p_back, sol = act_word(back, q, seed)
    if p_back != p:
        raise NormalizationFailed("pullback word did not restore the parameters")
    if not is_solution(p, sol):
        raise NormalizationFailed("pulled-back seed fails the residual check")
    return ClassificationResult(p, True, verdict.matched_condition, to_standard, sol)
