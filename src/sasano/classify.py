"""Existence decision and explicit construction of rational solutions.

Decision and normalization work in lattice coordinates f1..f4, where
every generator acts by signed permutations, affine flips or translations:

    B4:  a0 = 1-f1-f2, a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f4
    D4:  a0 = 1-f1-f2, a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f3+f4
    D5:  a0 = 1/2-f1,  a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f4

All three are D4's table read through the linear parameter map
`systems.to_d4_alphas`, so `lattice_coordinates` computes D4's
coordinates of the D4 parameters.

In all three systems condition k (1..6) holds exactly when the slot pair
CONDITION_SLOTS[k] contains one integer and one half-odd integer; the
lowest matching index is reported.  Standard form I is f1 = 1/2, f3 = 0,
f4 != 0, and for D5 also f2 != 1/2.  In every system s1, s2, s3 swap
the slot pairs (1,2), (2,3), (3,4), so one word per system moving slot 1
by +-1 gives all the translations: slot k's word is slot 1's conjugated by
s_{k-1} ... s1.  D4 and D5 share D5's word s0 s1 s2 s3 s4 s3 s2 s1 (read
through `backlund.D4_LETTER`), and B4 uses its shift operator T1.  The
normalizing word is read off the coordinates alone: swaps sort the
split pair into slots 1 and 3, translations finish the job, and one
`act_word` of the finished word checks it.  Construction plants the
explicit seed solution at standard form I and pulls it back along the
inverse word's reduced letters, in D4's coordinates from seed to check.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .backlund import (
    D4_LETTER,
    GeneratorWord,
    _d4_letters,
    _fold,
    _reduced,
    act_word,
    word,
)
from .exactmath import RF, rat_str
from .systems import (
    Chart,
    NormalizationFailed,
    ParameterTuple,
    SolutionTuple,
    System,
    _residuals_vanish,
    _settle,
    to_d4_alphas,
)


class NotStandardForm(ValueError):
    """Parameters are not in the standard form the seed requires."""


# Slot pair whose integer/half-odd split realizes each condition.
CONDITION_SLOTS = {1: (1, 3), 2: (1, 4), 3: (2, 3), 4: (2, 4), 5: (1, 2), 6: (3, 4)}

_HALF = Fraction(1, 2)


def _holds(f, index: int) -> bool:
    """Whether condition index holds at the lattice coordinates f."""
    i, j = CONDITION_SLOTS[index]
    return {f[i - 1].denominator, f[j - 1].denominator} == {1, 2}


def _matched_condition(f) -> int | None:
    """The lowest condition index that holds at the lattice coordinates f, if any."""
    return next((index for index in CONDITION_SLOTS if _holds(f, index)), None)


def condition_holds(p: ParameterTuple, index: int) -> bool:
    """Evaluate one of the six existence conditions (index 1..6)."""
    return _holds(lattice_coordinates(p), index)


class ClassificationResult(Record):
    __slots__ = ("params", "exists", "matched_condition", "witness_word", "solution")

    def __init__(self, params: ParameterTuple, exists: bool, matched_condition: int | None = None,
                 witness_word: GeneratorWord | None = None, solution: SolutionTuple | None = None):
        self._fill(params, exists, matched_condition, witness_word, solution)

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
    index = _matched_condition(lattice_coordinates(p))
    return ClassificationResult(p, index is not None, index)


# -- lattice coordinates ------------------------------------------------------

def lattice_coordinates(p: ParameterTuple) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    c0, c1, c2, c3, c4 = to_d4_alphas(p.system, p.alphas)
    return ((1 - (c0 - c1)) / 2, (1 - (c0 + c1)) / 2, (c3 + c4) / 2, (c4 - c3) / 2)


# Each system's words moving slot 1 by +1 and by -1.  D4 and D5 share
# D5's word, which D4 reads through `D4_LETTER`; B4 keeps its one-token T1,
# which keeps its witness words short.
_D5_SLOT1_DEC = ("s0", "s1", "s2", "s3", "s4", "s3", "s2", "s1")
_D4_SLOT1_DEC = tuple(D4_LETTER[System.D5][name] for name in _D5_SLOT1_DEC)
_SLOT1 = {
    System.B4: (("inv(T1)",), ("T1",)),
    System.D4: (_D4_SLOT1_DEC[::-1], _D4_SLOT1_DEC),
    System.D5: (_D5_SLOT1_DEC[::-1], _D5_SLOT1_DEC),
}


def _translation_tokens(system: System, slot: int, increment: bool) -> tuple[str, ...]:
    inc, dec = _SLOT1[system]
    conj = tuple(f"s{k}" for k in range(slot - 1, 0, -1))
    return conj + (inc if increment else dec) + conj[::-1]


def normalize_to_standard(p: ParameterTuple) -> tuple[GeneratorWord, ParameterTuple]:
    """A word sending p to standard form I, together with its image.

    Requires classify(p) to report existence; raises NormalizationFailed
    if the emitted word does not reach the target, which would indicate
    a transcription bug rather than a mathematical obstruction.
    """
    f = list(lattice_coordinates(p))
    index = _matched_condition(f)
    if index is None:
        raise ValueError("parameters admit no rational solution; nothing to normalize")

    system = p.system
    tokens: list = []

    def swap(k: int):
        # s_k swaps slots k and k+1
        tokens.append(f"s{k}")
        f[k - 1], f[k] = f[k], f[k - 1]

    def translate(slot: int, steps: int):
        # each translation word moves its slot by +-1
        for _ in range(abs(steps)):
            tokens.extend(_translation_tokens(system, slot, increment=steps > 0))
        f[slot - 1] += steps

    slot_a, slot_b = CONDITION_SLOTS[index]
    if f[slot_a - 1].denominator == 2:
        half_pos, int_pos = slot_a, slot_b
    else:
        half_pos, int_pos = slot_b, slot_a

    # Sort the split pair into slots 1 (half-odd) and 3 (integer): bubble
    # the half-odd slot left, which shifts an integer slot it passes one
    # right, then bubble the integer slot to 3.
    for k in range(half_pos - 1, 0, -1):
        swap(k)
    int_pos += int_pos < half_pos
    for k in range(int_pos - 1, 2, -1):
        swap(k)
    for k in range(int_pos, 3):
        swap(k)

    # Translate slot 1 to exactly 1/2 and slot 3 to exactly 0.
    translate(1, int(_HALF - f[0]))
    translate(3, int(-f[2]))

    # The seed needs a4 != 0, i.e. slot 4 nonzero (and for D5 also
    # a1 != 0, i.e. slot 2 != 1/2).
    if f[3] == 0:
        translate(4, 1)
    if system is System.D5 and f[1] == _HALF:
        translate(2, -1)

    result_word = word(system, tokens)
    q, _ = act_word(result_word, p)
    if not is_standard_form(q) or lattice_coordinates(q) != tuple(f):
        raise NormalizationFailed(
            f"normalization left {[rat_str(a) for a in q.alphas]} off the target form"
        )
    return result_word, q


def is_standard_form(p: ParameterTuple) -> bool:
    f1, f2, f3, f4 = lattice_coordinates(p)
    return (f1 == _HALF and f3 == 0 and f4 != 0
            and (p.system is not System.D5 or f2 != _HALF))


def _d4_seed(c):  # D4's seed solution at D4 parameters c in standard form I
    return RF.ZERO, RF.const(Fraction(1, 2)), RF.t(-1, 2 * c[4]), RF.t() / 2


def seed_solution(q: ParameterTuple) -> SolutionTuple:
    """The explicit rational solution at standard-form-I parameters: D4's
    seed (`_d4_seed`, which construction folds as it is) at the D4 parameters
    c, settled in the system's charts by `systems._settle`, as `act_word` ends."""
    if not is_standard_form(q):
        raise NotStandardForm(
            f"{[rat_str(a) for a in q.alphas]} is not in standard form I"
        )
    c = to_d4_alphas(q.system, q.alphas)
    return _settle(q.system, c, *_d4_seed(c))


def construct_rational_solution(p: ParameterTuple) -> ClassificationResult:
    """Full decision: verdict, witness word, and a verified solution: D4's
    seed pulled back in D4 by one `backlund._fold` of the inverse word's
    letters, `_reduced` by the group's relations, checked there, settled once."""
    verdict = classify(p)
    if not verdict.exists:
        return verdict
    to_standard, q = normalize_to_standard(p)
    c = to_d4_alphas(q.system, q.alphas)
    c, comps = _fold(_reduced(_d4_letters(to_standard)[::-1]), c, _d4_seed(c))
    if c != to_d4_alphas(p.system, p.alphas):
        raise NormalizationFailed("pullback word did not restore the parameters")
    if not _residuals_vanish(ParameterTuple(System.D4, c), SolutionTuple(Chart.AFFINE, *comps)):
        raise NormalizationFailed("pulled-back seed fails the residual check")
    return ClassificationResult(p, True, verdict.matched_condition, to_standard,
                                _settle(p.system, c, *comps))
