"""Existence decision and explicit construction of rational solutions.

Decision and normalization work in lattice coordinates f1..f4, where
every generator acts by signed permutations, affine flips or translations:

    B4:  a0 = 1-f1-f2, a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f4
    D4:  a0 = 1-f1-f2, a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f3+f4
    D5:  a0 = 1/2-f1,  a1 = f1-f2, a2 = f2-f3, a3 = f3-f4,  a4 = f4

All three are D4's table read through the linear parameter map
`systems.to_d4_alphas`, so `_lattice` computes D4's coordinates of the
D4 parameters, as integers over one denominator, once per call.

In all three systems condition k (1..6) holds exactly when the slot pair
CONDITION_SLOTS[k] contains one integer and one half-odd integer; the
lowest matching index is reported.  Standard form I is f1 = 1/2, f3 = 0,
f4 != 0, and for D5 also f2 != 1/2.  In every system s1, s2, s3 swap
the slot pairs (1,2), (2,3), (3,4), so one word per system moving slot 1
by +-1 gives all the translations: slot k's word is slot 1's conjugated by
s_{k-1} ... s1.  D4 and D5 share D5's word s0 s1 s2 s3 s4 s3 s2 s1 (read
through `backlund.D4_LETTER`), and B4 uses its shift operator T1.  The
normalizing word is read off the coordinates alone: swaps sort the
split pair into slots 1 and 3, translations finish the job, and one fold
of the finished word's letters over D4's integer parameters checks it.
Construction plants the explicit seed solution at standard form I and
pulls it back along the inverse word's reduced letters, in D4's
coordinates from seed to check.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .backlund import (
    D4_LETTER,
    PRIMITIVES,
    SHIFTS,
    Generator,
    GeneratorWord,
    _d4_letters,
    _fold,
    _reduced,
)
from .exactmath import RF, Polynomial, rat_str
from .systems import (
    Chart,
    NormalizationFailed,
    ParameterTuple,
    SolutionTuple,
    System,
    _integers,
    _settle,
    from_d4_alphas,
    is_solution,
    to_d4_alphas,
)


class NotStandardForm(ValueError):
    """Parameters are not in the standard form the seed requires."""


# Slot pair whose integer/half-odd split realizes each condition.
CONDITION_SLOTS = {1: (1, 3), 2: (1, 4), 3: (2, 3), 4: (2, 4), 5: (1, 2), 6: (3, 4)}


def _holds(den: int, f, index: int) -> bool:
    """Whether condition index holds at the lattice coordinates f / (2 den)
    (`_lattice`): one slot of its pair is 0 modulo 2 den, an integer, and
    the other den, a half-odd integer."""
    i, j = CONDITION_SLOTS[index]
    return {f[i - 1] % (2 * den), f[j - 1] % (2 * den)} == {0, den}


def _matched_condition(den: int, f) -> int | None:
    """The lowest condition index that holds at the lattice coordinates
    f / (2 den), if any."""
    return next((index for index in CONDITION_SLOTS if _holds(den, f, index)), None)


def condition_holds(p: ParameterTuple, index: int) -> bool:
    """Evaluate one of the six existence conditions (index 1..6)."""
    _, den, f = _lattice(p)
    return _holds(den, f, index)


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
    _, den, f = _lattice(p)
    index = _matched_condition(den, f)
    return ClassificationResult(p, index is not None, index)


# -- lattice coordinates ------------------------------------------------------

def _lattice(p: ParameterTuple):
    """(c, den, f): D4's parameters of p as integers c over their common
    denominator den (`systems._integers`), and the lattice coordinates as
    integers f over 2 den.  Each f_k has the parity of every other, as
    f2 - f3 = 2 c2 by the normalization, so `_from_lattice` halves exactly."""
    c, den = _integers(to_d4_alphas(p.system, p.alphas))
    c0, c1, _, c3, c4 = c
    return c, den, (den - c0 + c1, den - c0 - c1, c3 + c4, c4 - c3)


def _from_lattice(den: int, f) -> tuple:
    """The D4 parameters, as integers over den, at the lattice coordinates
    f / (2 den): the inverse of `_lattice`."""
    f1, f2, f3, f4 = f
    return (den - (f1 + f2) // 2, (f1 - f2) // 2, (f2 - f3) // 2, (f3 - f4) // 2, (f3 + f4) // 2)


def lattice_coordinates(p: ParameterTuple) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    _, den, f = _lattice(p)
    return tuple(Fraction(v, 2 * den) for v in f)


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


# each system's tokens by their text, the inverses of its shift operators included
_TOKENS = {system: {str(g): g for name in PRIMITIVES[system] + SHIFTS[system]
                    for g in (Generator(system, name), Generator(system, name, True))}
           for system in System}


def _standard(system: System, den: int, f) -> bool:
    """Whether the lattice coordinates f / (2 den) are in standard form I."""
    return f[0] == den and f[2] == 0 and f[3] != 0 and (system is not System.D5 or f[1] != den)


def _normalize(system: System, c, den: int, f, index: int):
    """(word, letters, c'): the word sending the D4 parameters c / den,
    with lattice coordinates f / (2 den) (`_lattice`) meeting condition
    index, to standard form I, its D4 letters and their image c' / den.

    The word's tokens are taken from `_TOKENS`; its letters are folded
    over the integers c, and NormalizationFailed is raised unless c' is
    the target, which would indicate a transcription bug rather than a
    mathematical obstruction.
    """
    f, tokens, names = list(f), [], _TOKENS[system]

    def swap(k: int):
        # s_k swaps slots k and k+1
        tokens.append(names[f"s{k}"])
        f[k - 1], f[k] = f[k], f[k - 1]

    def translate(slot: int, steps: int):
        # each translation word moves its slot by +-1, that is f by +-2 den
        for _ in range(abs(steps)):
            tokens.extend(names[t] for t in _translation_tokens(system, slot, increment=steps > 0))
        f[slot - 1] += 2 * den * steps

    slot_a, slot_b = CONDITION_SLOTS[index]
    if f[slot_a - 1] % (2 * den):
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
    translate(1, (den - f[0]) // (2 * den))
    translate(3, -f[2] // (2 * den))

    # The seed needs a4 != 0, i.e. slot 4 nonzero (and for D5 also
    # a1 != 0, i.e. slot 2 != 1/2).
    if f[3] == 0:
        translate(4, 1)
    if system is System.D5 and f[1] == den:
        translate(2, -1)

    w = GeneratorWord(system, tuple(tokens))
    letters = _d4_letters(w)
    image, _ = _fold(letters, c, den)
    if not _standard(system, den, f) or image != _from_lattice(den, f):
        alphas = from_d4_alphas(system, [Fraction(a, den) for a in image])
        raise NormalizationFailed(
            f"normalization left {[rat_str(a) for a in alphas]} off the target form"
        )
    return w, letters, image


def normalize_to_standard(p: ParameterTuple) -> tuple[GeneratorWord, ParameterTuple]:
    """A word sending p to standard form I, together with its image.

    Requires classify(p) to report existence; the word is read off the
    lattice coordinates by `_normalize`, which checks it by folding its
    letters and raises NormalizationFailed if it misses the target.
    """
    c, den, f = _lattice(p)
    index = _matched_condition(den, f)
    if index is None:
        raise ValueError("parameters admit no rational solution; nothing to normalize")
    w, _, image = _normalize(p.system, c, den, f, index)
    return w, ParameterTuple(p.system, from_d4_alphas(p.system, [Fraction(a, den) for a in image]))


def is_standard_form(p: ParameterTuple) -> bool:
    _, den, f = _lattice(p)
    return _standard(p.system, den, f)


def _d4_seed(n: int, d: int):
    """D4's seed solution (0, 1/2, 2 c4 / t, t / 2) at D4 parameters in
    standard form I with c4 = n / d, built in canonical form."""
    t = Polynomial._from_primitive((0, 1), 1, 1)
    return (RF.ZERO, RF._coprime(Polynomial._from_primitive((1,), 1, 2), Polynomial.ONE),
            RF._coprime(Polynomial._from_primitive((1,), 2 * n, d), t),
            RF._coprime(Polynomial._from_primitive((0, 1), 1, 2), Polynomial.ONE))


def seed_solution(q: ParameterTuple) -> SolutionTuple:
    """The explicit rational solution at standard-form-I parameters: D4's
    seed (`_d4_seed`, which construction folds as it is) at the D4 parameters
    c, settled in the system's charts by `systems._settle`, as `act_word` ends."""
    if not is_standard_form(q):
        raise NotStandardForm(
            f"{[rat_str(a) for a in q.alphas]} is not in standard form I"
        )
    c = to_d4_alphas(q.system, q.alphas)
    return _settle(q.system, c, *_d4_seed(c[4].numerator, c[4].denominator))


def construct_rational_solution(p: ParameterTuple) -> ClassificationResult:
    """Full decision: verdict, witness word, and a verified solution.

    The lattice coordinates are taken once (`_lattice`), on D4's integer
    parameters, which `_normalize` and the pullback carry: D4's seed
    folded in D4 by one `backlund._fold` of the inverse word's
    letters, `_reduced` by the group's relations, must restore them, is
    checked there by `is_solution` and settled once.
    """
    c, den, f = _lattice(p)
    index = _matched_condition(den, f)
    if index is None:
        return ClassificationResult(p, False)
    to_standard, letters, image = _normalize(p.system, c, den, f, index)
    back, comps = _fold(_reduced(letters[::-1]), image, den, _d4_seed(image[4], den))
    if back != c:
        raise NormalizationFailed("pullback word did not restore the parameters")
    c = to_d4_alphas(p.system, p.alphas)
    if not is_solution(ParameterTuple(System.D4, c), SolutionTuple(Chart.AFFINE, *comps)):
        raise NormalizationFailed("pulled-back seed fails the residual check")
    return ClassificationResult(p, True, index, to_standard, _settle(p.system, c, *comps))
