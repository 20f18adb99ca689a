"""Bäcklund transformation groups of the three systems.

Each generator acts on parameters by an exact affine map and on
solutions by a birational map, possibly landing in another chart.  The
three systems are D4 seen through charts, each side (x, y) or (z, w)
written in D4's coordinates or inverted (`systems.INVERTED_SIDES`), and
every B4 and D5 generator is a D4 letter under the linear parameter map
`systems.to_d4_alphas` (`D4_LETTER`).  So each parameter map is D4's,
written once in `_D4_PARAMS_MAPS`: `act_word` carries a word's parameters
in D4 coordinates from its first letter to its last.  Each solution map
is written once, in `_d4_letter`, for plain and inverted sides, and
`_settle` writes the image in the system's charts.  Degenerate divisions
follow three rules, tried in order:

  1. identity convention: a generator dividing by an identically zero
     component is the identity when its own parameter vanishes;
  2. infinite image: where the system provides an alternative chart,
     the image is computed there (the conjugated map is regular);
  3. otherwise the action is undefined and raises UndefinedAction.

An inverted side whose u is identically zero solves no system, and every
generator raises UndefinedAction on it.

Words apply left factor first: the word "s4 pi1 s1" applied to p is
s1(pi1(s4(p))) read right-to-left as functions, i.e. s4 acts first.
This orientation is what reproduces the documented shift vectors of
the translation operators T1..T4.

Generators that send t to -t (D4 pi1/pi2, so B4 s4/pi1 and D5 s0/s4)
are realized as parameter action + component action + a final
substitution t -> -t in every stored rational function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .exactmath import RF
from .systems import (
    Chart,
    ChartMismatch,
    INVERTED_SIDES,
    ParameterTuple,
    SolutionTuple,
    System,
    _check_chart,
    from_d4_alphas,
    invert_side,
    to_d4_alphas,
)


class UndefinedAction(ValueError):
    """The generator's birational map is undefined on this solution."""


class NormalizationFailed(RuntimeError):
    """Parameter normalization did not reach the target form (a bug)."""


PRIMITIVES = {
    System.B4: ("s0", "s1", "s2", "s3", "s4", "pi1", "pi2"),
    System.D4: ("s0", "s1", "s2", "s3", "s4", "pi1", "pi2", "pi3", "pi4"),
    System.D5: ("s0", "s1", "s2", "s3", "s4", "psi"),
}

SHIFTS = {
    System.B4: ("T1", "T2", "T3", "T4"),
    System.D4: ("T1", "T2", "T3", "T4"),
    System.D5: (),
}


@dataclass(frozen=True)
class Generator:
    """One word token: a primitive generator or a shift operator T1..T4."""

    system: System
    name: str
    inverse: bool = False

    def __post_init__(self):
        if self.name not in PRIMITIVES[self.system] + SHIFTS[self.system]:
            raise ValueError(f"unknown {self.system.value} generator {self.name!r}")
        if self.inverse and self.name in PRIMITIVES[self.system]:
            # primitives are involutions; normalize their inverses away
            object.__setattr__(self, "inverse", False)

    def inverted(self) -> "Generator":
        return Generator(self.system, self.name, not self.inverse)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverse else self.name


@dataclass(frozen=True)
class GeneratorWord:
    """A finite sequence of tokens sharing one system, left factor first."""

    system: System
    tokens: Tuple[Generator, ...]

    def __post_init__(self):
        for tok in self.tokens:
            if tok.system is not self.system:
                raise ValueError("word mixes generators of different systems")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def to_json(self) -> list:
        return [str(tok) for tok in self.tokens]

    def __str__(self) -> str:
        return " ".join(str(tok) for tok in self.tokens)


def word(system: System, names: Sequence[str]) -> GeneratorWord:
    return GeneratorWord(system, tuple(_parse_token(system, n) for n in names))


def _parse_token(system: System, text: str) -> Generator:
    text = text.strip()
    if text.startswith("inv(") and text.endswith(")"):
        return _parse_token(system, text[4:-1]).inverted()
    canon = text.lower() if text.lower().startswith(("s", "p")) else text.upper()
    return Generator(system, canon)


def parse_word(system: System, text: str) -> GeneratorWord:
    """Parse whitespace-separated tokens; inv(...) may wrap a sub-word."""
    tokens: list = []
    chunks = text.replace(",", " ").split()
    i = 0
    while i < len(chunks):
        chunk = chunks[i]
        if chunk.startswith("inv(") and not chunk.endswith(")"):
            # inv( w1 w2 ... ) spanning several chunks
            inner = [chunk[4:]]
            i += 1
            while i < len(chunks) and not chunks[i].endswith(")"):
                inner.append(chunks[i])
                i += 1
            if i == len(chunks):
                raise ValueError("unbalanced inv( in word")
            inner.append(chunks[i][:-1])
            sub = word(system, [c for c in inner if c])
            tokens.extend(invert_word(sub).tokens)
        else:
            tokens.append(_parse_token(system, chunk))
        i += 1
    return GeneratorWord(system, tuple(tokens))


# -- shift operators ---------------------------------------------------------

_B4_T1 = ("s4", "pi1", "s1", "s2", "s4", "s3", "s4", "s3", "s2", "s1")
_SHIFT_LETTERS = {
    System.B4: {
        "T1": _B4_T1,
        "T2": ("s0",) + _B4_T1 + ("s0",),
        "T3": ("s2", "s0") + _B4_T1 + ("s0", "s2"),
        "T4": ("s3", "s2", "s0") + _B4_T1 + ("s0", "s2", "s3"),
    },
    System.D4: {
        "T1": ("s3", "s0", "s2", "s4", "s1", "s2", "pi4"),
        "T2": ("s4", "s1", "s2", "s3", "s0", "s2", "pi4"),
        "T3": ("s3", "s2", "s0", "s1", "s2", "s3", "pi1", "pi2"),
        "T4": ("s4", "s3", "s2", "s1", "s0", "s2", "pi1", "pi2"),
    },
}


def shift_word(system: System, i: int) -> GeneratorWord:
    """The defining word of the shift operator T_i (B4 and D4 only)."""
    if system not in _SHIFT_LETTERS:
        raise ValueError(f"no shift operators for system {system.value}")
    if i not in (1, 2, 3, 4):
        raise ValueError("shift index must be 1..4")
    return word(system, _SHIFT_LETTERS[system][f"T{i}"])


def _letters(tok: Generator):
    """Expand a token into primitive generators, honouring inversion."""
    if tok.name in PRIMITIVES[tok.system]:
        return (tok,)
    letters = _SHIFT_LETTERS[tok.system][tok.name]
    if tok.inverse:
        letters = tuple(reversed(letters))  # all letters are involutions
    return tuple(Generator(tok.system, n) for n in letters)


def invert_word(w: GeneratorWord) -> GeneratorWord:
    """Formal inverse: reversed tokens, each inverted."""
    return GeneratorWord(w.system, tuple(t.inverted() for t in reversed(w.tokens)))


# -- parameter actions -------------------------------------------------------

# the D4 letter each generator is, under the linear parameter map
# (`systems.to_d4_alphas`)
D4_LETTER = {
    System.B4: {"s0": "s0", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "pi2",
                "pi1": "pi1", "pi2": "pi3"},
    System.D4: {name: name for name in PRIMITIVES[System.D4]},
    System.D5: {"s0": "pi1", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "pi2",
                "psi": "pi3"},
}

# each D4 letter's map on the D4 parameters (c0, ..., c4)
_D4_PARAMS_MAPS = {
    "s0": lambda c0, c1, c2, c3, c4: (-c0, c1, c2 + c0, c3, c4),
    "s1": lambda c0, c1, c2, c3, c4: (c0, -c1, c2 + c1, c3, c4),
    "s2": lambda c0, c1, c2, c3, c4: (c0 + c2, c1 + c2, -c2, c3 + c2, c4 + c2),
    "s3": lambda c0, c1, c2, c3, c4: (c0, c1, c2 + c3, -c3, c4),
    "s4": lambda c0, c1, c2, c3, c4: (c0, c1, c2 + c4, c3, -c4),
    "pi1": lambda c0, c1, c2, c3, c4: (c1, c0, c2, c3, c4),
    "pi2": lambda c0, c1, c2, c3, c4: (c0, c1, c2, c4, c3),
    "pi3": lambda c0, c1, c2, c3, c4: (c4, c3, c2, c1, c0),
    "pi4": lambda c0, c1, c2, c3, c4: (c3, c4, c2, c0, c1),
}


def act_params(gen: Generator, p: ParameterTuple) -> ParameterTuple:
    return act_word(GeneratorWord(gen.system, (gen,)), p)[0]


# -- solution actions --------------------------------------------------------

# D4 letters whose image is a solution in the flipped variable -t
T_FLIP = ("pi1", "pi2")

# the chart of each system that writes the sides as (x inverted, z inverted)
_CHART_OF = {(system, *sides): chart for (system, chart), sides in INVERTED_SIDES.items()}


def _acts(name: str, d, param: Fraction) -> bool:
    """Whether a letter dividing by d acts: if d is identically zero, the
    letter is the identity when its parameter vanishes, else undefined."""
    if not d.is_zero():
        return True
    if param != 0:
        raise UndefinedAction(
            f"{name} divides by an identically zero component and its parameter "
            f"{param} is nonzero"
        )
    return False


def _s_side(name: str, b: Fraction, inverted: bool, u, v):
    """s1 on (x, y) or s3 on (z, w), u -> u + b/v in either coordinates:
    the image side's flag and components."""
    if inverted and v.is_zero():
        # in D4's coordinates the side is (1/u, -b*u) and its image
        # (0, -b*u), which only D4's coordinates can hold
        return (True, u, v) if b == 0 else (False, RF.ZERO, -b * u)
    if not _acts(name, v, b):
        return inverted, u, v
    u = u + b / v
    if inverted and u.is_zero():  # v == 0 in D4 coordinates, with b != 0
        raise UndefinedAction(f"{name} divides by an identically zero component")
    return inverted, u, v


def _d4_letter(name: str, c, x_inv: bool, z_inv: bool, x, y, z, w):
    """D4's letter `name` at the D4 parameters c on the sides (x, y) and
    (z, w), each in D4's coordinates or, where its flag is set, inverted by
    `invert_side`.  Returns the image's flags and components, before any
    t -> -t.  No system meets s0, s4 or pi4 on an inverted side."""
    t = RF.t()
    if name == "s0":
        if _acts(name, y - 1, c[0]):
            x = x + c[0] / (y - 1)
    elif name == "s1":
        x_inv, x, y = _s_side(name, c[1], x_inv, x, y)
    elif name == "s2":
        # y and w move by -c2 * (dy, dw) / d, with d = x*z - 1 and (dy, dw)
        # = (z, x) when both sides or neither are inverted; one inverted side
        # turns them into x - z and (1, -1)
        mixed = x_inv != z_inv
        d = x - z if mixed else x * z - 1
        if _acts(name, d, c[2]):
            dy, dw = (1, -1) if mixed else (z, x)
            y, w = y - c[2] * dy / d, w - c[2] * dw / d
    elif name == "s3":
        z_inv, z, w = _s_side(name, c[3], z_inv, z, w)
    elif name == "s4":
        if _acts(name, w - t, c[4]):
            z = z + c[4] / (w - t)
    elif name == "pi1":
        y = -y + (c[0] - c[1]) / x - 1 / (x * x) if x_inv else 1 - y
        x, z, w = -x, -z, -w
    elif name == "pi2":
        w = w - (c[4] - c[3]) / z + t / (z * z) if z_inv else w - t
    elif name == "pi3":
        # the sides swap, each keeping its coordinates
        x_side = (z / t, t * w) if z_inv else (t * z, w / t)
        z_side = (t * x, y / t) if x_inv else (x / t, t * y)
        (x, y), (z, w), x_inv, z_inv = x_side, z_side, z_inv, x_inv
    else:  # pi4
        x, y, z, w = -(t * z), (t - w) / t, -(x / t), t - t * y
    return x_inv, z_inv, x, y, z, w


def _settle(system: System, c, x_inv: bool, z_inv: bool, x, y, z, w) -> SolutionTuple:
    """The solution of `system` at the D4 parameters c whose sides are
    given with their flags.

    Each side is written as the system's affine chart writes it, except a
    side in D4's coordinates with u identically zero, which stays as the
    marker of an infinite chart.  This inverts what the affine chart
    inverts and undoes an inversion no chart of the system makes (B4's
    x-side after pi2).
    """
    x_affine, z_affine = INVERTED_SIDES[system, Chart.AFFINE]
    # c1 and c3 are every system's a1 and a3
    if x_inv != x_affine and not x.is_zero():
        x_inv, (x, y) = x_affine, invert_side(x, y, c[1])
    if z_inv != z_affine and not z.is_zero():
        z_inv, (z, w) = z_affine, invert_side(z, w, c[3])
    return SolutionTuple(_CHART_OF[system, x_inv, z_inv], x, y, z, w)


def act_solution(gen: Generator, p: ParameterTuple, sol: SolutionTuple) -> SolutionTuple:
    """Apply one token to a solution of the system with parameters p.

    Returns the image solution; the image parameters are act_params(gen, p).
    """
    return act_word(GeneratorWord(gen.system, (gen,)), p, sol)[1]


def _act_letter(system: System, name: str, c, image, sol: SolutionTuple) -> SolutionTuple:
    """The image of sol under D4's letter `name`, from the D4 parameters c
    to their image."""
    _check_chart(system, sol.chart)
    x_inv, z_inv = INVERTED_SIDES[system, sol.chart]
    if (x_inv and sol.x.is_zero()) or (z_inv and sol.z.is_zero()):
        raise UndefinedAction("an inverted side with u == 0 solves no system")
    *flags, x, y, z, w = _d4_letter(name, c, x_inv, z_inv, *sol.components())
    if name in T_FLIP:
        x, y, z, w = (v.substitute_negate() for v in (x, y, z, w))
    return _settle(system, image, *flags, x, y, z, w)


def act_word(
    w: GeneratorWord, p: ParameterTuple, sol: Optional[SolutionTuple] = None
):
    """Fold a word over parameters (and optionally a solution), left first.

    The parameters are carried in D4 coordinates, c = `to_d4_alphas(p)`,
    from the first letter to the last, each letter acting as its D4 letter.
    """
    system = p.system
    if w.system is not system:
        raise ValueError("generator and parameters belong to different systems")
    c = to_d4_alphas(system, p.alphas)
    for tok in w.tokens:
        for letter in _letters(tok):
            name = D4_LETTER[system][letter.name]
            image = _D4_PARAMS_MAPS[name](*c)
            if sol is not None:
                sol = _act_letter(system, name, c, image, sol)
            c = image
    return ParameterTuple(system, from_d4_alphas(system, c)), sol


# -- birational equivalences between the systems -----------------------------

def equivalence_map(
    source: System, target: System, p: ParameterTuple, sol: SolutionTuple
):
    """Map a D4 solution to the equivalent B4 or D5 solution.

    Supported directions: (D4 -> B4) and (D4 -> D5).  The parameters move
    by the linear map `systems.from_d4_alphas`; the solution is settled in
    the target's charts like a letter's image, so an identically zero x or
    z lands in the appropriate infinite chart.
    """
    if p.system is not source:
        raise ValueError("parameters do not belong to the source system")
    if source is not System.D4 or target not in (System.B4, System.D5):
        raise ValueError(f"unsupported equivalence {source.value} -> {target.value}")
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("equivalence maps act on affine D4 solutions")
    return (ParameterTuple(target, from_d4_alphas(target, p.alphas)),
            _settle(target, p.alphas, False, False, *sol.components()))
