"""Bäcklund transformation groups of the three systems.

Each generator acts on parameters by an exact affine map and on
solutions by a birational map, possibly landing in another chart.
Degenerate divisions follow three rules, tried in order:

  1. identity convention: a generator dividing by an identically zero
     component is the identity when its own parameter vanishes;
  2. infinite image: where the system provides an alternative chart,
     the image is computed there (the conjugated map is regular);
  3. otherwise the action is undefined and raises UndefinedAction.

Words apply left factor first: the word "s4 pi1 s1" applied to p is
s1(pi1(s4(p))) read right-to-left as functions, i.e. s4 acts first.
This orientation is what reproduces the documented shift vectors of
the translation operators T1..T4.

Generators that send t to -t (B4 s4/pi1, D4 pi1/pi2, D5 s0/s4) are
realized as parameter action + component action + a final substitution
t -> -t in every stored rational function.
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
    VALID_CHARTS,
    _check_chart,
    invert_side,
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

# Generators whose image is a solution in the flipped variable -t.
T_FLIP = {
    System.B4: ("s4", "pi1"),
    System.D4: ("pi1", "pi2"),
    System.D5: ("s0", "s4"),
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

# each letter's map on (a0, ..., a4); only the applied letter's entry is computed
_PARAMS_MAPS = {
    System.B4: {
        "s0": lambda a0, a1, a2, a3, a4: (-a0, a1, a2 + a0, a3, a4),
        "s1": lambda a0, a1, a2, a3, a4: (a0, -a1, a2 + a1, a3, a4),
        "s2": lambda a0, a1, a2, a3, a4: (a0 + a2, a1 + a2, -a2, a3 + a2, a4),
        "s3": lambda a0, a1, a2, a3, a4: (a0, a1, a2 + a3, -a3, a4 + a3),
        "s4": lambda a0, a1, a2, a3, a4: (a0, a1, a2, a3 + 2 * a4, -a4),
        "pi1": lambda a0, a1, a2, a3, a4: (a1, a0, a2, a3, a4),
        "pi2": lambda a0, a1, a2, a3, a4: (2 * a4 + a3, a3, a2, a1, (a0 - a1) / 2),
    },
    System.D4: {
        "s0": lambda a0, a1, a2, a3, a4: (-a0, a1, a2 + a0, a3, a4),
        "s1": lambda a0, a1, a2, a3, a4: (a0, -a1, a2 + a1, a3, a4),
        "s2": lambda a0, a1, a2, a3, a4: (a0 + a2, a1 + a2, -a2, a3 + a2, a4 + a2),
        "s3": lambda a0, a1, a2, a3, a4: (a0, a1, a2 + a3, -a3, a4),
        "s4": lambda a0, a1, a2, a3, a4: (a0, a1, a2 + a4, a3, -a4),
        "pi1": lambda a0, a1, a2, a3, a4: (a1, a0, a2, a3, a4),
        "pi2": lambda a0, a1, a2, a3, a4: (a0, a1, a2, a4, a3),
        "pi3": lambda a0, a1, a2, a3, a4: (a4, a3, a2, a1, a0),
        "pi4": lambda a0, a1, a2, a3, a4: (a3, a4, a2, a0, a1),
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


def _params_map(system: System, name: str, a):
    return _PARAMS_MAPS[system][name](*a)


def act_params(gen: Generator, p: ParameterTuple) -> ParameterTuple:
    if gen.system is not p.system:
        raise ValueError("generator and parameters belong to different systems")
    for letter in _letters(gen):
        p = p.replace_alphas(_params_map(p.system, letter.name, p.alphas))
    return p


# -- solution actions --------------------------------------------------------

def _identity_or_undefined(name: str, param: Fraction, p, sol):
    """Degenerate-division rule when no infinite image applies."""
    if param == 0:
        return sol
    raise UndefinedAction(
        f"{name} divides by an identically zero component and its parameter "
        f"{param} is nonzero"
    )


def _shared_letter(name: str, p, sol: SolutionTuple) -> SolutionTuple:
    """s0, s1, pi1 and s2, whose formulas B4 in both charts and D4 share
    (B4's affine chart has its own s2)."""
    a0, a1, a2, a3, a4 = p.alphas
    x, y, z, w = sol.components()
    if name == "s0":
        if (y - 1).is_zero():
            return _identity_or_undefined(name, a0, p, sol)
        return sol.replace(x=x + a0 / (y - 1))
    if name == "s1":
        if y.is_zero():
            return _identity_or_undefined(name, a1, p, sol)
        return sol.replace(x=x + a1 / y)
    if name == "s2":
        d = x * z - 1
        if d.is_zero():
            return _identity_or_undefined(name, a2, p, sol)
        return sol.replace(y=y - a2 * z / d, w=w - a2 * x / d)
    if name == "pi1":
        return SolutionTuple(sol.chart, -x, 1 - y, -z, -w)
    raise AssertionError(name)


def _b4_affine(name: str, p, sol: SolutionTuple) -> SolutionTuple:
    a0, a1, a2, a3, a4 = p.alphas
    x, y, z, w = sol.components()
    t = RF.t()
    if name == "s2":
        if (x - z).is_zero():
            return _identity_or_undefined(name, a2, p, sol)
        c = a2 / (x - z)
        return sol.replace(y=y - c, w=w + c)
    if name == "s3":
        if w.is_zero():
            if a3 == 0:
                return sol
            # image has z == infinity; the m3 coordinates stay regular
            return SolutionTuple(Chart.M3, x, y, RF.ZERO, -(w * z * z) - a3 * z)
        return sol.replace(z=z + a3 / w)
    if name == "s4":
        if z.is_zero():
            raise UndefinedAction("s4 needs z not identically zero")
        return sol.replace(w=w - 2 * a4 / z + t / (z * z))
    if name == "pi2":
        if z.is_zero():
            raise UndefinedAction("pi2 needs z not identically zero")
        new_x = t / z
        new_y = -(z * (z * w + a3)) / t
        if x.is_zero():
            # image has z == infinity (m3 chart)
            return SolutionTuple(Chart.M3, new_x, new_y, RF.ZERO, t * y)
        return SolutionTuple(Chart.AFFINE, new_x, new_y, t / x, -(x * (x * y + a1)) / t)
    return _shared_letter(name, p, sol)


def _b4_m3(name: str, p, sol: SolutionTuple) -> SolutionTuple:
    a0, a1, a2, a3, a4 = p.alphas
    x, y, z, w = sol.components()
    t = RF.t()
    if name == "s3":
        if a3 == 0:
            return sol
        if w.is_zero():
            raise UndefinedAction("s3 on the m3 chart needs w3 nonzero when a3 != 0")
        return sol.replace(z=z + a3 / w)
    if name == "s4":
        return sol.replace(w=w - t)
    if name == "pi2":
        return SolutionTuple(Chart.M3, t * z, w / t, x / t, t * y)
    return _shared_letter(name, p, sol)


def _d4_affine(name: str, p, sol: SolutionTuple) -> SolutionTuple:
    a0, a1, a2, a3, a4 = p.alphas
    x, y, z, w = sol.components()
    t = RF.t()
    if name == "s3":
        if w.is_zero():
            return _identity_or_undefined(name, a3, p, sol)
        return sol.replace(z=z + a3 / w)
    if name == "s4":
        if (w - t).is_zero():
            return _identity_or_undefined(name, a4, p, sol)
        return sol.replace(z=z + a4 / (w - t))
    if name == "pi2":
        return sol.replace(w=w - t)
    if name == "pi3":
        return SolutionTuple(Chart.AFFINE, t * z, w / t, x / t, t * y)
    if name == "pi4":
        return SolutionTuple(Chart.AFFINE, -(t * z), (t - w) / t, -(x / t), t - t * y)
    return _shared_letter(name, p, sol)


def _d5_action(name: str, p, sol: SolutionTuple) -> SolutionTuple:
    a0, a1, a2, a3, a4 = p.alphas
    x, y, z, w = sol.components()
    t = RF.t()
    chart = sol.chart
    x_inf = chart in (Chart.R1, Chart.R5)  # x-side stored in r1 coordinates
    z_inf = chart in (Chart.R3, Chart.R5)  # z-side stored in r3 coordinates

    if name == "s0":
        if x_inf:
            return sol.replace(x=-x, y=1 - y, z=-z, w=-w)
        if x.is_zero():
            raise UndefinedAction("s0 needs x not identically zero")
        return sol.replace(x=-x, y=-y + 2 * a0 / x - 1 / (x * x), z=-z, w=-w)

    if name == "s1":
        if y.is_zero():
            if a1 == 0:
                return sol
            if x_inf:
                raise UndefinedAction("s1 with y1 == 0 and a1 != 0")
            # image has x == infinity; r1 coordinates stay regular
            x1 = RF.ZERO
            y1 = -(x * x * y) - a1 * x
            new_chart = Chart.R5 if z_inf else Chart.R1
            return SolutionTuple(new_chart, x1, y1, z, w)
        new_x = x + a1 / y
        if not x_inf and new_x.is_zero():
            raise UndefinedAction("s1 image has x == 0, which no solution admits")
        return sol.replace(x=new_x)

    if name == "s2":
        # y and w move by a2 * (dy, dw) / d, in the coordinates of the chart
        if x_inf and z_inf:
            d, dy, dw = 1 - x * z, z, x
        elif x_inf:
            d, dy, dw = z - x, 1, -1
        elif z_inf:
            d, dy, dw = x - z, -1, 1
        else:
            d, dy, dw = x * z - 1, -z, -x
        if d.is_zero():
            return _identity_or_undefined(name, a2, p, sol)
        return sol.replace(y=y + a2 * dy / d, w=w + a2 * dw / d)

    if name == "s3":
        if z_inf:
            if a3 == 0:
                return sol
            if w.is_zero():
                raise UndefinedAction("s3 on an infinite-z chart needs w nonzero")
            return sol.replace(z=z + a3 / w)
        if w.is_zero():
            if a3 == 0:
                return sol
            # image has z == infinity; r3 coordinates stay regular
            z3 = RF.ZERO
            w3 = -(z * z * w) - a3 * z
            new_chart = Chart.R5 if x_inf else Chart.R3
            return SolutionTuple(new_chart, x, y, z3, w3)
        new_z = z + a3 / w
        if new_z.is_zero():
            raise UndefinedAction("s3 image has z == 0, which no solution admits")
        return sol.replace(z=new_z)

    if name == "s4":
        if z_inf:
            return sol.replace(w=w - t)
        if z.is_zero():
            raise UndefinedAction("s4 needs z not identically zero")
        return sol.replace(w=w - 2 * a4 / z + t / (z * z))

    if name == "psi":
        # psi swaps the x- and z-sides; each side keeps its own style
        if chart is Chart.AFFINE:
            return SolutionTuple(Chart.AFFINE, z / t, t * w, t * x, y / t)
        if chart is Chart.R1:
            return SolutionTuple(Chart.R3, z / t, t * w, x / t, t * y)
        if chart is Chart.R3:
            return SolutionTuple(Chart.R1, t * z, w / t, t * x, y / t)
        return SolutionTuple(Chart.R5, t * z, w / t, x / t, t * y)

    raise AssertionError(name)


def _to_affine_if_finite(p_out: ParameterTuple, sol: SolutionTuple) -> SolutionTuple:
    """Convert chart coordinates back while the marker components are nonzero.

    Genuinely infinite solutions (marker identically zero) keep their
    chart; anything representable in the affine chart is returned there,
    matching how the source tables present finite images.
    """
    chart, x, y, z, w = sol.chart, sol.x, sol.y, sol.z, sol.w
    if chart in (Chart.R1, Chart.R5) and not x.is_zero():
        x, y = invert_side(x, y, p_out.alphas[1])
        chart = Chart.R3 if chart is Chart.R5 else Chart.AFFINE
    if chart in (Chart.M3, Chart.R3, Chart.R5) and not z.is_zero():
        z, w = invert_side(z, w, p_out.alphas[3])
        chart = {Chart.M3: Chart.AFFINE, Chart.R3: Chart.AFFINE, Chart.R5: Chart.R1}[chart]
    if chart is sol.chart and (x, y, z, w) == (sol.x, sol.y, sol.z, sol.w):
        return sol
    return SolutionTuple(chart, x, y, z, w)


def act_solution(gen: Generator, p: ParameterTuple, sol: SolutionTuple) -> SolutionTuple:
    """Apply one token to a solution of the system with parameters p.

    Returns the image solution; the image parameters are act_params(gen, p).
    """
    return _act_token(gen, p, sol)[1]


def _act_token(gen: Generator, p: ParameterTuple, sol: SolutionTuple):
    """(act_params(gen, p), act_solution(gen, p, sol)), one letter at a time."""
    if gen.system is not p.system:
        raise ValueError("generator and parameters belong to different systems")
    for letter in _letters(gen):
        p, sol = _act_letter(letter, p, sol)
    return p, sol


def _act_letter(letter: Generator, p: ParameterTuple, sol: SolutionTuple):
    """The image parameters and solution of one letter."""
    system = p.system
    _check_chart(system, sol.chart)

    if system is System.B4:
        action = _b4_m3 if sol.chart is Chart.M3 else _b4_affine
        out = action(letter.name, p, sol)
    elif system is System.D4:
        out = _d4_affine(letter.name, p, sol)
    else:
        out = _d5_action(letter.name, p, sol)

    if letter.name in T_FLIP[system]:
        out = out.substitute_negate()

    p_out = p.replace_alphas(_params_map(system, letter.name, p.alphas))
    return p_out, _to_affine_if_finite(p_out, out)


def act_word(
    w: GeneratorWord, p: ParameterTuple, sol: Optional[SolutionTuple] = None
):
    """Fold a word over parameters (and optionally a solution), left first."""
    for tok in w.tokens:
        if sol is not None:
            p, sol = _act_token(tok, p, sol)
        else:
            p = act_params(tok, p)
    return (p, sol) if sol is not None else (p, None)


# -- birational equivalences between the systems -----------------------------

def equivalence_map(
    source: System, target: System, p: ParameterTuple, sol: SolutionTuple
):
    """Map a D4 solution to the equivalent B4 or D5 solution.

    Supported directions: (D4 -> B4) and (D4 -> D5).  Components that
    would be inverted through an identically zero value land in the
    appropriate infinite chart of the target system.
    """
    if p.system is not source:
        raise ValueError("parameters do not belong to the source system")
    if source is not System.D4 or target not in (System.B4, System.D5):
        raise ValueError(f"unsupported equivalence {source.value} -> {target.value}")
    if sol.chart is not Chart.AFFINE:
        raise ChartMismatch("equivalence maps act on affine D4 solutions")
    a0, a1, a2, a3, a4 = p.alphas
    x, y, z, w = sol.components()
    q = ParameterTuple(target, ((a0 - a1) / 2 if target is System.D5 else a0,
                                a1, a2, a3, (a4 - a3) / 2))
    # the sides the target's affine chart inverts, except an identically
    # zero x or z, which stays as the marker of an infinite chart
    x_inverted, z_inverted = INVERTED_SIDES[target, Chart.AFFINE]
    x_inverted, z_inverted = x_inverted and not x.is_zero(), z_inverted and not z.is_zero()
    if x_inverted:
        x, y = invert_side(x, y, a1)
    if z_inverted:
        z, w = invert_side(z, w, a3)
    chart = next(c for c in VALID_CHARTS[target] if INVERTED_SIDES[target, c] == (x_inverted, z_inverted))
    return q, SolutionTuple(chart, x, y, z, w)
