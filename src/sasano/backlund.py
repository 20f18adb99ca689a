"""Bäcklund transformation groups of the three systems.

Each generator acts on parameters by an exact affine map and on
solutions by a birational map, possibly landing in another chart.  The
three systems are D4 seen through charts (`systems.INVERTED_SIDES`), and
every B4 and D5 generator is a D4 letter under the linear parameter map
`systems.to_d4_alphas` (`D4_LETTER`).  So each map is written once, for
D4: on parameters in `_D4_PARAMS_MAPS`, on solutions in `_d4_letter`.
`act_word` folds a word's letters as written (`_fold`) in D4 coordinates,
entered once by `systems._d4_image` and left once by `systems._settle`,
which hold the chart rules; the former refuses a chart of another system
and an inverted side whose u is identically zero.  Degenerate divisions
follow three rules, tried in order:

  1. identity convention: a generator dividing by an identically zero
     component is the identity when its own parameter vanishes;
  2. infinite image: a side whose u is identically zero in D4's
     coordinates stays in them, in an alternative chart;
  3. otherwise the action is undefined and raises UndefinedAction.

Every letter is an involution, and s-letters satisfy aba = bab where their
nodes are joined and ab = ba elsewhere.  `_reduced` cancels by these
relations, which keeps the group element and so any image that is defined;
rule 3 reads the letters, so only `construct`'s pullback folds reduced ones.

Words apply left factor first: "s4 pi1 s1" applied to p is s1(pi1(s4(p)))
as functions, i.e. s4 acts first, which reproduces the documented shift
vectors of the translation operators T1..T4.  Generators that send t to -t
(D4 pi1/pi2, so B4 s4/pi1 and D5 s0/s4) are parameter action + component
action + t -> -t, which `_fold` carries as a sign to the end of the word.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .exactmath import RationalFunction
from .systems import (
    Chart,
    ChartMismatch,
    ParameterTuple,
    SolutionTuple,
    System,
    T,
    UndefinedAction,
    _d4_image,
    _integers,
    _settle,
    from_d4_alphas,
    to_d4_alphas,
)


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

# the D4 letter each generator is, under the linear parameter map
# (`systems.to_d4_alphas`)
D4_LETTER = {
    System.B4: {"s0": "s0", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "pi2",
                "pi1": "pi1", "pi2": "pi3"},
    System.D4: {name: name for name in _D4_PARAMS_MAPS},
    System.D5: {"s0": "pi1", "s1": "s1", "s2": "s2", "s3": "s3", "s4": "pi2",
                "psi": "pi3"},
}

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

# each system's primitive generators and shift operators, in table order
PRIMITIVES = {system: tuple(letters) for system, letters in D4_LETTER.items()}
SHIFTS = {system: tuple(_SHIFT_LETTERS.get(system, ())) for system in System}


class Generator(Record):
    """One word token: a primitive generator or a shift operator T1..T4."""

    __slots__ = ("system", "name", "inverse")

    def __init__(self, system: System, name: str, inverse: bool = False):
        if name not in PRIMITIVES[system] + SHIFTS[system]:
            raise ValueError(f"unknown {system.value} generator {name!r}")
        # primitives are involutions; normalize their inverses away
        self._fill(system, name, False if inverse and name in PRIMITIVES[system] else inverse)

    def inverted(self) -> "Generator":
        return Generator(self.system, self.name, not self.inverse)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverse else self.name


class GeneratorWord(Record):
    """A finite sequence of tokens sharing one system, left factor first."""

    __slots__ = ("system", "tokens")

    def __init__(self, system: System, tokens: tuple[Generator, ...]):
        for tok in tokens:
            if tok.system is not system:
                raise ValueError("word mixes generators of different systems")
        self._fill(system, tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def to_json(self) -> list:
        return [str(tok) for tok in self.tokens]

    def __str__(self) -> str:
        return " ".join(str(tok) for tok in self.tokens)


def word(system: System, names: Sequence[str]) -> GeneratorWord:
    """The word of the tokens `names`, each read by `parse_word`."""
    return parse_word(system, " ".join(names))


def parse_word(system: System, text: str) -> GeneratorWord:
    """Parse a word: names separated by spaces or commas, where inv( ... )
    inverts the sub-word it wraps, at any depth, and inv() is the empty
    word.  Names starting with s or p are read in lower case (s1, pi2,
    psi), the others in upper case (T1)."""
    open_words: list = [[]]  # the tokens of each inv( not yet closed, outermost first
    for token in re.findall(r"inv\(|[()]|[^\s,()]+", text):
        if token == "inv(":
            open_words.append([])
        elif token == ")":
            if len(open_words) == 1:
                raise ValueError("unmatched ) in word")
            inner = open_words.pop()
            open_words[-1].extend(tok.inverted() for tok in reversed(inner))
        elif token == "(":
            raise ValueError("stray ( in word: only inv( opens a group")
        else:
            canon = token.lower() if token.lower().startswith(("s", "p")) else token.upper()
            open_words[-1].append(Generator(system, canon))
    if len(open_words) > 1:
        raise ValueError("unbalanced inv( in word")
    return GeneratorWord(system, tuple(open_words[0]))


# -- shift operators ---------------------------------------------------------

def shift_word(system: System, i: int) -> GeneratorWord:
    """The defining word of the shift operator T_i (B4 and D4 only)."""
    if system not in _SHIFT_LETTERS:
        raise ValueError(f"no shift operators for system {system.value}")
    if i not in (1, 2, 3, 4):
        raise ValueError("shift index must be 1..4")
    return word(system, _SHIFT_LETTERS[system][f"T{i}"])


def _letters(tok: Generator) -> tuple:
    """The names of a token's primitive generators, honouring inversion."""
    letters = _SHIFT_LETTERS.get(tok.system, {}).get(tok.name, (tok.name,))
    return letters[::-1] if tok.inverse else letters  # all letters are involutions


def invert_word(w: GeneratorWord) -> GeneratorWord:
    """Formal inverse: reversed tokens, each inverted."""
    return GeneratorWord(w.system, tuple(t.inverted() for t in reversed(w.tokens)))


# -- actions -----------------------------------------------------------------

# D4 letters whose image is a solution in the flipped variable -t
T_FLIP = ("pi1", "pi2")


def _acts(name: str, d, c, den: int) -> bool:
    """Whether a letter dividing by d acts: if d is identically zero, the
    letter is the identity when its parameter c / den vanishes, else undefined."""
    if not d.is_zero():
        return True
    if c:
        raise UndefinedAction(
            f"{name} divides by an identically zero component and its parameter "
            f"{Fraction(c, den)} is nonzero"
        )
    return False


def _over(c: int, num, den: int, d):
    """(c * num) / (den * d) for polynomials num and d, coprime, and
    integers c and den != 0."""
    return RationalFunction._coprime(num.scale(c), d.scale(den))


def _d4_letter(name: str, c, den: int, tt, x, y, z, w):
    """D4's letter `name` at the D4 parameters c / den (integers c) on the D4
    solution (x, y, z, w) in s, with t = tt = ±s: the image's components in s.
    s_i acts through its own parameter c_i / den, scaling by the integers."""
    ci = c[int(name[1])] if name[0] == "s" else None
    if name == "s0":
        d = y - 1
        if _acts(name, d, ci, den):
            x = x + _over(ci, d.den, den, d.num)
    elif name == "s1":
        if _acts(name, y, ci, den):
            x = x + _over(ci, y.den, den, y.num)
    elif name == "s2":
        # y - c2 z/(xz - 1) and w - c2 x/(xz - 1) over xz's own factors: with
        # x = A/B, z = C/E reduced, k = gcd(A, E), h = gcd(C, B), A = kA1,
        # E = kE1, C = hC1 and B = hB1, xz - 1 = M/(B1 E1) with M = A1 C1 - B1 E1
        # is reduced, and so are z/(xz - 1) = h C1 B1/(k M) and x/(xz - 1) =
        # k A1 E1/(h M) once gcd(M, h) and gcd(M, k) are cancelled
        (k, a1, e1), (h, c1, b1) = x.num.gcd(z.den, cofactors=True), z.num.gcd(x.den, cofactors=True)
        m = a1 * c1 - b1 * e1
        if _acts(name, m, ci, den):
            (_, mh, h1), (_, mk, k1) = m.gcd(h, cofactors=True), m.gcd(k, cofactors=True)
            y = y + _over(-ci, h1 * c1 * b1, den, k * mh)
            w = w + _over(-ci, k1 * a1 * e1, den, h * mk)
    elif name == "s3":
        if _acts(name, w, ci, den):
            z = z + _over(ci, w.den, den, w.num)
    elif name == "s4":
        d = w - tt
        if _acts(name, d, ci, den):
            z = z + _over(ci, d.den, den, d.num)
    elif name == "pi1":
        x, y, z, w = -x, 1 - y, -z, -w
    elif name == "pi2":
        w = w - tt
    elif name == "pi3":
        x, y, z, w = tt * z, w / tt, x / tt, tt * y
    else:  # pi4
        x, y, z, w = -(tt * z), (tt - w) / tt, -(x / tt), tt - tt * y
    return x, y, z, w


def _d4_letters(w: GeneratorWord) -> list:
    """The names of w's D4 letters, left first, as written."""
    return [D4_LETTER[w.system][n] for tok in w.tokens for n in _letters(tok)]


# m with (ab)^m = 1: 1 for a = b, else 3 if s_a moves c_b (joined nodes), else 2
_ORDER = {(a, b): 1 if a == b else
          2 + bool(_D4_PARAMS_MAPS[a](*(int(k == int(a[1])) for k in range(5)))[int(b[1])])
          for a in _D4_PARAMS_MAPS for b in _D4_PARAMS_MAPS if a == b or a[0] == b[0] == "s"}


def _reduced(names) -> list:
    """D4 letter names with each alternating run a b a ... of m + 1 letters,
    m = `_ORDER`[a, b], replaced by the m - 1 letters b a ... equal to it; these
    arrive again, so no run is left: a a -> (), a b a -> b, a b a b -> b a."""
    out, todo = [], list(reversed(names))
    while todo:
        a = todo.pop()
        m = _ORDER.get((out[-1], a), 0) if out else 0
        if m and out[-m:] == [out[-1], a, out[-1]][-m:]:
            todo += out[:-m:-1]
            del out[-m:]
        else:
            out.append(a)
    return out


def _fold(names, c, den: int, comps=None):
    """(c, comps) carried by the D4 letters `names`, left first: D4 parameters
    as integers c over den, which every letter keeps, and, if given, D4
    components held in s, t = tt = ±s, each `T_FLIP` letter flipping tt,
    t -> -t at the end."""
    tt = T
    for name in names:
        if comps is not None:
            comps = _d4_letter(name, c, den, tt, *comps)
            tt = -tt if name in T_FLIP else tt
        c = _D4_PARAMS_MAPS[name](*c)
    if comps is not None and tt != T:
        comps = tuple(v.substitute_negate() for v in comps)
    return c, comps


def act_params(gen: Generator, p: ParameterTuple) -> ParameterTuple:
    return act_word(GeneratorWord(gen.system, (gen,)), p)[0]


def act_solution(gen: Generator, p: ParameterTuple, sol: SolutionTuple) -> SolutionTuple:
    """Apply one token to a solution of the system with parameters p.

    Returns the image solution; the image parameters are act_params(gen, p).
    """
    return act_word(GeneratorWord(gen.system, (gen,)), p, sol)[1]


def act_word(w: GeneratorWord, p: ParameterTuple, sol: SolutionTuple | None = None):
    """Fold a word over parameters (and optionally a solution), left first.

    Both are carried in D4 coordinates by one `_fold` of the word's D4
    letters as written, unreduced, so that rule 3 holds for each: the
    parameters as c = `to_d4_alphas(p)` in integers (`systems._integers`),
    made Fractions again once, the solution as its `_d4_image`, settled in
    the system's charts at the end.  An empty word returns sol as given."""
    system = p.system
    if w.system is not system:
        raise ValueError("generator and parameters belong to different systems")
    comps = _d4_image(p, sol)[1].components() if sol is not None and w.tokens else None
    c, den = _integers(to_d4_alphas(system, p.alphas))
    c, comps = _fold(_d4_letters(w), c, den, comps)
    c = tuple(Fraction(a, den) for a in c)
    if comps is not None:
        sol = _settle(system, c, *comps)
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
            _settle(target, p.alphas, *sol.components()))
