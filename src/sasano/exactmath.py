"""Exact arithmetic over the rationals: univariate polynomials in t,
reduced rational functions, and truncated Laurent expansions.

Representation invariants:

  * Rational numbers are ``fractions.Fraction`` (arbitrary precision,
    positive denominator, gcd(|num|, den) = 1 by construction).
  * ``Polynomial`` holds only a primitive integer image of its
    coefficients (ascending powers of t, last entry nonzero) with one
    positive rational scale, kept as two coprime positive integers
    (sn, sd); the zero polynomial is ((), 0, 1).  Its arithmetic is
    integer arithmetic; the Fraction coefficients are a view built from
    the image on first read.
  * ``RationalFunction`` stores num/den with gcd(num, den) = 1 and a
    monic denominator; this canonical form makes ``==`` structural.
  * ``LaurentSeries`` is a finite window of the expansion of a rational
    function at t = 0, t = infinity, or a finite point c, held as a
    ``Polynomial`` in the local parameter u = t, 1/t or t - c.  One sign,
    ``ExpansionPoint._sign``, orients it: at infinity the window runs in
    descending powers of t.  Sums and products keep the window both
    operands support; a coefficient read outside it raises.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from fractions import Fraction

from ._record import Record

RatLike = Fraction | int | str


def rat(value: RatLike) -> Fraction:
    """Coerce ints (not bools) and 'p/q' or 'p' strings of any length to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if not (text := re.fullmatch(r"\s*([-+]?)([0-9]+)(?:/([0-9]+))?\s*", value)):
            raise ValueError(f"not an exact rational: {value!r}")
        sign, num, den = text.groups("1")
        if not (den := _int_of_text(den)):
            raise ValueError(f"zero denominator in {value!r}")
        return Fraction(-_int_of_text(num) if sign == "-" else _int_of_text(num), den)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Encode a Fraction as 'p/q', or 'p' when the denominator is 1, at any length."""
    text = "-" * (value < 0) + _text_of_int(abs(value.numerator))
    return text if value.denominator == 1 else f"{text}/{_text_of_int(value.denominator)}"


def _text_of_int(n: int) -> str:
    """str(n) for n >= 0, past str's sys.get_int_max_str_digits() by halves."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # under half of n's digits
        high, low = divmod(n, 10 ** k)
        return _text_of_int(high) + _text_of_int(low).zfill(k)


def _int_of_text(digits: str) -> int:
    """int(digits), past its digit limit by halves joined in Karatsuba's product."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _int_of_text(digits[:-k]) * 10 ** k + _int_of_text(digits[-k:])


def is_integer(value: Fraction) -> bool:
    return value.denominator == 1


class Polynomial:
    """Univariate polynomial in t with exact rational coefficients.

    The only state is a primitive integer image with one positive rational
    scale held as two coprime integers, which is unique, so equality and
    hashing compare it, and a chain of sums, products, divisions and gcds
    makes no Fraction and takes no bigint gcd per coefficient.  `coeffs` is
    a view built from the image on first read.
    """

    __slots__ = ("_coeffs", "_ints", "_n")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        lcm = math.lcm(*(c.denominator for c in cs))
        p = Polynomial._from_ints([c.numerator * (lcm // c.denominator) for c in cs], 1, lcm)
        self._n, self._ints = p._n, p._ints

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, by ascending power of t."""
        try:
            return self._coeffs
        except AttributeError:
            ints, sn, sd = self._ints
            self._coeffs = tuple(Fraction(v * sn, sd) for v in ints)
            return self._coeffs

    @staticmethod
    def _from_ints(ints: list, sn: int, sd: int) -> "Polynomial":
        """(sn / sd) * ints for a list of integers ints (trailing zeros
        allowed; the list is consumed) and nonzero integers sn and sd: zeros
        stripped, the content of ints moved into the scale, then as
        `_from_primitive`."""
        while ints and not ints[-1]:
            ints.pop()
        content = math.gcd(*ints)  # 0 when no entry is left: then sn = 0
        if content != 1:
            ints = [v // content for v in ints]
            sn *= content
        return Polynomial._from_primitive(ints, sn, sd)

    @staticmethod
    def _from_primitive(ints, sn: int, sd: int) -> "Polynomial":
        """(sn / sd) * ints for primitive integers ints with a nonzero last
        entry (or none, with sn = 0) and sd != 0, stored with the scale
        made positive and reduced to coprime sn and sd."""
        if sd < 0:
            sn, sd = -sn, -sd
        if sn < 0:
            ints, sn = [-v for v in ints], -sn
        g = math.gcd(sn, sd)
        p = Polynomial.__new__(Polynomial)
        p._n, p._ints = len(ints), (tuple(ints), sn // g, sd // g)
        return p

    @staticmethod
    def const(c: RatLike) -> "Polynomial":
        return Polynomial.t(0, c)

    @staticmethod
    def t(power: int = 1, coeff: RatLike = 1) -> "Polynomial":
        """The monomial coeff * t**power."""
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        coeff = rat(coeff)
        return Polynomial._from_ints([0] * power + [coeff.numerator], 1, coeff.denominator)

    ZERO: "Polynomial"
    ONE: "Polynomial"

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return self._n - 1

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        ints, sn, sd = self._ints
        return Fraction(ints[-1] * sn, sd)

    # Gauss's lemma: a product of primitive integer polynomials is
    # primitive, and so is a quotient of one by another that divides it.
    # Products, exact quotients, gcd cofactors, negation and t -> -t thus
    # keep the content 1 and reduce only the scale pair.

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, an, ad = self._ints
        b, bn, bd = other._ints
        # (an/ad) a + (bn/bd) b over the common denominator ad * bd
        ma, mb = an * bd, bn * ad
        out = [ma * v for v in a] + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] += mb * v
        return Polynomial._from_ints(out, 1, ad * bd)

    def __neg__(self) -> "Polynomial":
        a, an, ad = self._ints
        return Polynomial._from_primitive([-v for v in a], an, ad)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial()
        a, an, ad = self._ints
        b, bn, bd = other._ints
        if len(a) == 1 or len(b) == 1:  # a constant's image is (1,) or (-1,): rescale the other
            (u,), v = (a, b) if len(a) == 1 else (b, a)
            return Polynomial._from_primitive(v, u * an * bn, ad * bd)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Polynomial._from_primitive(out, an * bn, ad * bd)

    def scale(self, c: RatLike) -> "Polynomial":
        c = rat(c)
        if not c or self.is_zero():
            return Polynomial()
        a, an, ad = self._ints
        return Polynomial._from_primitive(a, c.numerator * an, c.denominator * ad)

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        (a, an, ad), (b, bn, bd) = self._ints, other._ints
        # lc(b)**e * a = q * b + r on the images, so that with sa = an/ad
        # and sb = bn/bd, self = (sa / (sb * lc**e)) q * other + (sa / lc**e) r
        q, r, e = _int_pdivmod(a, b)
        m = b[-1] ** e
        return Polynomial._from_ints(q, an * bd, ad * bn * m), Polynomial._from_ints(r, an, ad * m)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        a = self._ints[0]
        return Polynomial._from_primitive(a, 1, a[-1])

    def gcd(self, other: "Polynomial", cofactors: bool = False):
        """Monic gcd g, computed over Z on the primitive integer images
        (see `_int_poly_gcd_cofactors`: the heuristic gcd, whose loop
        provably ends) to avoid the coefficient blow-up of the plain
        Euclidean algorithm over Q.  With cofactors=True, (g, self / g,
        other / g): the kernel has found the quotients while verifying g."""
        if self.is_zero() or other.is_zero():
            g = other.monic() if self.is_zero() else self.monic()
            return (g, self // g, other // g) if cofactors else g
        found = (Polynomial.ONE, self, other)
        if self.degree > 0 and other.degree > 0:
            (a, an, ad), (b, bn, bd) = self._ints, other._ints
            g, qa, qb = _int_poly_gcd_cofactors(a, b)
            if len(g) > 1:  # self = sa * g * qa = (g / lead) * (sa * lead * qa)
                lead = g[-1]
                found = (Polynomial._from_primitive(g, 1, lead),
                         Polynomial._from_primitive(qa, an * lead, ad),
                         Polynomial._from_primitive(qb, bn * lead, bd))
        return found if cofactors else found[0]

    def derivative(self) -> "Polynomial":
        a, an, ad = self._ints
        return Polynomial._from_ints([i * v for i, v in enumerate(a)][1:], an, ad)

    def evaluate(self, point: RatLike) -> Fraction:
        """p(a/b) by homogeneous Horner on the integer image, one Fraction in all."""
        point = rat(point)
        if self.is_zero():
            return Fraction(0)
        a, b = point.numerator, point.denominator
        ints, sn, sd = self._ints
        acc, power = 0, 1
        for c in reversed(ints):
            acc = acc * a + c * power
            power *= b
        return Fraction(sn * acc, sd * (power // b))

    def compose_negate(self) -> "Polynomial":
        """p(-t)."""
        a, an, ad = self._ints
        return Polynomial._from_primitive([(-v if i % 2 else v) for i, v in enumerate(a)], an, ad)

    def trailing_order(self) -> int:
        """Multiplicity of the root t = 0 (0 for nonzero constant term)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        return next(i for i, c in enumerate(self._ints[0]) if c)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_str(c))
            else:
                mono = "t" if i == 1 else f"t^{i}"
                parts.append(mono if c == 1 else f"{rat_str(c)}*{mono}")
        return "Polynomial(" + " + ".join(parts) + ")"


Polynomial.ZERO = Polynomial()
Polynomial.ONE = Polynomial([1])


def _int_exact_div(a, b):
    """Quotient of primitive integer polynomials when the division is
    exact over the rationals (then the quotient is integral, by Gauss's
    lemma, and every synthetic-division step divides); None otherwise."""
    rem = list(a)
    lb = b[-1]
    if len(rem) < len(b):
        return None
    quo = [0] * (len(rem) - len(b) + 1)
    while rem and len(rem) >= len(b):
        top = rem[-1]
        if top % lb:
            return None
        q = top // lb
        k = len(rem) - len(b)
        quo[k] = q
        rem.pop()
        for j in range(len(b) - 1):
            rem[k + j] -= q * b[j]
        while rem and rem[-1] == 0:
            rem.pop()
    if rem:
        return None
    return quo


def _int_pdivmod(a, b):
    """Pseudo-division over Z: (q, r, e) with lc(b)**e * a == q * b + r,
    deg r < deg b and e = max(deg a - deg b + 1, 0)."""
    db, lb = len(b) - 1, b[-1]
    e = max(len(a) - db, 0)
    q, r = [0] * e, list(a)
    for k in reversed(range(e)):  # r has degree <= k + db here
        top = r.pop()
        q = [lb * c for c in q]
        q[k] = top
        r = [lb * c for c in r]
        if top:
            for i in range(db):
                r[k + i] -= top * b[i]
    while r and not r[-1]:
        r.pop()
    return q, r, e


def _int_poly_gcd_cofactors(a, b):
    """(g, a / g, b / g) for primitive integer polynomials a and b, with g
    their primitive gcd up to sign: the heuristic gcd of Char, Geddes and
    Gonnet (1984).

    At an integer x >= 2R + 2, R a bound on the roots of b, the value of a
    common factor of degree >= 1 exceeds x / 2 in size and divides h =
    gcd(a(x), b(x)): so 2h < x proves a and b coprime with no division,
    and h == |b(x)| makes b the candidate.  The first x is 2**k + 1 with R
    from Fujiwara's bound (`_root_bits`), a few bits wide when the
    coefficients are wide against the roots; it is odd, because values at
    a power of two share the powers of two that the low coefficients
    share.  Then x = 2**k >= 2 min(|a|, |b|) + 2 (max norms), which bounds
    the roots too (Cauchy): there the primitive part of the balanced
    base-x digits of h is the gcd whenever it divides both inputs, so a
    verified candidate is never wrong.

    The loop ends (J. Symb. Comput. 7, 1989): with a = g A and b = g B,
    h = |g(x)| e for e = gcd(A(x), B(x)), a divisor of Res(A, B) != 0.
    Once x > 2 e |g| (max norm), the digits of h read e g up to sign, whose
    primitive part is g; and h == |b(x)| needs e = |B(x)|, which fails once
    |B(x)| > |Res(A, B)| unless B is a constant and b divides a.  x grows
    at least fourfold per round: the rounds are logarithmic in |Res| |g|.
    """
    if len(a) < len(b):
        g, qb, qa = _int_poly_gcd_cofactors(b, a)
        return g, qa, qb
    norm_bits = (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()
    k = _root_bits(b)
    if k < norm_bits:
        x = (1 << k) + 1
        vb = _int_eval(b, x)
        h = math.gcd(_int_eval(a, x), vb)
        if 2 * h < x:
            return [1], a, b
        if h == abs(vb):
            qa = _int_exact_div(a, b)
            if qa is not None:
                return b, qa, [1]
    k = norm_bits
    while True:
        vb = _int_pack(b, k)
        h = math.gcd(_int_pack(a, k), vb)
        if not h >> (k - 1):  # one balanced digit: coprime
            return [1], a, b
        if h == abs(vb):
            qa = _int_exact_div(a, b)
            if qa is not None:
                return b, qa, [1]
        else:
            cand = _int_unpack(h, k)
            content = math.gcd(*cand)  # h > 0, so its top digit cand[-1] is too
            cand = [c // content for c in cand]
            qa = _int_exact_div(a, cand)
            if qa is not None:
                qb = _int_exact_div(b, cand)
                if qb is not None:
                    return cand, qa, qb
        k += k // 4 + 2  # the published growth of xi, in bits


def _root_bits(a) -> int:
    """k with 2**k >= 2R + 2, R >= |r| for every complex root r of a:
    Fujiwara's R = 2 max_i |a[n-i] / a[n]|**(1/i), each ratio rounded up
    to a power of two."""
    top = a[-1].bit_length() - 1
    m = max((-((top - c.bit_length()) // i) for i, c in enumerate(reversed(a[:-1]), 1)), default=0)
    return max(m, 0) + 3


def _int_eval(a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _int_pack(a, k: int) -> int:
    """a(2**k), by shift-add Horner."""
    acc = 0
    for c in reversed(a):
        acc = (acc << k) + c
    return acc


def _int_unpack(h: int, k: int) -> list:
    """Balanced base-2**k digits of h, lowest first, each in
    [-2**(k-1), 2**(k-1) - 1], for k >= 2: the inverse of `_int_pack` on
    such coefficients."""
    mask, half, digits = (1 << k) - 1, 1 << (k - 1), []
    while h:
        d = h & mask
        h >>= k
        if d >= half:
            d -= mask + 1
            h += 1
        digits.append(d)
    return digits


def rational_roots(p: Polynomial) -> dict:
    """All rational roots of p with multiplicities, by the p-adic method of
    Loos (SIAM J. Comput. 12, 1983): roots modulo a prime, Newton-Hensel
    lifting, rational reconstruction and an exact check.

    Let f be the primitive integer image of the square-free part of p
    without its roots at 0, and q the smallest odd prime with q not
    dividing lc(f) and every root of f mod q simple (f' nonzero there),
    which holds for every q prime to the discriminant of f.  Every root
    a/b in lowest terms is found: bt - a divides f over Z (Gauss's lemma),
    so b | lc(f) and a | f(0); b is invertible mod q, so a * b**-1 is a
    root of f mod q, hence a simple one; a simple root lifts to exactly
    one root mod every power M of q, which must then be a * b**-1 mod M;
    and once M > 2 |f(0)| |lc(f)| >= 2 |a| |b|, a/b is the only fraction
    with |a| <= |f(0)| and 0 < b <= |lc(f)| congruent to the lift, so the
    reconstruction returns it.  A candidate counts only if bt - a divides
    p exactly, and the number of divisions is its multiplicity.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    ints = p._ints[0]
    k = next(i for i, c in enumerate(ints) if c)
    roots = {Fraction(0): k} if k else {}
    ints = ints[k:]
    if len(ints) < 2:
        return roots
    p = Polynomial._from_primitive(ints, 1, 1)
    f = p.gcd(p.derivative(), cofactors=True)[1]._ints[0]
    df = [i * c for i, c in enumerate(f)][1:]
    head, lead = abs(f[0]), abs(f[-1])
    q = 3
    while True:
        if lead % q and all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            roots_mod_q = [x for x in range(q) if not _eval_mod(f, x, q)]
            if all(_eval_mod(df, x, q) for x in roots_mod_q):
                break
        q += 2
    for x in roots_mod_q:
        m = q
        while m <= 2 * head * lead:  # Newton: a root mod m lifts to one mod m**2
            m *= m
            x = (x - _eval_mod(f, x, m) * pow(_eval_mod(df, x, m), -1, m)) % m
        r0, r1, s0, s1 = m, x, 0, 1  # r1 = s1 * x mod m throughout
        while r1 > head:
            quo = r0 // r1
            r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
        a, b = (r1, s1) if s1 > 0 else (-r1, -s1)
        mult, rest = 0, ints
        while b <= lead and (rest := _int_exact_div(rest, [-a, b])) is not None:
            mult += 1
        if mult:
            roots[Fraction(a, b)] = mult
    return roots


def _eval_mod(a, x: int, m: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def has_real_root(p: Polynomial, lo: RatLike, hi: RatLike) -> bool:
    """Whether p has a real root in the closed interval [lo, hi], decided
    in integer arithmetic by Descartes' rule of signs with bisection.

    A sign-variation count of 0 proves an interval root-free and 1 proves
    one root in it.  A count of 2 or more on the whole interval maps p's
    own square-free part, with the same roots, onto it, and bisects until
    every count is 0 or 1 or a midpoint is a root, which always ends
    (Vincent's theorem; Collins and Akritas, SYMSAC 1976): no cap, and a
    pair of complex roots within 10**-400 of it costs about 1,330 halvings.
    """
    lo, hi = rat(lo), rat(hi)
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    if hi < lo:
        return False
    # q(u) = d**n * p(lo + (hi - lo) * u) with d the common denominator,
    # so that the roots of p in [lo, hi] are those of q in [0, 1]
    d = math.lcm(lo.denominator, hi.denominator)
    a, w = lo.numerator * (d // lo.denominator), int((hi - lo) * d)
    q = _int_compose_affine(p._ints[0], a, d, w)
    if q[0] == 0 or sum(q) == 0:
        return True
    variations = _sign_variations(q)
    if variations < 2:
        return variations == 1
    stack = [_int_compose_affine(p.gcd(p.derivative(), cofactors=True)[1]._ints[0], a, d, w)]
    while stack:  # each q has q(0) and q(1) nonzero
        q = stack.pop()
        variations = _sign_variations(q)
        if variations == 1:
            return True
        if variations:
            n = len(q) - 1
            left = [c << (n - i) for i, c in enumerate(q)]  # 2**n q(u / 2)
            content = math.gcd(*left)
            left = [c // content for c in left]
            right = _taylor_shift(left, 1)  # 2**n q((u + 1) / 2)
            if right[0] == 0:  # q(1/2) = 0
                return True
            stack += right, left
    return False


def _int_compose_affine(ints, a: int, d: int, w: int) -> list:
    """Coefficients of d**n * p((a + w*u) / d), for p of degree n with
    integer coefficients ints."""
    n = len(ints) - 1
    q = _taylor_shift([c * d ** (n - i) for i, c in enumerate(ints)], a)
    return [c * w ** i for i, c in enumerate(q)]


def _taylor_shift(coeffs: list, a: int) -> list:
    """Coefficients (ascending) of p(u + a) from those of p(u); at a == 1
    by additions only."""
    c = list(coeffs)
    n = len(c) - 1
    for i in range(n):
        if a == 1:
            for j in range(n - 1, i - 1, -1):
                c[j] += c[j + 1]
        else:
            for j in range(n - 1, i - 1, -1):
                c[j] += a * c[j + 1]
    return c


def _sign_variations(q: list) -> int:
    """Descartes' bound on the number of roots of q in (0, 1): the sign
    variations of (1 + y)**n q(1/(1 + y)), whose positive roots they are."""
    signs = [c > 0 for c in _taylor_shift(q[::-1], 1) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


class RationalFunction:
    """Quotient of two Polynomials in canonical reduced form.

    Canonical: gcd(num, den) = 1 and den monic; den is never zero.
    Equality is structural, which is sound on canonical forms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Polynomial.ONE):
        if not isinstance(num, Polynomial):
            num = Polynomial(num) if isinstance(num, (list, tuple)) else Polynomial.const(num)
        if not isinstance(den, Polynomial):
            den = Polynomial(den) if isinstance(den, (list, tuple)) else Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.degree > 0 and den.degree > 0:
            _, num, den = num.gcd(den, cofactors=True)
        self._set_canonical(num, den)

    def _set_canonical(self, num: Polynomial, den: Polynomial) -> None:
        """Store coprime num and nonzero den, with den made monic."""
        if num.is_zero():
            self.num = Polynomial.ZERO
            self.den = Polynomial.ONE
            return
        d, dn, dd = den._ints
        lead = d[-1]
        if dn != 1 or dd != lead:  # den is not monic
            # den / ((dn / dd) * lead) is d / lead: the scale moves to num alone
            n, nn, nd = num._ints
            num = Polynomial._from_primitive(n, nn * dd, nd * dn * lead)
            den = Polynomial._from_primitive(d, 1, lead)
        self.num = num
        self.den = den

    def _image(self):
        """(n, d, sn, sd): self = (sn / sd) * n / d on the integer images n
        and d of num and den, with sn / sd reduced."""
        (n, nn, nd), (d, dn, dd) = self.num._ints, self.den._ints
        g = math.gcd(nn * dd, nd * dn)
        return n, d, nn * dd // g, nd * dn // g

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for num and den known to be coprime: no gcd is taken.

        The arithmetic below proves coprimality from the canonical form of
        its operands, which skips the gcd that the constructor would take.
        """
        out = cls.__new__(cls)
        out._set_canonical(num, den)
        return out

    @staticmethod
    def const(c: RatLike) -> "RationalFunction":
        return RationalFunction(Polynomial.const(c))

    @staticmethod
    def t(power: int = 1, coeff: RatLike = 1) -> "RationalFunction":
        """coeff * t**power for any integer power (negative allowed)."""
        if power >= 0:
            return RationalFunction(Polynomial.t(power, coeff))
        return RationalFunction(Polynomial.const(coeff), Polynomial.t(-power))

    ZERO: "RationalFunction"
    ONE: "RationalFunction"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other)
        return NotImplemented

    def __add__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):  # (num + c*den) / den is reduced
            return RationalFunction._coprime(self.num + self.den.scale(other), self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Henrici: with g = gcd of the denominators, the sum
        # (n1*d2' + n2*d1') / (g*d1'*d2') is coprime to d1' and d2', so only
        # its gcd with g is left to cancel, and none when g = 1
        g, b, d = self.den.gcd(other.den, cofactors=True)
        num = self.num * d + other.num * b
        if g.degree < 1:
            return RationalFunction._coprime(num, b * d)
        _, num, g = num.gcd(g, cofactors=True)
        return RationalFunction._coprime(num, g * b * d)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return (-self) + other

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction._coprime(self.num.scale(other), self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _, a, b = self.num.gcd(other.den, cofactors=True)
        _, c, d = other.num.gcd(self.den, cofactors=True)
        return RationalFunction._coprime(a * c, d * b)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        _, a, b = self.num.gcd(other.num, cofactors=True)
        _, c, d = other.den.gcd(self.den, cofactors=True)
        return RationalFunction._coprime(a * c, d * b)

    def __rtruediv__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            if self.is_zero():
                raise ZeroDivisionError("division by the zero rational function")
            return RationalFunction._coprime(self.den.scale(other), self.num)
        return self._coerce(other) / self

    def derivative(self) -> "RationalFunction":
        """Exact quotient-rule derivative."""
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        _, num, den = num.gcd(self.den, cofactors=True)
        return RationalFunction(num, den * self.den)

    def evaluate(self, point: RatLike) -> Fraction:
        point = rat(point)
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {rat_str(point)}")
        return self.num.evaluate(point) / d

    def substitute_negate(self) -> "RationalFunction":
        """f(-t)."""
        return RationalFunction._coprime(self.num.compose_negate(), self.den.compose_negate())

    def poles(self) -> dict:
        """Rational poles with multiplicities (irrational poles not found)."""
        return rational_roots(self.den)

    def __repr__(self) -> str:
        if self.den == Polynomial.ONE:
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"


def float_function(f: RationalFunction):
    """t -> f(t) in floats, with no step that can overflow or raise: Horner
    on each integer image shifted right to entries below about 2**900, in t
    where |t| <= 1 and in 1/t beyond (the lower degree padded), the reduced
    scale exact up to one rounding, the final scaling saturating to +-inf."""
    n, d, sn, sd = f._image()
    ns, ds = (max(max(map(abs, v), default=0).bit_length() - 900, 0) for v in (n, d))
    num, den = [float(c >> ns) for c in n], [float(c >> ds) for c in d]
    e = sn.bit_length() - sd.bit_length()
    scale, shift = (sn << max(-e, 0)) / (sd << max(e, 0)), ns - ds + e
    k = len(num) - len(den)
    near_num, near_den, far_num, far_den = num[::-1], den[::-1], num + [0.0] * -k, den + [0.0] * k

    def value(t: float) -> float:
        nums, dens, u = (near_num, near_den, t) if -1.0 <= t <= 1.0 else (far_num, far_den, 1 / t)
        n = d = 0.0
        for c in nums:
            n = n * u + c
        for c in dens:
            d = d * u + c
        try:
            return math.ldexp(n / d * scale, shift)
        except (OverflowError, ZeroDivisionError):  # past the float range, or d rounded to 0.0
            return math.copysign(math.inf, n * d) if n else math.nan

    return value


RationalFunction.ZERO = RationalFunction(Polynomial.ZERO)
RationalFunction.ONE = RationalFunction(Polynomial.ONE)

RF = RationalFunction


class ExpansionPoint(Record):
    """Expansion point of a Laurent series: Zero, Infinity, or Finite(c)."""

    __slots__ = ("kind", "c")

    def __init__(self, kind: str, c: Fraction | None = None):
        if kind not in ("zero", "infinity", "finite"):
            raise ValueError(f"bad expansion point kind: {kind}")
        if (kind == "finite") != (c is not None):
            raise ValueError("finite points need c, others must not carry one")
        self._fill(kind, c)

    def __repr__(self):
        if self.kind == "finite":
            return f"Finite({rat_str(self.c)})"
        return self.kind.capitalize()

    @property
    def _sign(self) -> int:
        """Orientation of series here: exponents of t are _sign times those of
        the local parameter u, 1/t at infinity (-1), t or t - c elsewhere."""
        return -1 if self.kind == "infinity" else 1


ZERO_POINT = ExpansionPoint("zero")
INFINITY = ExpansionPoint("infinity")


def finite_point(c: RatLike) -> ExpansionPoint:
    return ExpansionPoint("finite", rat(c))


class LaurentSeries(Record):
    """Truncated Laurent expansion.

    ``poly`` (a `Polynomial` or a coefficient sequence) is the window in u:
    its u**i coefficient is that of t**(lead - i) at infinity and of
    (t - c)**(lead + i) elsewhere.  ``order`` is the last exponent kept
    (the smallest at infinity, the largest at finite points).  The u**0
    coefficient is nonzero unless the function vanishes up to the
    truncation: then poly is zero and lead is order.
    """

    __slots__ = ("point", "lead", "poly", "order")

    def __init__(self, point: ExpansionPoint, lead: int, poly, order: int):
        self._fill(point, lead, poly if isinstance(poly, Polynomial) else Polynomial(poly), order)

    @property
    def coeffs(self) -> tuple:
        """The window from lead to order as Fractions; () for the zero series."""
        cs = self.poly.coeffs
        return cs and cs + (Fraction(0),) * (self.point._sign * (self.order - self.lead) + 1 - len(cs))

    def exponents(self):
        step = self.point._sign
        return range(self.lead, self.lead + step * len(self.coeffs), step)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of exponent k; raises outside the known window."""
        sign = self.point._sign
        if sign * (k - self.order) > 0:
            raise ValueError(f"exponent {k} {'below' if sign < 0 else 'above'} truncation {self.order}")
        return self.poly.coefficient(sign * (k - self.lead))

    def __add__(self, other) -> "LaurentSeries":
        """Sum, truncated to the window both terms support; a scalar is
        the constant series with this series' window."""
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries(self.point, 0, Polynomial.const(other), self.order)
        elif not isinstance(other, LaurentSeries):
            return NotImplemented
        elif self.point != other.point:
            raise ValueError("series expanded at different points")
        sign = self.point._sign
        pick = min if sign > 0 else max
        lead = pick(self.lead, other.lead)
        # each image moves up by its lead's distance from the common lead
        a, b = (_shifted(s.poly, sign * (s.lead - lead)) for s in (self, other))
        return _window(self.point, lead, a + b, pick(self.order, other.order))

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return self * -1

    def __sub__(self, other) -> "LaurentSeries":
        return self + (-other)

    def __rsub__(self, other) -> "LaurentSeries":
        return -self + other

    def __mul__(self, other) -> "LaurentSeries":
        """Product, truncated to the window both factors can support; a
        scalar scales every coefficient."""
        if isinstance(other, (int, Fraction)):
            return _window(self.point, self.lead, self.poly.scale(other), self.order)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.point != other.point:
            raise ValueError("series expanded at different points")
        order = (min if self.point._sign > 0 else max)(self.order + other.lead, other.order + self.lead)
        return _window(self.point, self.lead + other.lead, self.poly * other.poly, order)

    __rmul__ = mul = __mul__


def _shifted(p: Polynomial, k: int) -> Polynomial:
    """t**k * p for k >= 0, on the image."""
    ints, sn, sd = p._ints
    return Polynomial._from_ints([0] * k + list(ints), sn, sd) if k else p


def _window(point, lead, poly, order) -> LaurentSeries:
    """The series of poly's u**i coefficients at the exponents lead + sign *
    i, cut at order, with lead moved past poly's leading zeros."""
    ints, sn, sd = poly._ints
    ints = ints[:max(point._sign * (order - lead) + 1, 0)]
    k = next((i for i, c in enumerate(ints) if c), len(ints))
    window = poly if not k and len(ints) == poly._n else Polynomial._from_ints(list(ints[k:]), sn, sd)
    return LaurentSeries(point, lead + point._sign * k if window else order, window, order)


def _series_quotient(n, d, scale: Fraction, terms: int) -> Polynomial:
    """scale * n/d at u = 0 up to u**(terms - 1), for integer coefficient
    lists n and d in u with d[0] nonzero, as the integers v_k d0**(terms-1-k)
    over the one denominator d0**terms, where over Z v_k = d0**(k+1)
    [u**k](n/d) = d0**k n_k - sum_(j>=1) d_j d0**(j-1) v_(k-j)."""
    d0 = d[0]
    if not d0:
        raise ValueError("denominator vanishes at the expansion point")
    dj = [c * d0 ** j for j, c in enumerate(d[1:terms])]  # d_(j+1) d0**j
    v, power = [], 1
    for k in range(terms):
        v.append((n[k] * power if k < len(n) else 0) - sum(c * w for c, w in zip(dj, reversed(v))))
        power *= d0
    return Polynomial._from_ints([w * d0 ** (terms - 1 - k) for k, w in enumerate(v)],
                                 scale.numerator, scale.denominator * power)


def laurent_expand(f: RationalFunction, point: ExpansionPoint, order: int | None = None) -> LaurentSeries:
    """Laurent expansion of f at the point, truncated at ``order``.

    At t = 0 and finite points the window keeps exponents lead..order
    (ascending); at infinity ``order`` bounds the depth in powers of 1/t:
    exponents lead..-order (descending) are kept.  By default the window
    extends 8 exponents past the lead.  Every point takes one power-series
    quotient in its local parameter u (t, 1/t or t - c): the window.
    """
    sign = point._sign
    if f.is_zero():
        edge = 0 if order is None else sign * order
        return LaurentSeries(point, edge, Polynomial.ZERO, edge)
    # f = scale * n(u) / d(u) over integer lists in the local parameter u
    n, d, sn, sd = f._image()
    b = point.c.denominator if point.kind == "finite" else 1
    scale = Fraction(sn * b ** len(d), sd * b ** len(n))
    if point.kind == "infinity":
        # u**m f(1/u) has the reversed images padded to one length m
        m = max(len(n), len(d))
        n, d = ((0,) * (m - len(v)) + v[::-1] for v in (n, d))
    elif point.kind == "finite":
        # b**deg v(u + a/b) is an integer Taylor shift of each image v
        n, d = (_int_compose_affine(v, point.c.numerator, b, b) for v in (n, d))
    i = next(k for k, c in enumerate(n) if c)
    j = next(k for k, c in enumerate(d) if c)
    lead = i - j
    if order is None:
        order = lead + 8
    if order < lead:
        return LaurentSeries(point, sign * order, Polynomial.ZERO, sign * order)
    # the quotient's u**0 coefficient is n[i] / d[j], nonzero: lead stays
    window = _series_quotient(n[i:], d[j:], scale, order - lead + 1)
    return LaurentSeries(point, sign * lead, window, sign * order)


def residue(f: RationalFunction, c: RatLike) -> Fraction:
    """Coefficient of (t-c)**(-1) in the Laurent expansion of f at c."""
    return laurent_expand(f, finite_point(c), order=-1).coefficient(-1)


# JSON encoding helpers (shared wire format of the package).

def rf_to_json(f: RationalFunction) -> dict:
    return {"num": [rat_str(c) for c in f.num.coeffs], "den": [rat_str(c) for c in f.den.coeffs]}


def rf_from_json(data) -> RationalFunction:
    """The inverse of `rf_to_json`.  Malformed data raises ValueError naming
    the field: a missing one, a coefficient that is no exact rational, or a
    zero denominator."""
    num_den = []
    for field in ("num", "den"):
        if not isinstance(data, dict) or field not in data:
            raise ValueError(f"no field {field!r}")
        if not isinstance(data[field], list):
            raise ValueError(f"field {field!r}: {data[field]!r} is not a list of coefficients")
        try:
            num_den.append(Polynomial(data[field]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field {field!r}: {exc}") from None
    if num_den[1].is_zero():
        raise ValueError("field 'den' is zero")
    return RationalFunction(*num_den)


def series_to_json(s: LaurentSeries) -> dict:
    if s.point.kind == "finite":
        pt = f"c={rat_str(s.point.c)}"
    else:
        pt = {"zero": "0", "infinity": "inf"}[s.point.kind]
    return {
        "point": pt,
        "lead": s.lead,
        "coeffs": [rat_str(c) for c in s.coeffs],
        "order": s.order,
    }
