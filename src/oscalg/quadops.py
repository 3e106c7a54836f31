"""Quadratic-operator algebra on the mode space H = Q((t)).

The central object is QuadraticElement: central * K + finite linear part +
banded symmetric quadratic part.  Quadratic parts are stored per
anti-diagonal a + b = d as a coefficient polynomial P in a plus finitely
many deviations c(a) - P(a), the form every kernel reads and writes; it is
closed under the commutator, which is what lets infinite formal sums like
the Virasoro modes be bracketed exactly.

Index 0 is banished from linear and quadratic parts.  The central
coordinate is the only residue of the zero mode, and the forced zeros of
every diagonal at a = 0 and a = d keep quadratic operators off t^0.
"""

from __future__ import annotations

from math import comb
from numbers import Rational
from operator import index

from .laurent import LaurentPoly, format_signed_sum, rat, ratio, symplectic_form


# ---------------------------------------------------------------------------
# integer-variable polynomials with rational coefficients
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial in one integer variable with exact coefficients,
    each canonical as laurent.rat makes it."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [rat(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    def is_zero(self) -> bool:
        return not self.c

    def is_constant(self) -> bool:
        return len(self.c) <= 1

    def constant_value(self) -> Rational:
        return self.c[0] if self.c else 0

    def __call__(self, a: int) -> Rational:
        acc = 0
        for coeff in reversed(self.c):
            acc = acc * a + coeff
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.c), len(other.c))
        return Poly([(self.c[i] if i < len(self.c) else 0)
                     + (other.c[i] if i < len(other.c) else 0)
                     for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.c])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.c or not other.c:
            return Poly()
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, s) -> "Poly":
        s = rat(s)
        return Poly([s * x for x in self.c])

    def affine(self, h: int) -> "Poly":
        """P(a + h) as a polynomial in a."""
        out = Poly()
        power = Poly((1,))
        base = Poly((h, 1))
        for coeff in self.c:
            out = out + power.scale(coeff)
            power = power * base
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"Poly({list(self.c)!r})"


POLY_ZERO = Poly()
POLY_ONE = Poly((1,))
# the linear part of an element with no modes; values are immutable, so
# every such element shares it
_NO_MODES = LaurentPoly()


def _power_sum(n: int, deg: int, q) -> Rational:
    """q(1) + ... + q(n) for a polynomial q of degree <= deg, exact in
    O(deg^2) for any n: Newton's forward formula and the hockey-stick
    identity give sum_i D^i q(1) C(n, i+1)."""
    if n < 1:
        return 0
    diffs = [q(j) for j in range(1, deg + 2)]
    total = 0
    for i in range(deg + 1):
        total += diffs[0] * comb(n, i + 1)
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    return total


# ---------------------------------------------------------------------------
# diagonal series and quadratic elements
# ---------------------------------------------------------------------------

class DiagonalSeries:
    """Coefficient function on the anti-diagonal a + b = d.

    ctilde(a) = 0 if a in {0, d}, else poly(a) + dev.get(a, 0): dev maps
    each exceptional index a to its deviation ctilde(a) - poly(a).  The
    stored data is canonical: deviation keys avoid {0, d} and no deviation
    is zero.  The constructor raises ValueError unless ctilde(a) ==
    ctilde(d - a), so every series lies in sp(H').
    """

    __slots__ = ("d", "poly", "dev")

    def __init__(self, d: int, poly: Poly = POLY_ZERO, dev=None):
        self.d = d = index(d)
        if not isinstance(poly, Poly):
            raise _wrong_type("poly", poly, Poly)
        self.poly = poly
        clean = {}
        if dev is not None:
            if not isinstance(dev, dict):
                raise _wrong_type("dev", dev, dict)
            for a, x in dev.items():
                a = index(a)
                if a == 0 or a == d:
                    continue
                x = rat(x)
                if x:
                    clean[a] = x
        self.dev = clean
        # poly(a) - poly(d - a) has degree <= deg, so agreeing at a = 0..deg
        # proves the polynomial symmetric; then the mirror of a deviation
        # must be a deviation of the same value
        for a in (() if poly.is_constant() else range(len(poly.c))):
            if poly(a) != poly(d - a):
                raise ValueError(f"diagonal series at offset {d} is not "
                                 f"symmetric: poly({a}) != poly({d - a})")
        for a, v in clean.items():
            if clean.get(d - a) != v:
                raise ValueError(f"diagonal series at offset {d} is not "
                                 f"symmetric: c({a}) != c({d - a})")

    def coeff(self, a: int) -> Rational:
        if a == 0 or a == self.d:
            return 0
        return rat(self.poly(a) + self.dev.get(a, 0))

    def is_zero(self) -> bool:
        return self.poly.is_zero() and not self.dev

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiagonalSeries) and self.d == other.d
                and self.poly == other.poly and self.dev == other.dev)

    def __repr__(self):
        return f"DiagonalSeries(d={self.d}, poly={self.poly!r}, dev={self.dev!r})"


def _element(central, modes: dict, polys: dict, devs: dict) -> QuadraticElement:
    """central * K + sum of modes[m] b_m + per offset d of devs the series
    with generic polynomial polys.get(d) and the deviations devs[d] it
    stores, built only if it survives: a zero polynomial with no nonzero
    deviation is the zero series, which the element would drop.  A sum with
    no central, mode or offset entry is the zero element, built at once."""
    if not (central or modes or devs):
        return QuadraticElement()
    quad = {}
    for d, dev in devs.items():
        poly = polys.get(d, POLY_ZERO)
        if poly.c or any(dev.values()):
            quad[d] = DiagonalSeries(d, poly, dev)
    return QuadraticElement(central, LaurentPoly(modes) if modes else _NO_MODES,
                            quad)


def _combine(terms) -> QuadraticElement:
    """Sum of c * A over the (c, A) terms, built once by _element."""
    central, modes, polys, devs = 0, {}, {}, {}
    for c, A in terms:
        c = rat(c)
        central += c * A.central
        for m, x in A.linear.coeffs.items():
            modes[m] = modes.get(m, 0) + c * x
        for d, series in A.quad.items():
            poly = series.poly.scale(c)
            polys[d] = polys[d] + poly if d in polys else poly
            dev = devs.setdefault(d, {})
            for a, x in series.dev.items():
                dev[a] = dev.get(a, 0) + c * x
    return _element(central, modes, polys, devs)


def _wrong_type(name: str, value, kind) -> TypeError:
    """The error for an argument `name` that is not a `kind`."""
    return TypeError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")


class QuadraticElement:
    """central * K + sum of b_m modes + (1/2) sum c(a,b) :b_a b_b:.

    The quadratic part is a map offset -> DiagonalSeries with zero series
    dropped, so equality is structural equality of canonical data.  Each
    series sits at its own offset d; any other key is a ValueError.
    """

    __slots__ = ("central", "linear", "quad")

    def __init__(self, central=0, linear: LaurentPoly | None = None, quad=None):
        self.central = rat(central)
        if linear is None:
            linear = _NO_MODES
        elif not isinstance(linear, LaurentPoly):
            raise _wrong_type("linear", linear, LaurentPoly)
        if 0 in linear.coeffs:
            raise ValueError("linear part must not contain the constant mode; "
                             "use the central coordinate instead")
        self.linear = linear
        clean = {}
        if quad is not None:
            if not isinstance(quad, dict):
                raise _wrong_type("quad", quad, dict)
            for d, series in quad.items():
                if not isinstance(series, DiagonalSeries):
                    raise _wrong_type(f"quad[{d!r}]", series, DiagonalSeries)
                if series.d != index(d):
                    raise ValueError(f"series of offset {series.d} at key {d}")
                if not series.is_zero():
                    clean[index(d)] = series
        self.quad = clean

    def is_zero(self) -> bool:
        return not self.central and self.linear.is_zero() and not self.quad

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "QuadraticElement") -> "QuadraticElement":
        if not isinstance(other, QuadraticElement):
            return NotImplemented
        return _combine(((1, self), (1, other)))

    def __neg__(self) -> "QuadraticElement":
        return self.scale(-1)

    def __sub__(self, other: "QuadraticElement") -> "QuadraticElement":
        if not isinstance(other, QuadraticElement):
            return NotImplemented
        return _combine(((1, self), (-1, other)))

    def scale(self, s) -> "QuadraticElement":
        return _combine(((s, self),))

    def drop_central(self) -> "QuadraticElement":
        # elements are immutable, so a central-free one is its own image
        if not self.central:
            return self
        return QuadraticElement(0, self.linear, self.quad)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuadraticElement)
                and self.central == other.central
                and self.linear == other.linear
                and self.quad == other.quad)

    def __repr__(self):
        try:
            return f"QuadraticElement({format_expression(self)!r})"
        except ValueError:
            return (f"QuadraticElement(central={self.central}, "
                    f"linear={self.linear!r}, quad={self.quad!r})")


# -- the expression language --------------------------------------------------
#
# Grammar:  expr := ['+'|'-'] term (('+'|'-') term)*
#           term := [rational '*'] atom
#           atom := 'K' | 'b(' int ')' | ':b(' int ')b(' int '):'
#                 | 'T(' int ')' | 'S(' int ')'
# Whitespace is insignificant.  b(0) is rejected: the zero mode is the
# central element K.  The printer emits a canonical form (tau terms, then
# pair terms, then modes, then K, indices ascending) and parse_expression
# is a left inverse of it.

def _term_chunks(A: QuadraticElement):
    chunks = []
    for d in sorted(A.quad):
        series = A.quad[d]
        if not series.poly.is_constant():
            raise ValueError("no canonical expression: diagonal coefficient "
                             "is a non-constant polynomial")
        c = series.poly.constant_value()
        if c:
            chunks.append((c, f"T({d})"))
    for d in sorted(A.quad):
        dev = A.quad[d].dev
        for a in sorted(x for x in dev if 2 * x <= d):
            x = dev[a]
            chunks.append((ratio(x, 2) if 2 * a == d else x,
                           f":b({a})b({d - a}):"))
    for m in sorted(A.linear.coeffs):
        chunks.append((A.linear.coeffs[m], f"b({m})"))
    if A.central:
        chunks.append((A.central, "K"))
    return chunks


def format_expression(A: QuadraticElement) -> str:
    """Canonical text of A in the expression language."""
    return format_signed_sum(_term_chunks(A), "0*K")


class ExpressionError(ValueError):
    """Parse failure with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_SYMBOLS = set("KbTS():+-*/")
# The first letters of the atoms K, b(n), T(n), S(n) and :b(m)b(n):.
_ATOM_START = frozenset("KbTS:")

def opens_term(ch: str) -> bool:
    """Whether ch opens a term, so that a '-' before it negates one, as in
    -1/3*K or -T(1): a digit by _tokenize's rule or an atom's first letter."""
    return ch.isdecimal() or ch in _ATOM_START

def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():     # the digits int reads, so not '²'
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    toks.append(("END", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i][0]

    def take(self, kind: str):
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> QuadraticElement:
        op = self.take(self.peek())[0] if self.peek() in "+-" else "+"
        terms = []
        while True:
            coeff, atom = self.term()
            terms.append((-coeff if op == "-" else coeff, atom))
            op = self.peek()
            if op == "END":
                return _combine(terms)
            if op not in "+-":
                raise ExpressionError(f"expected '+' or '-', found {op!r}",
                                      self.toks[self.i][2])
            self.take(op)

    def term(self) -> tuple[Rational, QuadraticElement]:
        coeff = 1
        if self.peek() == "INT":
            num = self.take("INT")[1]
            den = 1
            if self.peek() == "/":
                self.take("/")
                den = self.take("INT")[1]
                if den == 0:
                    raise ExpressionError("zero denominator", self.toks[self.i - 1][2])
            coeff = ratio(num, den)
            self.take("*")
        return coeff, self.atom()

    def integer(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take("-")
            sign = -1
        return sign * self.take("INT")[1]

    def _mode_index(self) -> int:
        self.take("b")
        self.take("(")
        pos = self.toks[self.i][2]
        m = self.integer()
        self.take(")")
        if m == 0:
            raise ExpressionError("b(0) is the central element; write K", pos)
        return m

    def atom(self) -> QuadraticElement:
        kind = self.peek()
        if kind == "K":
            self.take("K")
            return unit()
        if kind == "b":
            return b(self._mode_index())
        if kind == ":":
            self.take(":")
            a = self._mode_index()
            bb = self._mode_index()
            self.take(":")
            return pair(a, bb)
        if kind in ("T", "S"):
            self.take(kind)
            self.take("(")
            p = self.integer()
            self.take(")")
            return tau(p) if kind == "T" else sigma(WittElement.L(p))
        raise ExpressionError(f"expected an atom, found {kind!r}",
                              self.toks[self.i][2])


def parse_expression(text: str) -> QuadraticElement:
    """The element text denotes; ExpressionError names where it fails."""
    return _Parser(text).parse()


# -- named elements ----------------------------------------------------------

def unit(c=1) -> QuadraticElement:
    """c * K, the central element."""
    return QuadraticElement(central=c)


def b(m: int) -> QuadraticElement:
    """The mode b_m = t^m, m != 0."""
    if m == 0:
        raise ValueError("b_0 is central; use unit()")
    return QuadraticElement(linear=LaurentPoly.term(1, m))


def pair(a: int, bb: int) -> QuadraticElement:
    """The normal-ordered pair :b_a b_b:, a, b != 0."""
    if a == 0 or bb == 0:
        raise ValueError("index 0 is not allowed in quadratic parts")
    d = a + bb
    dev = {a: 2} if a == bb else {a: 1, bb: 1}
    return QuadraticElement(quad={d: DiagonalSeries(d, POLY_ZERO, dev)})


def normal_order_lift(f: LaurentPoly, g: LaurentPoly) -> QuadraticElement:
    """:fg: with symmetric coefficient c(a,b) = f_a g_b + f_b g_a."""
    if f.coeff(0) or g.coeff(0):
        raise ValueError("normal_order_lift requires inputs without constant term")
    devs = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            dev = devs.setdefault(e1 + e2, {})
            dev[e1] = dev.get(e1, 0) + c1 * c2
            dev[e2] = dev.get(e2, 0) + c1 * c2
    return _element(0, {}, {}, devs)


def tau(p: int) -> QuadraticElement:
    """Virasoro mode as a quadratic operator: (1/2) sum_i :b_{-i} b_{i+p}:."""
    return QuadraticElement(quad={p: DiagonalSeries(p, POLY_ONE)})


# ---------------------------------------------------------------------------
# the commutator
# ---------------------------------------------------------------------------

def _psi_diag_pair(s1: DiagonalSeries, s2: DiagonalSeries) -> Rational:
    """Trace cocycle of two diagonals with opposite offsets d and -d: for
    d > 0, minus the sum over a in [1, d-1] of a(d-a) c1(a) c2(a-d), split
    c1 c2 = P1 P2 + E1 c2 + P1 E2 as in _bracket_diag: the power sum of
    j(d-j) P1(d-j) P2(-j), then the deviations of s1 and of s2 in range."""
    d = s1.d
    if d == 0:
        return 0
    if d < 0:
        return -_psi_diag_pair(s2, s1)
    p1, p2, dev2 = s1.poly, s2.poly, s2.dev
    total = _power_sum(d - 1, len(p1.c) + len(p2.c),
                       lambda j: j * (d - j) * p1(d - j) * p2(-j))
    for a, x in s1.dev.items():
        if 0 < a < d:
            total += a * (d - a) * x * (p2(a - d) + dev2.get(a - d, 0))
    for a, y in dev2.items():
        if -d < a < 0:
            total -= a * (d + a) * p1(d + a) * y
    return -total


def _quad_trace(qa: dict, qb: dict) -> Rational:
    """psi of two quadratic parts: the trace pairs opposite offsets only."""
    total = 0
    for d, s1 in qa.items():
        s2 = qb.get(-d)
        if s2 is not None:
            total += _psi_diag_pair(s1, s2)
    return total


def _act_into(out: dict, quad: dict, f: LaurentPoly, sign: int) -> dict:
    """out with sign * (action of a quadratic part on a finite mode sum)
    added into it: t^m -> -m c(-m) t^(m+d)."""
    for m, cm in f.coeffs.items():
        for d, series in quad.items():
            w = series.coeff(-m)
            if w:
                e = m + d
                out[e] = out.get(e, 0) - sign * m * cm * w
    return out


def _quad_apply_laurent(quad: dict, f: LaurentPoly) -> LaurentPoly:
    """Action of a quadratic part on a finite mode sum."""
    return LaurentPoly(_act_into({}, quad, f, 1))


def _scatter_diag(s: DiagonalSeries, other: tuple, sign: int, dev: dict) -> None:
    """Add sign * [E, other]'s diagonal into dev, E the stored deviations x
    of s at its indices i, and other = (e, odev, poly) the side read:
    poly(j) + odev.get(j, 0), a constant poly read once per call.  x adds
    x (d - i) c_other(i - d) at i and x i c_other(i + e) at i + e.
    Deviation keys avoid 0 and d, so the first read lands on the bracket's
    end d + e exactly when j == e and the second on its end 0 exactly when
    j == 0: those two skips serve both calls of _bracket_diag.  This is the
    Jacobi sweep's hottest loop."""
    d = s.d
    e, odev, poly = other
    const = (poly.c[0] if poly.c else 0) if len(poly.c) <= 1 else None
    for i, x in s.dev.items():
        j = i - d
        if j != e:
            y = (const if const is not None else poly(j)) + odev.get(j, 0)
            if y:
                dev[i] = dev.get(i, 0) + x * sign * (d - i) * y
        j = i + e
        if j:
            y = (const if const is not None else poly(j)) + odev.get(j, 0)
            if y:
                dev[j] = dev.get(j, 0) + x * sign * i * y


def _bracket_diag(s1: DiagonalSeries, s2: DiagonalSeries, polys: dict,
                  devs: dict) -> None:
    """Add the diagonal part of the endomorphism commutator of two diagonals
    into the accumulators of offset d1 + d2: its generic polynomial into
    polys and its deviations actual - generic into devs.  With each side its
    polynomial P_i plus its stored deviations E_i, c(a) = c1(a) (d1 - a)
    c2(a - d1) + c1(a - d2) (a - d2) c2(a) is bilinear, so [s1, s2] =
    [P1, P2] + [E1, s2] + [P1, E2].  The generic part [P1, P2] is zero when either
    polynomial is, and two constants give c1 c2 (d1 - d2) with no product;
    each other part is one _scatter_diag, [P1, E2] = -[E2, P1] run only for
    a nonzero P1.  The forced zeros of s_i at 0 and d_i are left out of E_i:
    each meets a zero factor or lands on an end of the result, where the
    scatter's skips drop it."""
    d1, d2 = s1.d, s2.d
    d = d1 + d2
    dev = devs.get(d)
    if dev is None:
        dev = devs[d] = {}
    p1, p2 = s1.poly, s2.poly
    if p1.c and p2.c:
        if len(p1.c) == 1 and len(p2.c) == 1:
            generic = Poly((p1.c[0] * p2.c[0] * (d1 - d2),))
        else:
            generic = (p1 * Poly((d1, -1)) * p2.affine(-d1)
                       + p1.affine(-d2) * Poly((-d2, 1)) * p2)
        polys[d] = polys[d] + generic if d in polys else generic
    _scatter_diag(s1, (d2, s2.dev, p2), 1, dev)
    if p1.c:
        _scatter_diag(s2, (d1, {}, p1), -1, dev)


def bracket_sum(pairs) -> QuadraticElement:
    """Sum of the commutators [A, B] of the pairs (A, B), built once.

    Central corrections: -1/2 psi on quadratic-quadratic pairs and <f,g> K
    on linear-linear pairs; quadratic-linear brackets are purely linear.
    A pair one of whose sides has neither a linear nor a quadratic part
    (zero, or central only: K commutes with everything) adds nothing and
    is skipped before any other field is read; otherwise each piece runs
    only when both of its sides are present.  The sum is kept in one
    scalar, one mode dict and, per offset, a generic polynomial and the
    deviations actual - generic, which add linearly, and _element builds
    only the offsets that survive, so a vanishing sum builds no series.  No
    deviation sits at a = 0 or a = d: _scatter_diag skips the reads that
    land there, where every c is zero.
    """
    central, modes, polys, devs = 0, {}, {}, {}
    for A, B in pairs:
        fa, qa = A.linear.coeffs, A.quad
        if not (fa or qa):
            continue
        fb, qb = B.linear.coeffs, B.quad
        if not (fb or qb):
            continue
        if fa and fb:
            central += symplectic_form(A.linear, B.linear)
        if qa and qb:
            trace = _quad_trace(qa, qb)
            if trace:
                central -= ratio(trace, 2)
            for s1 in qa.values():
                for s2 in qb.values():
                    _bracket_diag(s1, s2, polys, devs)
        if qa and fb:
            _act_into(modes, qa, B.linear, 1)
        if qb and fa:
            _act_into(modes, qb, A.linear, -1)
    return _element(central, modes, polys, devs)


def bracket(A: QuadraticElement, B: QuadraticElement) -> QuadraticElement:
    """Commutator in the quadratic Weyl algebra: bracket_sum of one pair."""
    return bracket_sum(((A, B),))


# ---------------------------------------------------------------------------
# the trace cocycle and its pieces
# ---------------------------------------------------------------------------

def _mixed_trace(quad: dict, g: LaurentPoly) -> Rational:
    """Trace of a quadratic part against multiplication by g:
    sum_d g_{-d} * sum over a strictly between 0 and d of |a| c_d(a).  With
    a = s*j, s the sign of d, that is the power sum of j P(s*j) over j in
    [1, |d|-1] plus |a| x at each stored deviation x at an a in range."""
    total = 0
    for d, series in quad.items():
        gd = g.coeff(-d)
        if gd:
            s, poly = (1 if d > 0 else -1), series.poly
            trace = _power_sum(abs(d) - 1, len(poly.c), lambda j: j * poly(s * j))
            total += gd * (trace + sum(s * a * x for a, x in series.dev.items()
                                       if 0 < s * a < abs(d)))
    return total


def psi(u: QuadraticElement, v: QuadraticElement) -> Rational:
    """Trace cocycle psi = alpha + beta + gamma: quadratic parts act by the
    S^2 action, linear parts by multiplication, central parts not at all."""
    return rat(_quad_trace(u.quad, v.quad)
               + symplectic_form(u.linear, v.linear)
               + _mixed_trace(u.quad, v.linear) - _mixed_trace(v.quad, u.linear))


def _require_cocycle_arguments(u: QuadraticElement, v: QuadraticElement):
    if u.central or v.central:
        raise ValueError("cocycle arguments live in sp(H') x| H'; "
                         "central part must be zero")


def alpha(u: QuadraticElement, v: QuadraticElement) -> Rational:
    """psi of the quadratic parts."""
    _require_cocycle_arguments(u, v)
    return rat(_quad_trace(u.quad, v.quad))


def beta(u: QuadraticElement, v: QuadraticElement) -> Rational:
    """Symplectic pairing of the linear parts."""
    _require_cocycle_arguments(u, v)
    return symplectic_form(u.linear, v.linear)


def gamma(u: QuadraticElement, v: QuadraticElement) -> Rational:
    """Cross terms: psi(X, g) - psi(Y, f) for u = X + f, v = Y + g."""
    _require_cocycle_arguments(u, v)
    return rat(_mixed_trace(u.quad, v.linear) - _mixed_trace(v.quad, u.linear))


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------

def maps_into(A: QuadraticElement, sources, allowed) -> bool:
    """True when the S^2 action of A sends each window mode sum in sources
    into the span of the t^e with allowed(e).  Images are exact."""
    if A.central or not A.linear.is_zero():
        raise ValueError("membership tests expect zero central and linear parts")
    return all(allowed(e) for u in sources
               for e in _quad_apply_laurent(A.quad, u).coeffs)


def is_in_sp_plus(A: QuadraticElement, W: int) -> bool:
    """X(H'_+) stays inside H'_+ on the window; X is in sp by construction."""
    return maps_into(A, [LaurentPoly.term(1, m) for m in range(1, W + 1)],
                     lambda e: e >= 1)


# ---------------------------------------------------------------------------
# Witt x| H' elements and the maps into the quadratic algebra
# ---------------------------------------------------------------------------

class WittElement:
    """f d/dt + g with f, g finite mode sums and g without constant term."""

    __slots__ = ("f", "g")

    def __init__(self, f: LaurentPoly | None = None, g: LaurentPoly | None = None):
        self.f = f if f is not None else LaurentPoly()
        g = g if g is not None else LaurentPoly()
        for name, value in (("f", self.f), ("g", g)):
            if not isinstance(value, LaurentPoly):
                raise _wrong_type(name, value, LaurentPoly)
        if g.coeff(0):
            raise ValueError("the translation part lives in H'; no constant term")
        self.g = g

    @classmethod
    def L(cls, p: int) -> "WittElement":
        """L_p = -t^(p+1) d/dt."""
        return cls(f=LaurentPoly.term(-1, p + 1))

    @classmethod
    def mode(cls, q: int) -> "WittElement":
        """The translation b_q, q != 0."""
        if q == 0:
            raise ValueError("b_0 vanishes in H'")
        return cls(g=LaurentPoly.term(1, q))

    def scale(self, s) -> "WittElement":
        return WittElement(self.f.scale(s), self.g.scale(s))

    def __eq__(self, other) -> bool:
        return (isinstance(other, WittElement)
                and self.f == other.f and self.g == other.g)

    def __repr__(self):
        return f"WittElement(f={self.f!r}, g={self.g!r})"


def witt_bracket(u: WittElement, v: WittElement) -> WittElement:
    """[f d/dt + g, h d/dt + k] = (fh' - hf') d/dt + (fk' - hg'), with the
    constant part of the translation projected away (it vanishes in H')."""
    f, g, h, k = u.f, u.g, v.f, v.g
    newf = f * h.derivative() - h * f.derivative()
    newg = (f * k.derivative() - h * g.derivative()).without_constant()
    return WittElement(newf, newg)


def sigma(x: WittElement) -> QuadraticElement:
    """L_p -> tau(L_p) - ((p+1)/2) b_p (no linear term at p = 0), g -> g."""
    linear, quad = dict(x.g.coeffs), {}
    for n, c in x.f.coeffs.items():
        p = n - 1
        quad[p] = DiagonalSeries(p, Poly((-c,)))
        if p != 0:
            linear[p] = linear.get(p, 0) + ratio(c * n, 2)
    return QuadraticElement(linear=LaurentPoly(linear), quad=quad)
