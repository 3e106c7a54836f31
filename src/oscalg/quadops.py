"""Quadratic-operator algebra on the mode space H = Q((t)).

The central object is QuadraticElement: central * K + finite linear part +
banded symmetric quadratic part.  Quadratic parts are stored per
anti-diagonal a + b = d as a coefficient polynomial in a with finitely many
exceptional values, which is closed under the commutator; this is what lets
infinite formal sums like the Virasoro modes be bracketed exactly.

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
        n = max(len(self.c), len(other.c))
        return Poly([(self.c[i] if i < len(self.c) else 0)
                     + (other.c[i] if i < len(other.c) else 0)
                     for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.c])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
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


def _diagonal_sum(n: int, deg: int, generic, actual, js) -> Rational:
    """actual(1) + ... + actual(n), where actual = generic, a polynomial of
    degree <= deg, off the distinct indices js.  Exact in O(deg^2 + len(js))
    for any n: Newton's forward formula and the hockey-stick identity give
    sum_i D^i generic(1) C(n, i+1), plus actual - generic at each j in js."""
    if n < 1:
        return 0
    diffs = [generic(j) for j in range(1, deg + 2)]
    total = 0
    for i in range(deg + 1):
        total += diffs[0] * comb(n, i + 1)
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    for j in js:
        if 1 <= j <= n:
            total += actual(j) - generic(j)
    return total


# ---------------------------------------------------------------------------
# diagonal series and quadratic elements
# ---------------------------------------------------------------------------

class DiagonalSeries:
    """Coefficient function on the anti-diagonal a + b = d.

    ctilde(a) = 0 if a in {0, d}, else exceptions.get(a, poly(a)).
    The stored data is canonical: exception keys avoid {0, d} and values
    that merely repeat poly(a).  The constructor raises ValueError unless
    ctilde(a) == ctilde(d - a), so every series lies in sp(H').
    """

    __slots__ = ("d", "poly", "exc")

    def __init__(self, d: int, poly: Poly = POLY_ZERO, exc=None):
        self.d = d = index(d)
        self.poly = poly
        clean = {}
        if exc:
            # a constant polynomial, the zero one included, needs no poly(a)
            const = poly.constant_value() if poly.is_constant() else None
            for a, v in exc.items():
                a = index(a)
                if a == 0 or a == d:
                    continue
                v = rat(v)
                if v != (poly(a) if const is None else const):
                    clean[a] = v
        self.exc = clean
        # poly(a) - poly(d - a) has degree <= deg, so agreeing at a = 0..deg
        # proves the polynomial symmetric; then the mirror of an exception
        # must be an exception of the same value
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
        got = self.exc.get(a)
        return got if got is not None else self.poly(a)

    def is_zero(self) -> bool:
        return self.poly.is_zero() and not self.exc

    def scaled(self, s) -> "DiagonalSeries":
        s = rat(s)
        if not s:
            return DiagonalSeries(self.d)
        return DiagonalSeries(self.d, self.poly.scale(s),
                              {a: s * v for a, v in self.exc.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiagonalSeries) and self.d == other.d
                and self.poly == other.poly and self.exc == other.exc)

    def __repr__(self):
        return f"DiagonalSeries(d={self.d}, poly={self.poly!r}, exc={self.exc!r})"


def _series_add(s1: DiagonalSeries, s2: DiagonalSeries) -> DiagonalSeries:
    if s1.poly.is_zero() and s2.poly.is_zero():
        # finite series: the sum lives on the union of the exceptions
        exc = dict(s1.exc)
        for a, v in s2.exc.items():
            exc[a] = exc.get(a, 0) + v
        return DiagonalSeries(s1.d, POLY_ZERO, exc)
    poly = s1.poly + s2.poly
    exc = {}
    for a in set(s1.exc) | set(s2.exc):
        exc[a] = s1.coeff(a) + s2.coeff(a)
    return DiagonalSeries(s1.d, poly, exc)


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
            linear = LaurentPoly()
        elif not isinstance(linear, LaurentPoly):
            raise _wrong_type("linear", linear, LaurentPoly)
        if 0 in linear.coeffs:
            raise ValueError("linear part must not contain the constant mode; "
                             "use the central coordinate instead")
        self.linear = linear
        clean = {}
        if quad:
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
        # elements are immutable by convention, so a zero side can hand
        # back the other operand itself
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        quad = dict(self.quad)
        for d, series in other.quad.items():
            quad[d] = _series_add(quad[d], series) if d in quad else series
        return QuadraticElement(self.central + other.central,
                                self.linear + other.linear, quad)

    def __neg__(self) -> "QuadraticElement":
        return self.scale(-1)

    def __sub__(self, other: "QuadraticElement") -> "QuadraticElement":
        return self + other.scale(-1)

    def scale(self, s) -> "QuadraticElement":
        s = rat(s)
        return QuadraticElement(s * self.central, self.linear.scale(s),
                                {d: series.scaled(s) for d, series in self.quad.items()})

    def drop_central(self) -> "QuadraticElement":
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
        series = A.quad[d]
        c = series.poly.constant_value()
        for a in sorted(x for x in series.exc if 2 * x <= d):
            v = series.exc[a]
            coeff = ratio(v - c, 2) if 2 * a == d else v - c
            chunks.append((coeff, f":b({a})b({d - a}):"))
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
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.take(self.peek())[0] == "-" else 1
        out = self.term().scale(sign)
        while self.peek() != "END":
            op = self.peek()
            if op not in "+-":
                raise ExpressionError(f"expected '+' or '-', found {op!r}",
                                      self.toks[self.i][2])
            self.take(op)
            out = out + self.term().scale(-1 if op == "-" else 1)
        return out

    def term(self) -> QuadraticElement:
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
        return self.atom().scale(coeff)

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
            return QuadraticElement(central=1)
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


def b(m: int, coeff=1) -> QuadraticElement:
    """The mode b_m = t^m, m != 0."""
    if m == 0:
        raise ValueError("b_0 is central; use unit()")
    return QuadraticElement(linear=LaurentPoly.term(coeff, m))


def pair(a: int, bb: int) -> QuadraticElement:
    """The normal-ordered pair :b_a b_b:, a, b != 0."""
    if a == 0 or bb == 0:
        raise ValueError("index 0 is not allowed in quadratic parts")
    d = a + bb
    exc = {a: 2} if a == bb else {a: 1, bb: 1}
    return QuadraticElement(quad={d: DiagonalSeries(d, POLY_ZERO, exc)})


def normal_order_lift(f: LaurentPoly, g: LaurentPoly) -> QuadraticElement:
    """:fg: with symmetric coefficient c(a,b) = f_a g_b + f_b g_a."""
    if f.coeff(0) or g.coeff(0):
        raise ValueError("normal_order_lift requires inputs without constant term")
    acc = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            d = e1 + e2
            diag = acc.setdefault(d, {})
            diag[e1] = diag.get(e1, 0) + c1 * c2
            diag[e2] = diag.get(e2, 0) + c1 * c2
    quad = {d: DiagonalSeries(d, POLY_ZERO, exc) for d, exc in acc.items()}
    return QuadraticElement(quad=quad)


def tau(p: int) -> QuadraticElement:
    """Virasoro mode as a quadratic operator: (1/2) sum_i :b_{-i} b_{i+p}:."""
    return QuadraticElement(quad={p: DiagonalSeries(p, POLY_ONE)})


# ---------------------------------------------------------------------------
# the commutator
# ---------------------------------------------------------------------------

def _psi_diag_pair(s1: DiagonalSeries, s2: DiagonalSeries) -> Rational:
    """Trace cocycle of two diagonals with opposite offsets d and -d: for
    d > 0, minus the sum over j in [1, d-1] of j(d-j) c1(d-j) c2(-j).  In
    closed form, the power sum of the generic polynomial j(d-j) P1(d-j)
    P2(-j) plus (actual - generic) at each exceptional j in that range."""
    d = s1.d
    if d == 0:
        return 0
    if d < 0:
        return -_psi_diag_pair(s2, s1)
    p1, p2 = s1.poly, s2.poly
    return -_diagonal_sum(
        d - 1, len(p1.c) + len(p2.c),
        lambda j: j * (d - j) * p1(d - j) * p2(-j),
        lambda j: j * (d - j) * s1.coeff(d - j) * s2.coeff(-j),
        {d - a for a in s1.exc} | {-a for a in s2.exc})


def _quad_trace(qa: dict, qb: dict) -> Rational:
    """psi of two quadratic parts: the trace pairs opposite offsets only."""
    total = 0
    for d, s1 in qa.items():
        s2 = qb.get(-d)
        if s2 is not None:
            total += _psi_diag_pair(s1, s2)
    return total


def _quad_apply_laurent(quad: dict, f: LaurentPoly) -> LaurentPoly:
    """Action of a quadratic part on a finite mode sum: t^m -> -m c(-m) t^(m+d)."""
    out = {}
    for m, cm in f.coeffs.items():
        for d, series in quad.items():
            w = -m * series.coeff(-m)
            if w:
                e = m + d
                out[e] = out.get(e, 0) + cm * w
    return LaurentPoly(out)


def _scatter_diag(s: DiagonalSeries, other: DiagonalSeries,
                  sign: int) -> dict:
    """sign * the exceptions of [s, other]'s diagonal for s with a zero
    polynomial: c vanishes off exc(s) and exc(s) + d_other, and exception i
    of s adds x (d - i) c_other(i - d) at i and x i c_other(i + d_other) at
    i + d_other, two reads of the other side."""
    d, e = s.d, other.d
    exc = {}
    for i, x in s.exc.items():
        for a, k, j in ((i, sign * (d - i), i - d), (i + e, sign * i, i + e)):
            y = other.coeff(j)
            if y:
                exc[a] = exc.get(a, 0) + x * k * y
    return exc


def _bracket_diag(s1: DiagonalSeries, s2: DiagonalSeries) -> DiagonalSeries:
    """Diagonal part of the endomorphism commutator of two diagonals.  Both
    terms of c(a) = c1(a) (d1 - a) c2(a - d1) + c1(a - d2) (a - d2) c2(a)
    carry c1 and c2, so a side with a zero polynomial makes the generic
    polynomial zero, and that side scatters its own exceptions (the
    commutator is antisymmetric, so s2 scatters with sign -1).  Two nonzero
    polynomials give the generic part and the candidates where c may differ
    from it."""
    d1, d2 = s1.d, s2.d
    p1, p2 = s1.poly, s2.poly
    if p1.is_zero():
        return DiagonalSeries(d1 + d2, POLY_ZERO, _scatter_diag(s1, s2, 1))
    if p2.is_zero():
        return DiagonalSeries(d1 + d2, POLY_ZERO, _scatter_diag(s2, s1, -1))
    generic = (p1 * Poly((d1, -1)) * p2.affine(-d1)
               + p1.affine(-d2) * Poly((-d2, 1)) * p2)
    e1 = set(s1.exc) | {0, d1}
    e2 = set(s2.exc) | {0, d2}
    exc = {}
    for a in e1 | {a + d2 for a in e1} | e2 | {a + d1 for a in e2}:
        val = 0
        for i, j, k in ((a, a - d1, d1 - a), (a - d2, a, a - d2)):
            if (x := s1.coeff(i)) and (y := s2.coeff(j)):
                val += x * y * k
        exc[a] = val
    return DiagonalSeries(d1 + d2, generic, exc)


def bracket(A: QuadraticElement, B: QuadraticElement) -> QuadraticElement:
    """Commutator in the quadratic Weyl algebra.

    Central corrections: -1/2 psi on quadratic-quadratic pairs and <f,g> K
    on linear-linear pairs; quadratic-linear brackets are purely linear.
    Central parts commute with everything, so an argument with neither a
    linear nor a quadratic part gives zero at once.
    """
    if not (A.linear.coeffs or A.quad) or not (B.linear.coeffs or B.quad):
        return QuadraticElement()
    central = symplectic_form(A.linear, B.linear)
    trace = _quad_trace(A.quad, B.quad)
    if trace:
        central -= ratio(trace, 2)
    # a quadratic part acts on modes only, so no mode in means none out
    linear = None
    if A.linear.coeffs or B.linear.coeffs:
        linear = (_quad_apply_laurent(A.quad, B.linear)
                  - _quad_apply_laurent(B.quad, A.linear))
    quad = {}
    for s1 in A.quad.values():
        for s2 in B.quad.values():
            s3 = _bracket_diag(s1, s2)
            d = s3.d
            quad[d] = _series_add(quad[d], s3) if d in quad else s3
    return QuadraticElement(central, linear, quad)


# ---------------------------------------------------------------------------
# the trace cocycle and its pieces
# ---------------------------------------------------------------------------

def _mixed_trace(quad: dict, g: LaurentPoly) -> Rational:
    """Trace of a quadratic part against multiplication by g:
    sum_d g_{-d} * sum over a strictly between 0 and d of |a| c_d(a).  With
    a = s*j, s the sign of d, that is the power sum of j P(s*j) over j in
    [1, |d|-1] plus |a| (actual - generic) at each exceptional a in range."""
    total = 0
    for d, series in quad.items():
        gd = g.coeff(-d)
        if gd:
            s = 1 if d > 0 else -1
            total += gd * _diagonal_sum(
                abs(d) - 1, len(series.poly.c),
                lambda j: j * series.poly(s * j),
                lambda j: j * series.coeff(s * j),
                {s * a for a in series.exc})
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
    out = QuadraticElement(linear=x.g)
    for n, c in x.f.coeffs.items():
        p = n - 1
        out = out + tau(p).scale(-c)
        if p != 0:
            out = out + b(p, ratio(c * n, 2))
    return out
