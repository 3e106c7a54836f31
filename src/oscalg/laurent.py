"""Exact Laurent polynomials over Q and the symplectic residue form.

Elements of H = Q((t)) that the rest of the library touches directly are
finite sums c * t^e; completed objects (infinite mode sums) live in
``quadops`` as symbolic diagonal families, never here.

Every exact value in the package is an int when it is integral and a
Fraction only when it has a denominator: rat is the one rule, applied by
every constructor, and ratio the one true division.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from numbers import Number, Rational
from operator import index


def rat(x) -> Rational:
    """The canonical exact value of x: an int stays an int, a Fraction with
    denominator 1 becomes its numerator, and a string like '1/2' is parsed
    exactly.  A float, or anything else inexact, is a TypeError."""
    if type(x) is not int:
        if type(x) is not Fraction:
            if not isinstance(x, (str, Rational)):
                raise TypeError(f"{x!r} is not an exact rational: pass an "
                                f"int, a Fraction or a string like '1/2'")
            x = Fraction(x)
        if x.denominator == 1:
            return x.numerator
    return x


def ratio(a, b) -> Rational:
    """a / b for exact a and b, canonical as rat makes it.  This is the one
    division in the package: / on two ints would give a float.  Two ints
    of which b divides a give a // b with no Fraction built; any other
    input, a zero b included, goes through Fraction."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    return rat(Fraction(a, b))


def parse_int(text: str, what: str) -> int:
    """int(text), or a ValueError that names what the text was given for."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what}: {text.strip()!r} is not an integer") from None


def as_int(x, what: str) -> int:
    """operator.index(x), or a TypeError that names what x was given for."""
    try:
        return index(x)
    except TypeError as e:
        raise TypeError(f"{what}: {e}") from None


class LaurentPoly:
    """Finite-support Laurent polynomial; exponent -> nonzero coefficient.

    Canonical form stores no zero coefficients, so equality is plain dict
    equality.  Values are immutable by convention: every operation returns
    a fresh instance.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = rat(c)
                if c:
                    clean[index(e)] = c
        self.coeffs = clean

    @classmethod
    def term(cls, coeff, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> Rational:
        return self.coeffs.get(exp, 0)

    def without_constant(self) -> "LaurentPoly":
        if 0 not in self.coeffs:
            return self
        out = dict(self.coeffs)
        del out[0]
        return LaurentPoly(out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def scale(self, s) -> "LaurentPoly":
        s = rat(s)
        return LaurentPoly({e: s * c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        """The product with a LaurentPoly, or the multiple by a number or a
        string like '1/2' (an inexact number is scale's TypeError); any
        other operand is declined."""
        if isinstance(other, LaurentPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
            return LaurentPoly(out)
        if not isinstance(other, (Number, str)):
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self):
        return format_laurent(self)


def residue(f: LaurentPoly) -> Rational:
    """Coefficient of t^-1."""
    return f.coeffs.get(-1, 0)


def residue_of_derivative(f: LaurentPoly, g: LaurentPoly, k: int) -> Rational:
    """Res f g^(k), read off the coefficients: t^a meets the k-th derivative
    of t^b, b (b-1) ... (b-k+1) t^(b-k), when a + b - k = -1."""
    total = 0
    for a, c in f.coeffs.items():
        e = k - 1 - a
        y = g.coeffs.get(e)
        if y:
            total += c * y * prod(range(e, e - k, -1))
    return rat(total)


def symplectic_form(f: LaurentPoly, g: LaurentPoly) -> Rational:
    """<f, g> = -Res f dg.  Satisfies <t^a, t^b> = a * delta_{a+b,0}."""
    return -residue_of_derivative(f, g, 1)


def signed_sum_chunks(groups, zero: str):
    """The text of a sum of (coefficient, atoms) groups, one piece per
    group: atoms is a non-empty sequence of atoms that share the nonzero
    coefficient.  The first term takes a bare '-', later ones are joined by
    '+ '/'- ', a unit coefficient is left out, an empty atom, which stands
    alone in its group, prints the bare magnitude, and the empty sum prints
    as `zero`.  The sign and the joiner are made once per group."""
    lead = None
    for c, atoms in groups:
        joiner = " " + ("+ " if c > 0 else "- ")
        lead = joiner if lead is not None else ("" if c > 0 else "-")
        if c < 0:
            c = -c
        if c != 1 or not atoms[0]:
            atoms = [f"{c}*{atom}" if atom else str(c) for atom in atoms]
        yield lead + joiner.join(atoms)
    if lead is None:
        yield zero


def format_signed_sum(terms, zero: str) -> str:
    """signed_sum_chunks of (coefficient, atom) terms, each a group of its
    own, joined into one string."""
    return "".join(signed_sum_chunks(((c, (atom,)) for c, atom in terms),
                                     zero))


def format_laurent(f: LaurentPoly) -> str:
    """Textual form: sum of 'c*t^n' terms, exponents ascending."""
    return format_signed_sum(((c, f"t^{e}" if e else "")
                              for e, c in sorted(f.coeffs.items())), "0")
