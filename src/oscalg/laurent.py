"""Exact Laurent polynomials over Q and the symplectic residue form.

Elements of H = Q((t)) that the rest of the library touches directly are
finite sums c * t^e; completed objects (infinite mode sums) live in
``quadops`` as symbolic diagonal families, never here.
"""

from __future__ import annotations

from fractions import Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '1/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def parse_int(text: str, what: str) -> int:
    """int(text), or a ValueError that names what the text was given for."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what}: {text.strip()!r} is not an integer") from None


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
                    clean[int(e)] = c
        self.coeffs = clean

    @classmethod
    def term(cls, coeff, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def t(cls, exp: int) -> "LaurentPoly":
        return cls({exp: 1})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, Fraction(0))

    def support(self):
        return sorted(self.coeffs)

    def without_constant(self) -> "LaurentPoly":
        if 0 not in self.coeffs:
            return self
        out = dict(self.coeffs)
        del out[0]
        return LaurentPoly(out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def scale(self, s) -> "LaurentPoly":
        s = rat(s)
        return LaurentPoly({e: s * c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return LaurentPoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    def residue(self) -> Fraction:
        return self.coeffs.get(-1, Fraction(0))

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self):
        return format_laurent(self)


def residue(f: LaurentPoly) -> Fraction:
    """Coefficient of t^-1."""
    return f.residue()


def derivative(f: LaurentPoly) -> LaurentPoly:
    """Term-by-term t-derivative."""
    return f.derivative()


def symplectic_form(f: LaurentPoly, g: LaurentPoly) -> Fraction:
    """<f, g> = -Res f dg.  Satisfies <t^a, t^b> = a * delta_{a+b,0}."""
    return -residue(f * derivative(g))


def format_laurent(f: LaurentPoly) -> str:
    """Textual form: sum of 'c*t^n' terms, exponents ascending."""
    if f.is_zero():
        return "0"
    parts = []
    for e in f.support():
        c = f.coeffs[e]
        if e == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the textual form emitted by format_laurent, e.g. '3*t^-1 + 1/2*t^2'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Laurent polynomial")
    if s == "0":
        return LaurentPoly.zero()
    # split into signed chunks
    chunks = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "^+-*/":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    coeffs = {}
    for chunk in chunks:
        if not chunk or chunk in "+-":
            raise ValueError(f"malformed term in {text!r}")
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        if "t" in chunk:
            head, _, tail = chunk.partition("t")
            if head not in ("", "*") and not head.endswith("*"):
                raise ValueError(f"malformed term in {text!r}")
            coeff = Fraction(head.rstrip("*")) if head.rstrip("*") else Fraction(1)
            if tail.startswith("^"):
                exp = int(tail[1:])
            elif tail == "":
                exp = 1
            else:
                raise ValueError(f"malformed exponent in {text!r}")
        else:
            coeff = Fraction(chunk)
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
    return LaurentPoly(coeffs)
