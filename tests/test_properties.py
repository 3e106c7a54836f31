"""Property tests for the trace cocycle, the bracket and the expression
language.

psi = alpha + beta + gamma and the residue form of d_cocycle are checked
against the brute-force window traces of tests/oracles.py on random
elements, the bracket of finite elements against the window commutator
there, and the closed-form diagonal trace sums against the term-by-term
loops there on random diagonals with exceptions.  The bracket is
antisymmetric and satisfies Jacobi on random elements with central parts,
and alpha and beta have zero defect on random central-free triples.  Every
value the library stores or returns is an int or a Fraction with a
denominator, never a float.  Seeds are derandomized and example counts
capped, so the runs are the same every time.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oscalg.cli import format_expression, parse_expression
from oscalg.coinv import FPoint, is_in_sp_F
from oscalg.fock import FockVector, apply_quadratic
from oscalg.laurent import LaurentPoly
from oscalg.quadops import (DiagonalSeries, Poly, QuadraticElement,
                            WittElement, _mixed_trace, _psi_diag_pair,
                            _quad_apply_laurent, alpha, b, beta, bracket,
                            bracket_sum, gamma, is_in_sp_plus, pair, psi,
                            sigma, tau, unit)
from oscalg.verify import (alpha_closed, check_cocycle_defects, check_jacobi,
                           cocycle_defect, d_cocycle, gamma_closed)

# Shifts stay within 12, so a window of 14 holds every entry the traces see.
K = 14

INDEX = st.integers(-6, 6).filter(bool)
COEFF = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
QUAD_ATOM = st.one_of(st.tuples(st.just("T"), st.integers(-6, 6)),
                      st.tuples(st.just("pair"), INDEX, INDEX))
MODE_ATOM = st.tuples(st.just("b"), INDEX)
QUAD_TERMS = st.lists(st.tuples(COEFF, QUAD_ATOM), max_size=3)
MODE_TERMS = st.lists(st.tuples(COEFF, MODE_ATOM), min_size=1, max_size=3)

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)


def element(terms, window=K):
    """(element, window matrix of its quadratic part, window matrix of its
    linear part) for a list of (coefficient, atom) terms; the matrices run
    over exponents in [-window, window]."""
    A = QuadraticElement()
    quad, lin = {}, {}
    for c, atom in terms:
        if atom[0] == "T":
            A = A + tau(atom[1]).scale(c)
            quad = oracles.mat_add(quad, oracles.mat_scale(
                c, oracles.mat_tau(atom[1], window)))
        elif atom[0] == "pair":
            A = A + pair(atom[1], atom[2]).scale(c)
            quad = oracles.mat_add(quad, oracles.mat_scale(
                c, oracles.mat_pair(atom[1], atom[2], window)))
        else:
            A = A + b(atom[1]).scale(c)
            lin = oracles.mat_add(lin, oracles.mat_scale(
                c, oracles.mat_mult(atom[1], window)))
    return A, quad, lin


@SETTINGS
@given(QUAD_TERMS, MODE_TERMS, QUAD_TERMS, MODE_TERMS)
def test_psi_and_gamma_match_window_traces(qu, lu, qv, lv):
    u, u_quad, u_lin = element(qu + lu)
    v, v_quad, v_lin = element(qv + lv)
    assert psi(u, v) == oracles.psi_mat(oracles.mat_add(u_quad, u_lin),
                                        oracles.mat_add(v_quad, v_lin), K)
    assert gamma(u, v) == (oracles.psi_mat(u_quad, v_lin, K)
                           - oracles.psi_mat(v_quad, u_lin, K))


# Finite elements (pair and mode sums) and banded ones (T(p) sums).  Each
# side shifts by at most 12, so on a window of 30 the columns |c| <= 6 of
# the commutator are exact.
BRACKET_WINDOW = 30
FINITE = st.lists(st.tuples(COEFF, st.one_of(
    st.tuples(st.just("pair"), INDEX, INDEX), MODE_ATOM)), min_size=1, max_size=3)
BANDED = st.lists(st.tuples(COEFF, st.tuples(st.just("T"), st.integers(-6, 6))),
                  min_size=1, max_size=3)


def window_image(mat, f):
    """The window matrix mat applied to the mode sum f."""
    out = {}
    for (r, c), v in mat.items():
        out[r] = out.get(r, 0) + v * f.coeff(c)
    return LaurentPoly(out)


@SETTINGS
@given(FINITE, st.one_of(FINITE, BANDED))
def test_bracket_of_finite_elements_matches_window_commutator(x, y):
    A, a_quad, _ = element(x, BRACKET_WINDOW)
    B, b_quad, _ = element(y, BRACKET_WINDOW)
    C = bracket(A, B)
    commutator = oracles.mat_commutator(a_quad, b_quad, BRACKET_WINDOW)
    for c in range(-6, 7):
        if c:
            image = _quad_apply_laurent(C.quad, LaurentPoly.term(1, c))
            assert image == LaurentPoly(
                {r: v for (r, col), v in commutator.items() if col == c})
    assert C.linear == (window_image(a_quad, B.linear)
                        - window_image(b_quad, A.linear))


# Symmetric diagonals with |d| <= 60: a polynomial of degree <= 2 in
# x = a(d - a) and exceptions placed on both a and d - a, on both sides of
# the summation range, some of them zero where the polynomial is not.
OFFSET = st.integers(-60, 60)
SYMMETRIC_POLY = st.lists(COEFF, max_size=3)
EXCEPTIONS = st.dictionaries(st.integers(-65, 65),
                             st.one_of(st.just(Fraction(0)), COEFF), max_size=5)


def symmetric(d, coeffs, exceptions):
    """The series at offset d with polynomial sum_k coeffs[k] x^k in
    x = a(d - a) and each exception (a, v) placed at a and d - a, stored
    as the deviation v - poly(a)."""
    x, power, poly = Poly((0, d, -1)), Poly((1,)), Poly()
    for c in coeffs:
        poly, power = poly + power.scale(c), power * x
    dev = {}
    for a, v in exceptions.items():
        dev[a] = dev[d - a] = v - poly(a)
    return DiagonalSeries(d, poly, dev)


@SETTINGS
# deviations at the ends of the range: a = 1, d - 1 on s1 and a = -1, 1 - d
# on s2; just outside it: a = -1, d + 1 on s1 and a = 1, -1 - d on s2;
# zero polynomials on both sides; a negative d
@example(7, [Fraction(1)], {1: Fraction(2)}, [Fraction(1), Fraction(1, 2)],
         {-1: Fraction(3)})
@example(7, [Fraction(1)], {-1: Fraction(2)}, [Fraction(-2, 3)], {1: Fraction(3)})
@example(6, [], {2: Fraction(1), -3: Fraction(2)}, [], {-1: Fraction(-3), 4: Fraction(5)})
@example(-5, [Fraction(2), Fraction(1, 3)], {-2: Fraction(1), 1: Fraction(4)},
         [Fraction(-1)], {3: Fraction(2), -1: Fraction(1)})
@given(OFFSET, SYMMETRIC_POLY, EXCEPTIONS, SYMMETRIC_POLY, EXCEPTIONS)
def test_psi_diag_pair_matches_loop(d, p1, e1, p2, e2):
    s1, s2 = symmetric(d, p1, e1), symmetric(-d, p2, e2)
    assert _psi_diag_pair(s1, s2) == oracles.diag_psi_sum(d, s1.coeff, s2.coeff)


@SETTINGS
@given(OFFSET, SYMMETRIC_POLY, EXCEPTIONS, SYMMETRIC_POLY, EXCEPTIONS, COEFF)
def test_sums_and_multiples_add_coefficients(d, p1, e1, p2, e2, c):
    # A.scale(c) + B adds the coefficient functions pointwise, A - A
    # cancels, and no sum stores a zero deviation
    A = QuadraticElement(quad={d: symmetric(d, p1, e1)})
    B = QuadraticElement(quad={d: symmetric(d, p2, e2)})

    def coeff(E, a):
        return E.quad[d].coeff(a) if d in E.quad else 0

    total = A.scale(c) + B
    assert all(coeff(total, a) == c * coeff(A, a) + coeff(B, a)
               for a in range(-130, 131))
    assert A - A == QuadraticElement()
    for E in (A, B, total, A - B):
        assert all(x for s in E.quad.values() for x in s.dev.values())


@SETTINGS
# deviations at the ends of the range and just outside it, a zero
# polynomial, and a negative d
@example([(7, [Fraction(1)], {1: Fraction(2), -1: Fraction(3)}, Fraction(1)),
          (5, [], {2: Fraction(1), 6: Fraction(-2)}, Fraction(2, 3))])
@example([(-6, [Fraction(1, 2)], {-1: Fraction(2), 1: Fraction(3)}, Fraction(-1, 2)),
          (-3, [], {-1: Fraction(4), -4: Fraction(1)}, Fraction(1))])
@given(st.lists(st.tuples(OFFSET, SYMMETRIC_POLY, EXCEPTIONS, COEFF),
                min_size=1, max_size=2, unique_by=lambda t: t[0]))
def test_mixed_trace_matches_loop(diagonals):
    quad = {d: symmetric(d, p, e) for d, p, e, _ in diagonals}
    g = LaurentPoly({-d: c for d, _, _, c in diagonals if d})
    assert _mixed_trace(quad, g) == sum(
        g.coeff(-d) * oracles.diag_mixed_sum(d, s.coeff) for d, s in quad.items())


# Sources reach |m| <= 4 and shifts |d| <= 12, so a window of 16 holds
# every image the membership tests see.
IMAGES = 16


@SETTINGS
@example([(Fraction(1), ("T", 0))], {1}, 4)
@example([(Fraction(1), ("pair", -2, -3))], set(), 4)
@given(QUAD_TERMS, st.sets(st.integers(1, 6)), st.integers(1, 4))
def test_membership_matches_window_matrices(terms, gaps, W):
    A, mat, _ = element(terms, IMAGES)

    def rows(columns):
        return {r for (r, c) in mat if c in columns}

    # H'_+ into H'_+, and F-perp (H_- and the gap modes) into F
    plus = all(r >= 1 for r in rows(range(1, W + 1)))
    perp = set(range(-W, 0)) | {g for g in gaps if g <= W}
    into_F = all(r < 0 and -r not in gaps for r in rows(perp))
    assert is_in_sp_plus(A, W) == plus
    assert is_in_sp_F(A, FPoint(gaps), W) == into_F


LAURENT = st.dictionaries(st.integers(-5, 6), st.integers(-3, 3), max_size=3)


def witt(f, g):
    """(f d/dt + g, window matrix of f d/dt minus multiplication by g)."""
    g = {e: c for e, c in g.items() if e}
    mat = oracles.mat_add(oracles.mat_derivation(f, K),
                          oracles.mat_scale(-1, oracles.mat_mult_poly(g, K)))
    return WittElement(LaurentPoly(f), LaurentPoly(g)), mat


@SETTINGS
@given(LAURENT, LAURENT, LAURENT, LAURENT)
def test_d_cocycle_matches_window_trace(f, g, h, k):
    (u, mu), (v, mv) = witt(f, g), witt(h, k)
    assert d_cocycle(u, v) == oracles.psi_mat(mu, mv, K)


@SETTINGS
@given(LAURENT, LAURENT, LAURENT, LAURENT)
def test_closed_forms_match_derivative_residues(f, g, h, k):
    g, k = ({e: c for e, c in x.items() if e} for x in (g, k))
    u = WittElement(LaurentPoly(f), LaurentPoly(g))
    v = WittElement(LaurentPoly(h), LaurentPoly(k))
    res = oracles.residue_of_derivative
    alpha_want = Fraction(1, 6) * res(f, h, 3)
    gamma_want = -Fraction(1, 2) * (res(f, k, 2) - res(h, g, 2))
    assert alpha_closed(u, v) == alpha_want
    assert gamma_closed(u, v) == gamma_want
    # <g, k> = -Res g dk
    assert d_cocycle(u, v) == alpha_want - gamma_want - res(g, k, 1)


ATOM = st.one_of(QUAD_ATOM, MODE_ATOM, st.just(("K",)))
PRINTABLE = st.lists(st.tuples(COEFF, ATOM), min_size=1, max_size=5)


def with_central(terms):
    """The element of (coefficient, atom) terms whose atoms may include K."""
    A = element([t for t in terms if t[1] != ("K",)])[0]
    return A + unit(sum(c for c, atom in terms if atom == ("K",)))


@SETTINGS
@given(PRINTABLE)
def test_parse_inverts_format(terms):
    A = with_central(terms)
    assert parse_expression(format_expression(A)) == A


# Bounded random elements: up to three terms, K included.
BOUNDED = st.lists(st.tuples(COEFF, ATOM), max_size=3).map(with_central)
CENTRAL_FREE = st.lists(st.tuples(COEFF, st.one_of(QUAD_ATOM, MODE_ATOM)),
                        max_size=3).map(lambda terms: element(terms)[0])


@SETTINGS
@given(BOUNDED, BOUNDED)
def test_bracket_is_antisymmetric(x, y):
    assert bracket(x, y) == -bracket(y, x)


@SETTINGS
@given(BOUNDED, BOUNDED, BOUNDED)
def test_jacobi_on_random_triples(x, y, z):
    total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
    assert total.is_zero()
    assert check_jacobi([x, y, z]) == []


# Lists of bracket pairs, the empty one included, with arguments that may
# be central-only or zero, and optionally [c T(p), T(-p)] + [T(-p), c T(p)]
# appended: opposite offsets whose generic parts and deviations cancel.
OPPOSITE_TAUS = st.tuples(st.integers(-6, 6), COEFF).map(
    lambda t: [(tau(t[0]).scale(t[1]), tau(-t[0])),
               (tau(-t[0]), tau(t[0]).scale(t[1]))])
PAIR_LISTS = st.tuples(st.lists(st.tuples(BOUNDED, BOUNDED), max_size=3),
                       st.one_of(st.just([]), OPPOSITE_TAUS)).map(
    lambda t: t[0] + t[1])


@SETTINGS
@example([])
@example([(unit(2), tau(1)), (b(1), unit(-1)), (QuadraticElement(), b(2))])
@example([(tau(3), tau(-3)), (tau(-3), tau(3))])
@example([(tau(2), tau(-1)), (tau(-1), tau(2)), (pair(1, 1), tau(-2))])
@given(PAIR_LISTS)
def test_bracket_sum_is_the_sum_of_its_brackets(pairs):
    total = QuadraticElement()
    for x, y in pairs:
        total = total + bracket(x, y)
    assert bracket_sum(pairs) == total
    assert bracket_sum(pairs + [(y, x) for x, y in pairs]).is_zero()


@SETTINGS
@given(CENTRAL_FREE, CENTRAL_FREE, CENTRAL_FREE)
def test_alpha_and_beta_have_zero_defect(x, y, z):
    assert cocycle_defect("alpha", x, y, z) == 0
    assert cocycle_defect("beta", x, y, z) == 0
    # the sweep, which reads its brackets from one table, agrees
    assert check_cocycle_defects([x, y, z]) == []


def canonical(x) -> bool:
    """x is an int, or a Fraction whose denominator is not 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def coefficients(A):
    """Every coefficient a quadratic element stores."""
    yield A.central
    yield from A.linear.coeffs.values()
    for series in A.quad.values():
        yield from series.poly.c
        yield from series.dev.values()


RATIONAL_LAURENT = st.dictionaries(st.integers(-5, 6), COEFF, max_size=3)
STATES = st.dictionaries(
    st.lists(st.integers(1, 4), max_size=4).map(
        lambda parts: (tuple(sorted(parts, reverse=True)),)),
    COEFF.filter(bool), min_size=1, max_size=3).map(
        lambda terms: FockVector(1, terms))


@SETTINGS
@given(BOUNDED, BOUNDED, RATIONAL_LAURENT, RATIONAL_LAURENT, STATES)
def test_values_are_ints_or_fractions_with_a_denominator(x, y, f, g, v):
    assert all(map(canonical, coefficients(bracket(x, y))))
    u = WittElement(LaurentPoly(f), LaurentPoly({e: c for e, c in g.items() if e}))
    assert all(map(canonical, coefficients(sigma(u))))
    assert all(map(canonical, apply_quadratic(x, v).terms.values()))
    x, y = x.drop_central(), y.drop_central()
    assert all(canonical(c(x, y)) for c in (psi, alpha, beta, gamma))
