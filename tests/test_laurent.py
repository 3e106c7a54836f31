import random
from fractions import Fraction

import pytest

from oscalg.coinv import FPoint
from oscalg.fock import FockVector, canon_state
from oscalg.laurent import (LaurentPoly, derivative, format_laurent, rat,
                            ratio, residue, symplectic_form)
from oscalg.quadops import DiagonalSeries, QuadraticElement, b, tau


def t(e, c=1):
    return LaurentPoly.term(c, e)


def random_poly(rng, span=8, nterms=4):
    coeffs = {}
    for _ in range(rng.randint(0, nterms)):
        coeffs[rng.randint(-span, span)] = Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 9))
    return LaurentPoly(coeffs)


def test_residue_examples():
    assert residue(t(-1)) == 1
    assert residue(t(-1, 3) + t(1, 2)) == 3
    assert residue(t(2)) == 0


def test_derivative_examples():
    assert derivative(t(3)) == t(2, 3)
    assert derivative(t(-1)) == t(-2, -1)
    assert derivative(t(0, 7)).is_zero()


def test_symplectic_examples():
    assert symplectic_form(t(1), t(-1)) == 1
    assert symplectic_form(t(2), t(-2)) == 2
    assert symplectic_form(t(2), t(3)) == 0


def test_symplectic_closed_form():
    for a in range(-16, 17):
        for b in range(-16, 17):
            want = a if a + b == 0 else 0
            assert symplectic_form(t(a), t(b)) == want


def test_symplectic_antisymmetry():
    rng = random.Random(0)
    for _ in range(200):
        f = random_poly(rng)
        g = random_poly(rng)
        assert symplectic_form(f, g) == -symplectic_form(g, f)


def test_symplectic_bilinearity():
    rng = random.Random(1)
    for _ in range(100):
        f, g, h = (random_poly(rng) for _ in range(3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (symplectic_form(f + g.scale(c), h)
                == symplectic_form(f, h) + c * symplectic_form(g, h))


def test_symplectic_constant_blind():
    rng = random.Random(2)
    for _ in range(100):
        f = random_poly(rng)
        g = random_poly(rng)
        assert symplectic_form(f + t(0, 5), g) == symplectic_form(f, g)
        assert symplectic_form(f, g + t(0, -3)) == symplectic_form(f, g)


def test_gram_nondegenerate_on_window():
    # each window basis vector t^a pairs nontrivially with exactly t^-a
    W = 8
    for a in range(-W, W + 1):
        if a == 0:
            continue
        hits = [b for b in range(-W, W + 1)
                if b != 0 and symplectic_form(t(a), t(b))]
        assert hits == [-a]


def test_derivative_leibniz():
    rng = random.Random(3)
    for _ in range(60):
        f = random_poly(rng, span=5)
        g = random_poly(rng, span=5)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_residue_of_derivative_vanishes():
    rng = random.Random(4)
    for _ in range(60):
        assert residue(random_poly(rng).derivative()) == 0


def test_arithmetic_basics():
    f = t(2, 3) + t(-1)
    assert f.coeff(2) == 3 and f.coeff(-1) == 1 and f.coeff(5) == 0
    assert (f - f).is_zero()
    assert f.scale(2) == f + f
    assert (t(1) * t(-1)) == t(0)
    assert f.without_constant() == f
    assert (f + t(0, 9)).without_constant() == f


def test_format_frozen_strings():
    # taken from the printer before it shared the signed-sum joiner; the
    # constant term prints as a bare magnitude
    half = Fraction(1, 2)
    cases = [
        ({0: 1, 1: -1}, "1 - t^1"),
        ({-2: half, 0: -1}, "1/2*t^-2 - 1"),
        ({0: Fraction(-3, 2), 3: 1}, "-3/2 + t^3"),
        ({-1: -1, 0: half, 2: -4}, "-t^-1 + 1/2 - 4*t^2"),
        ({5: -1}, "-t^5"),
        ({-1: 3, 2: half}, "3*t^-1 + 1/2*t^2"),
        ({}, "0"),
    ]
    for coeffs, text in cases:
        assert format_laurent(LaurentPoly(coeffs)) == text


# -- exact numbers -----------------------------------------------------------

def test_integral_values_are_ints():
    for got, want in ((rat(3), 3), (rat(Fraction(6, 2)), 3), (rat("-4"), -4),
                      (rat("4/6"), Fraction(2, 3)), (rat(True), 1),
                      (ratio(6, 3), 2), (ratio(-3, 6), Fraction(-1, 2)),
                      (ratio(Fraction(1, 2), Fraction(1, 4)), 2)):
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("make, value", [
    (lambda: b(1, 0.5), 0.5),
    (lambda: LaurentPoly({1: 0.1}), 0.1),
    (lambda: FockVector(1, {((1,),): 0.25}), 0.25),
    (lambda: DiagonalSeries(2, exc={1: 0.75}), 0.75),
])
def test_floats_are_rejected(make, value):
    # a float coefficient would be stored as its binary expansion
    with pytest.raises(TypeError, match=f"^{value!r} is not an exact rational"):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: LaurentPoly({1.5: 1}), id="laurent-exponent"),
    pytest.param(lambda: b(1.7), id="mode"),
    pytest.param(lambda: tau(2.5), id="series-offset"),
    pytest.param(lambda: DiagonalSeries(4, exc={1.5: 1, 2.5: 1}),
                 id="series-exception"),
    pytest.param(lambda: QuadraticElement(quad={2.0: DiagonalSeries(2)}),
                 id="quad-key"),
    pytest.param(lambda: FPoint([1.5, 3.9]), id="gaps"),
    pytest.param(lambda: FockVector(1.0), id="rank"),
    pytest.param(lambda: canon_state([[2.0, 1]]), id="partition"),
])
def test_float_indices_are_rejected(make):
    # int() would truncate 2.5 to 2 and build another element than asked
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        make()
