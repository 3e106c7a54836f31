import operator
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oscalg import quadops
from oscalg.coinv import FPoint, is_in_sp_F
from oscalg.laurent import LaurentPoly
from oscalg.quadops import (POLY_ZERO, DiagonalSeries, Poly, QuadraticElement,
                            WittElement, _bracket_diag, _quad_apply_laurent,
                            alpha, b, beta, bracket, bracket_sum,
                            format_expression, gamma, is_in_sp_plus,
                            normal_order_lift, pair, parse_expression, psi,
                            sigma, tau, unit, witt_bracket)
from oscalg.verify import check_jacobi, d_cocycle, small_generator_set

HALF = Fraction(1, 2)


def valued(d, coeffs, values):
    """The series at offset d with polynomial coeffs and the value v at
    each (a, v) of values, which it stores as the deviation v - P(a)."""
    poly = Poly(coeffs)
    return DiagonalSeries(d, poly, {a: v - poly(a) for a, v in values.items()})


def constant_diagonals():
    """Constant diagonals with and without exceptions, fresh on each call."""
    return [valued(2, (3,), {1: 5}),
            valued(-2, (HALF,), {-1: 0, 3: 4, -5: 4}),
            valued(5, (-1,), {1: 2, 4: 2, -3: 7, 8: 7}),
            tau(-3).quad[-3]]


def generator_set(idx=2, taus=2):
    gens = [unit()]
    ids = [i for i in range(-idx, idx + 1) if i != 0]
    gens += [b(m) for m in ids]
    for i, a in enumerate(ids):
        for bb in ids[i:]:
            gens.append(pair(a, bb))
    gens += [tau(p) for p in range(-taus, taus + 1)]
    return gens


def windowed(K):
    """(element, oracle window matrix) for the pairs and taus of
    generator_set()."""
    ids = [-2, -1, 1, 2]
    out = [(pair(a, bb), oracles.mat_pair(a, bb, K))
           for i, a in enumerate(ids) for bb in ids[i:]]
    out += [(tau(p), oracles.mat_tau(p, K)) for p in range(-2, 3)]
    return out


def action(A, m):
    """The library's S^2 action of A on t^m."""
    return _quad_apply_laurent(A.quad, LaurentPoly.term(1, m))


def column(mat, m):
    """Image of t^m under an oracle window matrix."""
    return LaurentPoly({r: v for (r, c), v in mat.items() if c == m})


def interior_columns(mat, K, margin):
    """Columns of a window matrix at least margin away from its edge."""
    return {c: column(mat, c) for c in range(-K + margin, K - margin + 1) if c}


def bandwidth(A):
    return max(abs(d) for d in A.quad)


# -- constructors ------------------------------------------------------------

def test_pair_is_symmetric_and_index_zero_rejected():
    assert pair(1, -2) == pair(-2, 1)
    with pytest.raises(ValueError):
        b(0)
    with pytest.raises(ValueError):
        pair(0, 3)
    with pytest.raises(ValueError):
        QuadraticElement(linear=LaurentPoly.term(1, 0))


def test_normal_order_lift_matches_pair():
    t1, t_2 = LaurentPoly.term(1, 1), LaurentPoly.term(1, -2)
    assert normal_order_lift(t1, t_2) == pair(1, -2)
    assert normal_order_lift(t1, t1) == pair(1, 1)
    f = t1 + t_2
    g = LaurentPoly.term(1, 3)
    assert normal_order_lift(f, g) == pair(1, 3) + pair(-2, 3)
    with pytest.raises(ValueError):
        normal_order_lift(LaurentPoly.term(1, 0), g)


def test_diagonal_series_canonical():
    s = DiagonalSeries(2, Poly((1,)), {0: 4, 2: 6, 1: 0})
    # keys at 0 and d are forced zeros, zero deviations are pruned
    assert s.dev == {}
    assert s.coeff(0) == 0 and s.coeff(2) == 0 and s.coeff(1) == 1
    s = DiagonalSeries(2, Poly((1,)), {1: 2})
    assert s.dev == {1: 2} and s.coeff(1) == 3 and s.coeff(-4) == 1


def test_coeff_follows_the_number_rule():
    # a(1 - a)/2 has Fraction coefficients but an integral value at a = 3
    s = DiagonalSeries(1, Poly((0, HALF, -HALF)))
    assert s.coeff(3) == -3 and type(s.coeff(3)) is int
    s = DiagonalSeries(3, Poly((HALF,)), {1: HALF, 2: HALF})
    assert s.coeff(1) == 1 and type(s.coeff(1)) is int
    assert s.coeff(4) == HALF


def test_series_must_sit_at_its_own_offset():
    # a d = 5 series keyed 3 would print as T(3) but bracket as T(5)
    with pytest.raises(ValueError, match="series of offset 5 at key 3"):
        QuadraticElement(quad={3: DiagonalSeries(5, Poly((1,)))})
    assert QuadraticElement(quad={5: DiagonalSeries(5, Poly((1,)))}) == tau(5)
    assert tau(3) + tau(3) == tau(3).scale(2)


def test_series_must_be_symmetric():
    # c(1) = 1 but c(2) = 0 would print as :b(1)b(2): yet bracket b(-2) to 0
    with pytest.raises(ValueError, match=r"offset 3 .*: c\(1\) != c\(2\)"):
        DiagonalSeries(3, POLY_ZERO, {1: 1})
    with pytest.raises(ValueError, match=r"offset 3 .*: c\(1\) != c\(2\)"):
        DiagonalSeries(3, Poly((1,)), {1: 1})
    # a zero deviation is no deviation
    assert DiagonalSeries(3, Poly((1,)), {1: 0, 2: 0}) == tau(3).quad[3]
    with pytest.raises(ValueError, match=r"offset 2 .*: poly\(0\) != poly\(2\)"):
        DiagonalSeries(2, Poly((0, 1)))
    assert DiagonalSeries(3, POLY_ZERO, {1: 1, 2: 1}) == pair(1, 2).quad[3]
    # a(2 - a) is symmetric on the d = 2 diagonal
    s = DiagonalSeries(2, Poly((0, 2, -1)))
    assert [s.coeff(a) for a in range(-2, 5)] == [-8, -3, 0, 1, 0, -3, -8]


def test_mirror_symmetry_preserved_by_bracket():
    rng = random.Random(7)
    gens = generator_set()
    for _ in range(80):
        A = rng.choice(gens)
        B = rng.choice(gens)
        for series in bracket(A, B).quad.values():
            for a, x in series.dev.items():
                assert series.dev.get(series.d - a) == x
                assert series.coeff(series.d - a) == series.coeff(a)
            assert series.coeff(0) == 0 and series.coeff(series.d) == 0


# -- brackets ----------------------------------------------------------------

def test_bracket_examples():
    assert bracket(b(1), b(-1)) == unit()
    assert bracket(pair(1, -2), b(-1)) == b(-2)
    assert bracket(b(-1), pair(1, 1)) == b(1).scale(-2)
    assert bracket(tau(2), tau(-2)) == tau(0).scale(4) + unit(HALF)


def test_bracket_pairs_frozen():
    assert bracket(pair(1, 1), pair(-1, -1)) == pair(-1, 1).scale(4) + unit(2)
    assert (bracket(pair(2, -1), pair(1, -2))
            == pair(-2, 2).scale(-1) + pair(-1, 1).scale(2))
    assert bracket(pair(1, 1), pair(1, -2)).is_zero()


def test_virasoro_relation_on_tau_hat():
    for p in range(-4, 5):
        for q in range(-4, 5):
            want = tau(p + q).scale(p - q)
            if p + q == 0:
                want = want + unit(Fraction(p ** 3 - p, 12))
            assert bracket(tau(p), tau(q)) == want


def test_bracket_bilinear_antisymmetric():
    rng = random.Random(8)
    gens = generator_set()
    for _ in range(60):
        A, B, C = (rng.choice(gens) for _ in range(3))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert bracket(A, B) == bracket(B, A).scale(-1)
        assert bracket(A + B.scale(c), C) == bracket(A, C) + bracket(B, C).scale(c)


def test_jacobi_small_set():
    gens = generator_set(idx=2, taus=1)
    n = len(gens)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = (bracket(gens[i], bracket(gens[j], gens[k]))
                         + bracket(gens[j], bracket(gens[k], gens[i]))
                         + bracket(gens[k], bracket(gens[i], gens[j])))
                assert total.is_zero()


# -- endomorphism picture ----------------------------------------------------

def test_quad_to_endo_examples():
    K = 8
    assert action(pair(-1, 1), 1) == LaurentPoly.term(-1, 1)
    assert action(tau(0), 3) == LaurentPoly.term(-3, 3)
    assert action(pair(-2, -3), 2) == LaurentPoly.term(-2, -3)
    assert action(pair(-2, -3), 3) == LaurentPoly.term(-3, -2)
    assert action(pair(-2, -3), 5).is_zero()
    assert column(oracles.mat_pair(-1, 1, K), 1) == action(pair(-1, 1), 1)
    assert column(oracles.mat_tau(0, K), 3) == action(tau(0), 3)
    for m in (2, 3, 5):
        assert column(oracles.mat_pair(-2, -3, K), m) == action(pair(-2, -3), m)


def test_endo_never_reaches_constant():
    rng = random.Random(9)
    gens = windowed(12)
    for _ in range(40):
        A, mat = rng.choice(gens)
        for m in range(-6, 7):
            if m:
                assert action(A, m).coeff(0) == 0
                assert action(A, m) == column(mat, m)


def test_bracket_matches_endo_commutator_on_window():
    # [tau(1), tau(-1)] = 2 tau(0) away from the window edge at W = 6
    K = 6
    got = oracles.mat_commutator(oracles.mat_tau(1, K), oracles.mat_tau(-1, K), K)
    want = oracles.mat_scale(2, oracles.mat_tau(0, K))
    assert interior_columns(got, K, 2) == interior_columns(want, K, 2)
    assert bracket(tau(1), tau(-1)).drop_central() == tau(0).scale(2)
    rng = random.Random(10)
    K = 10
    gens = windowed(K)
    for _ in range(25):
        (A, mA), (B, mB) = rng.choice(gens), rng.choice(gens)
        margin = bandwidth(A) + bandwidth(B)
        got = interior_columns(oracles.mat_commutator(mA, mB, K), K, margin)
        C = bracket(A, B)
        assert got == {c: action(C, c) for c in got}


def test_finite_diagonal_bracket_reads_only_its_support(monkeypatch):
    # a pair diagonal s1 confines the bracket to dev(s1) and dev(s1) + d2:
    # each deviation scatters to those two indices, reading s2 at most once
    # for each; every read of a pair diagonal is one lookup in its deviations
    calls = []

    class Reads(dict):
        def get(self, a, default=None):
            calls.append(a)
            return super().get(a, default)

    ids = [m for m in range(-3, 4) if m]
    diagonals = [d for i, a in enumerate(ids) for bb in ids[i:]
                 for d in pair(a, bb).quad.values()]
    for s in diagonals:
        s.dev = Reads(s.dev)
    reads = 0
    for s1 in diagonals:
        for s2 in diagonals:
            del calls[:]
            _bracket_diag(s1, s2, {}, {})
            assert len(calls) <= 2 * len(s1.dev), (s1, s2)
            reads += len(calls)
    assert reads > 0
    assert bracket(pair(1, 2), pair(3, -1)) == pair(2, 3)
    # constant diagonals with exceptions are read the same way: at most two
    # lookups per deviation, with no coeff method and no polynomial call
    constants = constant_diagonals()
    monkeypatch.setattr(DiagonalSeries, "coeff", lambda *args: calls.append("coeff"))
    monkeypatch.setattr(Poly, "__call__", lambda *args: calls.append("poly"))
    for s in constants:
        s.dev = Reads(s.dev)
    for s1 in constants:
        for s2 in constants:
            del calls[:]
            _bracket_diag(s1, s2, {}, {})
            assert "coeff" not in calls and "poly" not in calls, (s1, s2)
            assert len(calls) <= 2 * (len(s1.dev) + len(s2.dev)), (s1, s2)


def test_psi_reads_stored_deviations_without_coeff(monkeypatch):
    # psi of two normal-ordered squares: 1600 deviations a side on zero
    # polynomials.  The trace reads each deviation once, with at most one
    # polynomial call, and each power sum's polynomial with two; no value
    # is rebuilt through DiagonalSeries.coeff
    f = LaurentPoly({e: 1 for e in range(-40, 0)})
    g = LaurentPoly({e: 1 for e in range(1, 41)})
    A, B = normal_order_lift(f, f), normal_order_lift(g, g)
    stored = sum(len(s.dev) for E in (A, B) for s in E.quad.values())
    calls = []

    def counted(name, method):
        return lambda *args: calls.append(name) or method(*args)

    power_sum = quadops._power_sum
    monkeypatch.setattr(quadops, "_power_sum", lambda n, deg, q: power_sum(
        n, deg, counted("q", q)))
    monkeypatch.setattr(DiagonalSeries, "coeff",
                        counted("coeff", DiagonalSeries.coeff))
    monkeypatch.setattr(Poly, "__call__", counted("poly", Poly.__call__))
    assert psi(A, B) == 2689600
    assert calls.count("coeff") == 0
    assert stored == 3200
    assert 0 < calls.count("poly") <= stored + 2 * calls.count("q")


def test_constant_diagonals_bracket_in_closed_form(monkeypatch):
    # two constant polynomials give the generic part c1 c2 (d1 - d2) with
    # no polynomial product or shift; a non-constant one still takes them
    calls = []

    def counted(name):
        method = getattr(Poly, name)
        return lambda self, *args: calls.append(name) or method(self, *args)

    for name in ("__mul__", "affine"):
        monkeypatch.setattr(Poly, name, counted(name))
    constants = constant_diagonals()
    for s1 in constants:
        for s2 in constants:
            polys = {}
            _bracket_diag(s1, s2, polys, {})
            generic = s1.poly.c[0] * s2.poly.c[0] * (s1.d - s2.d)
            assert polys == {s1.d + s2.d: Poly((generic,))}
    assert calls == []
    _bracket_diag(DiagonalSeries(2, Poly((0, 2, -1))), constants[0], {}, {})
    assert calls.count("__mul__") >= 4 and calls.count("affine") == 2


def test_idle_pairs_are_skipped_and_the_empty_sum_builds_nothing(monkeypatch):
    # a side with neither a linear nor a quadratic part ends its pair before
    # the other side is read, and a sum with no central, mode or offset
    # entry is the zero element, built with no LaurentPoly
    unread = object()
    pairs = [(unit(3), unread), (QuadraticElement(), unread),
             (tau(2), unit()), (b(1), b(2))]
    built = []

    class Counted(LaurentPoly):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(quadops, "LaurentPoly", Counted)
    assert bracket_sum(pairs) == QuadraticElement()
    assert built == []


def test_vanishing_bracket_sum_builds_no_series(monkeypatch):
    elements = (pair(1, -3), tau(2), tau(-1).scale(3) + pair(2, 2) + b(4))
    gens = small_generator_set()
    table = sum(len(bracket(x, y).quad) for i, x in enumerate(gens)
                for j, y in enumerate(gens) if i != j)
    built = []      # the offset of every series quadops builds from here on

    class Counted(DiagonalSeries):
        __slots__ = ()

        def __init__(self, d, *args):
            built.append(d)
            super().__init__(d, *args)

    monkeypatch.setattr(quadops, "DiagonalSeries", Counted)
    for x in elements:
        for y in elements:
            assert bracket_sum([(x, y), (y, x)]).is_zero()
    assert built == []
    # the pair table builds one series per offset of each of its brackets,
    # and the 1140 triples, whose sums all vanish, build none
    assert check_jacobi(gens) == []
    assert len(built) == table > 0


def test_parsing_a_sum_builds_each_atom_and_the_sum_once(monkeypatch):
    # each of the n atoms is one element and the n terms are summed into
    # one more, with no scaled copy per term and no partial sums
    text = "-T(2) + 1/2*:b(1)b(3): - 3*b(-2) + K - S(1) + T(2)"
    expected = (pair(1, 3).scale(HALF) - b(-2).scale(3) + unit()
                - sigma(WittElement.L(1)))
    built = []
    init = QuadraticElement.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadraticElement, "__init__", counted)
    assert parse_expression(text) == expected
    assert len(built) == 6 + 1


def test_drop_central_hands_back_a_central_free_element():
    x = tau(2) + b(1)
    assert x.drop_central() is x
    y = x + unit(3)
    assert y.drop_central() == x
    assert y.central == 3


@pytest.mark.parametrize("args, message", [
    ((2, (1,)), "^poly must be a Poly, not tuple$"),
    ((2, Poly((1,)), [(1, 2)]), "^dev must be a dict, not list$"),
    # a falsy non-dict is refused too, not taken as no deviation
    ((1, Poly((1,)), []), "^dev must be a dict, not list$"),
    ((1, Poly((1,)), ()), "^dev must be a dict, not tuple$"),
    ((1, Poly((1,)), 0), "^dev must be a dict, not int$"),
])
def test_diagonal_series_refuses_wrong_types(args, message):
    with pytest.raises(TypeError, match=message):
        DiagonalSeries(*args)


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_wrong_type_operands_are_a_type_error(op):
    for other in (5, HALF, LaurentPoly.term(1, 1)):
        with pytest.raises(TypeError, match="^unsupported operand"):
            op(tau(1), other)
    for other in (5, HALF):
        with pytest.raises(TypeError, match="^unsupported operand"):
            op(other, tau(1))
    # a LaurentPoly or a Poly on the left declines an operand of another
    # type, so the error names the operator
    symbol = re.escape({operator.add: "+", operator.sub: "-"}[op])
    for left, other in ((LaurentPoly.term(1, 1), 5),
                        (LaurentPoly.term(1, 1), tau(1)),
                        (Poly((1,)), 5), (Poly((1,)), tau(1))):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) "
                           rf"for {symbol}:"):
            op(left, other)
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*:"):
        Poly((1,)) * 5


# Symmetric diagonals with a zero, constant or degree-2 polynomial c0 +
# c1 a(d - a) and exceptions mirrored onto d - a; the second offset is often
# the opposite of the first, and the examples put an exception on 2a = d.
COEFF = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def raw_diagonal(draw, d):
    kind = draw(st.sampled_from(("zero", "constant", "quadratic")))
    c0 = 0 if kind == "zero" else draw(COEFF)
    c1 = draw(COEFF) if kind == "quadratic" else 0
    exc = {}
    for a, v in draw(st.dictionaries(st.integers(-8, 8), COEFF,
                                     max_size=3)).items():
        exc[a] = exc[d - a] = v
    return d, [c0, c1 * d, -c1], exc


DIAGONAL_PAIRS = st.integers(-6, 6).flatmap(lambda d1: st.tuples(
    raw_diagonal(d1),
    st.one_of(st.just(-d1), st.integers(-6, 6)).flatmap(raw_diagonal)))


@settings(derandomize=True, max_examples=120, deadline=None)
@example(((4, [0, 0, 0], {2: 3, 1: 1, 3: 1}), (-4, [0, 0, 0], {-2: 5})))
@example(((4, [1, 0, 0], {2: 3}), (-4, [0, 0, 0], {-2: -1, -1: 2, -3: 2})))
@example(((2, [1, 2, -1], {1: 7}), (-2, [2, -4, -2], {-1: 1})))
@example(((0, [0, 0, 0], {2: 1, -2: 1}), (2, [1, 0, 0], {1: 0})))
# two constants with exceptions, at opposite and at unrelated offsets
@example(((3, [2, 0, 0], {1: 5, 2: 5}), (-3, [-1, 0, 0], {-1: 4, -2: 4})))
@example(((4, [3, 0, 0], {1: -1, 3: -1, 2: 7}),
          (1, [HALF, 0, 0], {3: 2, -2: 2})))
# an s1 exception at -d2, whose second read lands on 0, and one at d1 + d2,
# whose first read lands on d2
@example(((3, [0, 0, 0], {-2: 4, 5: 4}), (2, [0, 0, 0], {1: 3})))
@example(((1, [2, 0, 0], {4: -1, -3: -1}), (3, [HALF, 0, 0], {})))
# s2 exceptions at -d1 and d1 + d2 against a constant P1: both skips of the
# second scatter
@example(((2, [1, 0, 0], {}), (3, [0, 0, 0], {-2: 3, 5: 3})))
# non-constant polynomials on both sides, each with exceptions
@example(((3, [1, 6, -2], {1: 5, 2: 5, -1: 0, 4: 0}),
          (-2, [HALF, -2, -1], {-1: 3, 3: 2, -5: 2})))
# a zero P2 against a constant s1 with exceptions
@example(((3, [2, 0, 0], {1: 5, 2: 5}), (-1, [0, 0, 0], {2: 1, -3: 1})))
@given(DIAGONAL_PAIRS)
def test_bracket_diag_matches_candidate_gather(pair_of_raw):
    r1, r2 = pair_of_raw
    s1, s2 = (valued(d, c, exc) for d, c, exc in (r1, r2))
    d, generic, exc = oracles.diag_bracket(r1, r2)
    # the bracket of two one-diagonal elements is their diagonal bracket,
    # built from _bracket_diag's generic polynomial and deviations
    got = bracket(*(QuadraticElement(quad={s.d: s}) for s in (s1, s2)))
    got = got.quad.get(d, DiagonalSeries(d))
    assert got == valued(d, generic, exc)
    # its coefficient function, less its polynomial, rebuilds it
    assert DiagonalSeries(d, got.poly, {a: got.coeff(a) - got.poly(a)
                                        for a in range(-24, 25)}) == got
    # no deviation sits on an end of the result, where every c is zero
    devs = {}
    _bracket_diag(s1, s2, {}, devs)
    assert not devs[d].keys() & {0, d}


def test_bracket_action_on_modes_matches_endo():
    rng = random.Random(11)
    gens = windowed(12)
    for _ in range(40):
        A, mat = rng.choice(gens)
        m = rng.choice([i for i in range(-5, 6) if i])
        assert bracket(A, b(m)).linear == column(mat, m)


# -- trace cocycle -----------------------------------------------------------

def test_psi_examples():
    assert psi(b(1), b(-1)) == 1
    assert psi(tau(2), tau(-2)) == -1
    # both operators preserve the positive part: trace vanishes
    assert psi(pair(1, 2), pair(3, 4)) == 0
    assert psi(pair(-1, 2), pair(-3, 4)) == 0


def test_psi_tau_values():
    for p in range(1, 9):
        assert psi(tau(p), tau(-p)) == Fraction(-(p ** 3 - p), 6)


def test_psi_decomposes_as_alpha_beta_gamma():
    rng = random.Random(12)
    gens = [g for g in generator_set() if not g.central]
    for _ in range(60):
        u = rng.choice(gens) + rng.choice(gens).scale(rng.randint(-3, 3))
        v = rng.choice(gens) + rng.choice(gens).scale(rng.randint(-3, 3))
        assert psi(u, v) == alpha(u, v) + beta(u, v) + gamma(u, v)
        assert psi(u, v) == -psi(v, u)


def test_traces_at_large_offset_are_exact_and_fast():
    # closed-form trace sums: the cost does not grow with the offset
    p = 10 ** 6
    start = time.process_time()
    assert psi(tau(p), tau(-p)) == Fraction(-(p ** 3 - p), 6)
    assert alpha(tau(p), tau(-p)) == Fraction(-(p ** 3 - p), 6)
    assert bracket(tau(p), tau(-p)) == (tau(0).scale(2 * p)
                                        + unit(Fraction(p ** 3 - p, 12)))
    assert gamma(tau(p), b(-p)) == p * (p - 1) // 2
    # stored deviations cost one term each, at an offset no loop reaches
    p = 10 ** 9
    assert (psi(tau(p) + pair(1, p - 1), tau(-p)) - psi(tau(p), tau(-p))
            == -2 * (p - 1))
    assert psi(pair(p // 2, p // 2), tau(-p)) == -(p // 2) ** 2 * 2
    assert psi(pair(3, p - 3), pair(-3, 3 - p)) == -5999999982
    assert gamma(pair(1, p - 1), b(-p)) == p
    assert time.process_time() - start < 0.2


def test_gamma_frozen_values():
    assert gamma(pair(1, 1), b(-2)) == 2
    assert gamma(pair(1, -2), b(1)) == 0
    assert alpha(pair(1, 1), pair(-1, -1)) == -4


def test_cocycle_forms_reject_central_argument():
    with pytest.raises(ValueError):
        alpha(unit(), b(1))
    with pytest.raises(ValueError):
        beta(b(1), unit())
    with pytest.raises(ValueError):
        gamma(unit(), unit())


def test_psi_on_matrices_matches_trace():
    K = 12
    for (A, mA), (B, mB) in [
            ((tau(2), oracles.mat_tau(2, K)), (tau(-2), oracles.mat_tau(-2, K))),
            ((pair(1, 1), oracles.mat_pair(1, 1, K)),
             (pair(-1, -1), oracles.mat_pair(-1, -1, K))),
            ((pair(2, -1), oracles.mat_pair(2, -1, K)),
             (pair(1, -2), oracles.mat_pair(1, -2, K)))]:
        assert oracles.psi_mat(mA, mB, K) == psi(A, B)
    # alpha against the oracle trace on random combinations
    rng = random.Random(14)
    gens = windowed(K)
    for _ in range(40):
        (A1, m1), (A2, m2), (B1, n1), (B2, n2) = (rng.choice(gens) for _ in range(4))
        c, e = rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        u, mu = A1 + A2.scale(c), oracles.mat_add(m1, oracles.mat_scale(c, m2))
        v, mv = B1 + B2.scale(e), oracles.mat_add(n1, oracles.mat_scale(e, n2))
        assert alpha(u, v) == oracles.psi_mat(mu, mv, K)


def test_bracket_central_is_minus_half_psi():
    rng = random.Random(13)
    gens = [g for g in generator_set() if g.quad and not g.central]
    for _ in range(40):
        A = rng.choice(gens)
        B = rng.choice(gens)
        assert bracket(A, B).central == -HALF * psi(A, B)


# -- membership --------------------------------------------------------------

def test_membership_examples():
    assert is_in_sp_plus(pair(2, 3), 6)
    assert not is_in_sp_plus(pair(-2, -3), 6)


def test_membership_point_examples():
    g1 = FPoint({1})
    assert is_in_sp_F(pair(-2, 5), g1, 8)
    assert not is_in_sp_F(tau(0), g1, 8)
    # Lagrangian case: F = H_- is its own perp
    assert is_in_sp_F(tau(0), FPoint(()), 8)


def test_membership_requires_pure_quadratic():
    with pytest.raises(ValueError):
        is_in_sp_plus(b(1), 4)
    with pytest.raises(ValueError):
        is_in_sp_F(unit(), FPoint(()), 4)


def test_repr_without_canonical_expression():
    # a(2 - a) is symmetric on the d = 2 diagonal but not constant
    A = QuadraticElement(central=3, linear=LaurentPoly.term(1, -2),
                         quad={2: DiagonalSeries(2, Poly((0, 2, -1)))})
    assert repr(A) == ("QuadraticElement(central=3, linear=LaurentPoly('t^-2'), "
                       "quad={2: DiagonalSeries(d=2, poly=Poly([0, 2, -1]), "
                       "dev={})})")
    assert repr(tau(2)) == "QuadraticElement('T(2)')"


# -- Witt elements and lifts -------------------------------------------------

def test_witt_bracket_relations():
    L = WittElement.L
    mode = WittElement.mode
    for p in range(-4, 5):
        for q in range(-4, 5):
            assert witt_bracket(L(p), L(q)) == L(p + q).scale(p - q)
            if q:
                want = (WittElement() if p + q == 0
                        else mode(p + q).scale(-q))
                assert witt_bracket(L(p), mode(q)) == want


def test_witt_element_errors():
    with pytest.raises(ValueError, match="^the translation part lives in H'; "
                                         "no constant term$"):
        WittElement(g=LaurentPoly({0: 1, 2: 1}))
    with pytest.raises(ValueError, match="^b_0 vanishes in H'$"):
        WittElement.mode(0)


@pytest.mark.parametrize("make, name", [
    pytest.param(lambda: QuadraticElement(linear=5), "linear", id="linear"),
    pytest.param(lambda: QuadraticElement(quad=[1]), "quad", id="quad"),
    pytest.param(lambda: QuadraticElement(quad=[]), "quad", id="quad-empty"),
    pytest.param(lambda: QuadraticElement(quad={2: 5}), r"quad\[2\]",
                 id="quad-series"),
    pytest.param(lambda: WittElement(f=3), "f", id="witt-f"),
    pytest.param(lambda: WittElement(g=3), "g", id="witt-g"),
])
def test_wrong_argument_types_name_the_argument(make, name):
    # refused where it is passed, not as an AttributeError in a later use
    with pytest.raises(TypeError, match=f"^{name} must be a "):
        make()


def test_sigma_examples():
    L = WittElement.L
    assert sigma(L(0)) == tau(0)
    assert sigma(WittElement.mode(3)) == b(3)
    assert sigma(L(2)) == tau(2) + b(2).scale(Fraction(-3, 2))


def test_sigma_of_a_witt_sum_is_frozen():
    # sigma(L(p) + b(q)) = T(p) - (p+1)/2 b(p) + b(q), built in one element:
    # no linear term at p = 0, and at q = p = 1 the two mode terms cancel
    def L_plus_b(p, q):
        return WittElement(LaurentPoly.term(-1, p + 1), LaurentPoly.term(1, q))

    for (p, q), text in (((2, -3), "T(2) + b(-3) - 3/2*b(2)"),
                         ((0, 2), "T(0) + b(2)"), ((1, 1), "T(1)"),
                         ((-3, 4), "T(-3) + b(-3) + b(4)"),
                         ((-1, 5), "T(-1) + b(5)")):
        got = sigma(L_plus_b(p, q))
        assert format_expression(got) == text, (p, q)
        assert got == parse_expression(text)


def test_sigma_is_a_homomorphism():
    elems = ([WittElement.L(p) for p in range(-3, 4)]
             + [WittElement.mode(q) for q in range(-3, 4) if q])
    for u in elems:
        for v in elems:
            got = bracket(sigma(u), sigma(v)).drop_central()
            assert got == sigma(witt_bracket(u, v))


def test_d_cocycle_values():
    L = WittElement.L
    mode = WittElement.mode
    for p in range(1, 6):
        assert d_cocycle(L(p), L(-p)) == Fraction(-(p ** 3 - p), 6)
        assert d_cocycle(L(p), mode(-p)) == Fraction(-p * (p + 1), 2)
    for q in (-4, -1, 1, 3):
        assert d_cocycle(mode(q), mode(-q)) == q
    assert d_cocycle(L(2), L(3)) == 0
    assert d_cocycle(L(2), mode(1)) == 0

