import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oscalg.fock import (FockVector, apply_quadratic, canon_state, exp_apply,
                         format_label, format_vector, graded_basis, iter_terms,
                         measure_central_charge, parse_label, state_degree,
                         term_labels, virasoro, virasoro_all)
from oscalg.laurent import LaurentPoly
from oscalg.quadops import (DiagonalSeries, Poly, QuadraticElement, b, bracket,
                            pair, tau, unit)
from test_properties import BOUNDED, COEFF
from test_quadops import generator_set

HALF = Fraction(1, 2)


def basis_upto(deg, rank=1):
    return [FockVector.basis(st) for d in range(deg + 1)
            for st in graded_basis(d, rank)]


def vac(rank=1):
    return FockVector.vacuum(rank)


# -- modes -------------------------------------------------------------------

def test_mode_examples():
    v0 = vac()
    assert apply_quadratic(b(1), apply_quadratic(b(-1), v0)) == v0
    assert apply_quadratic(b(2), v0).is_zero()
    v22 = FockVector.basis(((2, 2),))
    assert apply_quadratic(b(2), v22) == FockVector.basis(((2,),)).scale(4)
    with pytest.raises(ValueError):
        apply_quadratic(b(0), v0)
    with pytest.raises(ValueError):
        apply_quadratic(b(1), v0, 2)


def test_heisenberg_relations():
    vs = basis_upto(8)
    for m in range(-5, 6):
        for n in range(-5, 6):
            if not m or not n:
                continue
            want = Fraction(m) if m + n == 0 else Fraction(0)
            for v in vs:
                got = (apply_quadratic(b(m), apply_quadratic(b(n), v))
                       - apply_quadratic(b(n), apply_quadratic(b(m), v)))
                assert got == v.scale(want)


def test_modes_respect_channels():
    v = vac(2)
    w = apply_quadratic(b(-2), apply_quadratic(b(-1), v, 2))
    assert w == FockVector.basis(((2,), (1,)))
    # modes on distinct channels commute
    w2 = apply_quadratic(b(-1), apply_quadratic(b(-2), v), 2)
    assert w == w2


# -- canonical states ----------------------------------------------------------

def assert_canonical(v, rank):
    for st in v.terms:
        assert st == canon_state(st) and len(st) == rank


def test_actions_emit_canonical_states():
    gens = generator_set()
    lowering = [pair(1, 1), pair(2, 1) + b(1), pair(1, 3).scale(HALF) + b(2)]
    for rank in (1, 2):
        for v in basis_upto(6, rank):
            for channel in range(1, rank + 1):
                for A in gens:
                    assert_canonical(apply_quadratic(A, v, channel), rank)
                for n in (-3, -2, -1, 1, 2, 3):
                    assert_canonical(apply_quadratic(b(n), v, channel), rank)
                for A in lowering:
                    assert_canonical(exp_apply(A, v, channel=channel), rank)
                assert_canonical(exp_apply(pair(-1, 1), v, group_scalar=2,
                                           channel=channel), rank)
            for p in range(-2, 3):
                assert_canonical(virasoro_all(p, v), rank)


def test_basis_canonicalizes_outside_labels():
    assert FockVector.basis(((1, 2),)) == FockVector.basis(((2, 1),))
    for bad in (((0,),), ()):
        with pytest.raises(ValueError):
            FockVector.basis(bad)


def test_channel_out_of_range():
    v = FockVector.basis(((1,), (2,)))
    with pytest.raises(ValueError, match="channel out of range"):
        apply_quadratic(tau(1), v, channel=3)


def test_add_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        FockVector.vacuum(1) + FockVector.vacuum(2)
    with pytest.raises(ValueError, match="rank mismatch"):
        FockVector.vacuum(2) - FockVector.vacuum(1)


# -- quadratic action ----------------------------------------------------------

def test_apply_quadratic_examples():
    v1 = FockVector.basis(((1,),))
    assert apply_quadratic(pair(-1, 1), v1) == v1
    v21 = FockVector.basis(((2, 1),))
    assert apply_quadratic(tau(0), v21) == v21.scale(3)
    assert apply_quadratic(unit(), v21) == v21


class CountingDict(dict):
    """A dict that counts its lookups by key."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_finite_diagonal_creates_only_at_its_exceptions():
    # the creating range of d = -10**6 - 1 holds 500000 indices, but a
    # zero polynomial creates only at its exceptions: read those, not the range
    A = pair(-1, -10 ** 6)
    series = A.quad[-10 ** 6 - 1]
    series.exc = CountingDict(series.exc)
    v1 = FockVector.basis(((1,),))
    assert apply_quadratic(A, v1) == FockVector.basis(((10 ** 6, 1, 1),))
    assert series.exc.reads <= 2 * len(series.exc)
    series.exc.reads = 0
    assert list(iter_terms(A, ((1,),))) == [(((10 ** 6, 1, 1),), 1)]
    assert series.exc.reads <= 2 * len(series.exc)


def test_grading():
    rng = random.Random(20)
    quads = [pair(a, bb) for a in range(-3, 4) for bb in range(-3, 4)
             if a and bb] + [tau(p) for p in range(-3, 4)]
    vs = basis_upto(6)
    for _ in range(60):
        A = rng.choice(quads)
        d = next(iter(A.quad))
        v = rng.choice(vs)
        image = apply_quadratic(A, v)
        k = state_degree(next(iter(v.terms)))
        for st in image.terms:
            assert state_degree(st) == k - d


def test_virasoro_examples():
    v0 = vac()
    assert virasoro(-1, v0).is_zero()
    assert virasoro(0, v0).is_zero()
    assert virasoro(-2, v0) == FockVector.basis(((1, 1),)).scale(HALF)
    got = (virasoro(2, virasoro(-2, v0)) - virasoro(-2, virasoro(2, v0))
           - virasoro(0, v0).scale(4))
    assert got == v0.scale(HALF)


def test_virasoro_c1_relations():
    vs = basis_upto(6)
    for p in range(-3, 4):
        for q in range(-3, 4):
            central = Fraction(p ** 3 - p, 12) if p + q == 0 else Fraction(0)
            for v in vs:
                got = (virasoro(p, virasoro(q, v)) - virasoro(q, virasoro(p, v))
                       - virasoro(p + q, v).scale(p - q))
                assert got == v.scale(central)


def test_bracket_action_compatibility_sample():
    rng = random.Random(21)
    gens = ([b(m) for m in (-2, -1, 1, 2)]
            + [pair(a, bb) for a in (-2, -1, 1, 2) for bb in (-2, -1, 1, 2)]
            + [tau(p) for p in range(-2, 3)] + [unit()])
    vs = basis_upto(5)
    for _ in range(120):
        A = rng.choice(gens)
        B = rng.choice(gens)
        v = rng.choice(vs)
        lhs = apply_quadratic(bracket(A, B), v)
        rhs = (apply_quadratic(A, apply_quadratic(B, v))
               - apply_quadratic(B, apply_quadratic(A, v)))
        assert lhs == rhs


# Degree-raising diagonals d <= -2 of either parity: c0 + c1 a(d - a) with
# exceptions mirrored onto d - a, so some sit in the both-creating range,
# some on the midpoint d/2 and some on mixed pairs.  Vectors hold up to
# three states with repeated parts and any coefficients; at rank 2 the
# action is on channel 2.
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
PARTITION = st.lists(st.integers(1, 4), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
VECTORS = st.integers(1, 2).flatmap(lambda rank: st.dictionaries(
    st.tuples(*[PARTITION] * rank), COEFF.filter(bool), min_size=1,
    max_size=3).map(lambda terms: FockVector(rank, terms)))


def oracle_diagonal_action(series, v):
    """The diagonal applied to v term by term: c(a) :b_a b_(d-a): over the
    pairs a <= d - a that can act on v's states, c(a)/2 at the midpoint,
    with oracles.o_pair on the last channel."""
    d, out = series.d, {}
    for state, coeff in v.terms.items():
        degree = sum(state[-1])
        for a in range(d - degree, d // 2 + 1):
            c = series.coeff(a)
            if 2 * a == d:
                c = Fraction(c, 2)
            image = oracles.o_pair(a, d - a, {state[-1]: coeff * c})
            for lam, w in image.items():
                key = state[:-1] + (lam,)
                out[key] = out.get(key, Fraction(0)) + w
    return FockVector(v.rank, out)


@SETTINGS
@example(-6, Fraction(1), Fraction(0), {-3: Fraction(5), -5: Fraction(2)},
         FockVector(1, {((1,),): 1}))
@example(-7, Fraction(1), Fraction(0), {-4: Fraction(0), -8: Fraction(3)},
         FockVector(2, {((2, 1), (1, 1)): Fraction(-2, 3)}))
@given(st.integers(-12, -2), COEFF, COEFF,
       st.dictionaries(st.integers(-16, -1), COEFF, max_size=3), VECTORS)
def test_diagonal_action_matches_oracle_pairs(d, c0, c1, exceptions, v):
    exc = {}
    for a, value in exceptions.items():
        exc[a] = exc[d - a] = value
    series = DiagonalSeries(d, Poly((c0, c1 * d, -c1)), exc)
    got = apply_quadratic(QuadraticElement(quad={d: series}), v, v.rank)
    assert got == oracle_diagonal_action(series, v)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(-5, 5),
       st.sampled_from([lam for d in range(7) for lam in oracles.partitions(d)]),
       st.integers(1, 3))
def test_virasoro_matches_oracle(p, lam, spare):
    # tau(p) against the oracle's sum of weighted mode pairs; its mixed pairs
    # stop at degcap, which lies above the source degree
    got = apply_quadratic(tau(p), FockVector.basis((lam,)))
    want = oracles.o_virasoro(p, oracles.st(lam), sum(lam) + spare)
    assert got.terms == {(mu,): c for mu, c in want.items()}


@SETTINGS
@given(BOUNDED, BOUNDED, st.sampled_from(basis_upto(5)))
def test_action_intertwines_brackets(x, y, v):
    assert apply_quadratic(bracket(x, y), v) == (
        apply_quadratic(x, apply_quadratic(y, v))
        - apply_quadratic(y, apply_quadratic(x, v)))


def test_number_operator_eigenvalues():
    for d in range(0, 9):
        for (lam,) in graded_basis(d, 1):
            v = FockVector.basis((lam,))
            for i in range(1, 9):
                got = apply_quadratic(pair(-i, i), v)
                want = v.scale(i * lam.count(i))
                assert got == want


# Elements with a central part, modes and up to three symmetric diagonals
# c0 + c1 a(d - a) with mirrored exceptions; basis states of rank 1-3 whose
# channels repeat parts.
DIAGONALS = st.lists(st.tuples(
    st.integers(-12, 4), COEFF, COEFF,
    st.dictionaries(st.integers(-14, 4), COEFF, max_size=3)), max_size=3)
MODES = st.dictionaries(st.integers(-4, 4).filter(bool), COEFF, max_size=2)
STATES = st.integers(1, 3).flatmap(
    lambda rank: st.tuples(*[PARTITION] * rank))


def diagonal_element(central, modes, diagonals):
    A = QuadraticElement(central=central, linear=LaurentPoly(modes))
    for d, c0, c1, exceptions in diagonals:
        exc = {}
        for a, value in exceptions.items():
            exc[a] = exc[d - a] = value
        series = DiagonalSeries(d, Poly((c0, c1 * d, -c1)), exc)
        A = A + QuadraticElement(quad={d: series})
    return A


@SETTINGS
# b(-3) + T(-3) on [1]: the run [2,1,1], the mode image [3,1] and the
# one-of-each image [4] share degree 4
@example(0, {-3: 1}, [(-3, 1, 0, {})], ((1,),))
# -K + T(0) on [1]: the central and the number-operator images cancel
@example(-1, {}, [(0, 1, 0, {})], ((1,),))
@example(Fraction(2, 3), {-2: Fraction(-1, 2)}, [(-9, 1, HALF, {-3: 2})],
         ((2, 2), (), (1, 1)))
# the run of d = -12 puts in the parts 11..6 and 1..6, so both insertion
# points cross channel 1's parts, and its label text is recut mid-run
@example(0, {}, [(-12, 1, HALF, {-4: 3})], ((9, 5, 3, 3, 1), (2,), ()))
# the midpoint a = -4 of d = -8 halves the fractional coefficient 1/3
@example(0, {}, [(-8, Fraction(1, 3), 0, {})], ((1,),))
@given(COEFF, MODES, DIAGONALS, STATES)
def test_term_stream_is_the_sorted_image(central, modes, diagonals, state):
    A = diagonal_element(central, modes, diagonals)
    image = apply_quadratic(A, FockVector.basis(state)).terms_sorted()
    assert list(iter_terms(A, state)) == image
    assert list(term_labels(A, state)) == [(c, format_label(st))
                                           for st, c in image]


def test_term_stream_checks_the_state_before_the_first_term():
    # a plain function: the error comes at the call, not at the first next()
    with pytest.raises(ValueError, match="part"):
        iter_terms(tau(-2), ((0,),))
    with pytest.raises(ValueError, match="rank"):
        iter_terms(tau(-2), ())


# -- central charge ------------------------------------------------------------

def test_measure_central_charge_rank1():
    assert measure_central_charge(2, basis_upto(6)) == 1
    assert measure_central_charge(2, [vac()]) == 1
    assert measure_central_charge(3, basis_upto(4)) == 1


def test_measure_central_charge_rank3():
    v = vac(3)
    vecs = [v, apply_quadratic(b(-1), v, 2), apply_quadratic(b(-2), v, 3),
            apply_quadratic(b(-1), apply_quadratic(b(-1), v, 3))]
    assert measure_central_charge(2, vecs, virasoro_all) == 3


def test_measure_central_charge_errors():
    with pytest.raises(ValueError):
        measure_central_charge(1, [vac()])
    with pytest.raises(ValueError):
        measure_central_charge(2, [])
    with pytest.raises(ValueError, match="^test vectors must be nonzero$"):
        measure_central_charge(2, [vac(), vac().scale(0)])
    # an action that drops L_0 is inconsistent across degrees
    broken = lambda q, v: virasoro(q, v) if q else v.scale(0)
    with pytest.raises(ValueError, match="inconsistent"):
        measure_central_charge(2, [vac(), FockVector.basis(((1,),))], broken)
    mixed = vac() + FockVector.basis(((1, 1),))
    with pytest.raises(ValueError, match="eigenvector"):
        measure_central_charge(2, [mixed], broken)


# -- exponentials ---------------------------------------------------------------

def test_exp_examples():
    v0 = vac()
    assert exp_apply(pair(1, 1), v0) == v0
    v11 = FockVector.basis(((1, 1),))
    assert exp_apply(pair(1, 1), v11) == v11 + v0.scale(2)
    assert exp_apply(QuadraticElement(), v11) == v11


def test_exp_matches_series_for_nilpotent():
    A = pair(1, 1).scale(HALF) + pair(2, 1) + b(1)
    v = FockVector.basis(((2, 1, 1, 1),))
    acc = v
    w = v
    fact = 1
    for k in range(1, 20):
        w = apply_quadratic(A, w)
        if w.is_zero():
            break
        fact *= k
        acc = acc + w.scale(Fraction(1, fact))
    assert exp_apply(A, v) == acc


def test_exp_number_operator():
    v = FockVector.basis(((2, 1, 1),))
    # eigenvalue of :b_-1 b_1: is 2, scalar 3 acts as 9
    assert exp_apply(pair(-1, 1), v, group_scalar=3) == v.scale(9)
    A = pair(-2, 2).scale(HALF)
    # eigenvalue 1/2 * 2 * 1 = 1
    assert exp_apply(A, v, group_scalar=Fraction(5, 7)) == v.scale(Fraction(5, 7))
    with pytest.raises(ValueError, match="non-integral"):
        exp_apply(pair(-1, 1).scale(HALF), FockVector.basis(((1,),)),
                  group_scalar=2)


def test_exp_negative_eigenvalue_is_exact():
    # an int group scalar to a negative power: a ** mu would be a float
    got = exp_apply(tau(0).scale(-1), FockVector.basis(((1,),)), 3)
    assert got.terms == {((1,),): Fraction(1, 3)}
    assert format_vector(got) == "1/3*[1]"


def test_exp_zero_group_scalar():
    # 0 ** mu is 1 at mu = 0, 0 above and undefined below
    A = pair(-1, 1).scale(-1)
    assert exp_apply(A, vac(), group_scalar=0) == vac()
    assert exp_apply(pair(-1, 1), FockVector.basis(((1,),)), 0).is_zero()
    with pytest.raises(ValueError, match=r"^negative eigenvalue -1 on \[1\] "
                                         r"with group scalar 0$"):
        exp_apply(A, FockVector.basis(((1,),)), group_scalar=0)


def test_exp_rejections():
    v = vac()
    with pytest.raises(ValueError):
        exp_apply(pair(-1, -1), v)
    with pytest.raises(ValueError):
        exp_apply(pair(-1, 1) + pair(1, 1), v)
    with pytest.raises(ValueError):
        exp_apply(pair(-1, 1), v)
    with pytest.raises(ValueError):
        exp_apply(b(-1), v)
    with pytest.raises(ValueError):
        exp_apply(unit(), v)


# -- bases and labels -----------------------------------------------------------

def test_graded_basis_counts_and_order():
    assert len(graded_basis(4, 1)) == 5
    assert graded_basis(0, 3) == [((), (), ())]
    assert graded_basis(2, 2) == [((2,), ()), ((1, 1), ()), ((1,), (1,)),
                                  ((), (2,)), ((), (1, 1))]
    assert graded_basis(4, 1) == [((4,),), ((3, 1),), ((2, 2),),
                                  ((2, 1, 1),), ((1, 1, 1, 1),)]
    with pytest.raises(ValueError):
        graded_basis(-1, 1)


def test_graded_basis_matches_channel_recursion():
    def reference(d, r):
        if r == 1:
            return graded_basis(d, 1)
        return [(lam,) + rest for k in range(d, -1, -1)
                for (lam,) in graded_basis(k, 1) for rest in reference(d - k, r - 1)]
    for r in (1, 2, 3, 5):
        for d in range(7):
            assert graded_basis(d, r) == reference(d, r)
    assert graded_basis(0, 1100) == [((),) * 1100]
    for r in (0, -1):
        with pytest.raises(ValueError, match="rank must be a positive integer"):
            graded_basis(2, r)


def test_partition_counts():
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(graded_basis(d, 1)) for d in range(11)] == want


def test_labels_round_trip():
    assert format_label(((3, 1, 1),)) == "[3,1,1]"
    assert format_label(((3, 1), (2,))) == "([3,1]|[2])"
    assert parse_label("[3,1,1]") == ((3, 1, 1),)
    assert parse_label("([3,1]|[2])") == ((3, 1), (2,))
    assert parse_label("(-|[2])") == ((), (2,))
    assert parse_label("[]") == ((),)
    for d in range(5):
        for st in graded_basis(d, 2):
            assert parse_label(format_label(st)) == st


def test_format_vector():
    v0 = vac()
    assert format_vector(v0) == "[]"
    v = FockVector.basis(((1, 1),)).scale(HALF) - FockVector.basis(((2,),))
    assert format_vector(v) == "-[2] + 1/2*[1,1]"
    assert format_vector(FockVector(1)) == "0"
