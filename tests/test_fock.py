import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import oscalg.fock
from oscalg.cli import main
from oscalg.fock import (BLOCK, FockVector, _moved, _run_labels, _run_state,
                         apply_quadratic, canon_state, exp_apply, format_label,
                         format_vector, graded_basis, measure_central_charge,
                         parse_label, state_degree, term_labels, virasoro,
                         virasoro_all)
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


_PARTS = st.lists(st.integers(1, 4), max_size=4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(channels=st.lists(_PARTS, min_size=1, max_size=3),
       s=st.integers(1, 5), m=st.integers(-4, 4))
def test_moved_makes_the_one_state_of_a_monomial_image(channels, s, m):
    # :b_-s b_m: (b_-s for m = 0) sends a state to a multiple of one state:
    # channel 1 loses a part m if m > 0, gains -m if m < 0, and gains s.  It
    # annihilates a state without a part m, so for m > 0 the source holds
    # one; draws of four parts from 1..4 repeat parts often
    if m > 0:
        channels[0] = channels[0] + [m]
    st0 = canon_state(channels)
    gone, new = (m, (s,)) if m > 0 else (0, (s, -m) if m else (s,))
    lam = _moved(st0[0], gone, new)
    want = (oracles.o_pair(-s, m, {st0[0]: 1}) if m
            else oracles.o_mode(-s, {st0[0]: 1}))
    assert list(want) == [lam]
    image = apply_quadratic(pair(-s, m) if m else b(-s), FockVector.basis(st0))
    assert image.terms == {(lam,) + st0[1:]: want[lam]}


def test_moved_examples():
    assert _moved((3, 2, 2, 1), 2, ()) == (3, 2, 1)
    assert _moved((3, 1), 0, (2,)) == (3, 2, 1)
    assert _moved((3, 1), 0, (4, 1)) == (4, 3, 1, 1)
    assert _moved((2, 2), 2, (5, 2, 1)) == (5, 2, 2, 1)
    assert _moved((), 0, (1, 3)) == (3, 1)


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
    # zero polynomial creates only at its deviations: read those, not the range
    A = pair(-1, -10 ** 6)
    series = A.quad[-10 ** 6 - 1]
    series.dev = CountingDict(series.dev)
    v1 = FockVector.basis(((1,),))
    assert apply_quadratic(A, v1) == FockVector.basis(((10 ** 6, 1, 1),))
    assert series.dev.reads <= 2 * len(series.dev)
    series.dev.reads = 0
    assert list(term_labels(A, ((1,),))) == [(1, ["[1000000,1,1]"])]
    assert series.dev.reads <= 2 * len(series.dev)


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


def mirrored(d, c0, c1, exceptions):
    """The series c0 + c1 a(d - a) at offset d with each exception (a, v)
    placed at a and d - a, stored as the deviation v - P(a)."""
    poly = Poly((c0, c1 * d, -c1))
    dev = {}
    for a, v in exceptions.items():
        dev[a] = dev[d - a] = v - poly(a)
    return DiagonalSeries(d, poly, dev)


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
    series = mirrored(d, c0, c1, exceptions)
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
        A = A + QuadraticElement(quad={d: mirrored(d, c0, c1, exceptions)})
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
# runs of BLOCK + 2 and 2 BLOCK + 2 terms whose insertion points move
# inside a block: -a passes 1500 (3000), a - d passes 3 and 700 (and 1500)
@example(0, {}, [(-(2 * BLOCK + 5), 3, 0, {})], ((1500, 700, 3),))
@example(0, {}, [(-(4 * BLOCK + 5), -1, 0, {})], ((3000, 1500, 700, 3), (2,)))
# on an empty channel the first block of the run fills at a = -(BLOCK + 5),
# and the exception at the next a opens the second block
@example(0, {}, [(-(2 * BLOCK + 5), 1, 0, {-(BLOCK + 4): 2})], ((),))
# the run of d = -12 opens at a = -9, inside the a of the run of d = -10
# just before it, whose labels it must not reuse
@example(0, {}, [(-10, 1, 0, {}), (-12, 1, 0, {-11: 0, -10: 0})], ((1,),))
@given(COEFF, MODES, DIAGONALS, STATES)
def test_term_stream_is_the_sorted_image(central, modes, diagonals, state):
    A = diagonal_element(central, modes, diagonals)
    image = apply_quadratic(A, FockVector.basis(state)).terms_sorted()
    blocks = list(term_labels(A, state))
    assert [(c, label) for c, labels in blocks for label in labels] == [
        (c, format_label(st)) for st, c in image]
    assert all(0 < len(labels) <= BLOCK for _, labels in blocks)
    # a block ends only where the coefficient changes or at BLOCK labels
    assert all(c != c2 or len(labels) == BLOCK
               for (c, labels), (c2, _) in zip(blocks, blocks[1:]))


def oracle_sum_text(terms):
    """The fock-apply text of a rank-1 oracle image {parts: coefficient}
    of one degree, written out term by term."""
    pieces = []
    for parts in sorted(terms, reverse=True):
        c = terms[parts]
        label = "[" + ",".join(map(str, parts)) + "]"
        body = label if abs(c) == 1 else f"{abs(c)}*{label}"
        if pieces:
            pieces.append(("+ " if c > 0 else "- ") + body)
        else:
            pieces.append(body if c > 0 else "-" + body)
    return " ".join(pieces) or "0"


@pytest.mark.parametrize("p", [BLOCK - 1, BLOCK, 2 * BLOCK + 1])
def test_fock_apply_text_matches_the_oracle_across_blocks(capsys, p):
    # the run of T(-p) crosses block edges, the halved midpoint when p is
    # even, and parts of the state that its created parts pass
    for parts in [(1,), (3 * p // 4, p // 3, 7, 1), (p - 2, p // 2, 2, 2)]:
        want = oracles.o_virasoro(-p, {parts: 1}, sum(parts))
        assert main(["fock-apply", f"T({-p})", format_label((parts,))]) == 0
        assert capsys.readouterr().out == oracle_sum_text(want) + "\n"


def test_term_stream_checks_the_state_before_the_first_term():
    # a plain function: the error comes at the call, not at the first next()
    with pytest.raises(ValueError, match="part"):
        term_labels(tau(-2), ((0,),))
    with pytest.raises(ValueError, match="rank"):
        term_labels(tau(-2), ())


# Runs of at most 3000 indices in which -a or a - d crosses 999 -> 1000 or
# 999999 -> 1000000, one whole run in which both cross 1000 and -a also
# crosses 2000, and one that ends at the midpoint -a = a - d = 10^6, on
# states with parts at 999, 1000, 1001 and 10^6.
@pytest.mark.parametrize("d, run", [
    (-1500, range(-1499, -750)),
    (-2003, range(-2002, -1001)),
    (-2500, range(-2499, -1250)),
    (-1500000, range(-1001500, -998500)),
    (-2500001, range(-1501500, -1498500)),
    (-2000000, range(-1001000, -999999)),
])
def test_run_labels_cross_digit_boundaries(d, run):
    assert d + 1 <= run[0] and run[-1] <= d // 2
    for state in [((),), ((1,),), ((1001, 1000, 999),),
                  ((1000000, 1001, 1000, 999, 1),), ((1000, 999), (1001,)),
                  ((), (1000000, 1000)), ((1000000, 999, 3), (999,))]:
        assert _run_labels(state, d, run) == [
            format_label(_run_state(state, 0, d, a)) for a in run]


def test_a_non_constant_run_makes_its_labels_a_batch_at_a_time(monkeypatch):
    # the generic part 1 - a(a - d) of d = -40001 is not constant, so its
    # run of 20000 terms comes as one-index segments, each coefficient
    # its own block; its labels come in batches of BLOCK, not one per index
    d = -40001
    A = QuadraticElement(quad={d: DiagonalSeries(d, Poly((1, d, -1)))})
    calls = []

    def counted(state, d, run):
        calls.append(run)
        return _run_labels(state, d, run)

    monkeypatch.setattr(oscalg.fock, "_run_labels", counted)
    blocks = list(term_labels(A, ((1,),)))
    assert len(blocks) == 20001
    assert [a for run in calls for a in run] == list(range(d + 1, d // 2 + 1))
    assert len(calls) == -(-20000 // BLOCK)
    # a run of 20 terms that crosses eight insertion-point windows makes
    # its labels in one call
    calls.clear()
    d = -40
    A = QuadraticElement(quad={d: DiagonalSeries(d, Poly((1, d, -1)))})
    state = ((30, 25, 20, 12, 5, 1),)
    got = [(c, label) for c, labels in term_labels(A, state)
           for label in labels]
    image = apply_quadratic(A, FockVector.basis(state)).terms_sorted()
    assert got == [(c, format_label(st)) for st, c in image]
    assert calls == [range(d + 1, d // 2 + 1)]


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


def test_exp_nilpotent_refuses_a_group_scalar():
    # a group scalar acts only through a number operator's eigenvalues;
    # exp of a degree-lowering A has no use for one
    v11 = FockVector.basis(((1, 1),))
    with pytest.raises(ValueError, match="group_scalar"):
        exp_apply(pair(1, 1), v11, group_scalar=5)
    with pytest.raises(ValueError, match="group_scalar"):
        exp_apply(QuadraticElement(), v11, 1)
    assert exp_apply(pair(1, 1), v11) == v11 + vac().scale(2)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: FockVector(1.5), "rank", id="vector-rank"),
    pytest.param(lambda: FockVector("2"), "rank", id="vector-rank-str"),
    pytest.param(lambda: FockVector.vacuum(1.5), "rank", id="vacuum-rank"),
    pytest.param(lambda: virasoro(1.5, vac()), "p", id="virasoro-p"),
    pytest.param(lambda: virasoro_all(1.5, vac(2)), "p", id="virasoro-all-p"),
    # 1 <= 1.5 <= 2 passes the range test of a rank-2 vector
    pytest.param(lambda: apply_quadratic(tau(-1), vac(2), 1.5), "channel",
                 id="apply-channel"),
    pytest.param(lambda: apply_quadratic(tau(-1), vac(2), "1"), "channel",
                 id="apply-channel-str"),
    pytest.param(lambda: exp_apply(b(2), vac(2), channel=1.5), "channel",
                 id="exp-channel"),
    pytest.param(lambda: exp_apply(pair(-1, 1), FockVector(2), 2,
                                   channel=1.5), "channel",
                 id="exp-channel-zero-vector"),
])
def test_integer_arguments_name_their_parameter(call, name):
    with pytest.raises(TypeError, match=f"^{name}: "):
        call()


@pytest.mark.parametrize("state", [
    pytest.param(((1, 2),), id="unsorted"),
    pytest.param(((1,), (2,)), id="two-channels-at-rank-1"),
    pytest.param(((0,),), id="part-0"),
    pytest.param(((-1,),), id="negative-part"),
    pytest.param(((1.0,),), id="float-part"),
    pytest.param((), id="no-channel"),
    pytest.param("[1]", id="label-text"),
])
def test_vector_refuses_a_non_canonical_key(state):
    # apply_quadratic(tau(-3), .) of the unsorted key used to print
    # [2,1,2,1], a state that never combines with [2,2,1,1]
    with pytest.raises(ValueError, match=r"^not a canonical rank-1 state: "
                       + re.escape(repr(state))):
        FockVector(1, {state: 1})
    assert FockVector(2, {((2, 2, 1), ()): 1}).terms == {((2, 2, 1), ()): 1}


@pytest.mark.parametrize("terms", [
    pytest.param([(((1,),), 1)], id="pairs"),
    pytest.param([], id="empty-list"),
])
def test_vector_refuses_terms_that_are_not_a_dict(terms):
    # refused where it is passed, empty or not, rather than failing in
    # a later .items() or standing for the zero vector
    with pytest.raises(TypeError, match="^terms must be a dict, not list$"):
        FockVector(1, terms)


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


def test_wrong_type_operands_are_a_type_error():
    v = FockVector.vacuum()
    for other in (1, HALF, tau(1)):
        with pytest.raises(TypeError, match="^unsupported operand"):
            v + other
        with pytest.raises(TypeError, match="^unsupported operand"):
            v - other


def test_graded_basis_names_a_bad_argument():
    with pytest.raises(TypeError, match="^degree: "):
        graded_basis(2.5, 1)
    with pytest.raises(TypeError, match="^degree: "):
        graded_basis("3", 1)
    with pytest.raises(TypeError, match="^rank: "):
        graded_basis(3, 1.0)


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
