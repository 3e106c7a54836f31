import json

import pytest

from oscalg.coinv import (CoinvReport, FPoint, coinvariants_A, coinvariants_X,
                          default_schedule, fperp_basis, is_in_sp_F,
                          sp_f_generators, stabilize)
from oscalg.laurent import LaurentPoly, symplectic_form


def exponents(fs):
    out = []
    for f in fs:
        (e,) = f.coeffs
        out.append(e)
    return out


# -- points and generators -----------------------------------------------------

def test_fpoint_basics():
    F = FPoint({1, 3})
    assert F.genus == 2
    assert F.semigroup(6) == [2, 4, 5, 6]
    with pytest.raises(ValueError):
        FPoint({0})


def test_fperp_examples():
    assert exponents(fperp_basis(FPoint({1}), 4)) == [-1, -2, -3, -4, 1]
    assert exponents(fperp_basis(FPoint(()), 3)) == [-1, -2, -3]
    assert exponents(fperp_basis(FPoint({1, 2}), 3)) == [-1, -2, -3, 1, 2]


def test_fperp_is_the_symplectic_perp():
    for gaps in ((), (1,), (1, 3), (2,)):
        F = FPoint(gaps)
        W = 6
        fmodes = [LaurentPoly.t(-s) for s in F.semigroup(W)]
        perp = fperp_basis(F, W)
        for u in perp:
            for f in fmodes:
                assert symplectic_form(u, f) == 0
        # and nothing else in the window pairs to zero with all of F
        perp_exps = set(exponents(perp))
        for m in range(-W, W + 1):
            if m == 0 or m in perp_exps:
                continue
            assert any(symplectic_form(LaurentPoly.t(m), f) for f in fmodes)


def test_generator_counts():
    assert len(sp_f_generators(FPoint(()), 2)) == 8
    assert len(sp_f_generators(FPoint({1}), 2)) == 4


def test_generators_are_in_sp_F():
    for gaps in ((), (1,), (1, 2)):
        F = FPoint(gaps)
        for X in sp_f_generators(F, 4):
            assert is_in_sp_F(X, F, 6)


# -- quotients -------------------------------------------------------------------

def test_degree_zero_dimension_trivial_case():
    rep = coinvariants_A(1, FPoint(()), 0, 4, 4)
    assert rep.dims == [1]


def test_coinv_dims_frozen():
    assert coinvariants_A(1, FPoint(()), 4, 8, 8).dims == [1, 0, 0, 0, 0]
    assert coinvariants_A(1, FPoint({1}), 4, 8, 8).dims == [1, 1, 1, 1, 1]
    assert coinvariants_A(1, FPoint({1, 3}), 4, 8, 8).dims == [1, 1, 1, 2, 2]


def test_x_side_bounded_by_a_side():
    for gaps in ((), (1,), (1, 3)):
        F = FPoint(gaps)
        a = coinvariants_A(1, F, 4, 8, 8)
        x = coinvariants_X(1, F, 4, 8, 8)
        assert all(dx <= da for dx, da in zip(x.dims, a.dims))
        assert x.generators > a.generators


def test_x_side_degree_zero():
    rep = coinvariants_X(1, FPoint(()), 3, 6, 6)
    assert rep.dims[0] == 1


def test_monotone_in_M():
    F = FPoint({1, 3})
    prev = None
    for M in (4, 6, 8):
        dims = coinvariants_A(1, F, 4, M, 8).dims
        if prev is not None:
            assert all(d2 <= d1 for d1, d2 in zip(prev, dims))
        prev = dims


def test_vacuum_persists():
    for gaps in ((), (1,), (1, 2), (2,)):
        for rank in (1, 2):
            rep = coinvariants_A(rank, FPoint(gaps), 2, 5, 5)
            assert rep.dims[0] >= 1


def test_truncation_preconditions():
    with pytest.raises(ValueError):
        coinvariants_A(1, FPoint(()), 6, 4, 8)
    with pytest.raises(ValueError):
        coinvariants_A(1, FPoint(()), 2, 6, 4)


# -- stabilization ---------------------------------------------------------------

def test_stabilize_constant_sequence():
    rep = stabilize(lambda m, w: coinvariants_A(1, FPoint(()), 2, m, w),
                    [(4, 4), (6, 6), (8, 8)])
    assert rep.stabilized
    assert (rep.M, rep.W) == (6, 6)  # stops at the first agreement


def test_stabilize_exhausted():
    calls = []
    def fake(m, w):
        calls.append(m)
        return CoinvReport((), 1, 0, m, w, [m], False, 0)
    rep = stabilize(fake, [(1, 1), (2, 2), (3, 3)])
    assert not rep.stabilized and calls == [1, 2, 3]


def test_stabilize_schedule_validation():
    run = lambda m, w: coinvariants_A(1, FPoint(()), 2, m, w)
    with pytest.raises(ValueError):
        stabilize(run, [(6, 6), (4, 4)])
    with pytest.raises(ValueError):
        stabilize(run, [])
    with pytest.raises(ValueError):
        stabilize(run, [(4, 4), (4, 4)])


def test_default_schedule():
    assert default_schedule(6, 12, 12) == [(8, 8), (10, 10), (12, 12)]
    assert default_schedule(6, 6, 12) == [(6, 8), (6, 10), (6, 12)]
    assert default_schedule(4, 4, 4) == [(4, 4)]
    for N, M, W in ((-2, 3, 3), (4, 2, 2), (4, 8, 4)):
        with pytest.raises(ValueError):
            default_schedule(N, M, W)


def test_report_json_key_order():
    rep = coinvariants_A(1, FPoint({1}), 2, 4, 4)
    text = rep.to_json()
    assert list(json.loads(text)) == ["gaps", "rank", "N", "M", "W", "dims",
                                      "stabilized", "generators"]
    assert text.startswith('{"gaps": [1], "rank": 1, "N": 2, "M": 4, "W": 4,')
