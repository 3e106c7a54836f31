import json
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oscalg import cli, coinv
from oscalg.coinv import (MAX_STATE_SLOTS, FPoint, check_state_space,
                          coinvariants_A, coinvariants_X, default_schedule,
                          fperp_basis, is_in_sp_F, sp_f_generators)
from oscalg.fock import FockVector, apply_quadratic, canon_state, graded_basis
from oscalg.laurent import LaurentPoly, symplectic_form
from oscalg.quadops import b, pair


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
        fmodes = [LaurentPoly.term(1, -s) for s in F.semigroup(W)]
        perp = fperp_basis(F, W)
        for u in perp:
            for f in fmodes:
                assert symplectic_form(u, f) == 0
        # and nothing else in the window pairs to zero with all of F
        perp_exps = set(exponents(perp))
        for m in range(-W, W + 1):
            if m == 0 or m in perp_exps:
                continue
            tm = LaurentPoly.term(1, m)
            assert any(symplectic_form(tm, f) for f in fmodes)


def test_generator_counts():
    assert len(sp_f_generators(FPoint(()), 2)) == 8
    assert len(sp_f_generators(FPoint({1}), 2)) == 4
    # reports count the generators of their own window without visiting
    # them all
    for gaps in ((), (1,), (1, 3), (2, 9)):
        F = FPoint(gaps)
        for W in (1, 4, 7):
            a = coinvariants_A(1, F, 0, 1, W)
            x = coinvariants_X(1, F, 0, 1, W)
            assert a.W == x.W
            count = len(sp_f_generators(F, a.W))
            assert a.generators == count
            assert x.generators == count + len(F.semigroup(a.W))


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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: default_schedule(1.5, 3, 3), id="schedule-N"),
    pytest.param(lambda: default_schedule(1, 2.0, 3), id="schedule-M"),
    pytest.param(lambda: default_schedule(1, 3, 3.5), id="schedule-W"),
    pytest.param(lambda: check_state_space(1.0, 2), id="state-space-rank"),
    pytest.param(lambda: check_state_space(1, 2.5), id="state-space-M"),
])
def test_truncation_sizes_are_integers(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


@pytest.mark.parametrize("compute", [coinvariants_A, coinvariants_X])
def test_report_carries_the_checked_integers(compute):
    # True passes operator.index as 1, and the report says 1
    rep = compute(True, FPoint([1]), True, 3, 3)
    assert type(rep.rank) is int and type(rep.N) is int
    assert '"rank": 1, "N": 1,' in rep.to_json()


# -- stabilization ---------------------------------------------------------------

def test_stabilize_constant_sequence():
    # the schedule is (4, 4), (6, 6), (8, 8)
    rep = coinvariants_A(1, FPoint(()), 2, 8, 8)
    assert rep.stabilized
    assert (rep.M, rep.W) == (6, 6)  # stops at the first agreement


def test_stabilize_exhausted():
    # a one-step schedule has no two steps to agree
    rep = coinvariants_X(1, FPoint({1}), 4, 4, 4)
    assert not rep.stabilized
    assert (rep.M, rep.W, rep.dims) == (4, 4, [1, 1, 1, 1, 1])


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


# -- the oracle ----------------------------------------------------------------

SIDES = {"A": coinvariants_A, "X": coinvariants_X}


def tuple_counts(channels: int, n: int):
    """The number of channels-tuples of partitions of each total 0..n."""
    p = [len(list(oracles.partitions(k))) for k in range(n + 1)]
    counts = [1] + [0] * n
    for _ in range(channels):
        counts = [sum(counts[i] * p[k - i] for i in range(k + 1))
                  for k in range(n + 1)]
    return counts


@lru_cache(maxsize=None)
def oracle_coinv_dims(gaps: tuple, N: int, M: int, W: int, include_linear: bool):
    """oracles.coinv_dims, computed once per argument tuple: ranks 2 and 3
    repeat the rank-1 calls of test_coinv_matches_oracle."""
    return tuple(oracles.coinv_dims(set(gaps), N, M, W, include_linear))


@pytest.mark.parametrize("gaps, side, rank", [
    pytest.param(gaps, side, rank,
                 id=f"gaps{i}-{side}" + (f"-rank{rank}" if rank > 1 else ""))
    for rank in (1, 2, 3)
    for i, gaps in enumerate([(), (1,), (1, 3), (1, 2, 3)])
    for side in "AX"])
def test_coinv_matches_oracle(gaps, side, rank):
    compute = SIDES[side]
    F = FPoint(gaps)
    others = tuple_counts(rank - 1, 5)
    for M in (8, 10):
        # The generators act on channel 1 only: a state whose other
        # channels have degree j contributes the rank-1 dims at cap M - j.
        rank1 = {j: oracle_coinv_dims(gaps, 5 - j, M - j, M, side == "X")
                 for j in range(6) if others[j]}
        expected = [sum(others[j] * rank1[j][n - j] for j in rank1 if j <= n)
                    for n in range(6)]
        for N in range(6):
            assert compute(rank, F, N, M, M).dims == expected[:N + 1], (N, M)


def gap_series(gaps, rank: int, N: int):
    """Coefficients of q^0..q^N in prod_{g in gaps} 1/(1 - q^g) * P(q)^(rank-1),
    P the partition generating function: the coin-change recurrence over
    the gaps and rank - 1 copies of the parts 1..N."""
    coeffs = [1] + [0] * N
    for part in sorted(gaps) + list(range(1, N + 1)) * (rank - 1):
        for n in range(part, N + 1):
            coeffs[n] += coeffs[n - part]
    return coeffs


@settings(derandomize=True, max_examples=120, deadline=None)
@given(gaps=st.sets(st.integers(1, 9), max_size=5), N=st.integers(0, 8),
       dM=st.integers(0, 3), dW=st.integers(0, 3), side=st.sampled_from("AX"),
       rank=st.integers(1, 2))
def test_dims_follow_the_gap_series(gaps, N, dM, dW, side, rank):
    # Gap sets need not be semigroups: only the states whose parts are all
    # gaps survive, whatever the side and the truncation.
    rep = SIDES[side](rank, FPoint(gaps), N, N + dM, N + dM + dW)
    assert rep.dims == gap_series(gaps, rank, N)


def test_image_of_more_than_one_state_raises(monkeypatch):
    apply = coinv.apply_quadratic

    def two_states(X, v):
        image = apply(X, v)
        return FockVector(v.rank, {**image.terms, ((99,),): 1})

    monkeypatch.setattr(coinv, "apply_quadratic", two_states)
    with pytest.raises(RuntimeError, match="not one basis state"):
        coinvariants_A(1, FPoint(()), 2, 4, 4)


def test_image_of_another_state_raises(monkeypatch):
    def elsewhere(X, v):
        return FockVector(v.rank, {((99,),): 1})

    monkeypatch.setattr(coinv, "apply_quadratic", elsewhere)
    with pytest.raises(RuntimeError, match=r"expected exactly \(\("):
        coinvariants_A(1, FPoint(()), 2, 4, 4)


_PARTS = st.lists(st.integers(1, 4), max_size=4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(channels=st.lists(_PARTS, min_size=1, max_size=3),
       s=st.integers(1, 5), m=st.integers(-4, 4))
def test_target_is_the_one_state_of_the_image(channels, s, m):
    # :b_-s b_m: annihilates a state without a part m, so for m > 0 the
    # source holds one; draws of four parts from 1..4 repeat parts often
    if m > 0:
        channels[0] = channels[0] + [m]
    st0 = canon_state(channels)
    X = pair(-s, m) if m else b(-s)
    image = apply_quadratic(X, FockVector.basis(st0))
    assert list(image.terms) == [coinv._target(st0, s, m)]


# -- the state-space cap -------------------------------------------------------

def test_state_space_count_matches_bases(monkeypatch):
    for rank, M in ((1, 12), (2, 8), (3, 6), (5, 3)):
        slots = rank * sum(len(graded_basis(d, rank)) for d in range(M + 1))
        monkeypatch.setattr(coinv, "MAX_STATE_SLOTS", slots)
        check_state_space(rank, M)
        monkeypatch.setattr(coinv, "MAX_STATE_SLOTS", slots - 1)
        with pytest.raises(ValueError, match=f"{slots} tuple slots .* "
                           f"degrees <= {M}, limit {slots - 1}"):
            check_state_space(rank, M)
    monkeypatch.undo()
    # rank 1100, degrees <= 1: (1 + 1100) states of 1100 slots
    with pytest.raises(ValueError, match="1211100 tuple slots .* degrees <= 1, "
                       f"limit {MAX_STATE_SLOTS}"):
        check_state_space(1100, 2)
    check_state_space(1100, 0)


def test_state_space_cap_has_headroom():
    # the largest test and benchmark case: rank 2 in degrees <= 12
    largest = 2 * sum(len(graded_basis(d, 2)) for d in range(13))
    assert 10 * largest <= MAX_STATE_SLOTS


def test_cmd_coinv_over_cap_exit_2(capsys):
    start = time.process_time()
    code = cli.main(["coinv", "--rank", "1100", "--N", "2", "--M", "2",
                     "--W", "2"])
    out, err = capsys.readouterr()
    assert time.process_time() - start < 1
    assert (code, out) == (2, "")
    assert "state space too large" in err and str(MAX_STATE_SLOTS) in err


def test_cmd_coinv_high_rank_is_fast(capsys):
    # the one degree-0 state of a million channels, at the slot cap; its
    # basis is built once, not channel by channel
    start = time.process_time()
    code = cli.main(["coinv", "--rank", "1000000", "--N", "0", "--M", "0",
                     "--W", "0"])
    out, _ = capsys.readouterr()
    assert time.process_time() - start < 1
    assert (code, json.loads(out)["dims"]) == (3, [1])


def test_cmd_coinv_wide_window_is_fast(capsys):
    # no generator of this window can act on the degree-0 state
    start = time.process_time()
    code = cli.main(["coinv", "--N", "0", "--M", "0", "--W", "2000"])
    out, _ = capsys.readouterr()
    assert time.process_time() - start < 1
    assert (code, out) == (0, '{"gaps": [], "rank": 1, "N": 0, "M": 0, '
                           '"W": 1998, "dims": [1], "stabilized": true, '
                           '"generators": 7984008}\n')


# -- no wasted work ------------------------------------------------------------

@pytest.mark.parametrize("side", "AX")
def test_cmd_coinv_wastes_no_work(monkeypatch, capsys, side):
    basis_args = []
    images = []
    calls = []

    def counting(fn, log, record):
        def wrapper(*args):
            result = fn(*args)
            log.append(record(args, result))
            return result
        return wrapper

    monkeypatch.setattr(coinv, "graded_basis",
                        counting(graded_basis, basis_args, lambda a, r: a))
    monkeypatch.setattr(coinv, "apply_quadratic",
                        counting(coinv.apply_quadratic, images, lambda a, r: r))
    monkeypatch.setattr(coinv, "check_state_space",
                        counting(check_state_space, calls,
                                 lambda a, r: ("check_state_space", a)))
    for name in ("coinvariants_A", "coinvariants_X"):
        call = lambda a, r, name=name: (name, a[2:])
        monkeypatch.setattr(cli, name, counting(getattr(cli, name), calls, call))
    code = cli.main(["coinv", "--gaps", "1,2", "--N", "8", "--M", "12",
                     "--W", "12", "--side", side])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["dims"] == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert images and all(len(v.terms) == 1 for v in images)
    # each image hits a state no earlier image hit
    hit = [st for v in images for st in v.terms]
    assert len(hit) == len(set(hit))
    assert len(basis_args) == len(set(basis_args))
    assert sorted(d for d, _ in basis_args) == list(range(report["M"] + 1))
    # one call runs the whole schedule and checks the state space once
    assert calls == [("check_state_space", (1, 12)),
                     (f"coinvariants_{side}", (8, 12, 12))]
