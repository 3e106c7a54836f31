import json
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oscalg import cli, coinv
from oscalg.coinv import (MAX_STATE_SLOTS, CoinvReduction, CoinvReport, FPoint,
                          check_state_space, coinvariants_A, coinvariants_X,
                          default_schedule, fperp_basis, is_in_sp_F,
                          sp_f_generators, stabilize)
from oscalg.fock import FockVector, graded_basis
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
    # reports count the window's generators without visiting them all
    for gaps in ((), (1,), (1, 3), (2, 9)):
        F = FPoint(gaps)
        for W in (1, 4, 7):
            count = len(sp_f_generators(F, W))
            assert coinvariants_A(1, F, 0, 1, W).generators == count
            assert (coinvariants_X(1, F, 0, 1, W).generators
                    == count + len(F.semigroup(W)))


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


# -- the oracle and extended reductions -----------------------------------------

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
            one_shot = compute(rank, F, N, M, M)
            assert one_shot.dims == expected[:N + 1], (N, M)
            reduction = CoinvReduction()
            compute(rank, F, N, 6, 6, reduction)
            extended = compute(rank, F, N, M, M, reduction)
            assert extended.to_json() == one_shot.to_json(), (N, M)


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


def test_extended_reduction_matches_one_shot_at_rank_2():
    F = FPoint({1, 3})
    reduction = CoinvReduction()
    for M, W in ((4, 5), (6, 6), (6, 8), (7, 8)):
        rep = coinvariants_X(2, F, 4, M, W, reduction)
        fresh = CoinvReduction()
        assert rep.to_json() == coinvariants_X(2, F, 4, M, W, fresh).to_json()
        # the same generators reached the same source degrees
        assert reduction.applied == fresh.applied


def test_image_of_more_than_one_state_raises(monkeypatch):
    apply = coinv.apply_quadratic

    def two_states(X, v):
        image = apply(X, v)
        return FockVector(v.rank, {**image.terms, ((99,),): 1})

    monkeypatch.setattr(coinv, "apply_quadratic", two_states)
    with pytest.raises(RuntimeError, match="not one basis state"):
        coinvariants_A(1, FPoint(()), 2, 4, 4)


def test_reduction_belongs_to_one_job():
    F = FPoint({1})
    reduction = CoinvReduction()
    coinvariants_A(1, F, 3, 6, 8, reduction)
    for call in (lambda: coinvariants_A(2, F, 3, 6, 8, reduction),
                 lambda: coinvariants_A(1, F, 4, 6, 8, reduction),
                 lambda: coinvariants_A(1, FPoint({1, 2}), 3, 6, 8, reduction),
                 lambda: coinvariants_X(1, F, 3, 6, 8, reduction)):
        with pytest.raises(ValueError, match="another job"):
            call()
    for M, W in ((5, 8), (6, 7)):
        with pytest.raises(ValueError, match="cannot shrink"):
            coinvariants_A(1, F, 3, M, W, reduction)
    again = coinvariants_A(1, F, 3, 6, 8, reduction)
    assert again.dims == coinvariants_A(1, F, 3, 6, 8).dims


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
    steps = []

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
    for name in ("coinvariants_A", "coinvariants_X"):
        step = lambda a, r, name=name: (name, a[3:5])
        monkeypatch.setattr(cli, name, counting(getattr(cli, name), steps, step))
    code = cli.main(["coinv", "--gaps", "1,2", "--N", "8", "--M", "12",
                     "--W", "12", "--side", side])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["dims"] == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert images and all(not v.is_zero() for v in images)
    assert len(basis_args) == len(set(basis_args))
    assert sorted(d for d, _ in basis_args) == list(range(report["M"] + 1))
    schedule = default_schedule(8, 12, 12)
    ran = schedule[:schedule.index((report["M"], report["W"])) + 1]
    assert steps == [(f"coinvariants_{side}", mw) for mw in ran]
