"""Coinvariants of Fock spaces at points given by numerical-semigroup data.

A point F is the span of t^-s for s outside a finite gap set.  The
symplectic stabilizer meets S^2(H') in the span of products with one
factor in F; truncating that family to a window and row-reducing its image
exactly gives graded dimensions of the quotient, reported together with a
stabilization flag from repeated runs at growing truncation sizes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .fock import FockVector, apply_quadratic, graded_basis
from .laurent import LaurentPoly
from .quadops import QuadraticElement, _quad_apply_laurent, b, pair

F0 = Fraction(0)


class FPoint:
    """S = positive integers minus a finite gap set; F = span{t^-s : s in S}."""

    __slots__ = ("gaps",)

    def __init__(self, gaps=()):
        gaps = frozenset(int(g) for g in gaps)
        if any(g < 1 for g in gaps):
            raise ValueError("gaps are positive integers")
        self.gaps = gaps

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def semigroup(self, W: int):
        """S intersected with [1, W]."""
        return [s for s in range(1, W + 1) if s not in self.gaps]

    def __repr__(self):
        return f"FPoint(gaps={sorted(self.gaps)})"


def fperp_basis(F: FPoint, W: int):
    """Window basis of F-perp: all of H_- plus t^m for gap exponents m."""
    out = [LaurentPoly.t(-m) for m in range(1, W + 1)]
    out += [LaurentPoly.t(m) for m in sorted(F.gaps) if m <= W]
    return out


def is_in_sp_F(A: QuadraticElement, F: FPoint, W: int) -> bool:
    """Checks X(F-perp) inside F on the window."""
    if A.central or not A.linear.is_zero():
        raise ValueError("is_in_sp_F expects zero central and linear parts")
    for u in fperp_basis(F, W):
        for e in _quad_apply_laurent(A.quad, u).coeffs:
            if e >= 0 or -e in F.gaps:
                return False
    return True


def sp_f_generators(F: FPoint, W: int):
    """The window family :b_-s b_m: with s in S, 1 <= s <= W, m in [-W, W]
    nonzero.  Spans the S^2(H') part of the stabilizer on the window."""
    gens = []
    ms = [m for m in range(-W, W + 1) if m != 0]
    for s in F.semigroup(W):
        for m in ms:
            gens.append(pair(-s, m))
    return gens


class CoinvReport:
    """Graded dimensions of a truncated coinvariant computation."""

    __slots__ = ("gaps", "rank", "N", "M", "W", "dims", "stabilized", "generators")

    def __init__(self, gaps, rank, N, M, W, dims, stabilized, generators):
        self.gaps = sorted(gaps)
        self.rank = rank
        self.N = N
        self.M = M
        self.W = W
        self.dims = list(dims)
        self.stabilized = bool(stabilized)
        self.generators = generators

    def to_dict(self) -> dict:
        return {"gaps": self.gaps, "rank": self.rank, "N": self.N,
                "M": self.M, "W": self.W, "dims": self.dims,
                "stabilized": self.stabilized, "generators": self.generators}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __repr__(self):
        return f"CoinvReport({self.to_dict()!r})"


class _DegreeReducer:
    """Incremental exact row reduction for one homogeneous degree."""

    __slots__ = ("dim", "rank", "pivots")

    def __init__(self, dim: int):
        self.dim = dim
        self.rank = 0
        self.pivots = {}

    def full(self) -> bool:
        return self.rank == self.dim

    def add(self, row: dict) -> bool:
        if self.full():
            return False
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                c = row[lead]
                self.pivots[lead] = {k: v / c for k, v in row.items()}
                self.rank += 1
                return True
            c = row[lead]
            for k, v in piv.items():
                nv = row.get(k, F0) - c * v
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
        return False


def _quotient_dims(generators, rank: int, N: int, M: int):
    """Graded dimensions of V_{<=N} modulo images of the generators applied
    to basis vectors of degree <= M."""
    index = {}
    sizes = {}
    for e in range(0, N + 1):
        basis_e = graded_basis(e, rank)
        sizes[e] = len(basis_e)
        index[e] = {state: i for i, state in enumerate(basis_e)}
    reducers = {e: _DegreeReducer(sizes[e]) for e in range(0, N + 1)}
    for X in generators:
        d = _degree_drop(X)
        lo = max(0, d)
        hi = min(M, N + d)
        for deg_v in range(lo, hi + 1):
            e = deg_v - d
            red = reducers[e]
            if red.full():
                continue
            for state in graded_basis(deg_v, rank):
                image = apply_quadratic(X, FockVector(rank, {state: 1}))
                if image.is_zero():
                    continue
                row = {index[e][st]: c for st, c in image.terms.items()}
                red.add(row)
                if red.full():
                    break
    return [sizes[e] - reducers[e].rank for e in range(0, N + 1)]


def _degree_drop(X: QuadraticElement) -> int:
    """Degree lost by applying X; relations are homogeneous, so this is a
    single well-defined integer for the generators used here."""
    drops = {d for d in X.quad}
    drops |= {e for e in X.linear.coeffs}
    if len(drops) != 1:
        raise ValueError("generator is not homogeneous")
    return drops.pop()


def _check_truncation(N: int, M: int, W: int):
    if N < 0:
        raise ValueError("top degree N must be nonnegative")
    if N > M:
        raise ValueError("top degree N must not exceed the source cap M")
    if W < M:
        raise ValueError("window W must cover the source cap M")


def coinvariants_A(rank: int, F: FPoint, N: int, M: int, W: int) -> CoinvReport:
    """Dimensions of V / sp_F(H') V up to degree N, truncated at (M, W).

    Single-run reports carry stabilized = False; see stabilize."""
    _check_truncation(N, M, W)
    gens = sp_f_generators(F, W)
    dims = _quotient_dims(gens, rank, N, M)
    return CoinvReport(F.gaps, rank, N, M, W, dims, False, len(gens))


def coinvariants_X(rank: int, F: FPoint, N: int, M: int, W: int) -> CoinvReport:
    """Same quotient with the generator list extended by F itself acting
    through the Heisenberg modes b_-s."""
    _check_truncation(N, M, W)
    gens = sp_f_generators(F, W)
    gens += [b(-s) for s in F.semigroup(W)]
    dims = _quotient_dims(gens, rank, N, M)
    return CoinvReport(F.gaps, rank, N, M, W, dims, False, len(gens))


def default_schedule(N: int, M: int, W: int):
    """Three truncation sizes ending at the checked (M, W); the earlier
    steps are clamped up to stay legal."""
    _check_truncation(N, M, W)
    steps = []
    for k in (4, 2, 0):
        m = max(N, M - k)
        w = max(m, W - k)
        if steps and not (m >= steps[-1][0] and w >= steps[-1][1]
                          and (m, w) != steps[-1]):
            continue
        steps.append((m, w))
    return steps


def stabilize(run, schedule) -> CoinvReport:
    """Repeat run(M, W) over the schedule; the report is stabilized once two
    consecutive steps agree on every graded dimension."""
    steps = list(schedule)
    if not steps:
        raise ValueError("empty schedule")
    for (m1, w1), (m2, w2) in zip(steps, steps[1:]):
        if not (m2 >= m1 and w2 >= w1 and (m2, w2) != (m1, w1)):
            raise ValueError("schedule must be strictly increasing")
    prev = None
    for m, w in steps:
        rep = run(m, w)
        if prev is not None and rep.dims == prev.dims:
            rep.stabilized = True
            return rep
        prev = rep
    return prev
