"""Coinvariants of Fock spaces at points given by numerical-semigroup data.

A point F is the span of t^-s for s outside a finite gap set.  The
symplectic stabilizer meets S^2(H') in the span of products with one
factor in F.  Each product is a monomial in the Heisenberg modes, so it
sends a basis state of the Fock space to a multiple of one basis state;
truncating the family to a window and counting the basis states its image
hits gives graded dimensions of the quotient, reported together with a
stabilization flag from repeated runs at growing truncation sizes.
"""

from __future__ import annotations

import json

from .fock import FockVector, apply_quadratic, graded_basis
from .laurent import LaurentPoly
from .quadops import QuadraticElement, b, maps_into, pair


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
    return maps_into(A, fperp_basis(F, W), lambda e: e < 0 and -e not in F.gaps)


def sp_f_generators(F: FPoint, W: int):
    """The window family :b_-s b_m: with s in S, 1 <= s <= W, m in [-W, W]
    nonzero.  Spans the S^2(H') part of the stabilizer on the window."""
    return [pair(-s, m) for s in F.semigroup(W) for m in range(-W, W + 1) if m]


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


# Refuse a truncation whose states in degrees <= M hold more partition slots
# (states times rank) than this; memory grows with the slots.
MAX_STATE_SLOTS = 1_000_000


def check_state_space(rank: int, M: int):
    """Raise ValueError if the rank-r states of degree <= M hold more than
    MAX_STATE_SLOTS slots.  Counts only: the number a(n) of r-tuples of
    partitions of n, the r-fold convolution of partition counts, satisfies
    n a(n) = r sum_k sigma(k) a(n-k); counting stops at the first degree
    past the limit."""
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    sigma = [0]       # sigma[k]: sum of the divisors of k
    counts = [1]      # counts[n]: rank-r states of degree n
    slots = rank
    n = 0
    while slots <= MAX_STATE_SLOTS and n < M:
        n += 1
        sigma.append(sum(k for k in range(1, n + 1) if n % k == 0))
        counts.append(rank * sum(sigma[k] * counts[n - k]
                                 for k in range(1, n + 1)) // n)
        slots += rank * counts[n]
    if slots > MAX_STATE_SLOTS:
        raise ValueError(f"state space too large: {slots} tuple slots "
                         f"(states x rank) in degrees <= {n}, limit "
                         f"{MAX_STATE_SLOTS}")


def _target(st, s: int, m: int):
    """The one state that :b_-s b_m: (b_-s for m = 0) sends st to, up to a
    nonzero factor: channel 1 loses a part m if m > 0, gains the part -m
    if m < 0, and gains the part s.  For m > 0, st holds a part m."""
    lam = list(st[0])
    if m > 0:
        lam.remove(m)
    elif m < 0:
        lam.append(-m)
    lam.append(s)
    lam.sort(reverse=True)
    return (tuple(lam),) + st[1:]


class CoinvReduction:
    """The coinvariant computation of one job, extended across its schedule.

    Every generator is a monomial :b_-s b_m: or b_-s, so it sends a basis
    state to zero or to a nonzero multiple of one basis state.  The image
    of the generators in a degree is therefore spanned by the basis states
    they hit, and the quotient's dimension there is the number of states
    not hit.  _target names the state a generator sends a source to, and
    the generator is applied only where that target is not hit yet; its
    image must then be exactly the target.  Pass one instance to the
    coinvariants_A / coinvariants_X calls of a job whose (M, W) grow: the
    generator windows and source caps are nested, so each call applies
    only the generators and source degrees that earlier calls did not.  Each degree's basis is built once, with an
    index from each part to the states holding it in channel 1."""

    __slots__ = ("job", "M", "W", "bases", "hits", "applied")

    def __init__(self):
        self.job = None       # (rank, gaps, N, side) of the first call
        self.M = self.W = -1
        self.bases = {}       # degree -> (states, {part: states holding it})
        self.hits = []        # target degree 0..N -> set of states hit
        self.applied = {}     # generator key -> highest source degree applied

    def _basis(self, deg: int, rank: int):
        basis = self.bases.get(deg)
        if basis is None:
            states = graded_basis(deg, rank)
            holders = {}
            for st in states:
                for part in set(st[0]):
                    holders.setdefault(part, []).append(st)
            basis = self.bases[deg] = (states, holders)
        return basis

    def _bind(self, side: str, rank: int, F: FPoint, N: int, M: int, W: int):
        job = (rank, F.gaps, N, side)
        if self.job is None:
            self.job = job
            self.hits = [set() for _ in range(N + 1)]
        elif job != self.job:
            raise ValueError("coinvariant reduction belongs to another job: "
                             "rank, N, gaps and side must match")
        if M < self.M or W < self.W:
            raise ValueError("coinvariant reduction cannot shrink (M, W)")
        self.M, self.W = M, W

    def extend(self, side: str, rank: int, F: FPoint, N: int, M: int, W: int):
        """Apply the generators and source degrees not yet applied; return
        the number of generators on the window and the graded dims.

        A generator keyed (s, m) creates a part s and lowers the degree by
        m - s (m = 0 stands for side X's b_-s); for m > 0 it kills every
        state whose channel 1 has no part m.  A target of degree <= N holds
        no part s > N, and a source of degree <= M no part m > M, so only
        keys with s <= N, m - s >= -N and m <= M can act, and only those
        are visited."""
        self._bind(side, rank, F, N, M, W)
        S = F.semigroup(N)
        keys = [(s, m) for s in S for m in range(s - N, M + 1) if m]
        if side == "X":
            keys += [(s, 0) for s in S]
        for key in keys:
            s, m = key
            d = m - s
            lo = max(0, d, self.applied.get(key, -1) + 1)
            hi = min(M, N + d)
            if lo > hi:
                continue
            self.applied[key] = hi
            X = pair(-s, m) if m else b(-s)
            for deg in range(lo, hi + 1):
                hit = self.hits[deg - d]
                dim = len(self._basis(deg - d, rank)[0])
                if len(hit) == dim:
                    continue
                states, holders = self._basis(deg, rank)
                for st in (holders.get(m, ()) if m > 0 else states):
                    target = _target(st, s, m)
                    if target in hit:
                        continue
                    image = apply_quadratic(X, FockVector(rank, {st: 1}))
                    if list(image.terms) != [target]:
                        raise RuntimeError(f"image of {X} on {st} is not one "
                                           f"basis state: expected exactly {target}")
                    hit.add(target)
                    if len(hit) == dim:
                        break
        dims = [len(self._basis(e, rank)[0]) - len(hit)
                for e, hit in enumerate(self.hits)]
        in_window = W - sum(1 for g in F.gaps if g <= W)
        return in_window * (2 * W + (side == "X")), dims


def _check_truncation(N: int, M: int, W: int):
    if N < 0:
        raise ValueError("top degree N must be nonnegative")
    if N > M:
        raise ValueError("top degree N must not exceed the source cap M")
    if W < M:
        raise ValueError("window W must cover the source cap M")


def _coinvariants(side: str, rank: int, F: FPoint, N: int, M: int, W: int,
                  reduction) -> CoinvReport:
    _check_truncation(N, M, W)
    check_state_space(rank, M)
    if reduction is None:
        reduction = CoinvReduction()
    generators, dims = reduction.extend(side, rank, F, N, M, W)
    return CoinvReport(F.gaps, rank, N, M, W, dims, False, generators)


def coinvariants_A(rank: int, F: FPoint, N: int, M: int, W: int,
                   reduction: CoinvReduction | None = None) -> CoinvReport:
    """Dimensions of V / sp_F(H') V up to degree N, truncated at (M, W).

    The generators act on channel 1 only, so at rank r the quotient is the
    rank-1 quotient times the Fock space of the other r - 1 channels: the
    rank-r dims are the rank-1 dims convolved r - 1 times with partition
    counts, dims_r[n] = sum_j c(j) dims_1[n - j], where c(j) counts the
    (r-1)-tuples of partitions of total size j and dims_1[n - j] is taken
    at source cap M - j.

    Pass one CoinvReduction to the calls of a schedule to extend a single
    reduction from step to step.  Single-run reports carry
    stabilized = False; see stabilize."""
    return _coinvariants("A", rank, F, N, M, W, reduction)


def coinvariants_X(rank: int, F: FPoint, N: int, M: int, W: int,
                   reduction: CoinvReduction | None = None) -> CoinvReport:
    """Same quotient with the generator list extended by F itself acting
    through the Heisenberg modes b_-s."""
    return _coinvariants("X", rank, F, N, M, W, reduction)


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
