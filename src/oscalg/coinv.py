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
from .laurent import LaurentPoly, as_int
from .quadops import QuadraticElement, b, maps_into, pair


class FPoint:
    """S = positive integers minus a finite gap set; F = span{t^-s : s in S}."""

    __slots__ = ("gaps",)

    def __init__(self, gaps=()):
        gaps = frozenset(as_int(g, "gaps") for g in gaps)
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
    out = [LaurentPoly.term(1, -m) for m in range(1, W + 1)]
    out += [LaurentPoly.term(1, m) for m in sorted(F.gaps) if m <= W]
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
    rank, M = as_int(rank, "rank"), as_int(M, "M")
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


def default_schedule(N: int, M: int, W: int):
    """Three truncation sizes ending at the checked (M, W); the earlier
    steps are clamped up to stay legal, and each step is strictly larger
    than the one before."""
    N, M, W = as_int(N, "N"), as_int(M, "M"), as_int(W, "W")
    if N < 0:
        raise ValueError("top degree N must be nonnegative")
    if N > M:
        raise ValueError("top degree N must not exceed the source cap M")
    if W < M:
        raise ValueError("window W must cover the source cap M")
    steps = []
    for k in (4, 2, 0):
        m = max(N, M - k)
        w = max(m, W - k)
        if steps and not (m >= steps[-1][0] and w >= steps[-1][1]
                          and (m, w) != steps[-1]):
            continue
        steps.append((m, w))
    return steps


def _coinvariants(side: str, rank: int, F: FPoint, N: int, M: int,
                  W: int) -> CoinvReport:
    """One reduction extended over default_schedule(N, M, W), stopping at
    the first step whose graded dims equal the previous step's.

    Every generator is a monomial :b_-s b_m: or b_-s, so it sends a basis
    state to zero or to a nonzero multiple of one basis state.  The image
    of the generators in a degree is therefore spanned by the basis states
    they hit, and the quotient's dimension there is the number of states
    not hit.  _target names the state a generator sends a source to, and
    the generator is applied only where that target is not hit yet; its
    image must then be exactly the target.  The generator windows and
    source caps of the steps are nested, so each step applies only the
    generators and source degrees that earlier steps did not.  Each
    degree's basis is built once, with an index from each part to the
    states holding it in channel 1.

    A generator keyed (s, m) creates a part s and lowers the degree by
    m - s (m = 0 stands for side X's b_-s); for m > 0 it kills every state
    whose channel 1 has no part m.  A target of degree <= N holds no part
    s > N, and a source of degree <= M no part m > M, so only keys with
    s <= N, m - s >= -N and m <= M can act, and only those are visited."""
    rank, N = as_int(rank, "rank"), as_int(N, "N")
    steps = default_schedule(N, M, W)
    check_state_space(rank, M)
    bases = {}        # degree -> (states, {part: states holding it})
    hits = [set() for _ in range(N + 1)]   # target degree -> states hit
    applied = {}      # generator key -> highest source degree applied

    def basis(deg: int):
        got = bases.get(deg)
        if got is None:
            states = graded_basis(deg, rank)
            holders = {}
            for st in states:
                for part in set(st[0]):
                    holders.setdefault(part, []).append(st)
            got = bases[deg] = (states, holders)
        return got

    S = F.semigroup(N)
    prev = None
    for M, W in steps:
        keys = [(s, m) for s in S for m in range(s - N, M + 1) if m]
        if side == "X":
            keys += [(s, 0) for s in S]
        for key in keys:
            s, m = key
            d = m - s
            lo = max(0, d, applied.get(key, -1) + 1)
            hi = min(M, N + d)
            if lo > hi:
                continue
            applied[key] = hi
            X = pair(-s, m) if m else b(-s)
            for deg in range(lo, hi + 1):
                hit = hits[deg - d]
                dim = len(basis(deg - d)[0])
                if len(hit) == dim:
                    continue
                states, holders = basis(deg)
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
        dims = [len(basis(e)[0]) - len(hit) for e, hit in enumerate(hits)]
        stabilized = dims == prev
        if stabilized:
            break
        prev = dims
    in_window = W - sum(1 for g in F.gaps if g <= W)
    return CoinvReport(F.gaps, rank, N, M, W, dims, stabilized,
                       in_window * (2 * W + (side == "X")))


def coinvariants_A(rank: int, F: FPoint, N: int, M: int, W: int) -> CoinvReport:
    """Dimensions of V / sp_F(H') V up to degree N, truncated at (M, W).

    The truncation runs over default_schedule(N, M, W).  The report is
    stabilized once two consecutive steps agree on every graded dimension,
    and then carries that step's (M, W); otherwise it carries the last
    step's, unstabilized.

    The generators act on channel 1 only, so at rank r the quotient is the
    rank-1 quotient times the Fock space of the other r - 1 channels: the
    rank-r dims are the rank-1 dims convolved r - 1 times with partition
    counts, dims_r[n] = sum_j c(j) dims_1[n - j], where c(j) counts the
    (r-1)-tuples of partitions of total size j and dims_1[n - j] is taken
    at source cap M - j."""
    return _coinvariants("A", rank, F, N, M, W)


def coinvariants_X(rank: int, F: FPoint, N: int, M: int, W: int) -> CoinvReport:
    """Same quotient with the generator list extended by F itself acting
    through the Heisenberg modes b_-s."""
    return _coinvariants("X", rank, F, N, M, W)
