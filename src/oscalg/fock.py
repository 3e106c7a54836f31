"""Fock-space representations of the quadratic algebra.

States of the rank-r space are r-tuples of partitions; b_{-m} appends a
part m to a channel, b_m removes one with weight m times its multiplicity,
so [b_m, b_n] = m delta_{m+n,0} matches the symplectic form with no hidden
rescaling.  Quadratic elements act per anti-diagonal by the finitely many
terms whose annihilation indices occur as parts, which keeps every
computation finite and exact.

apply_quadratic returns the image of a vector as a FockVector.  iter_terms
yields the same terms one at a time in print order, degree ascending and
then state descending (FockVector.terms_sorted's order), so a caller that
only prints the image, like the CLI's fock-apply, holds none of it: the run
of floor(|d|/2) images where both indices of a diagonal create comes out in
that order and stays lazy, and the few other images are sorted and merged
into it.  Both read the images of each state from one function, _images.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import merge
from math import factorial
from numbers import Rational
from operator import index

from .laurent import parse_int, rat, ratio, signed_sum_chunks
from .quadops import QuadraticElement, b, tau


# ---------------------------------------------------------------------------
# states and vectors
# ---------------------------------------------------------------------------

def _canon_partition(parts) -> tuple:
    parts = tuple(sorted(map(index, parts), reverse=True))
    if parts and parts[-1] < 1:
        raise ValueError("partition parts must be positive integers")
    return parts

def canon_state(state) -> tuple:
    """Canonical basis label: a tuple of weakly decreasing partitions."""
    return tuple(_canon_partition(lam) for lam in state)

def state_degree(state) -> int:
    return sum(sum(lam) for lam in state)

class FockVector:
    """Finite rational combination of partition-tuple basis states, with
    coefficients canonical as laurent.rat makes them.

    The constructor expects canonical keys: each state is a tuple of `rank`
    weakly decreasing partitions, as canon_state returns it.  The actions in
    this module only emit such states; labels from outside enter through
    basis or parse_label, which canonicalize and check them.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = index(rank)
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        clean = {}
        if terms:
            for state, c in terms.items():
                c = rat(c)
                if c:
                    clean[state] = c
        self.terms = clean

    @classmethod
    def vacuum(cls, rank: int = 1) -> "FockVector":
        return cls(rank, {tuple(() for _ in range(rank)): 1})

    @classmethod
    def basis(cls, state, coeff=1) -> "FockVector":
        state = canon_state(state)
        return cls(len(state), {state: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for state, c in other.terms.items():
            out[state] = out.get(state, 0) + c
        return FockVector(self.rank, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, s) -> "FockVector":
        s = rat(s)
        return FockVector(self.rank, {st: s * c for st, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, FockVector) and self.rank == other.rank
                and self.terms == other.terms)

    def terms_sorted(self):
        """Terms in print order: degree, then the graded_basis order."""
        keys = sorted(self.terms, reverse=True)
        keys.sort(key=state_degree)
        return [(st, self.terms[st]) for st in keys]

    def __repr__(self):
        return f"FockVector({format_vector(self)!r})"


# ---------------------------------------------------------------------------
# mode and quadratic actions
# ---------------------------------------------------------------------------

def _mode_on_partition(n: int, lam: tuple):
    """Images of b_n on one partition: list of (new partition, integer
    coefficient).  A created part is inserted in order, so images stay
    canonical."""
    if n < 0:
        return [(tuple(sorted(lam + (-n,), reverse=True)), 1)]
    mult = lam.count(n)
    if not mult:
        return []
    out = list(lam)
    out.remove(n)
    return [(tuple(out), n * mult)]

def apply_mode(n: int, channel: int, v: FockVector) -> FockVector:
    """Action of b_n on the given channel (1-based)."""
    return apply_quadratic(b(n), v, channel)

def _pair_on_partition(a: int, bb: int, lam: tuple):
    """Images of :b_a b_b: on one partition, a <= b: b_b acts first."""
    return [(lam3, w * w2) for lam2, w in _mode_on_partition(bb, lam)
            for lam3, w2 in _mode_on_partition(a, lam2)]

def _created_images(series, state, ch: int):
    """Images of one diagonal series on a basis state with both indices
    creating, made lazily: a in [d+1, d//2] puts in the parts -a >= a - d,
    with no per-index polynomial evaluation when the generic part is
    constant, and only at the exceptions in range when it is zero.  They
    come out strictly in print order (state descending): from a to a + 1
    one unit moves from the larger created part to the smaller, which
    lowers the partition in dominance order and so lexicographically.
    Empty unless d < -1."""
    d = series.d
    lam = state[ch]
    head, tail = state[:ch], state[ch + 1:]
    poly, exc = series.poly, series.exc
    const = poly.constant_value() if poly.is_constant() else None
    run = (sorted(a for a in exc if d < a <= d // 2) if poly.is_zero()
           else range(d + 1, d // 2 + 1))
    # neg, the negated parts, is ascending for bisect
    neg = [-p for p in lam]
    for a in run:
        c = exc.get(a)
        if c is None:
            c = rat(poly(a)) if const is None else const
        if c:
            if 2 * a == d:
                c = ratio(c, 2)
            i = bisect_left(neg, a)
            j = bisect_left(neg, d - a, i)
            lam2 = lam[:i] + (-a,) + lam[i:j] + (a - d,) + lam[j:]
            yield head + (lam2,) + tail, c

def _annihilating_images(series, state, ch: int) -> list:
    """Images of one diagonal series on a basis state in which an index
    annihilates a part of the channel: one step per part present, in no
    particular order."""
    d = series.d
    lam = state[ch]
    moves = []
    parts = sorted(set(lam))
    # both indices annihilating: parts a <= d - a with d - a also a part
    for a in parts:
        c = series.coeff(a) if 2 * a <= d and d - a in lam else 0
        if c:
            if 2 * a == d:
                c = ratio(c, 2)
            moves.append((a, d - a, c))
    # one of each: the annihilation index must be a part
    for bb in parts:
        if bb <= d:
            continue
        c = series.coeff(d - bb)
        if c:
            moves.append((d - bb, bb, c))
    head, tail = state[:ch], state[ch + 1:]
    out = []
    for a, bb, c in moves:
        for lam2, w in _pair_on_partition(a, bb, lam):
            out.append((head + (lam2,) + tail, c * w))
    return out

def _images(A: QuadraticElement, state, ch: int):
    """The images of A on one basis state, as (shift, terms, ordered)
    triples: each term (state, coefficient) lies `shift` degrees below
    `state`.  The central part, the modes and the annihilating images of
    each diagonal come as lists in no particular order; the both-creating
    run of a diagonal with d < -1 comes lazily and in print order, with
    `ordered` true."""
    if A.central:
        yield 0, [(state, A.central)], False
    for e, ce in A.linear.coeffs.items():
        yield e, [(state[:ch] + (lam2,) + state[ch + 1:], ce * w)
                  for lam2, w in _mode_on_partition(e, state[ch])], False
    for d, series in A.quad.items():
        yield d, _annihilating_images(series, state, ch), False
        if d < -1:
            yield d, _created_images(series, state, ch), True

def apply_quadratic(A: QuadraticElement, v: FockVector,
                    channel: int = 1) -> FockVector:
    """Action of a quadratic element on one channel (1-based)."""
    if not 1 <= channel <= v.rank:
        raise ValueError("channel out of range")
    ch = channel - 1
    out = {}
    for state, c in v.terms.items():
        for _, images, _ in _images(A, state, ch):
            if c != 1:
                images = [(st2, c * w) for st2, w in images]
            for st2, w in images:
                got = out.get(st2)
                out[st2] = w if got is None else got + w
    return FockVector(v.rank, out)

def iter_terms(A: QuadraticElement, v: FockVector, channel: int = 1):
    """The terms of A v on one channel (1-based) in print order, as
    (state, coefficient) pairs with nonzero canonical coefficients: the
    list apply_quadratic(A, v, channel).terms_sorted() gives, made one at a
    time with no dict of the image.

    Every image is made before this returns except those of the
    both-creating runs, which _created_images yields lazily and already in
    print order; so an error is raised before the first term.  The terms
    of one target degree are a heapq.merge of those runs and the sorted
    other images, with the coefficients of equal states added."""
    if not 1 <= channel <= v.rank:
        raise ValueError("channel out of range")
    ch = channel - 1
    runs, others = {}, {}      # target degree -> lazy runs / other images
    for state, c in v.terms.items():
        deg = state_degree(state)
        for shift, images, ordered in _images(A, state, ch):
            if ordered:
                runs.setdefault(deg - shift, []).append(
                    images if c == 1 else _times(c, images))
            else:
                others.setdefault(deg - shift, []).extend(
                    (st2, rat(c * w)) for st2, w in images)
    return _merged(runs, others)

def _times(c, terms):
    """The terms with each coefficient multiplied by c."""
    for st, w in terms:
        yield st, rat(c * w)

def _merged(runs, others):
    """One term per state, degree by degree: the runs and the sorted other
    images of a degree merged by state descending, equal states added and
    zero sums dropped."""
    for deg in sorted(runs.keys() | others.keys()):
        streams = runs.get(deg, [])
        if deg in others:
            streams.append(sorted(others[deg], reverse=True))
        held = None
        for term in merge(*streams, reverse=True):
            if held is not None:
                if term[0] == held[0]:
                    held = (held[0], rat(held[1] + term[1]))
                    continue
                if held[1]:
                    yield held
            held = term
        if held is not None and held[1]:
            yield held

def virasoro(p: int, v: FockVector, channel: int = 1) -> FockVector:
    """L_p as the normal-ordered quadratic tau(p) on one channel."""
    return apply_quadratic(tau(p), v, channel)

def virasoro_all(p: int, v: FockVector) -> FockVector:
    """L_p summed over every channel of the tensor power."""
    out = FockVector(v.rank)
    for channel in range(1, v.rank + 1):
        out = out + apply_quadratic(tau(p), v, channel)
    return out


# ---------------------------------------------------------------------------
# central charge and exponentials
# ---------------------------------------------------------------------------

def measure_central_charge(p: int, vectors, apply_L=None) -> Rational:
    """Solve ([L_p, L_-p] - 2p L_0) v = (c/12)(p^3 - p) v for c.

    apply_L(q, v) defaults to the distinguished-channel virasoro; pass
    virasoro_all for a diagonal tensor action.  Inconsistency across the
    supplied vectors is an error naming a witnessing vector.
    """
    if p in (-1, 0, 1):
        raise ValueError("p must satisfy p^3 - p != 0")
    if apply_L is None:
        apply_L = virasoro
    denom = ratio(p ** 3 - p, 12)
    c_found = None
    for v in vectors:
        if v.is_zero():
            raise ValueError("test vectors must be nonzero")
        w = (apply_L(p, apply_L(-p, v)) - apply_L(-p, apply_L(p, v))
             - apply_L(0, v).scale(2 * p))
        state, coeff = v.terms_sorted()[0]
        mu = ratio(w.terms.get(state, 0), coeff)
        if w != v.scale(mu):
            raise ValueError(f"not an eigenvector of [L_p, L_-p] - 2p L_0: "
                             f"{format_vector(v)}")
        c = ratio(mu, denom)
        if c_found is None:
            c_found = c
        elif c != c_found:
            raise ValueError(f"inconsistent central charge: {c} != {c_found} "
                             f"on {format_vector(v)}")
    if c_found is None:
        raise ValueError("no test vectors supplied")
    return c_found

def exp_apply(A: QuadraticElement, v: FockVector, group_scalar=None,
              channel: int = 1) -> FockVector:
    """exp(A) v for strictly degree-lowering A, or the eigenvalue
    exponential a^mu for a pure number-operator A and a group scalar a."""
    if A.central:
        raise ValueError("a central summand would exponentiate to e^c")
    offsets = set(A.quad)
    if any(d < 0 for d in offsets):
        raise ValueError("degree-raising diagonal: exp is not locally nilpotent")
    if 0 in offsets:
        if offsets != {0} or not A.linear.is_zero():
            raise ValueError("number-operator exponential requires a pure "
                             "offset-0 quadratic part")
        if group_scalar is None:
            raise ValueError("number-operator exponential needs a group scalar")
        a = rat(group_scalar)
        out = {}
        for state, c in v.terms.items():
            image = apply_quadratic(A, FockVector(v.rank, {state: 1}), channel)
            mu = image.terms.get(state, 0)
            if mu.denominator != 1:
                raise ValueError(f"non-integral eigenvalue {mu} on "
                                 f"{format_label(state)}")
            out[state] = c * Fraction(a) ** mu
        return FockVector(v.rank, out)
    if any(e < 0 for e in A.linear.coeffs):
        raise ValueError("creation mode: exp is not locally nilpotent")
    acc = v
    w = v
    k = 1
    while True:
        w = apply_quadratic(A, w, channel)
        if w.is_zero():
            return acc
        acc = acc + w.scale(Fraction(1, factorial(k)))
        k += 1


# ---------------------------------------------------------------------------
# graded bases and labels
# ---------------------------------------------------------------------------

def _partitions(n: int, maxpart: int | None = None):
    """Partitions of n in descending lexicographic order."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest

def graded_basis(d: int, r: int):
    """All rank-r basis states of total degree d, leading channels heaviest
    first and partitions in descending lexicographic order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if r == 1:
        return [(lam,) for lam in _partitions(d)]
    states = []
    _extend_basis(states, [list(_partitions(k)) for k in range(d + 1)], r, (), d)
    return states

def _extend_basis(states, parts, r: int, head: tuple, e: int):
    """Append to states, in graded_basis order, every rank-r state that
    opens with the channels head and holds degree e in the others; parts[k]
    lists the partitions of k.  Only a channel that holds a part recurses,
    so the depth is at most e and each state is built once."""
    while e and len(head) < r - 1:
        for k in range(e, 0, -1):
            for lam in parts[k]:
                _extend_basis(states, parts, r, head + (lam,), e - k)
        head += ((),)
    if e:
        states.extend([head + (lam,) for lam in parts[e]])
    else:
        states.append(head + ((),) * (r - len(head)))

def format_partition(lam) -> str:
    return "[" + ",".join(map(str, lam)) + "]"

def format_label(state) -> str:
    if len(state) == 1:
        return format_partition(state[0])
    return "(" + "|".join(format_partition(lam) for lam in state) + ")"

def parse_partition(text: str) -> tuple:
    text = text.strip()
    if text == "-":
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad partition {text!r}: expected [..] or -")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    parts = [parse_int(p, f"label {text!r}") for p in inner.split(",")]
    for p in parts:
        if p < 1:
            raise ValueError(f"label {text!r}: part {p} is not positive")
    return _canon_partition(parts)

def parse_label(text: str) -> tuple:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return tuple(parse_partition(p) for p in text[1:-1].split("|"))
    return (parse_partition(text),)

def vector_chunks(terms):
    """The text of a sum of (state, coefficient) terms in print order, in
    pieces: one per term, or "0" for the empty sum."""
    return signed_sum_chunks(((c, format_label(st)) for st, c in terms), "0")

def format_vector(v: FockVector) -> str:
    return "".join(vector_chunks(v.terms_sorted()))
