"""Fock-space representations of the quadratic algebra.

States of the rank-r space are r-tuples of partitions; b_{-m} appends a
part m to a channel, b_m removes one with weight m times its multiplicity,
so [b_m, b_n] = m delta_{m+n,0} matches the symplectic form with no hidden
rescaling.  Quadratic elements act per anti-diagonal by the finitely many
terms whose annihilation indices occur as parts, which keeps every
computation finite and exact.

apply_quadratic returns the image of a vector as a FockVector; a mode b_n
acts as apply_quadratic(b(n), v) and L_p as virasoro(p, v).  iter_terms
yields the image of one basis state on channel 1 term by term in print
order, degree ascending and then state descending (terms_sorted's order),
as (state, coefficient); term_labels yields the same terms as
(coefficient, label), the text that the CLI's fock-apply prints.  Neither
holds the image: the run of floor(|d|/2) images where both indices of a
diagonal create comes out in print order and stays lazy, as (a,
coefficient) pairs, and the few other images are summed, sorted and merged
into it by the one merge, _merged, which compares run states with them only
while one is pending.  term_labels cuts a run's labels from cached text:
between two parts of the channel the created parts -a and a - d go in at
fixed places, so only their digits change from label to label.  All of
these read a state's images from _images.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import factorial
from numbers import Rational
from operator import index, neg

from .laurent import format_signed_sum, parse_int, rat, ratio
from .quadops import QuadraticElement, tau


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
    def basis(cls, state) -> "FockVector":
        state = canon_state(state)
        return cls(len(state), {state: 1})

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

def _pair_on_partition(a: int, bb: int, lam: tuple):
    """Images of :b_a b_b: on one partition, a <= b: b_b acts first."""
    return [(lam3, w * w2) for lam2, w in _mode_on_partition(bb, lam)
            for lam3, w2 in _mode_on_partition(a, lam2)]

def _created_run(series):
    """The both-creating run of one diagonal series: (a, coefficient) for
    the a in [d+1, d//2] whose pair puts the parts -a >= a - d into the
    channel, made lazily, with no per-index polynomial evaluation when the
    generic part is constant, and only at the exceptions in range when it
    is zero.  Their states (_run_state) come out strictly in print order,
    state descending: from a to a + 1 one unit moves from the larger
    created part to the smaller, which lowers the partition in dominance
    order and so lexicographically.  Empty unless d < -1."""
    d = series.d
    poly, exc = series.poly, series.exc
    const = poly.constant_value() if poly.is_constant() else None
    run = (sorted(a for a in exc if d < a <= d // 2) if poly.is_zero()
           else range(d + 1, d // 2 + 1))
    for a in run:
        c = exc.get(a)
        if c is None:
            c = rat(poly(a)) if const is None else const
        if c:
            if 2 * a == d:
                c = ratio(c, 2)
            yield a, c

def _run_state(state, ch: int, d: int, a: int) -> tuple:
    """The state that the run's pair at a makes from state: the parts
    -a >= a - d put into channel ch in order."""
    lam = state[ch]
    i = bisect_left(lam, a, key=neg)            # parts above -a
    j = bisect_left(lam, d - a, i, key=neg)     # parts above a - d
    lam2 = lam[:i] + (-a,) + lam[i:j] + (a - d,) + lam[j:]
    return state[:ch] + (lam2,) + state[ch + 1:]

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
    """The images of A on one basis state, as (shift, terms, run) triples:
    each image lies `shift` degrees below `state`.  The central part, the
    modes and the annihilating images of each diagonal come as lists of
    (state, coefficient) in no particular order; the both-creating run of a
    diagonal with d < -1 comes as _created_run's lazy (a, coefficient)
    pairs, with `run` true, and _run_state makes the state of each."""
    if A.central:
        yield 0, [(state, A.central)], False
    for e, ce in A.linear.coeffs.items():
        yield e, [(state[:ch] + (lam2,) + state[ch + 1:], ce * w)
                  for lam2, w in _mode_on_partition(e, state[ch])], False
    for d, series in A.quad.items():
        yield d, _annihilating_images(series, state, ch), False
        if d < -1:
            yield d, _created_run(series), True

def apply_quadratic(A: QuadraticElement, v: FockVector,
                    channel: int = 1) -> FockVector:
    """Action of a quadratic element on one channel (1-based)."""
    if not 1 <= channel <= v.rank:
        raise ValueError("channel out of range")
    ch = channel - 1
    out = {}
    for state, c in v.terms.items():
        for d, images, run in _images(A, state, ch):
            if run:
                images = ((_run_state(state, ch, d, a), w) for a, w in images)
            if c != 1:
                images = [(st2, c * w) for st2, w in images]
            for st2, w in images:
                got = out.get(st2)
                out[st2] = w if got is None else got + w
    return FockVector(v.rank, out)

def iter_terms(A: QuadraticElement, state):
    """The terms of A on channel 1 of one basis state, in print order and
    with nonzero canonical coefficients: apply_quadratic(A,
    FockVector.basis(state)).terms_sorted(), made one at a time as
    (state, coefficient).  The state is canonicalized and checked by basis,
    and only the both-creating runs are lazy, so an error is raised at the
    call."""
    state, runs, others = _by_degree(A, state)
    return _merged(state, runs, others, _state_term, _run_terms)

def term_labels(A: QuadraticElement, state):
    """iter_terms(A, state) as (coefficient, format_label(state)) pairs,
    the text that fock-apply prints; a run's labels are cut from cached
    text (_run_labels)."""
    state, runs, others = _by_degree(A, state)
    return _merged(state, runs, others, _label_term, _run_labels)

def _by_degree(A: QuadraticElement, state):
    """The canonical state and the images of A on its channel 1 by target
    degree: the run of each degree as (d, pairs) and the other images
    summed in a dict.

    Each diagonal has its own offset, so a target degree holds at most one
    run.  No other image of that degree shares a state with it: a run adds
    two parts to the channel, any other image at most one."""
    (state,) = FockVector.basis(state).terms
    deg = state_degree(state)
    runs, others = {}, {}
    for shift, images, run in _images(A, state, 0):
        if run:
            runs[deg - shift] = shift, images
        else:
            sums = others.setdefault(deg - shift, {})
            for st2, w in images:
                sums[st2] = sums.get(st2, 0) + w
    return state, runs, others

def _merged(state, runs, others, term, run_terms):
    """Degree by degree, each run merged with the nonzero sums, sorted, in
    print order: term(state, coefficient) renders one image and
    run_terms(state, d, pairs) the rest of a run.  A run's states are
    compared with the sums only while one of them is pending."""
    for deg in sorted(runs.keys() | others.keys()):
        rest = sorted(((st, rat(c)) for st, c in others.get(deg, {}).items()
                       if c), reverse=True)
        k = 0
        if deg in runs:
            d, pairs = runs[deg]
            pairs = iter(pairs)
            for a, c in pairs:
                st = _run_state(state, 0, d, a)
                while k < len(rest) and rest[k][0] > st:
                    yield term(*rest[k])
                    k += 1
                yield term(st, c)
                if k == len(rest):
                    break
            yield from run_terms(state, d, pairs)
        for st, c in rest[k:]:
            yield term(st, c)

def _state_term(st, c):
    return st, c

def _label_term(st, c):
    return c, format_label(st)

def _run_terms(state, d: int, pairs):
    return ((_run_state(state, 0, d, a), c) for a, c in pairs)

def _run_labels(state, d: int, pairs):
    """(coefficient, label) for the (a, coefficient) pairs of a run on
    channel 1 of state.  Between two parts of the channel the insertion
    points i of -a and j of a - d stay fixed, so there each label is
    pre + str(-a) + mid + str(a - d) + post, three strings cut from the
    state's text once per (i, j); that pair changes at most len(lam) + 1
    times in a run."""
    lam = state[0]
    if len(state) == 1:
        left, right = "[", "]"
    else:
        left = "(["
        right = "]|" + "|".join(map(format_partition, state[1:])) + ")"
    end = d             # the a at which (i, j) next changes
    for a, c in pairs:
        if a >= end:
            i = bisect_left(lam, a, key=neg)
            j = bisect_left(lam, d - a, i, key=neg)
            # i grows once a >= 1 - lam[i], j falls once a >= lam[j-1] + d;
            # every a of the run is below 0
            end = min(1 - lam[i] if i < len(lam) else 0,
                      lam[j - 1] + d if j else 0)
            pre = left + "".join(f"{p}," for p in lam[:i])
            mid = "".join(f",{p}" for p in lam[i:j]) + ","
            post = "".join(f",{p}" for p in lam[j:]) + right
        yield c, f"{pre}{-a}{mid}{a - d}{post}"

def virasoro(p: int, v: FockVector) -> FockVector:
    """L_p as the normal-ordered quadratic tau(p) on channel 1."""
    return apply_quadratic(tau(p), v)

def virasoro_all(p: int, v: FockVector) -> FockVector:
    """L_p summed over every channel of the tensor power."""
    out = FockVector(v.rank)
    for channel in range(1, v.rank + 1):
        out = out + apply_quadratic(tau(p), v, channel)
    return out


# ---------------------------------------------------------------------------
# central charge and exponentials
# ---------------------------------------------------------------------------

def measure_central_charge(p: int, vectors, apply_L=virasoro) -> Rational:
    """Solve ([L_p, L_-p] - 2p L_0) v = (c/12)(p^3 - p) v for c.

    apply_L(q, v) defaults to virasoro, on channel 1; pass
    virasoro_all for a diagonal tensor action.  Inconsistency across the
    supplied vectors is an error naming a witnessing vector.
    """
    if p in (-1, 0, 1):
        raise ValueError("p must satisfy p^3 - p != 0")
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
            if mu < 0 and not a:
                raise ValueError(f"negative eigenvalue {mu} on "
                                 f"{format_label(state)} with group scalar 0")
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

def format_vector(v: FockVector) -> str:
    return format_signed_sum(((c, format_label(st))
                              for st, c in v.terms_sorted()), "0")
