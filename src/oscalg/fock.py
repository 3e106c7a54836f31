"""Fock-space representations of the quadratic algebra.

States of the rank-r space are r-tuples of partitions; b_{-m} appends a
part m to a channel, b_m removes one with weight m times its multiplicity,
so [b_m, b_n] = m delta_{m+n,0} matches the symplectic form with no hidden
rescaling.  Quadratic elements act per anti-diagonal by the finitely many
terms whose annihilation indices occur as parts, which keeps every
computation finite and exact.

apply_quadratic returns the image of a vector as a FockVector; a mode b_n
acts as apply_quadratic(b(n), v) and L_p as virasoro(p, v).  term_labels
yields the image of one basis state on channel 1 in print order, degree
ascending and then state descending (terms_sorted's order), in blocks
(coefficient, labels) of at most BLOCK terms that share a coefficient,
which the CLI's fock-apply prints one piece each.  It holds no image: the
run of floor(|d|/2) images where both indices of a diagonal create stays
lazy, as segments of consecutive indices with one coefficient, cut where
the diagonal stores a deviation from its polynomial, and the few other
images of its degree are summed and sorted, and all come before it.
A run's labels are cut from cached text: between two parts of the channel
the created parts -a and a - d go in at fixed places, and between two
multiples of 1000 only their last three digits change, which a table of
the 1000 three-digit texts supplies, so no label turns an int into text.
apply_quadratic and term_labels read a state's images from _images.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import factorial
from numbers import Rational
from operator import index, neg

from .laurent import as_int, format_signed_sum, parse_int, rat, ratio
from .quadops import QuadraticElement, _wrong_type, tau


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

def _is_canonical(state, rank: int) -> bool:
    """Whether state is as canon_state returns it, with `rank` channels."""
    if type(state) is not tuple or len(state) != rank:
        return False
    for lam in state:
        if type(lam) is not tuple:
            return False
        last = None
        for part in lam:
            if type(part) is not int or part < 1:
                return False
            if last is not None and part > last:
                return False
            last = part
    return True

class FockVector:
    """Finite rational combination of partition-tuple basis states, with
    coefficients canonical as laurent.rat makes them.

    Each key must be a canonical state, `rank` weakly decreasing partitions
    with positive parts as canon_state returns them; any other key is a
    ValueError that names it.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = as_int(rank, "rank")
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        clean = {}
        if terms is not None:
            if not isinstance(terms, dict):
                raise _wrong_type("terms", terms, dict)
            for state, c in terms.items():
                if not _is_canonical(state, self.rank):
                    raise ValueError(f"not a canonical rank-{self.rank} "
                                     f"state: {state!r}")
                c = rat(c)
                if c:
                    clean[state] = c
        self.terms = clean

    @classmethod
    def vacuum(cls, rank: int = 1) -> "FockVector":
        return cls(rank, {((),) * as_int(rank, "rank"): 1})

    @classmethod
    def basis(cls, state) -> "FockVector":
        state = canon_state(state)
        return cls(len(state), {state: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for state, c in other.terms.items():
            out[state] = out.get(state, 0) + c
        return FockVector(self.rank, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
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

def _moved(lam: tuple, gone: int, new) -> tuple:
    """lam with one part `gone` taken out (none when gone is 0) and the
    parts of `new` put in, weakly decreasing: the one partition move of
    the Fock action.  lam is weakly decreasing and holds a part gone."""
    lam = list(lam)
    if gone:
        lam.remove(gone)
    if new:
        lam += new
        lam.sort(reverse=True)
    return tuple(lam)

def _mode_on_partition(n: int, lam: tuple):
    """Images of b_n on one partition: list of (new partition, integer
    coefficient).  _moved takes the part n out or puts the part -n in, so
    images stay canonical."""
    if n < 0:
        return [(_moved(lam, 0, (-n,)), 1)]
    mult = lam.count(n)
    if not mult:
        return []
    return [(_moved(lam, n, ()), n * mult)]

def _pair_on_partition(a: int, bb: int, lam: tuple):
    """Images of :b_a b_b: on one partition, a <= b: b_b acts first."""
    return [(lam3, w * w2) for lam2, w in _mode_on_partition(bb, lam)
            for lam3, w2 in _mode_on_partition(a, lam2)]

def _created_run(series):
    """The both-creating run of one diagonal series, the a in [d+1, d//2]
    whose pair puts the parts -a >= a - d into the channel, as (run,
    coefficient) segments: run is a range of a with that nonzero
    coefficient.  A constant generic part is cut only at the keys of the
    series' deviations in range and at the halved midpoint, where coeff
    reads the value; a non-constant one gives one-index segments.  The
    states (_run_state) come out strictly in print order, state
    descending: from a to a + 1 one unit moves from the larger created
    part to the smaller, which lowers the partition in dominance order and
    so lexicographically.  Empty unless d < -1."""
    d = series.d
    poly = series.poly
    lo, hi = d + 1, d // 2
    const, cuts = None, range(lo, hi + 1)
    if poly.is_constant():
        const = poly.constant_value()
        cuts = {a for a in series.dev if lo <= a <= hi}
        cuts = sorted(cuts | {hi} if 2 * hi == d else cuts)
    for a in cuts:
        if const and lo < a:
            yield range(lo, a), const
        c = series.coeff(a)
        if c:
            yield range(a, a + 1), ratio(c, 2) if 2 * a == d else c
        lo = a + 1
    if const and lo <= hi:
        yield range(lo, hi + 1), const

def _run_state(state, ch: int, d: int, a: int) -> tuple:
    """The state that the run's pair at a makes from state: _moved puts
    the parts -a >= a - d into channel ch."""
    return state[:ch] + (_moved(state[ch], 0, (-a, a - d)),) + state[ch + 1:]

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
    diagonal with d < -1 comes as _created_run's lazy (run, coefficient)
    segments, with `run` true, and _run_state makes the state of each a."""
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
    channel = as_int(channel, "channel")
    if not 1 <= channel <= v.rank:
        raise ValueError("channel out of range")
    ch = channel - 1
    out = {}
    for state, c in v.terms.items():
        for d, images, run in _images(A, state, ch):
            if run:
                images = ((_run_state(state, ch, d, a), w)
                          for segment, w in images for a in segment)
            if c != 1:
                images = [(st2, c * w) for st2, w in images]
            for st2, w in images:
                got = out.get(st2)
                out[st2] = w if got is None else got + w
    return FockVector(v.rank, out)

# Labels per block of term_labels; the CLI writes each block at once.
BLOCK = 1024

def term_labels(A: QuadraticElement, state):
    """The terms of A on channel 1 of one basis state as fock-apply prints
    them, apply_quadratic(A, FockVector.basis(state)).terms_sorted(), as
    blocks (coefficient, labels): labels is a non-empty list of at most
    BLOCK format_label texts of consecutive terms, in print order, that
    share the coefficient, and a block ends only where the coefficient
    changes or at BLOCK labels.  The state is checked by basis at the
    call; the stream holds one block at a time.

    Each diagonal has its own offset, so a target degree holds at most one
    run, and no other image of that degree shares a state with it: a run
    adds two parts to the channel, any other image at most one."""
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
    return _blocks(state, _merged(state, runs, others))

def _merged(state, runs, others):
    """Degree by degree, the nonzero sums, sorted, and then the run, in
    print order, as spans (coefficient, d, terms): terms is the one-label
    list of a sum, with d None, or a range of a in the run of offset d.
    No sum falls inside a run: the mode b_d and the pairs of offset d that
    annihilate a part put in a part of at least -d, and the run's created
    parts -a and a - d are both below -d, so each sum is the larger state
    at the first place where its channel 1 differs from the run state's."""
    for deg in sorted(runs.keys() | others.keys()):
        for st, c in sorted(others.get(deg, {}).items(), reverse=True):
            if c:
                yield rat(c), None, [format_label(st)]
        d, segments = runs.get(deg, (None, ()))
        for run, c in segments:
            yield c, d, run

def _blocks(state, spans):
    """The spans of _merged as term_labels' blocks: a span joins the open
    block while its coefficient stays and the block has room.  A run's
    labels are made a batch at a time, from the first a that has none, as
    many as the open block has room for; the run's next spans take theirs
    from the batch, so one-index segments need no _run_labels call each."""
    c0, block = None, []
    dm, made, text = None, range(0), []
    for c, d, terms in spans:
        while terms:
            if block and (c != c0 or len(block) == BLOCK):
                yield c0, block
                block = []
            c0, room = c, BLOCK - len(block)
            if d is None:
                take, terms = terms[:room], terms[room:]
            else:
                a = terms[0]
                if d != dm or a not in made:
                    dm, made = d, range(a, min(a + room, d // 2 + 1))
                    text = _run_labels(state, d, made)
                k = a - made.start
                n = min(room, len(terms), len(made) - k)
                take, terms = text[k:k + n], terms[n:]
            block += take
    if block:
        yield c0, block

# _DIGITS[i] is i in three digits: a number n of at least 1000 is written
# str(n // 1000) + _DIGITS[n % 1000].
_DIGITS = [f"{i:03d}" for i in range(1000)]

def _run_labels(state, d: int, run: range) -> list:
    """The labels of the states of the run of offset d on channel 1 of
    state, for a in run.  Between two parts of the channel the insertion
    points i of -a and j of a - d stay fixed, so there each label is pre +
    str(-a) + mid + str(a - d) + post, three strings cut from the state's
    text once per (i, j).  A window is cut again wherever -a or a - d
    crosses a multiple of 1000: inside a piece both keep their text above
    the last three digits, so once a - d reaches 1000 each label joins pre
    and mid, each with that text put on once per piece, post, and two
    slices of _DIGITS, one running down for -a and one up for a - d."""
    lam = state[0]
    if len(state) == 1:
        left, right = "[", "]"
    else:
        left = "(["
        right = "]|" + "|".join(map(format_partition, state[1:])) + ")"
    labels = []
    while run:
        a = run[0]
        i = bisect_left(lam, a, key=neg)
        j = bisect_left(lam, d - a, i, key=neg)
        # i grows once a >= 1 - lam[i], j falls once a >= lam[j-1] + d;
        # every a of the run is below 0
        end = min(1 - lam[i] if i < len(lam) else 0,
                  lam[j - 1] + d if j else 0)
        pre = left + "".join(f"{p}," for p in lam[:i])
        mid = "".join(f",{p}" for p in lam[i:j]) + ","
        post = "".join(f",{p}" for p in lam[j:]) + right
        window, run = run[:end - a], run[end - a:]
        while window:
            a = window[0]
            hx, lx = divmod(-a, 1000)
            hy, ly = divmod(a - d, 1000)
            n = min(len(window), lx + 1, 1000 - ly)
            if hy:
                u, v = pre + str(hx), mid + str(hy)
                labels += [f"{u}{x}{v}{y}{post}" for x, y in
                           zip(_DIGITS[lx::-1], _DIGITS[ly:ly + n])]
            else:
                labels += [f"{pre}{-a}{mid}{a - d}{post}" for a in window[:n]]
            window = window[n:]
    return labels

def virasoro(p: int, v: FockVector) -> FockVector:
    """L_p as the normal-ordered quadratic tau(p) on channel 1."""
    return apply_quadratic(tau(as_int(p, "p")), v)

def virasoro_all(p: int, v: FockVector) -> FockVector:
    """L_p summed over every channel of the tensor power."""
    out = FockVector(v.rank)
    for channel in range(1, v.rank + 1):
        out = out + apply_quadratic(tau(as_int(p, "p")), v, channel)
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
    channel = as_int(channel, "channel")
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
    if group_scalar is not None:
        raise ValueError("group_scalar is given, but A is not a number "
                         "operator")
    acc = v
    w = v
    k = 1
    while True:
        w = apply_quadratic(A, w, channel)
        if w.is_zero():
            return acc
        acc = acc + w.scale(ratio(1, factorial(k)))
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
    d, r = as_int(d, "degree"), as_int(r, "rank")
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
